#include "support/subprocess.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <ctime>

#include "support/types.h"

namespace fba::support {

ChildProc spawn_child(const std::function<int(int)>& child_main) {
  FBA_REQUIRE(static_cast<bool>(child_main), "spawn_child needs a child main");
  int sv[2];
  FBA_REQUIRE(socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
              "socketpair failed: " + std::string(std::strerror(errno)));

  // Flush before fork so buffered stdio is not emitted twice.
  std::fflush(stdout);
  std::fflush(stderr);

  const pid_t pid = fork();
  if (pid < 0) {
    close(sv[0]);
    close(sv[1]);
    FBA_REQUIRE(false, "fork failed: " + std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    // Child. The parent coordinates shutdown (including SIGINT draining),
    // so the worker ignores SIGINT — a terminal Ctrl-C hits the whole
    // process group, and a worker dying mid-trial would masquerade as a
    // crash while the parent is trying to drain.
    signal(SIGINT, SIG_IGN);
    close(sv[0]);
    _exit(child_main(sv[1]));
  }
  close(sv[1]);
  fcntl(sv[0], F_SETFD, FD_CLOEXEC);
  return ChildProc{pid, sv[0]};
}

bool write_all(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

long read_some(int fd, std::string& out, std::size_t cap) {
  char buf[4096];
  if (cap > sizeof(buf)) cap = sizeof(buf);
  while (true) {
    const ssize_t n = read(fd, buf, cap);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    out.append(buf, static_cast<std::size_t>(n));
    return static_cast<long>(n);
  }
}

void kill_and_reap(ChildProc& child, int sig) {
  if (child.pid > 0) {
    kill(child.pid, sig);
    int status = 0;
    while (waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
    }
    child.pid = -1;
  }
  if (child.fd >= 0) {
    close(child.fd);
    child.fd = -1;
  }
}

void reap_with_grace(ChildProc& child, double grace_seconds) {
  if (child.pid > 0) {
    const timespec nap{0, 20 * 1000 * 1000};  // 20ms poll cadence
    double waited = 0;
    while (true) {
      int status = 0;
      const pid_t r = waitpid(child.pid, &status, WNOHANG);
      if (r == child.pid || (r < 0 && errno != EINTR)) {
        child.pid = -1;
        break;
      }
      if (waited >= grace_seconds) {
        kill_and_reap(child, SIGKILL);
        return;
      }
      nanosleep(&nap, nullptr);
      waited += 0.02;
    }
  }
  if (child.fd >= 0) {
    close(child.fd);
    child.fd = -1;
  }
}

ScopedSigpipeIgnore::ScopedSigpipeIgnore()
    : previous_(signal(SIGPIPE, SIG_IGN)) {}

ScopedSigpipeIgnore::~ScopedSigpipeIgnore() { signal(SIGPIPE, previous_); }

}  // namespace fba::support
