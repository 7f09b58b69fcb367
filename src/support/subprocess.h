// POSIX subprocess and pipe plumbing for the multi-process sweep runner
// (exp/procpool.h). Thin, deliberately boring wrappers: fork a child
// running a caller-supplied function on its end of a socketpair, EINTR-safe
// reads/writes, kill-and-reap. All policy (task dealing, heartbeats,
// retries) lives in the procpool; this header only hides the syscall
// bookkeeping.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <functional>
#include <string>

namespace fba::support {

/// One forked worker: its pid and the parent's end of the socketpair.
struct ChildProc {
  pid_t pid = -1;
  int fd = -1;

  bool alive() const { return pid > 0; }
};

/// Forks a child connected to the parent by a SOCK_STREAM socketpair. The
/// child runs `child_main(child_fd)` and _exits with its return value —
/// it never returns into the caller's stack (no atexit handlers, no
/// destructors, no gtest teardown). Throws ConfigError when the socketpair
/// or fork syscall fails. The parent's end is close-on-exec.
ChildProc spawn_child(const std::function<int(int)>& child_main);

/// EINTR-safe full write. Returns false on any other error (EPIPE after a
/// child died — the caller treats the worker as crashed; SIGPIPE must be
/// ignored, see ScopedSigpipeIgnore).
bool write_all(int fd, const void* data, std::size_t len);

/// EINTR-safe single read of at most `cap` bytes appended to `out`.
/// Returns the byte count, 0 on EOF, -1 on error.
long read_some(int fd, std::string& out, std::size_t cap);

/// Sends `sig` (when the child is alive) and reaps it, blocking until the
/// zombie is collected; closes the parent fd. Safe to call twice.
void kill_and_reap(ChildProc& child, int sig);

/// Reaps a child that is expected to exit on its own (after a quit
/// message); escalates to SIGKILL when it has not exited within
/// `grace_seconds`. Closes the parent fd.
void reap_with_grace(ChildProc& child, double grace_seconds);

/// Ignores SIGPIPE for the enclosing scope (writes to a crashed worker
/// must fail with EPIPE, not kill the parent), restoring the previous
/// disposition on destruction.
class ScopedSigpipeIgnore {
 public:
  ScopedSigpipeIgnore();
  ~ScopedSigpipeIgnore();
  ScopedSigpipeIgnore(const ScopedSigpipeIgnore&) = delete;
  ScopedSigpipeIgnore& operator=(const ScopedSigpipeIgnore&) = delete;

 private:
  void (*previous_)(int);
};

}  // namespace fba::support
