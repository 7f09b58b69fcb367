// fba_bench: the repository's benchmark program.
//
//   fba_bench --workload=<name> --seed=<s> [--seconds=S] [--trace[=0|1]]
//             [--json=FILE]
//   fba_bench --compare [--spec=BENCHMARK.json] A1.json ... -- B1.json ...
//
// A run sets its workload up from nothing several times (setup_s is the
// median), runs the seed's fixed trial set once as the reference, then
// repeats it for --seconds (a repeat that would end past them is not
// started), checking every repeat against the reference. Untraced, it
// prints the end-to-end metrics; traced, it alternates untraced and traced
// passes and prints the per-layer metrics. Every line is
// "<name> <value> <unit>"; the last line is one JSON object with the
// verdict and the metrics.
//
// One process, one thread, closed loop: the next trial starts when the
// previous one returns.
//
// Exit codes: 0 ok, 1 a wrong or irreproducible result (or a --compare
// failure), 2 bad command line or input file.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "compare.h"
#include "exp/stats.h"
#include "metrics.h"
#include "support/json.h"
#include "support/mem.h"
#include "support/types.h"
#include "trace.h"
#include "workloads.h"

namespace fba::bench {
namespace {

constexpr std::uint64_t kCanonicalSeed = 20130722;
constexpr int kDefaultSeconds = 20;
constexpr int kMaxSeconds = 3600;
/// setup_s is the median of this many cold set-ups.
constexpr int kSetupReps = 5;

constexpr const char* kWorkloads =
    "ba-fig1b, service-n64, async-lossy-arq, scale-5e3";
constexpr const char* kUsage =
    "usage: fba_bench --workload=NAME [--seed=N] [--seconds=S] [--trace[=0|1]]"
    " [--json=FILE]\n"
    "       fba_bench --compare [--spec=FILE] A.json... -- B.json...\n"
    "workloads: %s\n";

struct Options {
  std::string workload;
  std::uint64_t seed = kCanonicalSeed;
  int seconds = kDefaultSeconds;
  bool trace = false;
  std::string json_path;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "fba_bench: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

Options parse_run_flags(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&arg](std::string_view flag) {
      return arg.substr(flag.size());
    };
    if (arg.starts_with("--workload=")) {
      opt.workload = value("--workload=");
      have_workload = true;
    } else if (arg.starts_with("--seed=")) {
      if (!parse_number(value("--seed="), opt.seed) || opt.seed == 0) {
        usage_error("--seed wants a positive integer below 2^64, got '" +
                    std::string(value("--seed=")) + "'");
      }
    } else if (arg.starts_with("--seconds=")) {
      if (!parse_number(value("--seconds="), opt.seconds) ||
          opt.seconds < 1 || opt.seconds > kMaxSeconds) {
        usage_error("--seconds wants an integer in [1, 3600], got '" +
                    std::string(value("--seconds=")) + "'");
      }
    } else if (arg == "--trace" || arg == "--trace=1") {
      opt.trace = true;
    } else if (arg == "--trace=0") {
      opt.trace = false;
    } else if (arg.starts_with("--json=") && arg.size() > 7) {
      opt.json_path = value("--json=");
    } else {
      usage_error("unknown argument '" + std::string(arg) + "' (see --help)");
    }
  }
  if (!have_workload) usage_error("--workload is required (see --help)");
  if (make_workload(opt.workload, opt.seed) == nullptr) {
    usage_error("unknown workload '" + opt.workload + "' (known: " +
                kWorkloads + ")");
  }
  return opt;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// What a run reports: metrics in table order plus the verdict.
struct RunOutput {
  std::vector<std::pair<const MetricDef*, double>> metrics;
  std::size_t trials = 0;   ///< trials in the pass (trial_ms_p50's sample).
  std::size_t repeats = 0;  ///< timed repeats each trial's best is taken from.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool reproducible = true;  ///< every repeat and traced pass matched.
  std::uint64_t result_fp = 0;

  bool correct() const { return failed == 0 && reproducible; }
};

/// Counts a pass's trials and output failures; for a repeat, also checks
/// each trial against the reference pass (a differing trial fails).
void count_pass(const PassResult& reference, const PassResult& pass,
                RunOutput& out) {
  out.attempted += pass.trial_ms.size();
  out.failed += pass.bad_trials;
  if (&pass == &reference) return;
  std::uint64_t mismatched = 0;
  for (std::size_t t = 0; t < reference.trial_fps.size(); ++t) {
    if (t >= pass.trial_fps.size() ||
        pass.trial_fps[t] != reference.trial_fps[t]) {
      ++mismatched;
    }
  }
  out.failed += mismatched;
  out.reproducible = out.reproducible && mismatched == 0 &&
                     pass.result_fp == reference.result_fp &&
                     pass.trial_fps.size() == reference.trial_fps.size();
}

/// Each trial's best wall time over the timed repeats. The host is shared
/// and its speed wavers from second to second; a trial's fastest repeat is
/// the least disturbed reading of what it costs.
class BestTimes {
 public:
  void add(const PassResult& pass) {
    if (best_.empty()) {
      best_ = pass.trial_ms;
    } else {
      for (std::size_t t = 0; t < best_.size(); ++t) {
        best_[t] = std::min(best_[t], pass.trial_ms[t]);
      }
    }
    ++repeats_;
  }
  std::size_t trials() const { return best_.size(); }
  std::size_t repeats() const { return repeats_; }
  double total_ms() const {
    double sum = 0;
    for (double ms : best_) sum += ms;
    return sum;
  }
  double median_ms() const { return exp::summarize_sample(best_).p50; }

 private:
  std::vector<double> best_;
  std::size_t repeats_ = 0;
};

double elapsed_s(Clock::time_point start) {
  return ms_since(start, Clock::now()) / 1e3;
}

/// The host's speed, read from a fixed loop that calls no library code: an
/// integer-hash chain (CPU-bound), then a random walk over a 64 MiB table
/// (bound by the shared cache and memory). Other tenants of the shared host
/// slow whole minutes of runs by 15-100%, CPU-bound and memory-bound code
/// alike, and the loop slows with them. A run scales its wall times by
/// kReferenceMs / (the loop's best time in that run), which reports them at
/// one fixed host speed: the loop's time on an idle host.
class HostSpeed {
 public:
  HostSpeed() : table_(kTableWords, 1) {}

  void sample() {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < kHashSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    auto j = static_cast<std::uint32_t>(x);
    for (int i = 0; i < kWalkSteps; ++i) {
      j = j * 1664525u + 1013904223u;
      x += table_[j >> 8]++;
    }
    sink_ = x;
    best_ms_ = std::min(best_ms_, ms_since(t0, Clock::now()));
  }

  /// Wall time x factor() = time at the reference speed.
  double factor() const { return kReferenceMs / best_ms_; }

 private:
  static constexpr int kHashSteps = 20'000'000;
  static constexpr int kWalkSteps = 4'000'000;
  static constexpr std::size_t kTableWords = std::size_t{1} << 24;
  static constexpr double kReferenceMs = 85.0;

  std::vector<std::uint32_t> table_;
  double best_ms_ = std::numeric_limits<double>::infinity();
  volatile std::uint64_t sink_ = 0;
};

RunOutput run_untraced(const Options& opt) {
  RunOutput out;
  // Each repetition sets up a fresh workload object, with the previous one
  // already destroyed and neither step timed.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.reset();
    w = make_workload(opt.workload, opt.seed);
    const auto t0 = Clock::now();
    w->setup();
    setup_s.push_back(elapsed_s(t0));
  }

  // The reference pass warms what set-up left cold and fixes the results
  // every timed repeat must reproduce. The repeats reuse its memory, so the
  // peak RSS is read before the host-speed table exists.
  const PassResult reference = w->run_pass();
  count_pass(reference, reference, out);
  const double peak_rss_mb =
      static_cast<double>(support::peak_rss_bytes()) / (1024.0 * 1024.0);

  HostSpeed host;
  BestTimes best;
  const auto start = Clock::now();
  double pass_s = 0;
  while (best.repeats() == 0 || elapsed_s(start) + pass_s <= opt.seconds) {
    const auto pass_start = Clock::now();
    host.sample();
    const PassResult again = w->run_pass();
    pass_s = elapsed_s(pass_start);
    count_pass(reference, again, out);
    best.add(again);
  }
  host.sample();
  const double f = host.factor();

  const double values[] = {
      1e3 * static_cast<double>(best.trials()) / (best.total_ms() * f),
      best.median_ms() * f,
      exp::summarize_sample(setup_s).p50 * f,
      peak_rss_mb,
      reference.amortized_bits,
      reference.decision_rounds,
      reference.decided_frac,
  };
  static_assert(std::size(values) == kNumEndToEnd);
  for (std::size_t i = 0; i < kNumEndToEnd; ++i) {
    out.metrics.emplace_back(&kEndToEnd[i], values[i]);
  }
  out.trials = best.trials();
  out.repeats = best.repeats();
  out.result_fp = reference.result_fp;
  return out;
}

/// Merges per-pass layer sums: exact metrics come from the first traced
/// pass alone (every pass repeats the same trials), measured ones pool all.
void merge_layers(const LayerPass& pass, bool first, LayerPass& into) {
  for (const auto& [name, acc] : pass.acc) {
    const MetricDef* def = find_metric(name);
    FBA_ASSERT(def != nullptr, "undeclared layer metric " + name);
    if (def->kind == Kind::kExact && !first) continue;
    LayerPass::Acc& target = into.acc[name];
    target.sum += acc.sum;
    target.count += acc.count;
  }
  into.covered_ms += pass.covered_ms;
  into.wall_ms += pass.wall_ms;
}

/// Alternates untraced and traced passes; the overhead compares each
/// trial's best time in both.
RunOutput run_traced(const Options& opt) {
  RunOutput out;
  const std::unique_ptr<Workload> w = make_workload(opt.workload, opt.seed);
  w->setup();
  const PassResult reference = w->run_pass();
  count_pass(reference, reference, out);

  LayerPass layers;
  BestTimes untraced_best, traced_best;
  double traced_ms = 0;
  std::uint64_t traced_trials = 0;
  const auto start = Clock::now();
  double pair_s = 0;
  for (bool first = true; first || elapsed_s(start) + pair_s <= opt.seconds;
       first = false) {
    const auto pair_start = Clock::now();
    const PassResult untraced = w->run_pass();
    count_pass(reference, untraced, out);
    untraced_best.add(untraced);
    LayerPass pass_layers;
    const PassResult traced = w->run_traced_pass(pass_layers);
    count_pass(reference, traced, out);
    traced_best.add(traced);
    merge_layers(pass_layers, first, layers);
    for (double ms : traced.trial_ms) traced_ms += ms;
    traced_trials += traced.trial_ms.size();
    pair_s = elapsed_s(pair_start);
  }
  LayerPass probes;
  w->probe(probes);
  merge_layers(probes, true, layers);

  layers.set("bench.trace_overhead",
             traced_best.total_ms() / untraced_best.total_ms() - 1.0);
  layers.set("bench.span_coverage", layers.covered_ms / layers.wall_ms);
  layers.set("bench.traced_trial_ms",
             traced_ms / static_cast<double>(traced_trials));
  for (const MetricDef& m : kPerLayer) {
    const auto it = layers.acc.find(m.name);
    const double value =
        it == layers.acc.end() || it->second.count == 0
            ? 0.0
            : it->second.sum / static_cast<double>(it->second.count);
    out.metrics.emplace_back(&m, value);
  }
  out.result_fp = reference.result_fp;
  return out;
}

void print(const Options& opt, const RunOutput& out) {
  for (const auto& [def, value] : out.metrics) {
    if (std::strcmp(def->name, "trial_ms_p50") == 0) {
      std::printf("%s %.6g %s n=%zu best_of=%zu\n", def->name, value,
                  def->unit, out.trials, out.repeats);
    } else {
      std::printf("%s %.6g %s\n", def->name, value, def->unit);
    }
  }
  std::printf("result_fp %s\n", hex(out.result_fp).c_str());

  // The last line: one JSON object, values with all their digits.
  std::string line = "{\"correct\": ";
  line += out.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [def, value] = out.metrics[i];
    if (i > 0) line += ", ";
    line += "\"" + std::string(def->name) + "\": {\"value\": " +
            json::number_to_string(value) + ", \"unit\": \"" + def->unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);

  if (!opt.json_path.empty()) {
    json::Value doc = json::Value::object();
    doc.set("workload", opt.workload);
    doc.set("seed", std::to_string(opt.seed));
    doc.set("trace", opt.trace ? 1 : 0);
    doc.set("correct", out.correct());
    doc.set("attempted", out.attempted);
    doc.set("failed", out.failed);
    doc.set("result_fp", hex(out.result_fp));
    json::Value metrics = json::Value::object();
    for (const auto& [def, value] : out.metrics) {
      json::Value m = json::Value::object();
      m.set("value", value);
      m.set("unit", def->unit);
      metrics.set(def->name, std::move(m));
    }
    doc.set("metrics", std::move(metrics));
    std::ofstream file(opt.json_path);
    file << doc.dump();
    if (!file.flush()) throw ConfigError("cannot write " + opt.json_path);
  }
}

int compare_main(int argc, char** argv) {
  std::string spec = "BENCHMARK.json";
  std::vector<std::string> a, b;
  bool after_separator = false;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--") {
      if (after_separator) usage_error("--compare takes one '--' separator");
      after_separator = true;
    } else if (arg.starts_with("--spec=") && arg.size() > 7) {
      spec = arg.substr(7);
    } else if (arg.starts_with("--")) {
      usage_error("unknown argument '" + std::string(arg) + "' (see --help)");
    } else {
      (after_separator ? b : a).emplace_back(arg);
    }
  }
  if (a.empty() || b.empty()) {
    usage_error("--compare wants A.json... -- B.json...");
  }
  return compare_runs(spec, a, b);
}

int run_main(int argc, char** argv) {
  const Options opt = parse_run_flags(argc, argv);
  const RunOutput out = opt.trace ? run_traced(opt) : run_untraced(opt);
  print(opt, out);
  return out.correct() ? 0 : 1;
}

}  // namespace
}  // namespace fba::bench

int main(int argc, char** argv) {
  using namespace fba::bench;
  if (argc > 1 && (std::strcmp(argv[1], "--help") == 0 ||
                   std::strcmp(argv[1], "-h") == 0)) {
    std::printf(kUsage, kWorkloads);
    return 0;
  }
  try {
    if (argc > 1 && std::strcmp(argv[1], "--compare") == 0) {
      return compare_main(argc, argv);
    }
    return run_main(argc, argv);
  } catch (const fba::ConfigError& e) {
    std::fprintf(stderr, "fba_bench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fba_bench: internal error: %s\n", e.what());
    return 1;
  }
}
