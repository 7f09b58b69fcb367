// The benchmark's four workloads. Each turns a workload seed into a fixed set
// of trials (the pass) and runs it through the library's public entry points,
// either untraced (the end-to-end numbers) or traced (the per-layer numbers,
// spans taken from outside the library: trace.h). Repeating a pass must
// reproduce every trial bit for bit; fba_bench checks that.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace fba::bench {

/// What one untraced or traced pass over the workload's trials produced.
struct PassResult {
  std::vector<double> trial_ms;  ///< wall time of each trial, in trial order.
  /// exp::outcome_fingerprint of each trial (covers every outcome field).
  std::vector<std::uint64_t> trial_fps;
  /// Aggregate::fingerprint() / ServiceStats::fingerprint() of the pass,
  /// folded in point order.
  std::uint64_t result_fp = 0;
  /// Trials whose output failed the workload's check (a wrong decision, or
  /// less liveness than the workload guarantees).
  std::uint64_t bad_trials = 0;

  // Deterministic end-to-end results of the pass.
  double amortized_bits = 0;   ///< mean over trials, bits/node.
  double decision_rounds = 0;  ///< mean over trials of the nodes' mean.
  double decided_frac = 0;     ///< correct deciders / correct nodes.
};

/// Per-layer sums of one pass: value = sum / count, where every trial that
/// contributes to a metric adds exactly one sample.
struct LayerPass {
  struct Acc {
    double sum = 0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Acc> acc;
  /// Top-level spans vs trial wall time, summed over traced trials.
  double covered_ms = 0;
  double wall_ms = 0;

  void add(const std::string& name, double value) {
    Acc& a = acc[name];
    a.sum += value;
    ++a.count;
  }
  /// Sets a once-per-run value (probes).
  void set(const std::string& name, double value) { acc[name] = {value, 1}; }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the workload's inputs and long-lived state from nothing and
  /// warms it; calling it again starts over. fba_bench times it.
  virtual void setup() = 0;

  /// One untraced pass.
  virtual PassResult run_pass() = 0;

  /// One traced pass over the same trials, adding per-trial spans to
  /// `layers`.
  virtual PassResult run_traced_pass(LayerPass& layers) = 0;

  /// Once-per-run probes of the layers a pass does not time per trial:
  /// report and shard I/O on the last traced pass's results, and sampler
  /// row builds on a fresh table.
  virtual void probe(LayerPass& layers) = 0;
};

/// nullptr when `name` is not a workload.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed);

}  // namespace fba::bench
