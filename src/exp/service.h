// Heavy-traffic service mode: repeated consensus as a stream of instances.
//
// Everything else in exp/ is one-shot — build a world, decide once, tear it
// down (Sweep amortizes across a *batch* with fan-out-and-join). A deployed
// agreement service runs instead as an unbounded stream of instances, and
// its figures of merit are sustained instances/sec and tail decision
// latency. exp::Service models that: instances run in fixed windows on
// run_indexed_workers, each worker on its own warm TrialArena, and the
// calling thread folds every window in instance order before the next one
// starts. Cross-instance amortization is the perf core — between instances
// only the instance key changes (seed, strings); sampler slabs, engine
// queues and actor pools stay hot, so a warm instance allocates nothing
// (BM_WarmInstanceAllocations, CI-gated) and steady-state cost approaches
// pure protocol execution.
//
// Adversaries persist across instances (the service threat model): grudge-*
// attacks pin ONE corrupt roster for the whole stream, and slow-burn-churn
// ramps its churn fraction from instance to instance (ServicePlan).
//
// Determinism contract (same as Sweep's): the deterministic results —
// counts, simulated-time latency histograms, traffic — depend only on
// (config, base_seed, instances), never on worker count or arena warmth.
// Per-instance seeds are siphash(base_seed, instance); outcomes are folded
// in instance order; ServiceStats::fingerprint() is pinned by
// tests/service_test.cpp. Wall-clock load (instances/sec, wall-latency
// quantiles) is kept strictly apart in ServiceLoad and never fingerprinted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/aggregate.h"
#include "exp/arena.h"
#include "exp/stats.h"

namespace fba::exp {

struct ServiceConfig {
  /// Per-instance template; seed (and, under a ramping fault, fault_plan)
  /// is overwritten per instance.
  aer::AerConfig base;
  std::string attack = "none";  ///< attack name; grudge-* persists a roster.
  std::string fault;            ///< fault preset; slow-burn-churn ramps.
  std::uint64_t base_seed = 20130722;
  std::uint64_t instances = 64;
  /// Worker threads, each with its own warm TrialArena; capped at the
  /// instance count. 1 runs every instance inline on the calling thread;
  /// results are bit-identical at any value.
  std::size_t workers = 1;
  /// false = cold A/B baseline: every instance rebuilds its world from
  /// nothing (TrialArena::clear between instances). Same results, no
  /// amortization — what bench_service measures the warm path against.
  bool warm = true;
};

/// Derived per-instance seed: siphash(base_seed, instance), 0 remapped to 1
/// (mirrors exp::trial_seed, distinct key so service streams and sweeps
/// never collide).
std::uint64_t instance_seed(std::uint64_t base_seed, std::uint64_t instance);

/// The resolved, instance-invariant half of a service run: strategy
/// factory, grudge roster (drawn once from the service seed), base fault
/// plan. Constructing a plan validates the attack/fault names; per-instance
/// state is derived through configure()/run_instance() with no allocation
/// on the warm path.
class ServicePlan {
 public:
  ServicePlan() = default;
  explicit ServicePlan(const ServiceConfig& config);

  const ServiceConfig& config() const { return config_; }
  bool grudge() const { return grudge_; }
  /// The fixed corrupt roster grudge-* attacks pin across every instance
  /// (empty for non-grudge attacks).
  const std::vector<NodeId>& grudge_roster() const { return roster_; }

  /// Writes instance `i`'s exact AerConfig into `cfg` — seed, (ramped)
  /// fault plan. `cfg` should persist per worker: the write reuses its
  /// vector capacity, keeping the warm path allocation-free.
  void configure(aer::AerConfig& cfg, std::uint64_t instance) const;

  /// One full instance through `arena`: re-key (seed/strings only; slabs,
  /// queues and pools stay hot), run under the persistent adversary,
  /// harvest into `out`. Accumulates the setup/run split into arena.timing.
  void run_instance(std::uint64_t instance, aer::AerConfig& cfg,
                    TrialArena& arena, TrialOutcome& out) const;

 private:
  ServiceConfig config_;
  aer::StrategyFactory strategy_;
  sim::FaultPlan base_fault_plan_;
  std::vector<NodeId> roster_;
  bool grudge_ = false;
  bool slow_burn_ = false;
};

/// Deterministic stream results: counts plus constant-memory latency /
/// traffic histograms (StreamingStats — no per-instance sample storage, so
/// the stream length is unbounded). fold() MUST be called in instance
/// order; run_service guarantees it.
struct ServiceStats {
  std::uint64_t instances = 0;
  std::uint64_t agreements = 0;
  std::uint64_t engine_incomplete = 0;
  std::uint64_t wrong_decisions = 0;
  std::uint64_t stalled_nodes = 0;
  std::uint64_t correct_nodes = 0;

  StreamingStats instance_latency;  ///< per-instance completion time.
  StreamingStats decision_latency;  ///< pooled per-node decision times.
  StreamingStats amortized_bits;
  StreamingStats total_messages;
  StreamingStats fault_dropped_msgs;

  void fold(const TrialOutcome& out);

  double agreement_rate() const {
    return instances ? static_cast<double>(agreements) /
                           static_cast<double>(instances)
                     : 0;
  }
  double decided_fraction() const {
    return correct_nodes ? 1.0 - static_cast<double>(stalled_nodes) /
                                     static_cast<double>(correct_nodes)
                         : 0;
  }

  /// Order-sensitive hash of every deterministic field (counts, histogram
  /// buckets, moment bit patterns). The service counterpart of
  /// Aggregate::fingerprint(); service_test pins values and worker-count
  /// independence.
  std::uint64_t fingerprint() const;

  /// Bridges into the Report machinery: an Aggregate whose five streamed
  /// stats come from the histograms (quantiles) and exact moments, counts
  /// copied, everything else zero. Deterministic, so the report fingerprint
  /// / baseline diff / --validate path works unchanged on service points.
  Aggregate to_aggregate() const;
};

/// Wall-clock side of a run. Environment-dependent by definition — kept out
/// of ServiceStats, the fingerprint, and Report::diff (serialized only as
/// the report's informational `load` block, docs/output-schema.md v3).
struct ServiceLoad {
  double wall_seconds = 0;
  double instances_per_sec = 0;
  StreamingStats instance_wall_ms;  ///< per-instance wall latency (ms).
};

struct ServiceResult {
  ServiceStats stats;
  ServiceLoad load;
  TrialTiming timing;  ///< summed across workers (setup vs run split).
};

/// Runs the stream in windows of 32 instances per worker on
/// run_indexed_workers (inline when one worker is used), one warm
/// TrialArena per worker, folding each window in instance order before the
/// next starts — so memory stays flat at any stream length. The first
/// instance failure is rethrown once its window has joined. Bit-identical
/// ServiceStats at any worker count or warmth.
ServiceResult run_service(const ServiceConfig& config);

}  // namespace fba::exp
