#include "exp/service.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "adversary/adversary.h"
#include "exp/scenario.h"
#include "exp/sweep.h"
#include "support/siphash.h"

namespace fba::exp {

std::uint64_t instance_seed(std::uint64_t base_seed, std::uint64_t instance) {
  // Distinct SipHash key from exp::trial_seed's, so a service stream and a
  // sweep on the same base seed draw unrelated instance seeds.
  const std::uint64_t seed =
      siphash_words(SipKey{base_seed, 0x7376632d696e7374ull}, {instance});
  return seed == 0 ? 1 : seed;
}

// ----- ServicePlan -----------------------------------------------------------

ServicePlan::ServicePlan(const ServiceConfig& config) : config_(config) {
  // Resolving the names up front validates them (ConfigError on typos) and
  // moves every allocation out of the per-instance path.
  strategy_ = attack_factory(config.attack);
  base_fault_plan_ = fault_plan_factory(config.fault);
  grudge_ = is_grudge_attack(config.attack);
  slow_burn_ = config.fault == "slow-burn-churn";
  if (grudge_) {
    // The grudge roster: drawn ONCE from the service seed (not from any
    // instance seed), then pinned across the whole stream. Keyed separately
    // from instance_seed so roster and instance randomness are unrelated.
    const std::size_t n = config.base.n;
    const std::size_t t = config.base.resolved_t();
    Rng grudge_rng(
        siphash_words(SipKey{config.base_seed, 0x7376632d67727564ull},
                      {static_cast<std::uint64_t>(n)}));
    roster_ = adv::random_corruption(n, t, grudge_rng);
  }
}

void ServicePlan::configure(aer::AerConfig& cfg, std::uint64_t instance) const {
  cfg = config_.base;  // vector members copy-assign with capacity reuse.
  cfg.seed = instance_seed(config_.base_seed, instance);
  cfg.fault_plan = base_fault_plan_;
  if (slow_burn_) {
    // The slow burn: churn ramps linearly 5% -> 25% over the first 32
    // instances, then stays at 25% — a service-lifetime degradation no
    // single-trial preset can express. Pure function of the instance index,
    // so any worker computes the same plan.
    const double ramp =
        std::min(1.0, static_cast<double>(instance) / 32.0);
    cfg.fault_plan.churns.front().fraction = 0.05 + 0.20 * ramp;
  }
}

void ServicePlan::run_instance(std::uint64_t instance, aer::AerConfig& cfg,
                               TrialArena& arena, TrialOutcome& out) const {
  using clock = std::chrono::steady_clock;
  configure(cfg, instance);
  const auto t0 = clock::now();
  if (grudge_) {
    aer::build_aer_world_into(arena.world, cfg, roster_);
  } else {
    aer::build_aer_world_into(arena.world, cfg);
  }
  const auto t1 = clock::now();
  const aer::AerReport report =
      aer::run_aer_world_arena(arena.world, arena.run, strategy_);
  outcome_into(report, arena.world, out);
  out.seed = cfg.seed;
  const auto t2 = clock::now();
  arena.timing.setup_seconds += std::chrono::duration<double>(t1 - t0).count();
  arena.timing.run_seconds += std::chrono::duration<double>(t2 - t1).count();
  ++arena.timing.trials;
}

// ----- ServiceStats ----------------------------------------------------------

void ServiceStats::fold(const TrialOutcome& out) {
  ++instances;
  agreements += out.agreement ? 1 : 0;
  engine_incomplete += out.engine_completed ? 0 : 1;
  wrong_decisions += out.wrong_decisions;
  stalled_nodes += out.correct - out.decided;
  correct_nodes += out.correct;
  instance_latency.add(out.completion_time);
  for (double t : out.decision_times) decision_latency.add(t);
  amortized_bits.add(out.amortized_bits);
  total_messages.add(out.total_messages);
  fault_dropped_msgs.add(out.fault_dropped_msgs);
}

namespace {

void hash_words(std::uint64_t& h, std::initializer_list<std::uint64_t> words) {
  h = siphash_words(SipKey{h, 0x53766353ull}, words);  // "SvcS"
}

void hash_double_bits(std::uint64_t& h, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  hash_words(h, {bits});
}

void hash_stream(std::uint64_t& h, const StreamingStats& s) {
  hash_words(h, {s.count()});
  hash_double_bits(h, s.total());
  hash_double_bits(h, s.sum_squares());
  hash_double_bits(h, s.min());
  hash_double_bits(h, s.max());
  // Sparse bucket walk: (index, count) pairs of the occupied buckets.
  const auto& buckets = s.buckets();
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] != 0) hash_words(h, {b, buckets[b]});
  }
}

}  // namespace

std::uint64_t ServiceStats::fingerprint() const {
  std::uint64_t h = 0x6662612073766300ull;  // "fba svc"
  hash_words(h, {instances, agreements, engine_incomplete, wrong_decisions,
                 stalled_nodes, correct_nodes});
  for (const StreamingStats* s :
       {&instance_latency, &decision_latency, &amortized_bits,
        &total_messages, &fault_dropped_msgs}) {
    hash_stream(h, *s);
  }
  return h;
}

Aggregate ServiceStats::to_aggregate() const {
  Aggregate a;
  a.trials = static_cast<std::size_t>(instances);
  a.agreements = static_cast<std::size_t>(agreements);
  a.engine_incomplete = static_cast<std::size_t>(engine_incomplete);
  a.wrong_decisions = wrong_decisions;
  a.stalled_nodes = stalled_nodes;
  a.correct_nodes = correct_nodes;
  a.completion_time = instance_latency.summary();
  a.decision_time = decision_latency.summary();
  a.amortized_bits = amortized_bits.summary();
  a.total_messages = total_messages.summary();
  a.fault_dropped_msgs = fault_dropped_msgs.summary();
  return a;
}

// ----- run_service -----------------------------------------------------------

namespace {

using clock = std::chrono::steady_clock;

/// Instances per worker in one window. A window's end is a barrier: workers
/// that finish early idle until its last instance lands. At 32 per worker
/// that idle time is noise in bench_service's 4-worker throughput; 4 and 8
/// per worker cost 16% and 8% (docs/perf.md "Service mode").
constexpr std::size_t kWindowPerWorker = 32;

/// What one worker keeps warm across the instances it runs.
struct ServiceWorker {
  TrialArena arena;
  aer::AerConfig cfg;
};

/// One instance's result, held until its window is folded.
struct InstanceSlot {
  TrialOutcome out;
  double wall_ms = 0;
};

}  // namespace

ServiceResult run_service(const ServiceConfig& config) {
  const ServicePlan plan(config);
  const std::uint64_t total = config.instances;
  // No more workers (and arenas) than there are instances to run.
  const auto workers = static_cast<std::size_t>(std::clamp<std::uint64_t>(
      config.workers, 1, std::max<std::uint64_t>(total, 1)));
  std::vector<ServiceWorker> pool(workers);  // built in place, never moved.
  std::vector<InstanceSlot> window(static_cast<std::size_t>(
      std::min<std::uint64_t>(total, kWindowPerWorker * workers)));

  ServiceResult result;
  const auto wall0 = clock::now();
  for (std::uint64_t begin = 0; begin < total; begin += window.size()) {
    const auto size = static_cast<std::size_t>(
        std::min<std::uint64_t>(window.size(), total - begin));
    run_indexed_workers(size, workers, [&](std::size_t w, std::size_t k) {
      ServiceWorker& worker = pool[w];
      if (!config.warm) worker.arena.clear();
      const auto t0 = clock::now();
      plan.run_instance(begin + k, worker.cfg, worker.arena, window[k].out);
      window[k].wall_ms =
          std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    });
    for (std::size_t k = 0; k < size; ++k) {
      result.stats.fold(window[k].out);
      result.load.instance_wall_ms.add(window[k].wall_ms);
    }
  }
  result.load.wall_seconds =
      std::chrono::duration<double>(clock::now() - wall0).count();
  if (result.load.wall_seconds > 0) {
    result.load.instances_per_sec =
        static_cast<double>(result.stats.instances) /
        result.load.wall_seconds;
  }
  for (const ServiceWorker& w : pool) result.timing.add(w.arena.timing);
  return result;
}

}  // namespace fba::exp
