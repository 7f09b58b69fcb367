// Property-based randomized invariant suite: many seeded-random trials
// across (n, model, corrupt fraction, attack, fault preset), each asserting
// the protocol invariants that must hold under ANY composition of adversary
// and fault condition:
//   - safety    : a correct node decides the common string, unless corrupt
//                 nodes hold a slot majority of the poll list it decided
//                 through — the failure event Lemma 7 bounds w.h.p., which
//                 small d does reach;
//   - uniqueness: no correct node decides twice;
//   - validity  : with no attack, no faults and no corrupt nodes, every
//                 correct node decides the common string;
//   - accounting: per-kind and per-cause counters decompose the totals,
//                 and nothing is negative or inconsistent.
//
// The base seed is FBA_PROPERTY_SEED when set (CI derives it from the run
// id for soak coverage), else a fixed default so local runs are
// deterministic. FBA_PROPERTY_TRIALS overrides the trial count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "fba.h"

namespace fba {
namespace {

std::uint64_t property_seed() {
  if (const char* env = std::getenv("FBA_PROPERTY_SEED")) {
    const std::uint64_t seed = std::strtoull(env, nullptr, 10);
    if (seed != 0) return seed;
  }
  return 20130722;  // deterministic local default
}

std::size_t property_trials() {
  if (const char* env = std::getenv("FBA_PROPERTY_TRIALS")) {
    const std::size_t trials = std::strtoull(env, nullptr, 10);
    if (trials > 0) return trials;
  }
  return 220;  // the ISSUE floor is 200; leave headroom
}

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& axis) {
  return axis[static_cast<std::size_t>(rng.below(axis.size()))];
}

/// Lemma 7, exactly: a correct node x that decided s != gstring did so
/// through its poll list J(x, r_{x,s}), and only corrupt nodes (static or
/// runtime) holding a slot majority there explain that. This is the
/// failure event the lemma bounds w.h.p., and d = 8-9 reaches it. Fails the
/// test for every other wrong decision; returns how many there were.
std::size_t check_wrong_decisions(const aer::AerWorld& world,
                                  const aer::RunArena& arena) {
  std::vector<bool> bad(world.shared->config.n, false);
  for (NodeId id : world.view.corrupt) bad[id] = true;
  for (NodeId id : world.runtime_corrupt) bad[id] = true;
  std::size_t wrong = 0;
  for (NodeId x : world.correct) {
    if (!world.decisions.has_decided(x)) continue;
    const StringId s = world.decisions.value(x);
    if (s == world.shared->gstring) continue;
    ++wrong;
    const auto pull = arena.active[x]->pull_status(s);
    if (!pull.has_value()) {
      ADD_FAILURE() << "node " << x << " decided " << s << " without a pull";
      continue;
    }
    const sampler::QuorumView j = world.shared->poll_list(x, pull->r);
    std::size_t bad_slots = 0;
    for (std::size_t i = 0; i < j.size(); ++i) bad_slots += bad[j.slots[i]];
    EXPECT_GT(bad_slots * 2, j.size())
        << "node " << x << " decided " << s << " through J(" << x << ", "
        << pull->r << "), " << bad_slots << " of " << j.size()
        << " slots corrupt";
  }
  return wrong;
}

TEST(PropertyTest, RandomizedTrialsPreserveProtocolInvariants) {
  const std::uint64_t base_seed = property_seed();
  const std::size_t trials = property_trials();
  Rng axis_rng(base_seed);

  const std::vector<std::size_t> ns = {32, 48, 64};
  const std::vector<aer::Model> models = {aer::Model::kSyncNonRushing,
                                          aer::Model::kSyncRushing,
                                          aer::Model::kAsync};
  const std::vector<double> fractions = {0.0, 0.04, 0.08};
  // junk/skew variants with big string-search budgets are excluded to keep
  // the 200+ trial suite inside its CI time budget.
  const std::vector<std::string> attacks = {
      "none", "silent", "junk-light", "flood", "stuff", "wrong", "combo"};
  const std::vector<std::string> faults = {
      "none",       "lossy-1pct",     "lossy-5pct",  "lossy-20pct",
      "jitter",     "flaky",          "split-heal",  "split-minority",
      "churn-10pct", "churn-heavy"};
  const std::vector<std::string> recoveries = {"off", "arq-fast",
                                               "arq-patient", "arq-capped"};

  std::size_t clean_runs = 0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    aer::AerConfig cfg;
    cfg.n = pick(axis_rng, ns);
    cfg.model = pick(axis_rng, models);
    cfg.corrupt_fraction = pick(axis_rng, fractions);
    // Trial 0 always runs the clean combination so the validity invariant
    // is exercised no matter what the axis RNG draws.
    const std::string attack = trial == 0 ? "none" : pick(axis_rng, attacks);
    const std::string fault = trial == 0 ? "none" : pick(axis_rng, faults);
    const std::string recovery =
        trial == 0 ? "off" : pick(axis_rng, recoveries);
    if (trial == 0) cfg.corrupt_fraction = 0.0;
    // A clean run is honest throughout. Non-knowledgeable nodes would leave
    // a liveness tail: one whose push quorum for gstring they fill to half
    // never accepts it.
    const bool clean =
        attack == "none" && fault == "none" && cfg.corrupt_fraction == 0.0;
    if (clean) cfg.knowledgeable_fraction = 1.0;
    cfg.seed = exp::trial_seed(base_seed, /*point_index=*/0, trial);
    cfg.max_rounds = 120;
    cfg.max_time = 120.0;
    cfg.fault_plan = exp::fault_plan_factory(fault);
    cfg.recovery_plan = exp::recovery_plan_factory(recovery);

    SCOPED_TRACE("trial " + std::to_string(trial) + ": n=" +
                 std::to_string(cfg.n) + " model=" +
                 aer::model_name(cfg.model) + " corrupt=" +
                 std::to_string(cfg.corrupt_fraction) + " attack=" + attack +
                 " fault=" + fault + " recovery=" + recovery + " seed=" +
                 std::to_string(cfg.seed));

    aer::AerWorld world = aer::build_aer_world(cfg);
    aer::RunArena arena;  // keeps the actors for the pull-status reads below
    const aer::AerReport report =
        aer::run_aer_world_arena(world, arena, exp::attack_factory(attack));

    // --- safety (Lemma 7).
    const std::size_t wrong = check_wrong_decisions(world, arena);
    EXPECT_EQ(report.decided_count, report.decided_gstring + wrong);

    // --- uniqueness: no correct node decides twice.
    EXPECT_EQ(world.decisions.repeat_decisions(), 0u);

    // --- validity: clean all-correct runs terminate with full agreement.
    // (With corrupt nodes present, liveness has a known whp tail at
    // laptop-scale d — stalls are tolerated there.)
    if (clean) {
      ++clean_runs;
      EXPECT_TRUE(report.agreement);
      EXPECT_TRUE(report.everyone_decided);
      EXPECT_EQ(report.decided_count, report.correct_count);
    }

    // --- accounting sanity.
    EXPECT_LE(report.decided_count, report.correct_count);
    EXPECT_LE(report.correct_count, cfg.n);
    std::uint64_t msg_sum = 0, bit_sum = 0;
    for (std::size_t k = 0; k < sim::kNumMessageKinds; ++k) {
      msg_sum += report.msgs_by_kind[k];
      bit_sum += report.bits_by_kind[k];
    }
    EXPECT_EQ(msg_sum, report.total_messages);
    EXPECT_EQ(bit_sum, report.total_bits);
    EXPECT_NEAR(report.amortized_bits,
                static_cast<double>(report.total_bits) /
                    static_cast<double>(cfg.n),
                1e-6);
    std::uint64_t cause_sum = 0;
    for (std::size_t c = 0; c < sim::kNumFaultCauses; ++c) {
      cause_sum += report.fault_drops_by_cause[c];
    }
    EXPECT_EQ(cause_sum, report.fault_dropped_msgs);
    EXPECT_LE(report.fault_dropped_msgs, report.total_messages);
    if (fault == "none") {
      EXPECT_EQ(report.fault_dropped_msgs, 0u);
      EXPECT_EQ(report.fault_delayed_msgs, 0u);
      // Clean channels never time out: the RTO floor is chosen so an ack
      // in flight under the engine's delay model always beats the timer.
      EXPECT_EQ(report.recovery_retransmit_msgs, 0u);
      EXPECT_EQ(report.recovery_dead_msgs, 0u);
      EXPECT_EQ(report.recovery_dup_msgs, 0u);
    }
    if (recovery == "off") {
      // The layer off must be fully inert, whatever the fault condition.
      EXPECT_EQ(report.recovery_retransmit_msgs, 0u);
      EXPECT_EQ(report.recovery_retransmit_bits, 0u);
      EXPECT_EQ(report.recovery_acked_msgs, 0u);
      EXPECT_EQ(report.recovery_dead_msgs, 0u);
      EXPECT_EQ(report.recovery_dup_msgs, 0u);
    }
    if (report.decided_count > 0) {
      EXPECT_LE(report.completion_time, report.engine_time + 1e-9);
      EXPECT_LE(report.mean_decision_time, report.completion_time + 1e-9);
    }
  }
  EXPECT_GE(clean_runs, 1u);
}

// Recovery invariants: layering ack/retransmit under a lossy channel must
// never hurt — safety holds with and without it, the agreement rate with
// an arq-* preset is at least the rate with the layer off at the same
// loss, and the bit-cost is visible in the retransmit counters. The rate
// comparison is pinned to the default seed (like the adaptive knee check
// below): soak seeds move the rates, not the invariants.
TEST(PropertyTest, RecoveryNeverHurtsAgreementAndKeepsSafety) {
  const std::uint64_t base_seed = property_seed();
  const bool default_seed = std::getenv("FBA_PROPERTY_SEED") == nullptr;
  const std::vector<std::string> faults = {"lossy-5pct", "lossy-20pct"};
  const std::size_t trials = 4;

  for (const aer::Model model :
       {aer::Model::kSyncRushing, aer::Model::kAsync}) {
    for (const std::string& fault : faults) {
      std::size_t off_agreements = 0, arq_agreements = 0;
      for (std::size_t t = 0; t < trials; ++t) {
        aer::AerConfig cfg;
        cfg.n = 48;
        cfg.model = model;
        cfg.seed = exp::trial_seed(base_seed, /*point_index=*/3, t);
        cfg.max_rounds = 60;
        cfg.max_time = 60.0;
        cfg.fault_plan = exp::fault_plan_factory(fault);

        SCOPED_TRACE("model=" + std::string(aer::model_name(model)) +
                     " fault=" + fault + " trial=" + std::to_string(t));
        const aer::AerReport off = aer::run_aer(cfg);
        cfg.recovery_plan = exp::recovery_plan_factory("arq-patient");
        const aer::AerReport arq = aer::run_aer(cfg);

        // Safety on both sides of the comparison.
        EXPECT_EQ(off.decided_count, off.decided_gstring);
        EXPECT_EQ(arq.decided_count, arq.decided_gstring);
        off_agreements += off.agreement ? 1 : 0;
        arq_agreements += arq.agreement ? 1 : 0;
        // The restored assumption is paid for in measurable retransmit
        // traffic, charged in the paper's own currency.
        EXPECT_GT(arq.recovery_retransmit_msgs + arq.recovery_acked_msgs, 0u);
        EXPECT_LE(arq.recovery_retransmit_bits, arq.total_bits);
      }
      if (default_seed) {
        EXPECT_GE(arq_agreements, off_agreements)
            << aer::model_name(model) << " " << fault;
        // At heavy loss the raw protocol collapses and ARQ carries it: the
        // gap is the figure's headline, so pin that it is visible here.
        if (fault == "lossy-20pct") {
          EXPECT_GT(arq_agreements, off_agreements)
              << aer::model_name(model);
        }
      }
    }
  }
}

// Service-mode invariant: across a randomized stream of repeated-consensus
// instances — persistent grudge rosters, churn that spans instance
// boundaries and ramps as the stream ages — safety must hold for EVERY
// instance (a wrong decision only through a corrupt-majority poll list;
// liveness may degrade, agreement_rate may drop), and the deterministic
// results must be independent of how the stream is parallelized.
TEST(PropertyTest, ServiceStreamsPreserveSafetyUnderPersistentAdversaries) {
  const std::uint64_t base_seed = property_seed();
  Rng axis_rng(base_seed ^ 0x73767063ull);  // "svpc": distinct axis draws

  const std::vector<std::size_t> ns = {32, 48, 64};
  const std::vector<std::string> attacks = {"none", "grudge-silent",
                                            "grudge-wrong", "grudge-stuff"};
  const std::vector<std::string> faults = {"", "churn-10pct",
                                           "slow-burn-churn"};

  // A handful of short streams rather than one long one: the per-stream
  // cost is ~instances full protocol runs, so the axis coverage comes from
  // stream variety.
  const std::size_t streams = std::min<std::size_t>(6, property_trials());
  for (std::size_t s = 0; s < streams; ++s) {
    exp::ServiceConfig config;
    config.base.n = pick(axis_rng, ns);
    config.base.model = aer::Model::kSyncRushing;
    config.base_seed = exp::trial_seed(base_seed, /*point_index=*/1, s);
    config.instances = 8;
    // Stream 0 always exercises the headline combination: a pinned grudge
    // roster under churn that ramps across instance boundaries.
    config.attack = s == 0 ? "grudge-wrong" : pick(axis_rng, attacks);
    config.fault = s == 0 ? "slow-burn-churn" : pick(axis_rng, faults);
    // The honest stream has no corrupt and no non-knowledgeable nodes,
    // which would give it the randomized case's liveness tail.
    const bool honest = config.attack == "none" && config.fault.empty();
    if (honest) {
      config.base.corrupt_fraction = 0.0;
      config.base.knowledgeable_fraction = 1.0;
    }

    SCOPED_TRACE("stream " + std::to_string(s) + ": n=" +
                 std::to_string(config.base.n) + " attack=" + config.attack +
                 " fault=" + (config.fault.empty() ? "none" : config.fault) +
                 " seed=" + std::to_string(config.base_seed));

    const exp::ServiceResult serial = exp::run_service(config);
    const exp::ServiceStats& stats = serial.stats;

    // --- safety across the stream: each wrong decision is Lemma 7's
    // failure event. Replaying the instances exposes their poll lists.
    if (stats.wrong_decisions > 0) {
      const exp::ServicePlan plan(config);
      exp::TrialArena arena;
      aer::AerConfig cfg;
      exp::TrialOutcome out;
      std::uint64_t wrong = 0;
      for (std::uint64_t i = 0; i < config.instances; ++i) {
        plan.run_instance(i, cfg, arena, out);
        wrong += check_wrong_decisions(arena.world, arena.run);
      }
      EXPECT_EQ(wrong, stats.wrong_decisions);
    }
    EXPECT_EQ(stats.instances, config.instances);
    EXPECT_LE(stats.agreements, stats.instances);
    EXPECT_LE(stats.stalled_nodes, stats.correct_nodes);

    // --- the memoryless honest stream must stay fully live.
    if (honest) {
      EXPECT_EQ(stats.agreements, stats.instances);
      EXPECT_EQ(stats.stalled_nodes, 0u);
    }

    // --- parallelization independence: a two-worker run, warm or cold,
    // must reproduce the serial warm run bit for bit.
    exp::ServiceConfig parallel = config;
    parallel.workers = 2;
    parallel.warm = (s % 2 == 0);
    EXPECT_EQ(exp::run_service(parallel).stats.fingerprint(),
              stats.fingerprint());
  }
}

// Adaptive-adversary invariants: a runtime corruption budget may collapse
// liveness — corrupting past t < (1/3 - eps) n mid-run is exactly what the
// paper's proofs exclude — but it must NEVER buy a safety violation, the
// engine must never let the strategy overspend, and spend must be weakly
// monotone in budget (runs with the same seed are identical until the lower
// budget's cap binds).
TEST(PropertyTest, AdaptiveBudgetsDegradeLivenessNeverSafety) {
  const std::uint64_t base_seed = property_seed();
  const bool default_seed = std::getenv("FBA_PROPERTY_SEED") == nullptr;
  const std::vector<std::string> strategies = {
      "adaptive-degree", "adaptive-quorum", "adaptive-king",
      "adaptive-random"};
  const std::vector<aer::Model> models = {aer::Model::kSyncRushing,
                                          aer::Model::kAsync};
  const std::vector<long> budgets = {0, 8, 16};  // t=5 static; 16 crosses n/3
  const std::size_t trials = 4;

  std::size_t quorum_rate_b0 = 0, quorum_rate_b16 = 0;
  std::size_t index = 0;
  for (const aer::Model model : models) {
    for (const std::string& strategy : strategies) {
      std::vector<double> prev_spent(trials, 0.0);
      for (const long budget : budgets) {
        std::size_t agreements = 0;
        std::vector<double> spent(trials, 0.0);
        for (std::size_t t = 0; t < trials; ++t) {
          exp::GridPoint point;
          point.index = index;
          point.n = 64;
          point.model = model;
          point.strategy = strategy;
          point.budget = budget;
          point.adaptive_from = 2.0;
          aer::AerConfig base;
          base.n = 64;
          base.corrupt_fraction = 0.08;
          base.max_rounds = 120;
          base.max_time = 120.0;
          aer::AerConfig cfg = point.apply(base);
          cfg.seed = exp::trial_seed(base_seed, /*point_index=*/2, t);

          SCOPED_TRACE("model=" + std::string(aer::model_name(model)) +
                       " strategy=" + strategy + " budget=" +
                       std::to_string(budget) + " trial=" + std::to_string(t));
          const exp::TrialOutcome o = exp::run_aer_trial(cfg, point);

          // --- safety survives every budget: liveness is what breaks.
          EXPECT_EQ(o.wrong_decisions, 0u);

          // --- the engine-side budget is a hard cap, and budget 0 is the
          // paper's non-adaptive model exactly.
          EXPECT_LE(o.runtime_corruptions, static_cast<double>(budget));
          if (budget == 0) {
            EXPECT_EQ(o.runtime_corruptions, 0.0);
            EXPECT_EQ(o.first_corruption_time, 0.0);
          } else {
            // Every adaptive pick lands while correct nodes remain, so some
            // of a positive budget is always spent — at or after the
            // configured onset.
            EXPECT_GT(o.runtime_corruptions, 0.0);
            EXPECT_GE(o.first_corruption_time, point.adaptive_from);
            EXPECT_LE(o.first_corruption_time, o.last_corruption_time);
          }
          spent[t] = o.runtime_corruptions;
          agreements += o.agreement ? 1 : 0;
        }
        // --- spend monotonicity: same seed, bigger budget, >= corruptions.
        for (std::size_t t = 0; t < trials; ++t) {
          EXPECT_GE(spent[t], prev_spent[t])
              << "strategy=" << strategy << " budget=" << budget
              << " trial=" << t;
        }
        prev_spent = spent;
        if (model == aer::Model::kSyncRushing &&
            strategy == "adaptive-quorum") {
          if (budget == 0) quorum_rate_b0 = agreements;
          if (budget == 16) quorum_rate_b16 = agreements;
        }
        ++index;
      }
    }
  }
  // --- the resilience boundary is real: under the pinned default seed, the
  // informed sync attacker with a boundary-crossing budget loses agreement
  // that the budget-0 (paper-model) run had. Seed-randomized soak runs skip
  // this knee check — liveness rates move with the seed; the invariants
  // above do not.
  if (default_seed) {
    EXPECT_EQ(quorum_rate_b0, trials);
    EXPECT_LT(quorum_rate_b16, quorum_rate_b0);
  }
}

}  // namespace
}  // namespace fba
