// The scale mode's equivalence contract (aer/soa.h, docs/perf.md):
// the structure-of-arrays runner must be an observationally exact drop-in
// for the pointer-path runners — bit-identical Aggregate fingerprints
// across timing models, attacks and fault presets — with its Fw1 burst
// descriptors removable without changing results. The memory account it
// adds must be deterministic: a warm arena reports the same bytes as a
// cold one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fba.h"

namespace fba {
namespace {

constexpr std::uint64_t kSeed = 20130722;

aer::AerConfig base_config() {
  aer::AerConfig base;
  base.n = 64;
  base.seed = kSeed;
  base.max_rounds = 80;
  return base;
}

/// Mirrors exp::Sweep's per-trial seed derivation so every runner below
/// executes the identical (config, seed) sequence.
std::vector<exp::TrialOutcome> pointer_outcomes(const exp::GridPoint& point,
                                                std::size_t trials) {
  std::vector<exp::TrialOutcome> outcomes;
  for (std::size_t t = 0; t < trials; ++t) {
    aer::AerConfig cfg = point.apply(base_config());
    cfg.seed = exp::trial_seed(kSeed, point.index, t);
    exp::TrialOutcome o = exp::run_aer_trial(cfg, point);
    o.seed = cfg.seed;
    outcomes.push_back(std::move(o));
  }
  return outcomes;
}

std::vector<exp::TrialOutcome> soa_outcomes(
    const exp::GridPoint& point, std::size_t trials, exp::ScaleArena& arena,
    const aer::SoaRunOptions& options = {}) {
  std::vector<exp::TrialOutcome> outcomes(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    aer::AerConfig cfg = point.apply(base_config());
    cfg.seed = exp::trial_seed(kSeed, point.index, t);
    exp::run_aer_scale_trial(cfg, point, arena, outcomes[t], options);
    outcomes[t].seed = cfg.seed;
  }
  return outcomes;
}

exp::GridPoint grid_point(aer::Model model, const std::string& attack,
                          const std::string& fault, std::size_t index,
                          const std::string& recovery = "") {
  exp::GridPoint point;
  point.index = index;
  point.n = base_config().n;
  point.model = model;
  point.strategy = attack;
  point.fault = fault;
  point.recovery = recovery;
  return point;
}

// The tentpole contract: for every timing model x attack x fault x recovery
// cell, the SoA path's Aggregate is bit-identical to the pointer path's
// (fingerprint hashes every protocol-visible field; the memory account sits
// outside it by design). Attacks, faults and recovery each force the burst
// gate off, so this covers both the per-send and the burst spelling of the
// Fw1 fan-out.
TEST(ScaleEquivalenceTest, SoaMatchesPointerPathAcrossModelsAttacksFaults) {
  const std::vector<std::string> attacks = {"none", "stuff", "junk"};
  struct Channel {
    std::string fault;
    std::string recovery;
  };
  const std::vector<Channel> channels = {
      {"", ""}, {"lossy-5pct", ""}, {"", "arq-fast"}};
  const std::vector<aer::Model> models = {aer::Model::kSyncNonRushing,
                                          aer::Model::kSyncRushing,
                                          aer::Model::kAsync};
  exp::ScaleArena arena;  // reused across cells: history must not matter
  std::size_t index = 0;
  for (const aer::Model model : models) {
    for (const std::string& attack : attacks) {
      for (const Channel& channel : channels) {
        const exp::GridPoint point = grid_point(
            model, attack, channel.fault, index++, channel.recovery);
        const exp::Aggregate pointer =
            exp::aggregate_outcomes(pointer_outcomes(point, 2));
        const exp::Aggregate soa =
            exp::aggregate_outcomes(soa_outcomes(point, 2, arena));
        EXPECT_EQ(pointer.fingerprint(), soa.fingerprint())
            << "model=" << aer::model_name(model) << " attack=" << attack
            << " fault=" << (channel.fault.empty() ? "none" : channel.fault)
            << " recovery="
            << (channel.recovery.empty() ? "off" : channel.recovery);
        // The scale path's one addition: the deterministic memory account.
        EXPECT_GT(soa.mem_bytes_per_node.mean, 0.0);
        EXPECT_EQ(pointer.mem_bytes_per_node.mean, 0.0);
      }
    }
  }
}

// Runtime corruptions ride the same equivalence contract: for every
// adaptive-* strategy x engine x budget, the SoA path must observe, pick,
// silence and account victims exactly as the pointer path does — same
// fingerprints AND the same corruption timeline (which sits outside the
// fingerprint, so it is compared explicitly).
TEST(ScaleEquivalenceTest, SoaMatchesPointerPathUnderAdaptiveAttacks) {
  const std::vector<std::string> attacks = {
      "adaptive-degree", "adaptive-quorum", "adaptive-king",
      "adaptive-random"};
  const std::vector<aer::Model> models = {aer::Model::kSyncRushing,
                                          aer::Model::kAsync};
  exp::ScaleArena arena;
  std::size_t index = 0;
  for (const aer::Model model : models) {
    for (const std::string& attack : attacks) {
      for (const long budget : {2L, 8L}) {
        exp::GridPoint point = grid_point(model, attack, "", index++);
        point.budget = budget;
        point.adaptive_from = 2.0;
        const exp::Aggregate pointer =
            exp::aggregate_outcomes(pointer_outcomes(point, 2));
        const exp::Aggregate soa =
            exp::aggregate_outcomes(soa_outcomes(point, 2, arena));
        EXPECT_EQ(pointer.fingerprint(), soa.fingerprint())
            << "model=" << aer::model_name(model) << " attack=" << attack
            << " budget=" << budget;
        EXPECT_EQ(pointer.runtime_corruptions, soa.runtime_corruptions)
            << "model=" << aer::model_name(model) << " attack=" << attack;
        EXPECT_EQ(pointer.first_corruption_time, soa.first_corruption_time);
        EXPECT_EQ(pointer.last_corruption_time, soa.last_corruption_time);
        // The budget was actually spent (the cell is not vacuously equal).
        EXPECT_GT(soa.runtime_corruptions, 0u)
            << "model=" << aer::model_name(model) << " attack=" << attack;
      }
    }
  }
}

// Burst descriptors are a pure queue-layout change: collapsing the d^2
// Fw1 fan-out into one expanded-at-delivery event must not move a single
// protocol observable.
TEST(ScaleEquivalenceTest, BurstOnAndOffAreBitIdentical) {
  for (const aer::Model model :
       {aer::Model::kSyncNonRushing, aer::Model::kSyncRushing}) {
    const exp::GridPoint point = grid_point(model, "none", "", 0);
    exp::ScaleArena on_arena, off_arena;
    aer::SoaRunOptions on, off;
    on.bursts = true;
    off.bursts = false;
    const exp::Aggregate with_bursts =
        exp::aggregate_outcomes(soa_outcomes(point, 2, on_arena, on));
    const exp::Aggregate without_bursts =
        exp::aggregate_outcomes(soa_outcomes(point, 2, off_arena, off));
    EXPECT_EQ(with_bursts.fingerprint(), without_bursts.fingerprint())
        << aer::model_name(model);
  }
}

// MemBudget's determinism contract: charges derive from logical sizes and
// counts, never allocator capacity — so a warm arena (retained vectors,
// grown tables) reports byte-identical memory to a cold one, and the
// figure's bytes/node is reproducible like every other metric.
TEST(ScaleMemoryTest, WarmArenaReportsSameBytesAsCold) {
  const exp::GridPoint point =
      grid_point(aer::Model::kSyncRushing, "none", "", 0);
  exp::ScaleArena warm;
  const std::vector<exp::TrialOutcome> first = soa_outcomes(point, 3, warm);
  const std::vector<exp::TrialOutcome> rerun = soa_outcomes(point, 3, warm);
  exp::ScaleArena cold_arena;
  const std::vector<exp::TrialOutcome> cold =
      soa_outcomes(point, 3, cold_arena);
  for (std::size_t t = 0; t < first.size(); ++t) {
    EXPECT_GT(first[t].mem_bytes_per_node, 0.0);
    EXPECT_EQ(first[t].mem_bytes_per_node, rerun[t].mem_bytes_per_node) << t;
    EXPECT_EQ(first[t].mem_bytes_per_node, cold[t].mem_bytes_per_node) << t;
  }
  // And across the async engine too (calendar queue, normalized time).
  const exp::GridPoint async_point =
      grid_point(aer::Model::kAsync, "none", "", 1);
  exp::ScaleArena async_warm;
  const std::vector<exp::TrialOutcome> async_first =
      soa_outcomes(async_point, 2, async_warm);
  const std::vector<exp::TrialOutcome> async_rerun =
      soa_outcomes(async_point, 2, async_warm);
  for (std::size_t t = 0; t < async_first.size(); ++t) {
    EXPECT_GT(async_first[t].mem_bytes_per_node, 0.0);
    EXPECT_EQ(async_first[t].mem_bytes_per_node,
              async_rerun[t].mem_bytes_per_node)
        << t;
  }
}

// The introspection mirrors the pointer path's per-node accessors; spot
// check decided state against the world's decision log.
TEST(ScaleIntrospectionTest, DecisionsMatchWorldLog) {
  aer::AerConfig cfg = base_config();
  cfg.model = aer::Model::kSyncRushing;
  aer::AerWorld world = aer::build_aer_world(cfg);
  aer::SoaArena arena;
  const aer::AerReport report = aer::run_aer_world_soa(world, arena);
  EXPECT_GT(report.decided_count, 0u);
  for (const NodeId id : world.correct) {
    EXPECT_EQ(arena.state.has_decided(id), world.decisions.has_decided(id))
        << id;
    if (arena.state.has_decided(id)) {
      EXPECT_EQ(arena.state.decided_value(id), world.decisions.value(id))
          << id;
    }
  }
}

}  // namespace
}  // namespace fba
