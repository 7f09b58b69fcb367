// Cross-module integration sweeps: the full protocol stack under every
// combination of timing model, reduction and adversary that the library
// supports, plus consistency checks between the harness layers.
#include <gtest/gtest.h>

#include "adversary/strategies.h"
#include "ba/ba.h"
#include "baseline/flood.h"
#include "baseline/sqrtsample.h"

namespace fba {
namespace {

// ----- every reduction x every model on one shared world ------------------------

struct ReductionCase {
  const char* name;
  aer::AerReport (*run)(aer::AerWorld&);
};

aer::AerReport run_aer_case(aer::AerWorld& world) {
  return aer::run_aer_world(world);
}
aer::AerReport run_flood_case(aer::AerWorld& world) {
  return baseline::run_flood_world(world);
}
aer::AerReport run_sqrt_case(aer::AerWorld& world) {
  return baseline::run_sqrtsample_world(world);
}

class EveryReductionEveryModel
    : public ::testing::TestWithParam<std::tuple<int, aer::Model>> {};

TEST_P(EveryReductionEveryModel, AgreesOnTheSameWorld) {
  const auto [reduction_idx, model] = GetParam();
  static const ReductionCase kCases[] = {
      {"aer", run_aer_case},
      {"flood", run_flood_case},
      {"sqrt", run_sqrt_case},
  };
  const ReductionCase& c = kCases[reduction_idx];

  aer::AerConfig cfg;
  cfg.n = 128;
  cfg.seed = 21;
  cfg.model = model;
  cfg.d_override = 14;
  cfg.max_rounds = 400;
  aer::AerWorld world = aer::build_aer_world(cfg);
  const aer::AerReport r = c.run(world);
  EXPECT_TRUE(r.agreement) << c.name << " under " << aer::model_name(model);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EveryReductionEveryModel,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(aer::Model::kSyncNonRushing,
                                         aer::Model::kSyncRushing,
                                         aer::Model::kAsync)));

// ----- world invariants ----------------------------------------------------------

TEST(IntegrationTest, WorldsAreIsolatedBetweenRuns) {
  // Two different worlds from different seeds must not share interned
  // strings or corruption; two runs on one world must agree bit-for-bit.
  aer::AerConfig a_cfg;
  a_cfg.n = 64;
  a_cfg.seed = 1;
  aer::AerConfig b_cfg = a_cfg;
  b_cfg.seed = 2;
  aer::AerWorld a = aer::build_aer_world(a_cfg);
  aer::AerWorld b = aer::build_aer_world(b_cfg);
  EXPECT_NE(a.shared->table.get(a.view.gstring),
            b.shared->table.get(b.view.gstring));
  EXPECT_NE(a.view.corrupt, b.view.corrupt);
}

TEST(IntegrationTest, TrafficConservation) {
  // Sent and received totals agree: every charged message was delivered to
  // exactly one recipient in the sync engine (reliability).
  aer::AerConfig cfg;
  cfg.n = 64;
  cfg.seed = 5;
  cfg.d_override = 12;
  aer::AerWorld world = aer::build_aer_world(cfg);
  const aer::AerReport r = aer::run_aer_world(world);
  // Per-node sent sums equal total bits; received sums equal them too.
  EXPECT_NEAR(r.sent_bits.mean * static_cast<double>(cfg.n),
              static_cast<double>(r.total_bits), 1.0);
}

TEST(IntegrationTest, DecisionTimesAreWithinEngineTime) {
  aer::AerConfig cfg;
  cfg.n = 64;
  cfg.seed = 6;
  cfg.model = aer::Model::kAsync;
  cfg.d_override = 12;
  aer::AerWorld world = aer::build_aer_world(cfg);
  const aer::AerReport r = aer::run_aer_world(world);
  for (NodeId id : world.correct) {
    if (world.decisions.has_decided(id)) {
      EXPECT_LE(world.decisions.time(id), r.engine_time + 1e-9);
      EXPECT_GE(world.decisions.time(id), 0.0);
    }
  }
}

// ----- composition under dual-phase attack ----------------------------------------

class BaAttackMatrix
    : public ::testing::TestWithParam<std::tuple<ba::Reduction, aer::Model>> {
};

TEST_P(BaAttackMatrix, SafetyHoldsUnderDualPhaseAttack) {
  const auto [reduction, model] = GetParam();
  ba::BaConfig cfg;
  cfg.n = 128;
  cfg.seed = 31;
  cfg.reduction_model = model;
  cfg.d_override = 14;
  const ba::BaReport r = ba::run_ba(
      cfg, reduction, ae::ae_equivocate_strategy(),
      [](const aer::AerWorldView& view) {
        auto combo = std::make_unique<adv::ComboStrategy>();
        combo->add(std::make_unique<adv::JunkPushStrategy>(view, 2, 8));
        combo->add(std::make_unique<adv::WrongAnswerStrategy>(view, 8));
        return combo;
      });
  // Safety across the composition: whatever decided, decided the AE winner.
  EXPECT_EQ(r.reduction.decided_gstring, r.reduction.decided_count)
      << ba::reduction_name(reduction) << " under " << aer::model_name(model);
  EXPECT_TRUE(r.ae.precondition_met);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BaAttackMatrix,
    ::testing::Combine(::testing::Values(ba::Reduction::kAer,
                                         ba::Reduction::kSqrtSample,
                                         ba::Reduction::kFlood),
                       ::testing::Values(aer::Model::kSyncRushing,
                                         aer::Model::kAsync)));

// ----- tiny networks / multiset duplication edge cases ----------------------------

TEST(IntegrationTest, TinyNetworkWithHeavyQuorumDuplication) {
  // n = 16 with d = 12: quorum multisets carry duplicate members almost
  // surely; multiplicity-weighted thresholds must still work end to end.
  aer::AerConfig cfg;
  cfg.n = 16;
  cfg.seed = 8;
  cfg.d_override = 12;
  cfg.explicit_t = 0;
  cfg.knowledgeable_fraction = 1.0;
  const aer::AerReport r = run_aer(cfg);
  EXPECT_TRUE(r.agreement);
}

TEST(IntegrationTest, MinimumNetworkSize) {
  aer::AerConfig cfg;
  cfg.n = 8;
  cfg.seed = 9;
  cfg.d_override = 8;
  cfg.explicit_t = 0;
  cfg.knowledgeable_fraction = 1.0;
  const aer::AerReport r = run_aer(cfg);
  EXPECT_TRUE(r.agreement);
}

// ----- engine cap behaviour ---------------------------------------------------------

TEST(IntegrationTest, MaxRoundsCapStopsRunsHonestly) {
  aer::AerConfig cfg;
  cfg.n = 64;
  cfg.seed = 10;
  cfg.max_rounds = 2;  // far too few to decide
  const aer::AerReport r = run_aer(cfg);
  EXPECT_FALSE(r.agreement);
  EXPECT_EQ(r.decided_count, 0u);
  EXPECT_LE(r.engine_time, 2.0);
}

TEST(IntegrationTest, MaxTimeCapStopsAsyncRuns) {
  aer::AerConfig cfg;
  cfg.n = 64;
  cfg.seed = 11;
  cfg.model = aer::Model::kAsync;
  cfg.max_time = 0.5;  // less than one full delivery hop chain
  const aer::AerReport r = run_aer(cfg);
  EXPECT_FALSE(r.agreement);
  EXPECT_LE(r.engine_time, 0.5 + 1e-9);
}

}  // namespace
}  // namespace fba
