// Pull-phase and end-to-end AER tests (Section 3.1.2, Algorithms 1-3,
// Lemmas 6-10): agreement under all three timing models, decision times,
// the answer budget, and the post-decision answering path.
#include <gtest/gtest.h>

#include "aer/protocol.h"

namespace fba::aer {
namespace {

AerConfig config_for(Model model, std::uint64_t seed = 1, std::size_t n = 128) {
  AerConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.model = model;
  cfg.d_override = 14;
  return cfg;
}

// ----- Lemmas 9/10: end-to-end agreement across models ---------------------------

class ModelSweep
    : public ::testing::TestWithParam<std::tuple<Model, std::uint64_t>> {};

TEST_P(ModelSweep, EveryCorrectNodeDecidesGstring) {
  const auto [model, seed] = GetParam();
  const AerReport report = run_aer(config_for(model, seed));
  EXPECT_TRUE(report.everyone_decided);
  EXPECT_TRUE(report.agreement) << "decided=" << report.decided_count
                                << " gstring=" << report.decided_gstring;
  EXPECT_EQ(report.decided_gstring, report.correct_count);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelSweep,
    ::testing::Combine(::testing::Values(Model::kSyncNonRushing,
                                         Model::kSyncRushing, Model::kAsync),
                       ::testing::Values(1, 2, 3, 4)));

TEST(PullPhaseTest, SyncDecisionTimeIsSmallConstant) {
  // Lemma 9: constant rounds. The fast path is 5 rounds (push, pull, fw1,
  // fw2, answer); stragglers served post-decision add a few more.
  const AerReport report = run_aer(config_for(Model::kSyncNonRushing, 2));
  EXPECT_LE(report.completion_time, 12.0);
  EXPECT_LE(report.mean_decision_time, 6.0);
}

TEST(PullPhaseTest, AsyncCompletesWithinNormalizedBound) {
  // Lemma 10: async completion in a few normalized delay units at this n.
  const AerReport report = run_aer(config_for(Model::kAsync, 3));
  EXPECT_TRUE(report.agreement);
  EXPECT_LE(report.completion_time, 12.0);
}

TEST(PullPhaseTest, DeterministicGivenSeed) {
  const AerReport a = run_aer(config_for(Model::kSyncRushing, 7));
  const AerReport b = run_aer(config_for(Model::kSyncRushing, 7));
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_bits, b.total_bits);
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.decided_gstring, b.decided_gstring);
}

TEST(PullPhaseTest, MessageKindsAllAppear) {
  const AerReport report = run_aer(config_for(Model::kSyncRushing, 1));
  using sim::MessageKind;
  for (const MessageKind kind :
       {MessageKind::kPush, MessageKind::kPoll, MessageKind::kPull,
        MessageKind::kFw1, MessageKind::kFw2, MessageKind::kAnswer}) {
    EXPECT_GT(report.msgs_of(kind), 0u) << sim::kind_name(kind);
  }
  // fw1 dominates: d^2 fan-out per forwarder (the paper's non-load-balanced
  // routing layer).
  EXPECT_GT(report.msgs_of(MessageKind::kFw1),
            report.msgs_of(MessageKind::kFw2));
}

TEST(PullPhaseTest, UnknowledgeableNodesAlsoDecide) {
  // The quorum-majority filters need d scaled to the precondition margin
  // (the sampler lemma's d = O(log(1/delta) / eps^2)); at laptop scale a
  // 12% ignorant population requires a slightly larger d.
  AerConfig cfg = config_for(Model::kSyncRushing, 5);
  cfg.knowledgeable_fraction = 0.88;
  cfg.d_override = 18;
  const AerReport report = run_aer(cfg);
  EXPECT_TRUE(report.agreement);
}

TEST(PullPhaseTest, SucceedsWithZeroByzantineNodes) {
  // "Unlike many randomized protocols, success is guaranteed when there is
  // no Byzantine fault" — the distinctive AER property from the intro.
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    AerConfig cfg = config_for(Model::kSyncRushing, seed);
    cfg.explicit_t = 0;
    cfg.knowledgeable_fraction = 0.85;
    cfg.d_override = 18;
    const AerReport report = run_aer(cfg);
    EXPECT_TRUE(report.agreement) << "seed " << seed;
  }
}

TEST(PullPhaseTest, TightAnswerBudgetStillCompletesWithDeferral) {
  // A budget below the natural per-responder load (~d requests) forces the
  // Algorithm 3 deferral path ("Wait for has_decided"): early deciders
  // bootstrap a cascade that serves everyone else after decision.
  AerConfig cfg = config_for(Model::kSyncRushing, 6);
  cfg.answer_budget = 6;
  cfg.defer_answers = true;
  const AerReport report = run_aer(cfg);
  EXPECT_TRUE(report.agreement);
  EXPECT_GT(report.max_deferred_answers, 0u);
}

TEST(PullPhaseTest, BudgetDeferralEngagesAndRecovers) {
  AerConfig cfg = config_for(Model::kSyncRushing, 7, 64);
  cfg.answer_budget = 8;
  const AerReport report = run_aer(cfg);
  EXPECT_TRUE(report.everyone_decided);
  EXPECT_GT(report.msgs_of(sim::MessageKind::kAnswer), 0u);
  EXPECT_GT(report.max_deferred_answers, 0u);
}

TEST(PullPhaseTest, LoadIsNotPerfectlyBalanced) {
  // Figure 1(a): AER trades load balance for total communication. Even
  // without an adversary, per-node sent bits vary (quorum roles differ).
  const AerReport report = run_aer(config_for(Model::kSyncRushing, 8));
  EXPECT_GT(report.sent_bits.imbalance(), 1.05);
}

TEST(PullPhaseTest, LargerNetworkStillAgrees) {
  AerConfig cfg;
  cfg.n = 512;
  cfg.seed = 11;
  cfg.model = Model::kSyncRushing;  // defaults: d = 1.5 log2 n
  const AerReport report = run_aer(cfg);
  EXPECT_TRUE(report.agreement);
  EXPECT_EQ(report.nodes_missing_gstring, 0u);
}

TEST(PullPhaseTest, AmortizedBitsArePolylogNotLinear) {
  // At n = 512 the per-node bit cost must sit far below the flooding cost
  // n * |gstring| (everyone-broadcasts) — the headline communication claim.
  AerConfig cfg;
  cfg.n = 512;
  cfg.seed = 12;
  const AerReport report = run_aer(cfg);
  const double flood_cost = static_cast<double>(cfg.n) *
                            static_cast<double>(cfg.resolved_gstring_bits());
  EXPECT_LT(report.amortized_bits / flood_cost, 50.0);
  EXPECT_TRUE(report.agreement);
}

TEST(RunnerTest, WorldCanBeRerun) {
  // run_aer_world resets decisions, so a prebuilt world can host several
  // protocol executions (as the BA composition does).
  AerWorld world = build_aer_world(config_for(Model::kSyncRushing, 9, 64));
  const AerReport a = run_aer_world(world);
  const AerReport b = run_aer_world(world);
  EXPECT_EQ(a.decided_count, b.decided_count);
  EXPECT_TRUE(b.agreement);
}

}  // namespace
}  // namespace fba::aer
