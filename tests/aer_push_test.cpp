// Push-phase tests (Section 3.1.1, Lemmas 3-5): diffusion cost, candidate
// list growth, and gstring reaching every candidate list.
#include <gtest/gtest.h>

#include "adversary/strategies.h"
#include "aer/protocol.h"

namespace fba::aer {
namespace {

AerConfig small_config(std::uint64_t seed = 1) {
  AerConfig cfg;
  cfg.n = 128;
  cfg.seed = seed;
  cfg.model = Model::kSyncRushing;
  cfg.d_override = 14;  // generous quorums for deterministic small-n runs
  return cfg;
}

TEST(AerConfigTest, ResolvedParametersScale) {
  AerConfig cfg;
  cfg.n = 1024;
  EXPECT_EQ(cfg.resolved_t(), 81u);  // floor(0.08 * 1024)
  EXPECT_EQ(cfg.resolved_d(), 15u);  // 1.5 * 10
  EXPECT_EQ(cfg.resolved_answer_budget(), 100u);  // 10^2
  EXPECT_EQ(cfg.resolved_gstring_bits(), 40u);    // 4 * 10

  cfg.explicit_t = 5;
  EXPECT_EQ(cfg.resolved_t(), 5u);
  cfg.d_override = 20;
  EXPECT_EQ(cfg.resolved_d(), 20u);
  cfg.answer_budget = 7;
  EXPECT_EQ(cfg.resolved_answer_budget(), 7u);
}

TEST(AerConfigTest, ModelNames) {
  EXPECT_STREQ(model_name(Model::kSyncNonRushing), "sync-nonrushing");
  EXPECT_STREQ(model_name(Model::kSyncRushing), "sync-rushing");
  EXPECT_STREQ(model_name(Model::kAsync), "async");
}

TEST(AerWorldTest, BuildRespectsConfig) {
  const AerConfig cfg = small_config();
  AerWorld world = build_aer_world(cfg);
  EXPECT_EQ(world.view.initial.size(), cfg.n);
  EXPECT_EQ(world.view.corrupt.size(), cfg.resolved_t());
  EXPECT_EQ(world.correct.size(), cfg.n - cfg.resolved_t());

  // Knowledgeable nodes hold gstring; others hold a distinct string.
  std::size_t knowledgeable = 0;
  for (NodeId id : world.correct) {
    if (world.view.knowledgeable[id]) {
      ++knowledgeable;
      EXPECT_EQ(world.view.initial[id], world.view.gstring);
    } else {
      EXPECT_NE(world.view.initial[id], world.view.gstring);
    }
  }
  // More than half of ALL nodes must be correct and knowledgeable — the
  // paper's precondition.
  EXPECT_GT(knowledgeable * 2, cfg.n);

  // Corrupt nodes get no candidate.
  for (NodeId id : world.view.corrupt) {
    EXPECT_EQ(world.view.initial[id], kNoString);
    EXPECT_FALSE(world.view.knowledgeable[id]);
  }
}

TEST(AerWorldTest, GstringHasConfiguredShape) {
  const AerConfig cfg = small_config();
  AerWorld world = build_aer_world(cfg);
  const BitString& g = world.shared->table.get(world.view.gstring);
  EXPECT_EQ(g.size(), cfg.resolved_gstring_bits());
  // The adversary-controlled prefix (1 - 2/3 of the bits) is all zeros by
  // construction in the synthetic world.
  const auto adversarial = static_cast<std::size_t>(
      g.size() * (1.0 - cfg.gstring_random_fraction));
  for (std::size_t i = 0; i < adversarial; ++i) EXPECT_FALSE(g.bit(i));
}

TEST(AerWorldTest, DeterministicForSameSeed) {
  AerWorld a = build_aer_world(small_config(5));
  AerWorld b = build_aer_world(small_config(5));
  EXPECT_EQ(a.view.corrupt, b.view.corrupt);
  EXPECT_EQ(a.view.initial, b.view.initial);
}

TEST(AerWorldTest, RejectsTinyNetworks) {
  AerConfig cfg;
  cfg.n = 4;
  EXPECT_THROW(build_aer_world(cfg), ConfigError);
}

TEST(AerWorldTest, QuorumSizeIsCappedByTheCreditMask) {
  // Tallies credit each quorum member in a 64-bit mask (aer::credit), so
  // d = 65 is refused where the world is built and d = 64 runs. At n = 16 a
  // 64-slot quorum repeats members, and their first sorted positions reach
  // the mask's top bits.
  AerConfig cfg = small_config();
  cfg.n = 16;
  cfg.d_override = 65;
  EXPECT_THROW(build_aer_world(cfg), ConfigError);
  cfg.d_override = 64;
  const AerReport report = run_aer(cfg);
  EXPECT_EQ(report.d, 64u);
  EXPECT_TRUE(report.agreement);
}

// ----- Lemma 3: push cost ------------------------------------------------------

TEST(PushPhaseTest, EachCorrectNodeSendsExactlyDPushes) {
  const AerConfig cfg = small_config();
  const AerReport report = run_aer(cfg);
  // n_correct nodes each push to exactly d targets (permutation sampler).
  const auto expected = report.correct_count * report.d;
  EXPECT_EQ(report.msgs_of(sim::MessageKind::kPush), expected);
}

TEST(PushPhaseTest, PushBitsPerNodeAreLogarithmic) {
  // |gstring| * d = Theta(log^2 n) bits of push traffic per node; verify the
  // absolute value matches the formula, not just an asymptotic shape.
  const AerConfig cfg = small_config();
  const AerReport report = run_aer(cfg);
  const std::size_t header = 4 + node_id_bits(cfg.n);
  const double expected_per_node =
      static_cast<double>((cfg.resolved_gstring_bits() + header) *
                          report.d * report.correct_count) /
      static_cast<double>(cfg.n);
  EXPECT_NEAR(report.push_bits_per_node, expected_per_node, 1.0);
}

// ----- Lemma 4: candidate list growth -------------------------------------------

TEST(PushPhaseTest, CandidateListsStayLinearWithoutAdversary) {
  const AerConfig cfg = small_config();
  const AerReport report = run_aer(cfg);
  // Knowledgeable nodes hold {gstring}; the rest {own, gstring}: the sum is
  // at most 2 per node and nothing else can clear a quorum majority.
  EXPECT_LE(report.sum_candidate_lists, 2 * report.correct_count);
  EXPECT_LE(report.max_candidate_list, 2u);
}

TEST(PushPhaseTest, JunkPushInjectsOnlyBoundedCandidates) {
  const AerConfig cfg = small_config(3);
  const AerReport report = run_aer(cfg, [](const AerWorldView& view) {
    return std::make_unique<adv::JunkPushStrategy>(view, 2, 16);
  });
  // The coalition (8%) wins almost no Push Quorums even after searching:
  // lists stay near-linear (slack of n/8 for quorum-tail injections).
  EXPECT_LE(report.sum_candidate_lists,
            2 * report.correct_count + cfg.n / 8);
  EXPECT_TRUE(report.agreement);
}

TEST(PushPhaseTest, BlindFloodingInjectsNothing) {
  const AerConfig cfg = small_config(4);
  const AerReport report = run_aer(cfg, [](const AerWorldView& view) {
    return std::make_unique<adv::PushFloodStrategy>(view, 64);
  });
  // Receivers discard pushes from outside I(s, x): flooding buys the
  // adversary no list growth at all.
  EXPECT_LE(report.sum_candidate_lists, 2 * report.correct_count);
  EXPECT_TRUE(report.agreement);
}

// ----- Lemma 5: gstring reaches every list --------------------------------------

class PushSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PushSeedSweep, NoCorrectNodeMissesGstring) {
  AerConfig cfg = small_config(GetParam());
  const AerReport report = run_aer(cfg);
  EXPECT_EQ(report.nodes_missing_gstring, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PushSeedSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(PushPhaseTest, CornerPickerOnlyHurtsTargetedNodes) {
  // An informed adversary seizing I(gstring, x) for a few victims x can make
  // exactly those nodes miss gstring — and no others (Lemma 5's locality).
  AerConfig cfg = small_config(9);
  cfg.explicit_t = static_cast<long>(cfg.n / 5);
  const std::size_t victims = 2;
  const AerReport report =
      run_aer(cfg, {}, adv::corner_gstring_picker(victims));
  EXPECT_LE(report.nodes_missing_gstring, victims);
}

}  // namespace
}  // namespace fba::aer
