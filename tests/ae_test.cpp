// Tests for the almost-everywhere agreement substrate: committee layout,
// the phase-king schedule, in-committee agreement under equivocation, and
// the AER precondition contract (> 1/2 of nodes share a mostly-random
// gstring).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "ae/kssv.h"

namespace fba::ae {
namespace {

AeConfig config_for(std::size_t n, std::uint64_t seed = 1) {
  AeConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  return cfg;
}

// ----- configuration & layout ----------------------------------------------------

TEST(AeConfigTest, DerivedSizes) {
  AeConfig cfg = config_for(1024);
  EXPECT_EQ(cfg.resolved_t(), 51u);  // floor(0.05 * 1024)
  EXPECT_EQ(cfg.resolved_root_size(), 20u);   // 2 * log2(n)
  EXPECT_EQ(cfg.resolved_committee_size(), 40u);  // 4 * log2(n)
  EXPECT_EQ(cfg.slice_bits(), 2u);  // ceil(40 / 20)
  EXPECT_EQ(cfg.gstring_bits(), 40u);
}

TEST(AeConfigTest, SliceBitsCoverTarget) {
  for (std::size_t n : {64ull, 256ull, 1024ull, 4096ull}) {
    AeConfig cfg = config_for(n);
    EXPECT_GE(cfg.gstring_bits(),
              cfg.gstring_c * static_cast<std::size_t>(node_id_bits(n)));
    EXPECT_LE(cfg.slice_bits(), 64u);
  }
}

TEST(AeLayoutTest, CommitteesAreWellFormed) {
  AeConfig cfg = config_for(512);
  const AeLayout layout = AeLayout::build(cfg);
  ASSERT_EQ(layout.root.size(), cfg.resolved_root_size());
  ASSERT_EQ(layout.committees.size(), layout.root.size());

  // Root members are distinct.
  std::set<NodeId> roots(layout.root.begin(), layout.root.end());
  EXPECT_EQ(roots.size(), layout.root.size());

  for (const auto& committee : layout.committees) {
    EXPECT_EQ(committee.size(), cfg.resolved_committee_size());
    std::set<NodeId> uniq(committee.begin(), committee.end());
    EXPECT_EQ(uniq.size(), committee.size());  // no duplicate members
    for (NodeId m : committee) EXPECT_LT(m, cfg.n);
  }
}

TEST(AeLayoutTest, MemberIndexAgreesWithMembership) {
  AeConfig cfg = config_for(256);
  const AeLayout layout = AeLayout::build(cfg);
  const auto& committee = layout.committees[0];
  for (std::size_t i = 0; i < committee.size(); ++i) {
    EXPECT_EQ(layout.member_index(0, committee[i]), static_cast<long>(i));
    EXPECT_TRUE(layout.in_committee(0, committee[i]));
  }
  // A node not in the committee.
  for (NodeId id = 0; id < cfg.n; ++id) {
    if (std::find(committee.begin(), committee.end(), id) == committee.end()) {
      EXPECT_FALSE(layout.in_committee(0, id));
      break;
    }
  }
}

TEST(AeScheduleTest, RoundArithmetic) {
  AeConfig cfg = config_for(256);
  const AeSchedule sched = AeSchedule::from(cfg);
  EXPECT_EQ(sched.phases, (cfg.resolved_committee_size() - 1) / 4 + 1);
  EXPECT_EQ(sched.exchange_round(0), 1u);
  EXPECT_EQ(sched.king_round(0), 2u);
  EXPECT_EQ(sched.exchange_round(1), 3u);
  EXPECT_EQ(sched.final_broadcast_round(), 1 + 2 * sched.phases);
  EXPECT_EQ(sched.assemble_round(), 2 + 2 * sched.phases);

  // Delivery-round inverses: exchange of phase p is delivered at 2 + 2p.
  EXPECT_EQ(sched.exchange_phase_at(2), 0);
  EXPECT_EQ(sched.exchange_phase_at(4), 1);
  EXPECT_EQ(sched.exchange_phase_at(3), -1);
  EXPECT_EQ(sched.king_phase_at(3), 0);
  EXPECT_EQ(sched.king_phase_at(5), 1);
  EXPECT_EQ(sched.king_phase_at(4), -1);
  // Past the last phase nothing matches.
  EXPECT_EQ(sched.exchange_phase_at(sched.assemble_round()), -1);
}

// ----- protocol runs -------------------------------------------------------------

TEST(AeRunTest, SilentAdversaryYieldsUnanimity) {
  const AeRunResult result = run_ae(config_for(256, 1));
  const AeReport& r = result.report;
  EXPECT_EQ(r.knowledgeable_count, r.correct_count);
  EXPECT_TRUE(r.precondition_met);
  EXPECT_FALSE(result.winner.empty());
  EXPECT_EQ(result.winner.size(), config_for(256).gstring_bits());
}

TEST(AeRunTest, RoundsMatchSchedule) {
  AeConfig cfg = config_for(256, 2);
  const AeRunResult result = run_ae(cfg);
  const AeSchedule sched = AeSchedule::from(cfg);
  EXPECT_EQ(result.report.rounds, sched.assemble_round());
}

TEST(AeRunTest, PerNodeStringsMatchWinnerForCorrectNodes) {
  const AeRunResult result = run_ae(config_for(128, 3));
  std::vector<bool> corrupt(128, false);
  for (NodeId id : result.corrupt) corrupt[id] = true;
  for (NodeId id = 0; id < 128; ++id) {
    if (corrupt[id]) {
      EXPECT_TRUE(result.assembled[id].empty());
    } else {
      EXPECT_EQ(result.assembled[id], result.winner);
    }
  }
}

TEST(AeRunTest, CommunicationGrowsPolylogarithmically) {
  // Per-node bits must grow far slower than linearly in n: quadrupling the
  // network should much less than double the per-node cost (committee sizes
  // grow only with log n).
  const AeRunResult small = run_ae(config_for(256, 4));
  const AeRunResult large = run_ae(config_for(1024, 4));
  const double growth =
      large.report.amortized_bits / small.report.amortized_bits;
  EXPECT_LT(growth, 2.0);
}

TEST(AeRunTest, DeterministicAcrossRuns) {
  const AeRunResult a = run_ae(config_for(128, 5));
  const AeRunResult b = run_ae(config_for(128, 5));
  EXPECT_EQ(a.winner, b.winner);
  EXPECT_EQ(a.report.total_bits, b.report.total_bits);
  EXPECT_EQ(a.corrupt, b.corrupt);
}

TEST(AeRunTest, HonestSlicesProvideRandomBits) {
  // The 2/3 + eps randomness precondition: with t/n = 5%, the corrupt root
  // fraction stays far below 1/3 w.h.p., so most slices are honest-random.
  const AeRunResult result = run_ae(config_for(512, 6));
  EXPECT_GT(result.report.honest_slice_fraction, 2.0 / 3.0);
}

class AeSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AeSeedSweep, EquivocationCannotBreakThePrecondition) {
  const AeRunResult result =
      run_ae(config_for(256, GetParam()), ae_equivocate_strategy());
  EXPECT_TRUE(result.report.precondition_met)
      << "knowledgeable " << result.report.knowledgeable_count;
  // Phase king holds committees together: unanimity among correct nodes
  // unless a committee exceeded its corruption tolerance (rare at 5%).
  EXPECT_GE(result.report.knowledgeable_fraction, 0.90);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AeSeedSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(AeRunTest, HigherCorruptionDegradesGracefully) {
  AeConfig cfg = config_for(256, 7);
  cfg.corrupt_fraction = 0.15;
  const AeRunResult result = run_ae(cfg, ae_equivocate_strategy());
  // Committees can fail at 15%, but the plurality string must still
  // dominate: the tournament degrades, it does not collapse.
  EXPECT_GT(result.report.knowledgeable_fraction, 0.5);
}

TEST(AeRunTest, NonRushingRunsToo) {
  const AeRunResult result =
      run_ae(config_for(128, 8), ae_equivocate_strategy(), false);
  EXPECT_TRUE(result.report.precondition_met);
}

TEST(AeRunTest, RejectsTinyNetworks) {
  EXPECT_THROW(run_ae(config_for(8)), ConfigError);
}

// ----- the phase king inside each committee ------------------------------------

/// What correct nodes sent during a run: each correct root's contribution
/// and, per committee, every value its correct members announced.
struct CommitteeTap {
  std::map<std::size_t, std::uint64_t> contrib;
  std::map<std::size_t, std::set<std::uint64_t>> announced;
};

/// Splits every committee in half. Corrupt root members contribute A = 0 to
/// the first half and B = the slice mask to the second; corrupt members do
/// the same in every exchange round and in every king round they own. The
/// tap records correct roots' kContrib and correct members' kFinalSlice.
class SplitCommitteeStrategy final : public adv::Strategy {
 public:
  SplitCommitteeStrategy(const AeWorldView& view, CommitteeTap* tap)
      : shared_(view.shared), tap_(tap), corrupt_(view.shared->config.n) {
    for (NodeId id : view.corrupt) corrupt_[id] = true;
  }

  void on_setup(adv::AdvContext& ctx) override {
    const AeLayout& layout = shared_->layout;
    for (std::size_t i = 0; i < layout.root.size(); ++i) {
      if (!corrupt_[layout.root[i]]) continue;
      split(ctx, layout.root[i], i,
            [i](std::uint64_t v) { return contrib_msg(i, v); });
    }
  }

  void on_round(adv::AdvContext& ctx, Round round, bool rushing) override {
    (void)rushing;
    const AeSchedule& sched = shared_->schedule;
    const AeLayout& layout = shared_->layout;
    for (std::size_t i = 0; i < layout.committees.size(); ++i) {
      const auto& members = layout.committees[i];
      for (NodeId z : members) {
        if (!corrupt_[z]) continue;
        for (std::size_t p = 0; p < sched.phases; ++p) {
          if (round == sched.exchange_round(p)) {
            split(ctx, z, i,
                  [i, p](std::uint64_t v) { return pk_value_msg(i, p, v); });
          }
          if (round == sched.king_round(p) && sched.king(members, p) == z) {
            split(ctx, z, i,
                  [i, p](std::uint64_t v) { return pk_king_msg(i, p, v); });
          }
        }
      }
    }
  }

  void on_observe(adv::AdvContext& ctx, const sim::Envelope& env) override {
    (void)ctx;
    if (corrupt_[env.src]) return;
    if (env.msg.kind == sim::MessageKind::kContrib) {
      tap_->contrib[env.msg.slice] = env.msg.value;
    } else if (env.msg.kind == sim::MessageKind::kFinalSlice) {
      tap_->announced[env.msg.slice].insert(env.msg.value);
    }
  }

 private:
  template <typename Make>
  void split(adv::AdvContext& ctx, NodeId from, std::size_t slice,
             const Make& make) {
    const std::size_t bits = shared_->config.slice_bits();
    const std::uint64_t b = bits >= 64 ? ~0ull : (1ull << bits) - 1;
    const auto& members = shared_->layout.committees[slice];
    for (std::size_t k = 0; k < members.size(); ++k) {
      ctx.send_from(from, members[k], make(k < members.size() / 2 ? 0 : b));
    }
  }

  AeShared* shared_;
  CommitteeTap* tap_;
  std::vector<bool> corrupt_;
};

TEST(AePhaseKingTest, SplitCommitteesAgreeOnTheRootsSlice) {
  // kssv.cpp's adopt rule (keep the majority when mult > g/2 + t_c, else
  // obey the king) at g = 9, so t_c = 2 and three phases. 20% corruption
  // leaves most committees with one or two corrupt members.
  std::size_t checked = 0;
  std::size_t corrupt_roots = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    AeConfig cfg = config_for(128, seed);
    cfg.committee_size = 9;
    cfg.corrupt_fraction = 0.2;
    CommitteeTap tap;
    const AeRunResult result =
        run_ae(cfg, [&tap](const AeWorldView& view) {
          return std::make_unique<SplitCommitteeStrategy>(view, &tap);
        });
    std::vector<bool> corrupt(cfg.n);
    for (NodeId id : result.corrupt) corrupt[id] = true;
    const AeLayout layout = AeLayout::build(cfg);
    const std::size_t t_c = (cfg.committee_size - 1) / 4;
    for (std::size_t i = 0; i < layout.committees.size(); ++i) {
      std::size_t bad = 0;
      for (NodeId m : layout.committees[i]) bad += corrupt[m] ? 1 : 0;
      if (bad > t_c) continue;
      ++checked;
      // Agreement: the committee's correct members announce one value.
      const std::set<std::uint64_t>& values = tap.announced[i];
      EXPECT_EQ(values.size(), 1u) << "seed " << seed << " committee " << i;
      if (values.size() != 1) continue;
      if (corrupt[layout.root[i]]) {
        ++corrupt_roots;
        continue;
      }
      // Validity: a correct root's slice survives the corrupt members.
      EXPECT_EQ(*values.begin(), tap.contrib.at(i))
          << "seed " << seed << " committee " << i;
    }
  }
  EXPECT_GE(checked, 12u * 8);
  EXPECT_GT(corrupt_roots, 0u);
}

}  // namespace
}  // namespace fba::ae
