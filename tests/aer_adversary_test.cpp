// Adversarial AER tests: each strategy in the gallery exercises the attack
// one of the paper's lemmas defends against; agreement and safety must hold
// at the default operating point.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "adversary/strategies.h"
#include "aer/messages.h"
#include "aer/protocol.h"
#include "aer/soa.h"
#include "exp/aggregate.h"
#include "exp/shard.h"

namespace fba::aer {
namespace {

AerConfig attack_config(std::uint64_t seed, Model model = Model::kSyncRushing) {
  AerConfig cfg;
  cfg.n = 128;
  cfg.seed = seed;
  cfg.model = model;
  cfg.d_override = 16;  // extra margin: these runs face live adversaries
  return cfg;
}

// ----- crash / silent -----------------------------------------------------------

TEST(AdversaryAerTest, SilentAdversaryIsHarmless) {
  const AerReport report = run_aer(attack_config(1), [](const AerWorldView&) {
    return std::make_unique<adv::SilentStrategy>();
  });
  EXPECT_TRUE(report.agreement);
}

// ----- Lemma 4/5: junk diffusion ---------------------------------------------------

class JunkSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JunkSweep, AgreementSurvivesCoordinatedJunk) {
  const AerReport report =
      run_aer(attack_config(GetParam()), [](const AerWorldView& view) {
        return std::make_unique<adv::JunkPushStrategy>(view, 3, 32);
      });
  EXPECT_TRUE(report.agreement);
  EXPECT_EQ(report.nodes_missing_gstring, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JunkSweep, ::testing::Values(1, 2, 3, 4, 5));

TEST(AdversaryAerTest, JunkSearchFindsAtMostFewQuorums) {
  // Even with a search budget, the junk strings the adversary diffuses must
  // not blow up candidate lists (Lemma 4's O(mu n) bound).
  const AerReport report =
      run_aer(attack_config(6), [](const AerWorldView& view) {
        return std::make_unique<adv::JunkPushStrategy>(view, 1, 64);
      });
  EXPECT_LE(report.sum_candidate_lists,
            2 * report.correct_count + report.n / 4);
}

// ----- Lemma 7: safety under wrong answers ------------------------------------------

class SafetySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SafetySweep, NoCorrectNodeDecidesJunk) {
  const AerReport report =
      run_aer(attack_config(GetParam()), [](const AerWorldView& view) {
        return std::make_unique<adv::WrongAnswerStrategy>(view, 16);
      });
  // Liveness AND safety: everyone decides, and only on gstring. A single
  // wrong decision would make decided_gstring < decided_count.
  EXPECT_EQ(report.decided_gstring, report.decided_count);
  EXPECT_TRUE(report.agreement);
}

/// The wrong-answer attack with every corrupt answer sent d times: a
/// requester must credit each poll-list member once, whatever it repeats.
/// No registry strategy repeats a message.
class RepeatedWrongAnswerStrategy final : public adv::Strategy {
 public:
  explicit RepeatedWrongAnswerStrategy(const AerWorldView& view)
      : wrong_(view, 16), repeats_(view.shared->config.resolved_d()) {}

  void on_setup(adv::AdvContext& ctx) override { wrong_.on_setup(ctx); }
  void on_deliver_to_corrupt(adv::AdvContext& ctx,
                             const sim::Envelope& env) override {
    for (std::size_t i = 0; i < repeats_; ++i) {
      wrong_.on_deliver_to_corrupt(ctx, env);
    }
  }

 private:
  adv::WrongAnswerStrategy wrong_;
  std::size_t repeats_;
};

TEST_P(SafetySweep, RepeatedAnswersCountOncePerMemberOnBothActors) {
  const AerConfig cfg = attack_config(GetParam());
  const StrategyFactory repeat = [](const AerWorldView& view) {
    return std::make_unique<RepeatedWrongAnswerStrategy>(view);
  };
  const AerReport pointer = run_aer(cfg, repeat);
  AerWorld world = build_aer_world(cfg);
  SoaArena arena;
  const AerReport soa = run_aer_world_soa(world, arena, {}, repeat);
  for (const AerReport* report : {&pointer, &soa}) {
    EXPECT_EQ(report->decided_gstring, report->decided_count);
    EXPECT_TRUE(report->agreement);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SafetySweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ----- Lemma 6: poll stuffing / overload ---------------------------------------------

TEST(AdversaryAerTest, PollStuffingCannotStopAgreement) {
  AerConfig cfg = attack_config(7);
  cfg.answer_budget = 8;  // tight budget so the attack actually bites
  std::size_t victims = 0;
  const AerReport report = run_aer(cfg, [&victims](const AerWorldView& view) {
    auto strategy = std::make_unique<adv::PollStuffStrategy>(view, 16, 512);
    return strategy;
  });
  EXPECT_TRUE(report.agreement);
}

TEST(AdversaryAerTest, PollStuffingBurnsBudgetsButDeferralRecovers) {
  // Budget above the honest per-responder load (~d) but low enough that the
  // coalition saturates some victims: deferral must carry those through.
  AerConfig cfg = attack_config(8);
  cfg.answer_budget = 20;
  const AerReport report = run_aer(cfg, [](const AerWorldView& view) {
    return std::make_unique<adv::PollStuffStrategy>(view, 20, 512);
  });
  EXPECT_TRUE(report.agreement);
}

TEST(AdversaryAerTest, PollStuffingWinsBelowTheBudgetThreshold) {
  // Lemma 6's quantitative content, seen from the other side: if the answer
  // budget falls below the honest load + per-victim burn, the eager
  // overload attack stalls the network. The paper's log^2 n budget is
  // exactly what rules this regime out asymptotically.
  AerConfig cfg = attack_config(8);
  cfg.answer_budget = 4;  // far below d = 16
  cfg.max_rounds = 60;
  const AerReport report = run_aer(cfg, [](const AerWorldView& view) {
    return std::make_unique<adv::PollStuffStrategy>(view, 4, 512);
  });
  EXPECT_FALSE(report.agreement);
  // Stalls are honest: nobody decided a wrong value.
  EXPECT_EQ(report.decided_gstring, report.decided_count);
}

TEST(AdversaryAerTest, RushingStuffingIsNoWorseThanDelayedAtThisScale) {
  // Lemma 6 vs Lemma 8: the rushing adversary reacts within the round, the
  // non-rushing one a round later. Both must fail to break agreement; the
  // rushing run may take longer.
  AerConfig rushing = attack_config(9, Model::kSyncRushing);
  AerConfig nonrushing = attack_config(9, Model::kSyncNonRushing);
  rushing.answer_budget = nonrushing.answer_budget = 6;
  auto factory = [](const AerWorldView& view) {
    return std::make_unique<adv::PollStuffStrategy>(view, 16, 512);
  };
  const AerReport r1 = run_aer(rushing, factory);
  const AerReport r2 = run_aer(nonrushing, factory);
  EXPECT_TRUE(r1.agreement);
  EXPECT_TRUE(r2.agreement);
  EXPECT_GE(r1.completion_time + 3.0, r2.completion_time);
}

// ----- async delay attacks -----------------------------------------------------------

TEST(AdversaryAerTest, TargetedDelaysSlowButDoNotBreakAsync) {
  AerConfig fast_cfg = attack_config(10, Model::kAsync);
  const AerReport fast = run_aer(fast_cfg);

  AerConfig slow_cfg = attack_config(10, Model::kAsync);
  const AerReport slow =
      run_aer(slow_cfg, [](const AerWorldView& view) {
        return std::make_unique<adv::TargetedDelayStrategy>(view);
      });
  EXPECT_TRUE(slow.agreement);
  // Stretching answers and forwards to the delay bound costs time.
  EXPECT_GT(slow.completion_time, fast.completion_time * 0.8);
}

TEST(AdversaryAerTest, ComboAttackStillLosesAtDefaults) {
  AerConfig cfg = attack_config(11, Model::kAsync);
  cfg.answer_budget = 8;
  const AerReport report = run_aer(cfg, [](const AerWorldView& view) {
    auto combo = std::make_unique<adv::ComboStrategy>();
    combo->add(std::make_unique<adv::JunkPushStrategy>(view, 2, 16));
    combo->add(std::make_unique<adv::WrongAnswerStrategy>(view, 8));
    combo->add(std::make_unique<adv::PollStuffStrategy>(view, 8, 256));
    combo->set_delay_policy(
        std::make_unique<adv::TargetedDelayStrategy>(view));
    return combo;
  });
  EXPECT_TRUE(report.agreement);
}

// ----- load skew (Figure 1a's "not load-balanced") -------------------------------------

TEST(AdversaryAerTest, QuorumSeizureSkewsTheVictimsLoad) {
  // At t/n = 0.30 a constant fraction of random strings has a corrupt
  // majority in I(s, victim): the coalition plants many candidates on the
  // victim, whose verification traffic then dwarfs the mean — the paper's
  // reason AER is not load-balanced.
  AerConfig cfg;
  cfg.n = 256;
  cfg.seed = 3;
  cfg.corrupt_fraction = 0.30;
  cfg.max_rounds = 40;
  std::size_t planted = 0;
  AerWorld world = build_aer_world(cfg);
  const AerReport report = run_aer_world(
      world, [&planted](const AerWorldView& view) {
        auto strategy = std::make_unique<adv::LoadSkewStrategy>(view, 0, 1024);
        planted = strategy->strings_planted();
        return strategy;
      });
  EXPECT_GT(planted, 10u);  // the search succeeds at this corruption level
  EXPECT_GT(report.max_candidate_list, 10u);  // the victim's list blew up
  EXPECT_GT(report.sent_bits.imbalance(), 1.5);
}

// ----- Algorithm 2's relay checks against forged Fw1 copies ------------------------------

/// Forged Fw1 copies sent, one counter per relay check they break.
struct ForgedFw1Counts {
  std::uint64_t wrong_label = 0;     ///< label other than x's r
  std::uint64_t w_outside_j = 0;     ///< w not in J(x, r)
  std::uint64_t relay_outside = 0;   ///< sent to a relay not in H(s, w)
  std::uint64_t sender_outside = 0;  ///< from a corrupt node not in H(s, x)
};

/// When a corrupt forwarder c in H(s, x) receives Pull(s, r) from x, the
/// coalition sends Fw1 copies that each break exactly one of the relay's
/// three checks (this in H(s, w), y in H(s, x), w in J(x, r)), or carry
/// a label other than r. A relay must reject the first three kinds; a
/// wrong-label copy counts only where the forged label passes every check
/// on its own. None of the registry strategies sends Fw1.
class ForgedFw1Strategy final : public adv::Strategy {
 public:
  ForgedFw1Strategy(const AerWorldView& view, ForgedFw1Counts& counts)
      : shared_(*view.shared), counts_(counts) {}

  void on_deliver_to_corrupt(adv::AdvContext& ctx,
                             const sim::Envelope& env) override {
    if (env.msg.kind != sim::MessageKind::kPull) return;
    const NodeId x = env.src;
    const NodeId c = env.dst;
    const StringId s = env.msg.s;
    const PollLabel r = env.msg.r;
    const sampler::QuorumView h_x = shared_.pull_quorum(s, x);
    if (!h_x.contains(c)) return;
    const NodeId outsider = corrupt_outside(ctx, h_x);
    const sampler::QuorumView j = shared_.poll_list(x, r);
    for (std::uint32_t i = 0; i < j.distinct_count; ++i) {
      const NodeId w = j.distinct[i];
      const sampler::QuorumView h_w = shared_.pull_quorum(s, w);
      send_to(ctx, c, h_w, fw1_msg(x, s, r ^ 1, w), counts_.wrong_label);
      if (outsider != kNoNode) {
        send_to(ctx, outsider, h_w, fw1_msg(x, s, r, w),
                counts_.sender_outside);
      }
      const NodeId z = correct_outside(ctx, h_w, w);
      if (z != kNoNode) {
        ctx.send_from(c, z, fw1_msg(x, s, r, w));
        ++counts_.relay_outside;
      }
    }
    const NodeId w = correct_outside(ctx, j, x);
    if (w != kNoNode) {
      send_to(ctx, c, shared_.pull_quorum(s, w), fw1_msg(x, s, r, w),
              counts_.w_outside_j);
    }
  }

 private:
  static constexpr NodeId kNoNode = ~NodeId{0};

  static void send_to(adv::AdvContext& ctx, NodeId from,
                      const sampler::QuorumView& relays,
                      const sim::Message& msg, std::uint64_t& counter) {
    for (std::uint32_t k = 0; k < relays.distinct_count; ++k) {
      ctx.send_from(from, relays.distinct[k], msg);
      ++counter;
    }
  }
  /// The first correct node after `start` (cyclically) outside `q`.
  static NodeId correct_outside(adv::AdvContext& ctx,
                                const sampler::QuorumView& q, NodeId start) {
    const std::size_t n = ctx.n();
    for (std::size_t k = 1; k <= n; ++k) {
      const auto id = static_cast<NodeId>((start + k) % n);
      if (!ctx.is_corrupt(id) && !q.contains(id)) return id;
    }
    return kNoNode;
  }
  static NodeId corrupt_outside(adv::AdvContext& ctx,
                                const sampler::QuorumView& q) {
    for (const NodeId id : ctx.corrupt_nodes()) {
      if (!q.contains(id)) return id;
    }
    return kNoNode;
  }

  const AerShared& shared_;
  ForgedFw1Counts& counts_;
};

/// Every protocol-visible field of one run (exp::outcome_fingerprint minus
/// the memory account, which only the SoA runner fills), plus the sampler
/// rows the run built: a relay that skipped a check for the wrong copy
/// builds different rows even where no decision moves.
std::uint64_t run_digest(const AerReport& report, const AerWorld& world) {
  exp::TrialOutcome outcome = exp::outcome_of(report, world);
  outcome.mem_bytes_per_node = 0;
  std::uint64_t h = exp::outcome_fingerprint(outcome);
  const sampler::SharedTables& tables = world.shared->tables;
  for (const std::size_t rows : {tables.push.rows_built(),
                                 tables.pull.rows_built(),
                                 tables.poll.rows_built()}) {
    h = (h ^ rows) * 0x100000001b3ull;
  }
  return h;
}

TEST(ForgedFw1Test, RelaysRejectForgedCopiesOnBothActors) {
  // Pinned per model over seeds 1-6, as a relay that runs all three checks
  // on every copy computes them. The two sync models agree: the strategy
  // acts only on delivery, and with every forgery filtered out they carry
  // the same correct traffic.
  const std::vector<std::pair<Model, std::uint64_t>> pinned = {
      {Model::kSyncRushing, 0xc0e314073ad56b61ull},
      {Model::kSyncNonRushing, 0xc0e314073ad56b61ull},
      {Model::kAsync, 0x62204a9b53441616ull},
  };
  for (const auto& [model, want] : pinned) {
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      AerConfig cfg;
      cfg.n = 64;
      cfg.seed = seed;
      cfg.model = model;
      cfg.corrupt_fraction = 0.15;
      cfg.max_rounds = 80;
      ForgedFw1Counts pointer_counts, soa_counts;
      auto forger = [](ForgedFw1Counts& counts) {
        return [&counts](const AerWorldView& view) {
          return std::make_unique<ForgedFw1Strategy>(view, counts);
        };
      };
      AerWorld pointer_world = build_aer_world(cfg);
      const AerReport pointer =
          run_aer_world(pointer_world, forger(pointer_counts));
      AerWorld soa_world = build_aer_world(cfg);
      SoaArena arena;
      const AerReport soa =
          run_aer_world_soa(soa_world, arena, {}, forger(soa_counts));

      const std::uint64_t pointer_digest = run_digest(pointer, pointer_world);
      EXPECT_EQ(pointer_digest, run_digest(soa, soa_world))
          << model_name(model) << " seed " << seed;
      EXPECT_EQ(pointer_counts.wrong_label, soa_counts.wrong_label);
      EXPECT_EQ(pointer_counts.sender_outside, soa_counts.sender_outside);
      // The forgeries were sent: every kind, on every run.
      EXPECT_GT(pointer_counts.wrong_label, 0u) << seed;
      EXPECT_GT(pointer_counts.w_outside_j, 0u) << seed;
      EXPECT_GT(pointer_counts.relay_outside, 0u) << seed;
      EXPECT_GT(pointer_counts.sender_outside, 0u) << seed;
      EXPECT_EQ(pointer.decided_gstring, pointer.decided_count) << seed;
      digest = (digest ^ pointer_digest) * 0x100000001b3ull;
    }
    EXPECT_EQ(digest, want) << model_name(model) << ": 0x" << std::hex
                            << digest;
  }
}

// ----- Algorithm 2/3 credit dedupes against repeated valid copies -------------------------

/// Corrupt nodes play forwarder and relay by the book, but send every copy
/// d times: a corrupt forwarder in H(s, x) repeats each Fw1 it owes for a
/// Pull, and a corrupt relay repeats its Fw2 to w on the first Fw1 it gets
/// for (x, s, w). Every copy passes the receiver's membership checks, so
/// only the once-per-member credit of a relay's Fw1 tally and a
/// responder's Fw2 tally keeps the repeats from counting d times.
class RepeatedRelayStrategy final : public adv::Strategy {
 public:
  explicit RepeatedRelayStrategy(const AerWorldView& view)
      : shared_(*view.shared), repeats_(view.shared->config.resolved_d()) {}

  void on_deliver_to_corrupt(adv::AdvContext& ctx,
                             const sim::Envelope& env) override {
    const sim::Message& m = env.msg;
    if (m.kind == sim::MessageKind::kPull) {
      const NodeId x = env.src;
      if (!shared_.pull_quorum(m.s, x).contains(env.dst)) return;
      const sampler::QuorumView j = shared_.poll_list(x, m.r);
      for (std::uint32_t i = 0; i < j.distinct_count; ++i) {
        const NodeId w = j.distinct[i];
        const sampler::QuorumView h_w = shared_.pull_quorum(m.s, w);
        for (std::uint32_t k = 0; k < h_w.distinct_count; ++k) {
          repeat(ctx, env.dst, h_w.distinct[k], fw1_msg(x, m.s, m.r, w));
        }
      }
    } else if (m.kind == sim::MessageKind::kFw1) {
      // (relay, x, w, s) fire once, as a correct relay's tally does.
      const auto key = std::make_tuple(env.dst, m.a, m.b, m.s);
      if (!fired_.insert(key).second) return;
      repeat(ctx, env.dst, m.b, fw2_msg(m.a, m.s, m.r));
    }
  }

 private:
  void repeat(adv::AdvContext& ctx, NodeId from, NodeId to,
              const sim::Message& msg) const {
    for (std::size_t i = 0; i < repeats_; ++i) ctx.send_from(from, to, msg);
  }

  const AerShared& shared_;
  std::size_t repeats_;
  std::set<std::tuple<NodeId, NodeId, NodeId, StringId>> fired_;
};

TEST(RepeatedRelayTest, RepeatedFw1AndFw2CopiesCountOncePerMember) {
  // Pinned per model over seeds 1-6 at n = 64, t = 0.15 n, 80% knowledgeable
  // nodes: the unknowledgeable forwarders and relays keep correct tallies
  // short of a majority for a while, so a repeat credited more than once
  // fires a relay or a responder early and moves the run.
  const std::vector<std::pair<Model, std::uint64_t>> pinned = {
      {Model::kSyncRushing, 0x686df7402ba6ebd5ull},
      {Model::kSyncNonRushing, 0x686df7402ba6ebd5ull},
      {Model::kAsync, 0x9fd606ddec4f8612ull},
  };
  const StrategyFactory repeat = [](const AerWorldView& view) {
    return std::make_unique<RepeatedRelayStrategy>(view);
  };
  for (const auto& [model, want] : pinned) {
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      AerConfig cfg;
      cfg.n = 64;
      cfg.seed = seed;
      cfg.model = model;
      cfg.corrupt_fraction = 0.15;
      cfg.knowledgeable_fraction = 0.8;
      cfg.max_rounds = 80;
      AerWorld pointer_world = build_aer_world(cfg);
      const AerReport pointer = run_aer_world(pointer_world, repeat);
      AerWorld soa_world = build_aer_world(cfg);
      SoaArena arena;
      const AerReport soa = run_aer_world_soa(soa_world, arena, {}, repeat);

      const std::uint64_t pointer_digest = run_digest(pointer, pointer_world);
      EXPECT_EQ(pointer_digest, run_digest(soa, soa_world))
          << model_name(model) << " seed " << seed;
      EXPECT_EQ(pointer.decided_gstring, pointer.decided_count) << seed;
      digest = (digest ^ pointer_digest) * 0x100000001b3ull;
    }
    EXPECT_EQ(digest, want) << model_name(model) << ": 0x" << std::hex
                            << digest;
  }
}

// ----- resilience limits ---------------------------------------------------------------

TEST(AdversaryAerTest, HigherCorruptionNeedsBiggerQuorums) {
  // At t/n = 0.20 with large quorums the protocol still clears (the paper's
  // asymptotic t < (1/3 - eps) n needs d beyond laptop scale; see DESIGN.md).
  AerConfig cfg;
  cfg.n = 128;
  cfg.seed = 13;
  cfg.corrupt_fraction = 0.20;
  cfg.knowledgeable_fraction = 0.97;
  cfg.d_override = 24;
  const AerReport report = run_aer(cfg);
  EXPECT_TRUE(report.agreement);
}

TEST(AdversaryAerTest, BeyondHalfBadPrecondViolatedProtocolFailsHonestly) {
  // When the precondition (correct & knowledgeable > 1/2) is violated, the
  // protocol must not fabricate agreement on junk — nodes simply stall.
  AerConfig cfg;
  cfg.n = 128;
  cfg.seed = 14;
  cfg.corrupt_fraction = 0.30;
  cfg.knowledgeable_fraction = 0.60;  // 0.7 * 0.6 = 0.42 < 1/2 knowledgeable
  cfg.d_override = 16;
  cfg.max_rounds = 40;
  const AerReport report = run_aer(cfg);
  EXPECT_FALSE(report.agreement);
  // Safety is never traded: whatever decisions happened are on gstring.
  EXPECT_EQ(report.decided_gstring, report.decided_count);
}

}  // namespace
}  // namespace fba::aer
