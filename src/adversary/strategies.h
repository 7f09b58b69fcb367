// Adversary strategy gallery for AER.
//
// Each strategy realizes one of the attacks the paper's analysis defends
// against:
//   - JunkPushStrategy      (Lemma 4): coordinated junk-string diffusion,
//     optionally searching the string domain for quorums it can win.
//   - PushFloodStrategy     (Section 3.1.1): blind flooding — nodes never
//     react to pushes, so this should cost the adversary only its own bits.
//   - PollStuffStrategy     (Lemma 6): the overload-chain attack — burn
//     poll-list members' log^2(n) answer budgets with pull requests for
//     gstring, targeting the nodes that honest requesters polled.
//   - WrongAnswerStrategy   (Lemma 7): corrupt poll-list members vouch for a
//     junk string, trying to push a wrong decision over the majority line.
//   - TargetedDelayStrategy (async): stretch the delivery of decisive
//     messages (answers, forwards) to the reliability bound while keeping
//     adversary traffic fast.
//   - SilentStrategy: crash faults (the "no Byzantine fault" baseline — AER
//     guarantees success in this regime).
//   - ComboStrategy: composition of the above.
//
// Strategies capture the full-information world view (public samplers,
// everyone's initial candidate, gstring) — exactly what the paper's
// adversary knows.
#pragma once

#include <memory>
#include <vector>

#include "adversary/adversary.h"
#include "aer/protocol.h"

namespace fba::adv {

/// Crash faults: corrupt nodes never send anything.
class SilentStrategy final : public Strategy {};

/// Lemma 4 attack: all corrupt nodes coordinate on `num_strings` junk
/// strings and push them through the proper Push Quorum channels (receivers
/// only count quorum members, so this is the strongest legal injection).
/// With `search_trials` > 0 the adversary samples that many candidate junk
/// strings and keeps the ones winning the most quorums.
class JunkPushStrategy : public Strategy {
 public:
  JunkPushStrategy(const aer::AerWorldView& view, std::size_t num_strings = 1,
                   std::size_t search_trials = 0);

  void on_setup(AdvContext& ctx) override;

  const std::vector<StringId>& junk_strings() const { return junk_; }

 protected:
  aer::AerShared* shared_;
  std::vector<StringId> junk_;
};

/// Blind flooding: every corrupt node sprays `pushes_per_node` pushes of
/// random fresh strings at random targets. Receivers discard them at the
/// quorum-membership filter; candidate lists must not grow.
class PushFloodStrategy final : public Strategy {
 public:
  PushFloodStrategy(const aer::AerWorldView& view,
                    std::size_t pushes_per_node = 32);

  void on_setup(AdvContext& ctx) override;

 private:
  aer::AerShared* shared_;
  std::size_t pushes_per_node_;
};

/// Lemma 6 overload attack. Each corrupt node issues one properly routed
/// pull request for gstring (quorum forwarding dedupes per (requester,
/// string), so one is all an attacker gets) and polls every member of its
/// poll list: each polled member eventually answers the attacker, burning
/// one unit of its per-string answer budget. The label is chosen by a
/// full-information search over R to cover the most not-yet-saturated
/// victims. Total burn capacity is t * d budget units — overload requires
/// t ~ log^2 n corrupt nodes, exactly the paper's margin ("the adversary
/// can send pull requests at most once for each node it controls").
class PollStuffStrategy final : public Strategy {
 public:
  /// `budget_estimate` is the responder budget the adversary assumes when
  /// deciding that a victim is saturated (it knows the protocol constants);
  /// 0 means the configured answer budget. With `eager`, strikes happen at
  /// setup so they precede all honest traffic; otherwise they are
  /// observation-triggered (a strictly weaker, non-rushing-friendly mode).
  PollStuffStrategy(const aer::AerWorldView& view,
                    std::size_t budget_estimate = 0,
                    std::size_t label_search_budget = 512, bool eager = true);

  void on_setup(AdvContext& ctx) override;
  void on_observe(AdvContext& ctx, const sim::Envelope& env) override;
  void on_round(AdvContext& ctx, Round round, bool rushing) override;

  std::size_t strikes_launched() const { return strikes_launched_; }

 private:
  void strike(AdvContext& ctx, NodeId attacker);
  void launch_all(AdvContext& ctx);

  aer::AerWorldView view_;
  aer::AerShared* shared_;
  std::vector<std::size_t> burned_;  ///< budget units burned per node.
  std::vector<NodeId> poll_scratch_;  ///< reused distinct-member list.
  std::size_t budget_estimate_;
  std::size_t label_search_budget_;
  std::size_t strikes_launched_ = 0;
  bool eager_;
  bool launched_ = false;
};

/// Lemma 7 safety attack: push a junk string s* into candidate lists, then
/// have every corrupt node answer any poll for s* affirmatively, hoping some
/// requester draws a poll list with a corrupt majority.
class WrongAnswerStrategy final : public Strategy {
 public:
  explicit WrongAnswerStrategy(const aer::AerWorldView& view,
                               std::size_t search_trials = 8);

  void on_setup(AdvContext& ctx) override;
  void on_deliver_to_corrupt(AdvContext& ctx,
                             const sim::Envelope& env) override;

  StringId junk() const { return junk_.empty() ? kNoString : junk_.front(); }

 private:
  JunkPushStrategy pusher_;
  std::vector<StringId> junk_;
  StringId gstring_;
};

/// Async-only: deliver adversary-helpful traffic fast and drag decisive
/// honest messages (answers and second-hop forwards by default) to the
/// 1.0 reliability bound.
class TargetedDelayStrategy final : public Strategy {
 public:
  struct Options {
    double slow_delay = 1.0;
    double fast_delay = 0.05;
    bool slow_answers = true;
    bool slow_forwards = true;
    bool slow_everything_honest = false;
  };

  explicit TargetedDelayStrategy(const aer::AerWorldView& view);
  TargetedDelayStrategy(const aer::AerWorldView& view, Options options);

  SimTime choose_delay(AdvContext& ctx, const sim::Envelope& env) override;

 private:
  std::vector<bool> corrupt_;
  Options options_;
};

/// Fans every callback out to children; message delays are delegated to an
/// optional dedicated delay policy.
class ComboStrategy final : public Strategy {
 public:
  ComboStrategy& add(std::unique_ptr<Strategy> child);
  ComboStrategy& set_delay_policy(std::unique_ptr<Strategy> policy);

  void on_setup(AdvContext& ctx) override;
  void on_round(AdvContext& ctx, Round round, bool rushing) override;
  void on_observe(AdvContext& ctx, const sim::Envelope& env) override;
  void on_deliver_to_corrupt(AdvContext& ctx,
                             const sim::Envelope& env) override;
  SimTime choose_delay(AdvContext& ctx, const sim::Envelope& env) override;

 private:
  std::vector<std::unique_ptr<Strategy>> children_;
  std::unique_ptr<Strategy> delay_policy_;
};

/// The load-skew attack behind Figure 1(a)'s "Load-Balanced: No" column for
/// AER ("a Byzantine adversary can seize control of several Input Quorums,
/// associated to a few nodes, and force these nodes to verify an
/// almost-linear number of strings"). With a large coalition, a constant
/// fraction of random strings s has a corrupt majority in I(s, victim); the
/// coalition searches for such strings and pushes them through the proper
/// quorum channels, blowing up the victim's candidate list — every accepted
/// candidate costs the victim its own Algorithm 1 verification traffic.
class LoadSkewStrategy final : public Strategy {
 public:
  LoadSkewStrategy(const aer::AerWorldView& view, NodeId victim,
                   std::size_t string_search_budget = 512);

  void on_setup(AdvContext& ctx) override;

  std::size_t strings_planted() const { return planted_.size(); }
  NodeId victim() const { return victim_; }

 private:
  aer::AerShared* shared_;
  NodeId victim_;
  std::vector<StringId> planted_;
};

/// Corrupt picker that seizes Push Quorum I(gstring, x) slots for the first
/// `victims` nodes (an informed worst case: the real adversary cannot know
/// gstring at corruption time — Lemma 5's point — so this upper-bounds the
/// damage). Remaining budget is spent uniformly.
aer::CorruptPicker corner_gstring_picker(std::size_t victims);

}  // namespace fba::adv
