// AerNode: one protocol participant, implementing both phases of AER
// (Section 3.1) as a pure message-reactive actor — the same code runs under
// the synchronous and asynchronous engines.
//
// Push phase (3.1.1): on start, diffuse the initial candidate s_x to the d
// nodes x' with self in I(s_x, x'). A received Push(s) from y counts toward
// the quorum I(s, self) only if y occupies a slot of it; when more than half
// of the slots have pushed s, s joins the candidate list L_x and a pull is
// started for it. Nodes never react to pushes by sending messages, so the
// phase is impervious to flooding.
//
// Pull phase (3.1.2, Algorithms 1-3): to verify candidate s, send
// Poll(s, r) to the poll list J(self, r) (r fresh and random per candidate)
// and Pull(s, r) to the Pull Quorum H(s, self). Quorum members route the
// request in two majority-filtered hops (Fw1 via H(s, w), then Fw2 to w);
// poll-list members answer subject to the log^2 n budget, deferring excess
// work until they have decided. Deciding requires answers from a majority of
// the poll list.
//
// State layout (the per-delivery hot path touches no node-based container):
//   - per-string tallies (push, my pulls, answer counts, L_x membership)
//     sit behind open-addressed FlatMap64s keyed by the dense StringId;
//     each tally records who already counted in a 64-bit mask over the
//     members' positions in its fixed quorum (aer::credit; d <= 64).
//   - quorum membership/multiplicity checks read the dense sampler tables
//     through AerShared (no hashing, no allocation).
//   - the relay roles (flooding guard, pending pulls, Fw1 tallies,
//     responder state) live in one RelayState (aer/relay_state.h):
//     arrival-ordered vectors behind one FlatMap64 index. An Fw1 copy
//     finds its tally first and, under the tally's label, re-checks only
//     its sender. Post-decision service sends in an order that is pinned
//     behavior (the golden fingerprints); RelayState::serve reproduces it
//     by replaying each role's arrival log.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "aer/config.h"
#include "aer/messages.h"
#include "aer/relay_state.h"
#include "net/node.h"
#include "support/flat_map.h"

namespace fba::aer {

class AerNode final : public sim::Actor {
 public:
  AerNode(const AerShared* shared, NodeId self, StringId initial_candidate);

  /// Re-initializes this node for a fresh trial, keeping every container's
  /// capacity (trial-arena reuse). A reset node behaves bit-identically to a
  /// freshly constructed one.
  void reset(const AerShared* shared, NodeId self, StringId initial_candidate);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Envelope& env) override;

  // ----- post-run introspection (read by the harness / tests) -------------

  bool has_decided() const { return has_decided_; }
  StringId decided_value() const { return decided_; }
  StringId initial_candidate() const { return initial_; }
  /// L_x, including the initial candidate.
  const std::vector<StringId>& candidate_list() const { return candidates_; }
  bool has_candidate(StringId s) const { return in_list_.contains(s); }
  /// Answers emitted for each string (Algorithm 3's Counts).
  std::size_t answers_sent(StringId s) const;
  std::size_t deferred_peak() const { return deferred_peak_; }

  /// Requester-side introspection (tests / diagnostics).
  struct PullStatus {
    PollLabel r = 0;
    std::size_t answered_members = 0;
    std::size_t answered_slots = 0;
  };
  std::optional<PullStatus> pull_status(StringId s) const;

  /// Responder-side introspection for a given requester/string pair.
  struct ResponderStatus {
    bool known = false;
    bool polled = false;
    bool answered = false;
    std::size_t slots = 0;
  };
  ResponderStatus responder_status(NodeId x, StringId s) const;

 private:
  // -- handlers, one per message kind --
  void handle_push(sim::Context& ctx, NodeId from, const sim::Message& m);
  void handle_poll(sim::Context& ctx, NodeId from, const sim::Message& m);
  void handle_pull(sim::Context& ctx, NodeId from, const sim::Message& m);
  void handle_fw1(sim::Context& ctx, NodeId from, const sim::Message& m);
  void handle_fw2(sim::Context& ctx, NodeId from, const sim::Message& m);
  void handle_answer(sim::Context& ctx, NodeId from, const sim::Message& m);

  /// Adds s to L_x (if new) and starts its verification pull (Algorithm 1).
  void accept_candidate(sim::Context& ctx, StringId s);
  void start_pull(sim::Context& ctx, StringId s);

  /// Answer emission with the Algorithm 3 budget: over-budget answers are
  /// deferred until this node decides ("Wait for has_decided").
  void emit_answer(sim::Context& ctx, NodeId x, StringId s);
  void decide(sim::Context& ctx, StringId s);
  bool over_budget(StringId s) const;
  void forward_pull(sim::Context& ctx, NodeId x, StringId s, PollLabel r);

  const AerShared* shared_;
  NodeId self_ = 0;
  StringId initial_ = kNoString;  ///< s_x: forwarding filter for the pull phase.
  StringId current_ = kNoString;  ///< s_this: initial candidate until decision.
  bool has_decided_ = false;
  StringId decided_ = kNoString;

  // -- push-phase state --
  struct PushTally {
    std::uint64_t counted = 0;  ///< pushers, by position in I(s, self).
    std::uint32_t slots = 0;    ///< quorum slots of I(s, self) that pushed.
  };
  support::FlatMap64<PushTally> push_tallies_;  ///< keyed by StringId
  std::vector<StringId> candidates_;
  support::FlatSet64 in_list_;

  // -- requester state (Algorithm 1) --
  struct MyPull {
    PollLabel r = 0;
    std::uint64_t answered = 0;  ///< members that replied, by position in J.
    std::uint32_t slots = 0;     ///< poll-list slots covered by answers.
  };
  support::FlatMap64<MyPull> my_pulls_;  ///< keyed by StringId
  support::FlatMap64<std::uint32_t> answer_counts_;  ///< Counts, by StringId

  /// Forwarder, relay and responder state (Algorithms 2-3).
  RelayState relay_;

  std::vector<std::pair<NodeId, StringId>> deferred_;  ///< over-budget answers
  std::size_t deferred_peak_ = 0;

  /// Scratch for push-target evaluation (on_start).
  std::vector<NodeId> targets_scratch_;
};

}  // namespace fba::aer
