#include "aer/node.h"

#include <algorithm>
#include <bit>

#include "net/network.h"

namespace fba::aer {

// The send loops iterate each quorum's precomputed first-seen-order distinct
// member list (duplicate slots get one message; thresholds still count
// slots) straight out of the dense sampler tables — what used to be a
// freshly allocated distinct_members() vector per send batch.

AerNode::AerNode(const AerShared* shared, NodeId self,
                 StringId initial_candidate)
    : shared_(shared) {
  reset(shared, self, initial_candidate);
}

void AerNode::reset(const AerShared* shared, NodeId self,
                    StringId initial_candidate) {
  shared_ = shared;
  self_ = self;
  initial_ = initial_candidate;
  current_ = initial_candidate;
  has_decided_ = false;
  decided_ = kNoString;

  push_tallies_.clear();
  candidates_.clear();
  in_list_.clear();
  my_pulls_.clear();
  answer_counts_.clear();
  relay_.clear();
  deferred_.clear();
  deferred_peak_ = 0;

  candidates_.push_back(initial_);
  in_list_.insert(initial_);
}

std::size_t AerNode::answers_sent(StringId s) const {
  const std::uint32_t* count = answer_counts_.find(s);
  return count == nullptr ? 0 : *count;
}

std::optional<AerNode::PullStatus> AerNode::pull_status(StringId s) const {
  const MyPull* pull = my_pulls_.find(s);
  if (pull == nullptr) return std::nullopt;
  PullStatus status;
  status.r = pull->r;
  status.answered_members = std::popcount(pull->answered);
  status.answered_slots = pull->slots;
  return status;
}

AerNode::ResponderStatus AerNode::responder_status(NodeId x,
                                                   StringId s) const {
  ResponderStatus status;
  const RelayState::Responder* st = relay_.find_responder(x, s);
  if (st == nullptr) return status;
  status.known = true;
  status.polled = st->polled;
  status.answered = st->answered;
  status.slots = st->slots;
  return status;
}

bool AerNode::over_budget(StringId s) const {
  return answers_sent(s) > shared_->config.resolved_answer_budget();
}

void AerNode::on_start(sim::Context& ctx) {
  // Push phase: diffuse the initial candidate to the d nodes whose Push
  // Quorum for it contains us. The permutation-based sampler gives the
  // target set directly (Lemma 3: O(log n) messages per node).
  shared_->push_targets(initial_, self_, targets_scratch_);
  for (NodeId target : targets_scratch_) {
    ctx.send(target, push_msg(initial_));
  }
  // Algorithm 1 runs over L_x, which initially holds s_x.
  start_pull(ctx, initial_);
}

void AerNode::on_message(sim::Context& ctx, const sim::Envelope& env) {
  switch (env.msg.kind) {
    case sim::MessageKind::kPush:
      handle_push(ctx, env.src, env.msg);
      break;
    case sim::MessageKind::kPoll:
      handle_poll(ctx, env.src, env.msg);
      break;
    case sim::MessageKind::kPull:
      handle_pull(ctx, env.src, env.msg);
      break;
    case sim::MessageKind::kFw1:
      handle_fw1(ctx, env.src, env.msg);
      break;
    case sim::MessageKind::kFw2:
      handle_fw2(ctx, env.src, env.msg);
      break;
    case sim::MessageKind::kAnswer:
      handle_answer(ctx, env.src, env.msg);
      break;
    default:
      break;  // other protocols' kinds (adversarial garbage) are ignored
  }
}

// ----- push phase ----------------------------------------------------------

void AerNode::handle_push(sim::Context& ctx, NodeId from, const sim::Message& m) {
  if (in_list_.contains(m.s)) return;  // already a candidate
  // Filter: only members of I(s, self) may push s to us; each sender is
  // credited once, with its slot multiplicity.
  const sampler::QuorumView quorum = shared_->push_quorum(m.s, self_);
  const sampler::QuorumView::Hit hit = quorum.locate(from);
  if (hit.count == 0) return;  // not in our Push Quorum for s: ignore silently
  PushTally& tally = push_tallies_.get_or_create(m.s);
  if (!credit(tally.counted, hit.pos)) return;
  tally.slots += hit.count;
  if (tally.slots * 2 > quorum.size()) {
    // The tally is no longer needed: membership in L_x short-circuits every
    // later push for s at the top of this handler.
    accept_candidate(ctx, m.s);
  }
}

void AerNode::accept_candidate(sim::Context& ctx, StringId s) {
  if (!in_list_.insert(s)) return;
  candidates_.push_back(s);
  if (!has_decided_) start_pull(ctx, s);
}

// ----- pull phase: requester (Algorithm 1) ---------------------------------

void AerNode::start_pull(sim::Context& ctx, StringId s) {
  if (my_pulls_.contains(s)) return;
  MyPull& pull = my_pulls_.get_or_create(s);
  pull.r = shared_->samplers.poll.random_label(ctx.rng());

  const sim::Message poll = poll_msg(s, pull.r);
  const sampler::QuorumView poll_view = shared_->poll_list(self_, pull.r);
  for (std::uint32_t i = 0; i < poll_view.distinct_count; ++i) {
    ctx.send(poll_view.distinct[i], poll);
  }
  const sim::Message pull_req = pull_msg(s, pull.r);
  const sampler::QuorumView h = shared_->pull_quorum(s, self_);
  for (std::uint32_t i = 0; i < h.distinct_count; ++i) {
    ctx.send(h.distinct[i], pull_req);
  }
}

void AerNode::handle_answer(sim::Context& ctx, NodeId from,
                            const sim::Message& m) {
  if (has_decided_) return;
  MyPull* pull = my_pulls_.find(m.s);
  if (pull == nullptr) return;  // never asked about s
  const sampler::QuorumView poll_list = shared_->poll_list(self_, pull->r);
  const sampler::QuorumView::Hit hit = poll_list.locate(from);
  if (hit.count == 0) return;  // answer from outside J(x, r_{x,s})
  if (!credit(pull->answered, hit.pos)) return;  // one per member
  pull->slots += hit.count;
  if (pull->slots * 2 > poll_list.size()) decide(ctx, m.s);
}

void AerNode::decide(sim::Context& ctx, StringId s) {
  if (has_decided_) return;
  has_decided_ = true;
  decided_ = s;
  current_ = s;  // s_this is updated accordingly (Algorithm 3's data note)
  ctx.decide(s);
  // "Wait for has_decided" resolves now: serve the deferred requests whose
  // string matches our decided belief. (emit_answer never re-defers once
  // has_decided_ is set, so indexed iteration is safe.)
  for (std::size_t i = 0; i < deferred_.size(); ++i) {
    const auto [x, str] = deferred_[i];
    if (str == current_) emit_answer(ctx, x, str);
  }
  deferred_.clear();
  // Serve the requests for s whose evidence accumulated while we still
  // believed our own candidate (Algorithm 3's "s_w was changed
  // accordingly", applied to all three relay roles). This is what lets
  // nodes whose quorums contain initially-unknowledgeable members still
  // gather their majorities.
  relay_.serve(
      current_, static_cast<std::uint32_t>(
                    shared_->pull_quorum(current_, self_).size()),
      shared_->relay_scratch,
      [&](NodeId x, StringId str, PollLabel r) {
        forward_pull(ctx, x, str, r);
      },
      [&](NodeId x, StringId str, NodeId w, PollLabel r) {
        ctx.send(w, fw2_msg(x, str, r));
      },
      [&](NodeId x, StringId str) { emit_answer(ctx, x, str); });
}

// ----- pull phase: forwarder, first hop (Algorithm 2) -----------------------

void AerNode::handle_pull(sim::Context& ctx, NodeId from, const sim::Message& m) {
  // Only members of the sender's Pull Quorum for s may route the request.
  if (!shared_->pull_quorum(m.s, from).contains(self_)) return;
  if (m.s != current_) {
    // Not (yet) our belief. Retain it: if we later decide on s, we serve it
    // (post-decision answering, Algorithm 3). One slot per (x, s).
    if (!has_decided_) relay_.retain_pull(from, m.s, m.r);
    return;
  }
  forward_pull(ctx, from, m.s, m.r);
}

void AerNode::forward_pull(sim::Context& ctx, NodeId x, StringId s,
                           PollLabel r) {
  // Flooding guard ("keep track of senders"): one forward per (x, s).
  if (!relay_.mark_forwarded(x, s)) return;
  const sampler::QuorumView poll_view = shared_->poll_list(x, r);
  for (std::uint32_t i = 0; i < poll_view.distinct_count; ++i) {
    const NodeId w = poll_view.distinct[i];
    const sim::Message fw1 = fw1_msg(x, s, r, w);
    const sampler::QuorumView h_w = shared_->pull_quorum(s, w);
    for (std::uint32_t j = 0; j < h_w.distinct_count; ++j) {
      ctx.send(h_w.distinct[j], fw1);
    }
  }
}

// ----- pull phase: relay, second hop (Algorithm 2) ---------------------------

void AerNode::handle_fw1(sim::Context& ctx, NodeId from, const sim::Message& m) {
  // The tally exists only once a copy under its label passed all three
  // checks, and two of them do not depend on the sender, so a copy under
  // that label (vouched) re-checks only its sender. The fired test stays
  // behind the label test: a copy under any other label walks every check,
  // building the same sampler rows as before.
  RelayState::Fw1Tally* tally = relay_.find_fw1(m.a, m.s, m.b);
  const bool vouched = tally != nullptr && tally->r == m.r;
  if (vouched && tally->fired) return;
  if (!vouched && !shared_->pull_quorum(m.s, m.b).contains(self_)) {
    return;  // this in H(s, w)
  }
  const sampler::QuorumView h_x = shared_->pull_quorum(m.s, m.a);
  const sampler::QuorumView::Hit hit = h_x.locate(from);
  if (hit.count == 0) return;  // y in H(s, x)
  if (!vouched && !shared_->poll_list(m.a, m.r).contains(m.b)) {
    return;  // w in J(x, r)
  }

  // Vouching is tallied even when s is not (yet) our belief; the Fw2 is only
  // emitted while s = s_this (now or after deciding on s).
  if (tally == nullptr) {
    tally = &relay_.fw1(m.a, m.s, m.b);
    tally->r = m.r;
  }
  if (tally->fired || !credit(tally->counted, hit.pos)) return;
  tally->slots += hit.count;
  if (m.s == current_ && tally->slots * 2 > h_x.size()) {
    tally->fired = true;  // forward only once
    ctx.send(m.b, fw2_msg(m.a, m.s, m.r));
  }
}

// ----- pull phase: responder (Algorithm 3) -----------------------------------

void AerNode::handle_fw2(sim::Context& ctx, NodeId from, const sim::Message& m) {
  if (!shared_->poll_list(m.a, m.r).contains(self_)) return;  // in J(x,r)
  const sampler::QuorumView h_self = shared_->pull_quorum(m.s, self_);
  const sampler::QuorumView::Hit hit = h_self.locate(from);
  if (hit.count == 0) return;  // z in H(s, this)

  // Evidence is tallied regardless of current belief; answers require
  // s = s_this (initially our candidate, after deciding the decided value).
  RelayState::Responder& st = relay_.responder(m.a, m.s);
  if (st.answered || !credit(st.counted, hit.pos)) return;
  st.slots += hit.count;
  if (m.s == current_ && st.slots * 2 > h_self.size() && st.polled) {
    st.answered = true;
    emit_answer(ctx, m.a, m.s);
  }
}

void AerNode::handle_poll(sim::Context& ctx, NodeId from, const sim::Message& m) {
  if (!shared_->poll_list(from, m.r).contains(self_)) return;
  RelayState::Responder& st = relay_.responder(from, m.s);
  if (st.polled) return;
  st.polled = true;
  // Necessary in the asynchronous case: the Fw2 majority may have formed
  // before the Poll arrived.
  const sampler::QuorumView h_self = shared_->pull_quorum(m.s, self_);
  if (m.s == current_ && !st.answered && st.slots * 2 > h_self.size()) {
    st.answered = true;
    emit_answer(ctx, from, m.s);
  }
}

void AerNode::emit_answer(sim::Context& ctx, NodeId x, StringId s) {
  // Algorithm 3's answer budget: an overloaded node stops answering until it
  // has decided (then it answers for its decided string only).
  if (!has_decided_ && over_budget(s)) {
    deferred_.emplace_back(x, s);
    deferred_peak_ = std::max(deferred_peak_, deferred_.size());
    return;
  }
  ++answer_counts_.get_or_create(s);
  ctx.send(x, answer_msg(s));
}

}  // namespace fba::aer
