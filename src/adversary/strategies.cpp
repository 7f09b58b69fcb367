#include "adversary/strategies.h"

#include <algorithm>

#include "aer/messages.h"

namespace fba::adv {

namespace {

std::vector<NodeId> distinct(const sampler::Quorum& q) {
  std::vector<NodeId> out;
  for (NodeId m : q.members) {
    if (std::find(out.begin(), out.end(), m) == out.end()) out.push_back(m);
  }
  return out;
}

/// How many quorums I(s, .) the corrupt coalition wins for string s — the
/// adversary's yardstick when searching the string domain (Lemma 4 / 5).
/// Reads the dense sampler tables (the string is interned): slot keys are
/// derived once per string instead of once per (slot, x), and no quorum
/// vectors are allocated.
std::size_t quorums_won(const aer::AerShared& shared, StringId s,
                        const std::vector<bool>& is_corrupt) {
  std::size_t won = 0;
  const std::size_t n = shared.config.n;
  for (NodeId x = 0; x < n; ++x) {
    const sampler::QuorumView q = shared.push_quorum(s, x);
    std::size_t corrupt_slots = 0;
    for (std::uint32_t k = 0; k < q.d; ++k) {
      if (is_corrupt[q.slots[k]]) ++corrupt_slots;
    }
    if (corrupt_slots * 2 > q.size()) ++won;
  }
  return won;
}

std::vector<bool> corrupt_mask(const aer::AerWorldView& view) {
  std::vector<bool> mask(view.initial.size(), false);
  for (NodeId id : view.corrupt) mask[id] = true;
  return mask;
}

}  // namespace

// ----- JunkPushStrategy ------------------------------------------------------

JunkPushStrategy::JunkPushStrategy(const aer::AerWorldView& view,
                                   std::size_t num_strings,
                                   std::size_t search_trials)
    : shared_(view.shared) {
  FBA_REQUIRE(num_strings >= 1, "need at least one junk string");
  const std::size_t bits = shared_->table.get(view.gstring).size();
  Rng rng = Rng(shared_->config.seed).split(0xbadull);
  const std::vector<bool> is_corrupt = corrupt_mask(view);

  if (search_trials == 0) {
    for (std::size_t i = 0; i < num_strings; ++i) {
      junk_.push_back(shared_->table.intern(BitString::random(bits, rng)));
    }
    return;
  }
  // Full-information search: sample candidate strings, keep those whose Push
  // Quorums the coalition wins most often.
  std::vector<std::pair<std::size_t, StringId>> scored;
  for (std::size_t trial = 0; trial < search_trials; ++trial) {
    const StringId id = shared_->table.intern(BitString::random(bits, rng));
    const std::size_t won = quorums_won(*shared_, id, is_corrupt);
    scored.emplace_back(won, id);
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; i < num_strings && i < scored.size(); ++i) {
    junk_.push_back(scored[i].second);
  }
}

void JunkPushStrategy::on_setup(AdvContext& ctx) {
  // Push through the legitimate channels: receivers only credit quorum
  // members, so targets(s, y) is the only send that can possibly count.
  std::vector<NodeId> targets;
  for (StringId s : junk_) {
    const sim::Message msg = aer::push_msg(s);
    for (NodeId y : ctx.corrupt_nodes()) {
      shared_->push_targets(s, y, targets);
      for (NodeId target : targets) {
        ctx.send_from(y, target, msg);
      }
    }
  }
}

// ----- PushFloodStrategy -----------------------------------------------------

PushFloodStrategy::PushFloodStrategy(const aer::AerWorldView& view,
                                     std::size_t pushes_per_node)
    : shared_(view.shared), pushes_per_node_(pushes_per_node) {}

void PushFloodStrategy::on_setup(AdvContext& ctx) {
  const std::size_t bits = shared_->table.get(shared_->gstring).size();
  for (NodeId y : ctx.corrupt_nodes()) {
    for (std::size_t i = 0; i < pushes_per_node_; ++i) {
      const StringId junk =
          shared_->table.intern(BitString::random(bits, ctx.rng()));
      ctx.send_from(y, ctx.rng().node(ctx.n()), aer::push_msg(junk));
    }
  }
}

// ----- PollStuffStrategy -----------------------------------------------------

PollStuffStrategy::PollStuffStrategy(const aer::AerWorldView& view,
                                     std::size_t budget_estimate,
                                     std::size_t label_search_budget,
                                     bool eager)
    : view_(view),
      shared_(view.shared),
      burned_(view.initial.size(), 0),
      budget_estimate_(budget_estimate > 0
                           ? budget_estimate
                           : view.shared->config.resolved_answer_budget()),
      label_search_budget_(label_search_budget),
      eager_(eager) {}

void PollStuffStrategy::on_setup(AdvContext& ctx) {
  if (!eager_) return;
  // Strike first: setup-time sends precede all honest round-0 traffic, so
  // victims burn budget on the adversary before serving anyone honest.
  launch_all(ctx);
}

void PollStuffStrategy::on_observe(AdvContext& ctx, const sim::Envelope& env) {
  // Observation-triggered mode: the first honest Poll reveals the pull
  // phase has begun; the coalition strikes (one round late under a
  // non-rushing schedule, immediately under rushing/async).
  if (launched_ || eager_) return;
  if (ctx.is_corrupt(env.src)) return;
  if (env.msg.kind != sim::MessageKind::kPoll) return;
  launch_all(ctx);
}

void PollStuffStrategy::on_round(AdvContext& ctx, Round round, bool rushing) {
  (void)round;
  (void)rushing;
  if (!launched_ && !eager_) launch_all(ctx);
}

void PollStuffStrategy::launch_all(AdvContext& ctx) {
  // launched_ makes this single-shot; every corrupt node strikes exactly
  // once (Lemma 6's "at most once per node it controls").
  launched_ = true;
  for (NodeId attacker : ctx.corrupt_nodes()) {
    strike(ctx, attacker);
  }
}

void PollStuffStrategy::strike(AdvContext& ctx, NodeId attacker) {
  // One properly routed pull per attacker (forwarders dedupe per (x, s)).
  // Full-information search: pick the label whose poll list covers the most
  // not-yet-saturated victims. Candidate lists are scored straight off the
  // keyed hash (PollSampler::member, same slot order as poll_list) — no
  // quorum materialization per candidate label, which at large n used to
  // cost t * label_search_budget vector pairs per trial.
  const sampler::PollSampler& poll_sampler = shared_->samplers.poll;
  const std::size_t d = poll_sampler.d();
  PollLabel best_r = 0;
  long best_score = -1;
  for (std::size_t trial = 0; trial < label_search_budget_; ++trial) {
    const PollLabel r = poll_sampler.random_label(ctx.rng());
    long score = 0;
    for (std::size_t k = 0; k < d; ++k) {
      const NodeId member = poll_sampler.member(attacker, r, k);
      if (!ctx.is_corrupt(member) && burned_[member] < budget_estimate_) {
        ++score;
      }
    }
    if (score > best_score) {
      best_score = score;
      best_r = r;
    }
  }
  if (best_score <= 0) return;
  ++strikes_launched_;

  // Re-evaluate the winning list into the reused scratch, first-seen
  // distinct order (exactly what dedup over Quorum::members yields).
  poll_scratch_.clear();
  for (std::size_t k = 0; k < d; ++k) {
    const NodeId member = poll_sampler.member(attacker, best_r, k);
    if (std::find(poll_scratch_.begin(), poll_scratch_.end(), member) ==
        poll_scratch_.end()) {
      poll_scratch_.push_back(member);
    }
  }
  const sim::Message poll = aer::poll_msg(shared_->gstring, best_r);
  for (NodeId member : poll_scratch_) {
    if (ctx.is_corrupt(member)) continue;
    ++burned_[member];
    // The member needs (attacker, gstring) in Polled to answer (and pay).
    ctx.send_from(attacker, member, poll);
  }
  const sim::Message pull = aer::pull_msg(shared_->gstring, best_r);
  const sampler::QuorumView h =
      shared_->pull_quorum(shared_->gstring, attacker);
  for (std::uint32_t i = 0; i < h.distinct_count; ++i) {
    ctx.send_from(attacker, h.distinct[i], pull);
  }
}

// ----- WrongAnswerStrategy ---------------------------------------------------

WrongAnswerStrategy::WrongAnswerStrategy(const aer::AerWorldView& view,
                                         std::size_t search_trials)
    : pusher_(view, 1, search_trials), gstring_(view.gstring) {
  junk_ = pusher_.junk_strings();
}

void WrongAnswerStrategy::on_setup(AdvContext& ctx) { pusher_.on_setup(ctx); }

void WrongAnswerStrategy::on_deliver_to_corrupt(AdvContext& ctx,
                                                const sim::Envelope& env) {
  // A corrupt poll-list member answers any poll for a non-gstring candidate,
  // trying to assemble a wrong majority at the requester.
  const auto* poll = env.msg.as(sim::MessageKind::kPoll);
  if (poll == nullptr || poll->s == gstring_) return;
  ctx.send_from(env.dst, env.src, aer::answer_msg(poll->s));
}

// ----- TargetedDelayStrategy -------------------------------------------------

TargetedDelayStrategy::TargetedDelayStrategy(const aer::AerWorldView& view)
    : TargetedDelayStrategy(view, Options()) {}

TargetedDelayStrategy::TargetedDelayStrategy(const aer::AerWorldView& view,
                                             Options options)
    : corrupt_(view.initial.size(), false), options_(options) {
  for (NodeId id : view.corrupt) corrupt_[id] = true;
}

SimTime TargetedDelayStrategy::choose_delay(AdvContext& ctx,
                                            const sim::Envelope& env) {
  (void)ctx;
  if (corrupt_[env.src]) return options_.fast_delay;
  if (options_.slow_everything_honest) return options_.slow_delay;
  const sim::MessageKind kind = env.msg.kind;
  const bool decisive =
      (options_.slow_answers && kind == sim::MessageKind::kAnswer) ||
      (options_.slow_forwards && (kind == sim::MessageKind::kFw1 ||
                                  kind == sim::MessageKind::kFw2));
  return decisive ? options_.slow_delay : options_.fast_delay;
}

// ----- ComboStrategy ---------------------------------------------------------

ComboStrategy& ComboStrategy::add(std::unique_ptr<Strategy> child) {
  children_.push_back(std::move(child));
  return *this;
}

ComboStrategy& ComboStrategy::set_delay_policy(
    std::unique_ptr<Strategy> policy) {
  delay_policy_ = std::move(policy);
  return *this;
}

void ComboStrategy::on_setup(AdvContext& ctx) {
  for (auto& child : children_) child->on_setup(ctx);
}

void ComboStrategy::on_round(AdvContext& ctx, Round round, bool rushing) {
  for (auto& child : children_) child->on_round(ctx, round, rushing);
}

void ComboStrategy::on_observe(AdvContext& ctx, const sim::Envelope& env) {
  for (auto& child : children_) child->on_observe(ctx, env);
}

void ComboStrategy::on_deliver_to_corrupt(AdvContext& ctx,
                                          const sim::Envelope& env) {
  for (auto& child : children_) child->on_deliver_to_corrupt(ctx, env);
}

SimTime ComboStrategy::choose_delay(AdvContext& ctx,
                                    const sim::Envelope& env) {
  if (delay_policy_) return delay_policy_->choose_delay(ctx, env);
  return Strategy::choose_delay(ctx, env);
}

// ----- LoadSkewStrategy --------------------------------------------------------

LoadSkewStrategy::LoadSkewStrategy(const aer::AerWorldView& view,
                                   NodeId victim,
                                   std::size_t string_search_budget)
    : shared_(view.shared), victim_(victim) {
  const std::vector<bool> is_corrupt = corrupt_mask(view);
  const std::size_t bits = shared_->table.get(view.gstring).size();
  Rng rng = Rng(shared_->config.seed).split(0x10adull);
  // Full-information string search: keep every string whose Push Quorum at
  // the victim has a corrupt slot majority. At t/n near 1/3 a constant
  // fraction of strings qualifies — the reason AER cannot be load-balanced
  // in the worst case.
  for (std::size_t trial = 0; trial < string_search_budget; ++trial) {
    const BitString candidate = BitString::random(bits, rng);
    const auto quorum =
        shared_->samplers.push.quorum(candidate.digest(), victim_);
    std::size_t corrupt_slots = 0;
    for (NodeId member : quorum.members) {
      corrupt_slots += is_corrupt[member] ? 1 : 0;
    }
    if (corrupt_slots * 2 > quorum.size()) {
      planted_.push_back(shared_->table.intern(candidate));
    }
  }
}

void LoadSkewStrategy::on_setup(AdvContext& ctx) {
  for (StringId s : planted_) {
    const auto skey = shared_->key_of(s);
    const sim::Message msg = aer::push_msg(s);
    // Push from exactly the corrupt members of I(s, victim): the receiver's
    // membership filter admits them, and their slot majority forces s into
    // the victim's candidate list.
    for (NodeId member :
         distinct(shared_->samplers.push.quorum(skey, victim_))) {
      if (ctx.is_corrupt(member)) {
        ctx.send_from(member, victim_, msg);
      }
    }
  }
}

// ----- corner_gstring_picker -------------------------------------------------

aer::CorruptPicker corner_gstring_picker(std::size_t victims) {
  return [victims](std::size_t n, std::size_t t, Rng& rng,
                   aer::AerShared& shared) {
    std::vector<NodeId> corrupt;
    std::vector<bool> taken(n, false);
    const auto skey = shared.key_of(shared.gstring);
    // Seize whole Push Quorums I(gstring, x) for the first `victims` nodes,
    // until the corruption budget runs out.
    for (NodeId x = 0; x < victims && x < n; ++x) {
      for (NodeId member : shared.samplers.push.quorum(skey, x).members) {
        if (corrupt.size() >= t) break;
        if (!taken[member]) {
          taken[member] = true;
          corrupt.push_back(member);
        }
      }
      if (corrupt.size() >= t) break;
    }
    // Spend the rest uniformly.
    while (corrupt.size() < t) {
      const NodeId id = rng.node(n);
      if (!taken[id]) {
        taken[id] = true;
        corrupt.push_back(id);
      }
    }
    return corrupt;
  };
}

}  // namespace fba::adv
