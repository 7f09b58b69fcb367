#include "net/network.h"

#include "adversary/adversary.h"

namespace fba::sim {

EngineBase::EngineBase(std::size_t n, std::uint64_t seed) {
  reset_base(n, seed);
}

void EngineBase::reset_base(std::size_t n, std::uint64_t seed) {
  FBA_REQUIRE(n >= 2, "a network needs at least two nodes");
  n_ = n;
  seed_ = seed;
  actors_.assign(n, nullptr);
  owned_actors_.clear();
  fault_.reset();
  recovery_on_ = false;  // recovery_ keeps its pool capacity (arena reuse)
  corrupt_.assign(n, false);
  corrupt_list_.clear();
  strategy_ = nullptr;
  wire_ = nullptr;
  metrics_.reset(n);
  on_decide_ = nullptr;
  strategy_rng_ = Rng(seed).split(0xadull);
  adaptive_rng_ = Rng(seed).split(0x4adaull);
  decisions_reported_ = 0;
  corruption_budget_ = 0;
  corruptions_spent_ = 0;
  first_corruption_time_ = 0;
  last_corruption_time_ = 0;
  on_corrupt_ = nullptr;
  Rng master(seed);
  node_rngs_.clear();
  node_rngs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    node_rngs_.push_back(master.split(0x1000 + i));
  }
}

EngineBase::~EngineBase() = default;

void EngineBase::set_actor(NodeId id, std::unique_ptr<Actor> actor) {
  FBA_REQUIRE(id < n_, "actor id out of range");
  actors_[id] = actor.get();
  owned_actors_.push_back(std::move(actor));
}

void EngineBase::set_actor(NodeId id, Actor* actor) {
  FBA_REQUIRE(id < n_, "actor id out of range");
  actors_[id] = actor;
}

void EngineBase::set_corrupt(const std::vector<NodeId>& nodes) {
  for (NodeId id : nodes) {
    FBA_REQUIRE(id < n_, "corrupt node id out of range");
    if (!corrupt_[id]) {
      corrupt_[id] = true;
      corrupt_list_.push_back(id);
    }
  }
}

void EngineBase::set_fault_plan(const FaultPlan* plan) {
  if (plan == nullptr || plan->empty()) {
    fault_.reset();
    return;
  }
  fault_.emplace(*plan, n_, seed_);
}

void EngineBase::set_recovery_plan(const RecoveryPlan* plan) {
  if (plan == nullptr || plan->empty()) {
    recovery_on_ = false;
    return;
  }
  recovery_.configure(*plan, n_, recovery_rto_floor());
  recovery_on_ = true;
}

std::vector<NodeId> EngineBase::correct_nodes() const {
  std::vector<NodeId> out;
  out.reserve(n_ - corrupt_list_.size());
  for (NodeId id = 0; id < n_; ++id) {
    if (!corrupt_[id]) out.push_back(id);
  }
  return out;
}

void EngineBase::send_from(NodeId src, NodeId dst, const Message& msg) {
  FBA_REQUIRE(src < n_ && dst < n_, "send endpoint out of range");
  FBA_ASSERT(msg.kind != MessageKind::kNone && msg.kind != MessageKind::kCount,
             "cannot send a kind-less message");
  FBA_ASSERT(wire_ != nullptr, "engine has no wire format configured");
  const std::size_t bits = message_bit_size(msg, *wire_) + wire_->header_bits();
  metrics_.on_message(src, bits, msg.kind);

  const double send_time = now();  // one virtual dispatch per send
  Envelope env;
  env.src = src;
  env.dst = dst;
  env.msg = msg;
  env.send_time = send_time;

  // Recovery sublayer (net/recovery.h): track the send and arm its
  // retransmit timer BEFORE the fault layer sees it, so a dropped original
  // still retransmits — that is the whole point of the layer. Acks are the
  // layer's own traffic and are never tracked (an ack's loss is repaired by
  // the data retransmission it provokes).
  RecoveryTag rec;
  if (recovery_on_ && msg.kind != MessageKind::kAck) {
    rec = recovery_.track(env, send_time);
    queue_recovery_timer(recovery_.current_rto(rec),
                         RecoveryState::timer_token(rec));
  }

  // Fault layer (net/fault.h): one shared code path for both engines.
  // Dropped sends stay charged (the bits left the sender) but never reach
  // the queue or the adversary's tap — traffic nobody receives is as if
  // never sent, except for the bandwidth.
  if (fault_) {
    const FaultState::Action act = fault_->on_send(src, dst, send_time);
    if (act.drop) {
      metrics_.on_fault_drop(bits, act.cause);
      return;
    }
    if (act.extra_delay > 0) {
      env.fault_delay = act.extra_delay;
      metrics_.on_fault_delay();
    }
  }

  // Full-information adversary: it sees every message as soon as it is sent.
  // (Whether it can *react* within the same time step is the rushing /
  // non-rushing distinction, enforced by the engines' scheduling.)
  if (strategy_ != nullptr) {
    adv::AdvContext actx(*this);
    strategy_->on_observe(actx, env);
  }
  queue_envelope(env, rec);
}

void EngineBase::on_recovery_timeout(std::uint64_t token) {
  if (!recovery_on_) return;
  const RecoveryTag tag = RecoveryState::tag_of_token(token);
  switch (recovery_.on_timeout(tag)) {
    case RecoveryState::TimeoutAction::kStale:
      return;  // acked since the timer was armed — lazy cancellation
    case RecoveryState::TimeoutAction::kDead:
      metrics_.on_recovery_dead();
      return;
    case RecoveryState::TimeoutAction::kRetry:
      break;
  }
  recovery_.note_resend(tag, now());
  // The retransmission walks the same path as any send: recharged (the bits
  // leave the sender again — that is the measured cost of the layer),
  // re-exposed to the fault layer, re-observed by the adversary.
  Envelope env = recovery_.envelope_of(tag);
  const std::size_t bits =
      message_bit_size(env.msg, *wire_) + wire_->header_bits();
  metrics_.on_message(env.src, bits, env.msg.kind);
  metrics_.on_recovery_retransmit(bits);
  bool dropped = false;
  if (fault_) {
    const FaultState::Action act =
        fault_->on_send(env.src, env.dst, env.send_time);
    if (act.drop) {
      metrics_.on_fault_drop(bits, act.cause);
      dropped = true;
    } else if (act.extra_delay > 0) {
      env.fault_delay = act.extra_delay;
      metrics_.on_fault_delay();
    }
  }
  if (!dropped) {
    if (strategy_ != nullptr) {
      adv::AdvContext actx(*this);
      strategy_->on_observe(actx, env);
    }
    queue_envelope(env, tag);
  }
  // Re-armed even when the resend dropped: the next timeout retries again
  // (or declares the send dead once the budget runs out).
  queue_recovery_timer(recovery_.current_rto(tag),
                       RecoveryState::timer_token(tag));
}

bool EngineBase::corrupt_now(NodeId node) {
  if (node >= n_ || corrupt_[node] ||
      corruptions_spent_ >= corruption_budget_) {
    return false;
  }
  corrupt_[node] = true;
  corrupt_list_.push_back(node);
  const double time = now();
  if (corruptions_spent_ == 0) first_corruption_time_ = time;
  last_corruption_time_ = time;
  ++corruptions_spent_;
  if (on_corrupt_) on_corrupt_(node, time);
  return true;
}

void EngineBase::report_decision(NodeId node, StringId value) {
  ++decisions_reported_;
  if (on_decide_) on_decide_(node, value, now());
}

void EngineBase::deliver(const Envelope& env, RecoveryTag rec) {
  if (recovery_on_) {
    if (env.msg.kind == MessageKind::kAck) {
      // Transport-level: consumed here for any destination (corrupt nodes'
      // engines ack-process too); actors and strategies never see acks.
      const RecoveryTag acked{env.msg.a,
                              static_cast<std::uint16_t>(env.msg.b)};
      if (recovery_.on_ack(acked, now())) metrics_.on_recovery_ack_landed();
      return;
    }
    if (rec.tracked()) {
      // Ack every copy — the ack for an earlier copy may itself have been
      // lost — then suppress duplicate deliveries.
      Message ack;
      ack.kind = MessageKind::kAck;
      ack.a = rec.slot1;
      ack.b = rec.gen;
      send_from(env.dst, env.src, ack);
      if (!recovery_.should_deliver(rec)) {
        metrics_.on_recovery_duplicate();
        return;
      }
    }
  }
  if (corrupt_[env.dst]) {
    if (strategy_ != nullptr) {
      adv::AdvContext actx(*this);
      strategy_->on_deliver_to_corrupt(actx, env);
    }
    return;
  }
  Actor* actor = actors_[env.dst];
  FBA_ASSERT(actor != nullptr, "correct node has no actor");
  Context ctx(*this, env.dst, now(), node_rngs_[env.dst]);
  actor->on_message(ctx, env);
}

void EngineBase::fire_timer(NodeId node, std::uint64_t token) {
  if (corrupt_[node]) return;
  Actor* actor = actors_[node];
  FBA_ASSERT(actor != nullptr, "correct node has no actor");
  Context ctx(*this, node, now(), node_rngs_[node]);
  actor->on_timer(ctx, token);
}

void EngineBase::start_actor(NodeId id) {
  if (corrupt_[id]) return;
  Actor* actor = actors_[id];
  FBA_ASSERT(actor != nullptr, "correct node has no actor");
  Context ctx(*this, id, now(), node_rngs_[id]);
  actor->on_start(ctx);
}

void EngineBase::strategy_setup() {
  if (strategy_ != nullptr) {
    adv::AdvContext actx(*this);
    strategy_->on_setup(actx);
  }
}

}  // namespace fba::sim
