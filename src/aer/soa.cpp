#include "aer/soa.h"

#include <algorithm>
#include <type_traits>

#include "aer/messages.h"
#include "aer/runner.h"

namespace fba::aer {

// Every handler below is a line-for-line port of aer/node.cpp with the
// node's identity (`self`) explicit and each per-node container replaced by
// its SoA equivalent. Any behavioral edit here must be mirrored there (and
// vice versa); tests/scale_test.cpp pins the equivalence.

void SoaAerState::reset(const AerShared* shared,
                        const std::vector<StringId>& initial,
                        sim::EngineBase& engine) {
  shared_ = shared;
  n_ = shared->config.n;
  burst_engine_ = nullptr;

  initial_.assign(initial.begin(), initial.end());
  current_ = initial_;
  decided_.assign(n_, kNoString);
  has_decided_.assign(n_, 0);
  candidate_count_.assign(n_, 0);
  deferred_peak_.assign(n_, 0);

  push_tallies_.clear();
  in_list_.clear();
  my_pulls_.clear();
  answer_counts_.clear();

  if (relay_.size() < n_) relay_.resize(n_);
  for (std::size_t id = 0; id < n_; ++id) relay_[id].clear();
  deferred_.assign(n_, {});

  for (NodeId id = 0; id < n_; ++id) {
    if (engine.is_corrupt(id)) continue;
    engine.set_actor(id, static_cast<sim::Actor*>(this));
    // AerNode construction: L_x starts as {s_x}.
    candidate_count_[id] = 1;
    in_list_.insert(pack_ns(id, initial_[id]));
  }
}

bool SoaAerState::over_budget(NodeId self, StringId s) const {
  return answers_sent(self, s) > shared_->config.resolved_answer_budget();
}

void SoaAerState::on_start(sim::Context& ctx) {
  const NodeId self = ctx.self();
  shared_->push_targets(initial_[self], self, targets_scratch_);
  for (NodeId target : targets_scratch_) {
    ctx.send(target, push_msg(initial_[self]));
  }
  start_pull(ctx, self, initial_[self]);
}

void SoaAerState::on_message(sim::Context& ctx, const sim::Envelope& env) {
  const NodeId self = ctx.self();
  switch (env.msg.kind) {
    case sim::MessageKind::kPush:
      handle_push(ctx, self, env.src, env.msg);
      break;
    case sim::MessageKind::kPoll:
      handle_poll(ctx, self, env.src, env.msg);
      break;
    case sim::MessageKind::kPull:
      handle_pull(ctx, self, env.src, env.msg);
      break;
    case sim::MessageKind::kFw1:
      handle_fw1(ctx, self, env.src, env.msg);
      break;
    case sim::MessageKind::kFw2:
      handle_fw2(ctx, self, env.src, env.msg);
      break;
    case sim::MessageKind::kAnswer:
      handle_answer(ctx, self, env.src, env.msg);
      break;
    default:
      break;  // other protocols' kinds (adversarial garbage) are ignored
  }
}

// ----- push phase ----------------------------------------------------------

void SoaAerState::handle_push(sim::Context& ctx, NodeId self, NodeId from,
                              const sim::Message& m) {
  if (in_list_.contains(pack_ns(self, m.s))) return;  // already a candidate
  const sampler::QuorumView quorum = shared_->push_quorum(m.s, self);
  const sampler::QuorumView::Hit hit = quorum.locate(from);
  if (hit.count == 0) return;  // not in our Push Quorum for s: ignore silently
  PushTally& tally = push_tallies_.get_or_create(pack_ns(self, m.s));
  if (!credit(tally.counted, hit.pos)) return;
  tally.slots += hit.count;
  if (tally.slots * 2 > quorum.size()) {
    accept_candidate(ctx, self, m.s);
  }
}

void SoaAerState::accept_candidate(sim::Context& ctx, NodeId self,
                                   StringId s) {
  if (!in_list_.insert(pack_ns(self, s))) return;
  ++candidate_count_[self];
  if (!has_decided_[self]) start_pull(ctx, self, s);
}

// ----- pull phase: requester (Algorithm 1) ---------------------------------

void SoaAerState::start_pull(sim::Context& ctx, NodeId self, StringId s) {
  if (my_pulls_.contains(pack_ns(self, s))) return;
  MyPull& pull = my_pulls_.get_or_create(pack_ns(self, s));
  pull.r = shared_->samplers.poll.random_label(ctx.rng());

  const sim::Message poll = poll_msg(s, pull.r);
  const sampler::QuorumView poll_view = shared_->poll_list(self, pull.r);
  for (std::uint32_t i = 0; i < poll_view.distinct_count; ++i) {
    ctx.send(poll_view.distinct[i], poll);
  }
  const sim::Message pull_req = pull_msg(s, pull.r);
  const sampler::QuorumView h = shared_->pull_quorum(s, self);
  for (std::uint32_t i = 0; i < h.distinct_count; ++i) {
    ctx.send(h.distinct[i], pull_req);
  }
}

void SoaAerState::handle_answer(sim::Context& ctx, NodeId self, NodeId from,
                                const sim::Message& m) {
  if (has_decided_[self]) return;
  MyPull* pull = my_pulls_.find(pack_ns(self, m.s));
  if (pull == nullptr) return;  // never asked about s
  const sampler::QuorumView poll_list = shared_->poll_list(self, pull->r);
  const sampler::QuorumView::Hit hit = poll_list.locate(from);
  if (hit.count == 0) return;  // answer from outside J(x, r_{x,s})
  if (!credit(pull->answered, hit.pos)) return;
  pull->slots += hit.count;
  if (pull->slots * 2 > poll_list.size()) decide(ctx, self, m.s);
}

void SoaAerState::decide(sim::Context& ctx, NodeId self, StringId s) {
  if (has_decided_[self]) return;
  has_decided_[self] = 1;
  decided_[self] = s;
  current_[self] = s;
  ctx.decide(s);
  std::vector<std::pair<NodeId, StringId>>& dq = deferred_[self];
  for (std::size_t i = 0; i < dq.size(); ++i) {
    const auto [x, str] = dq[i];
    if (str == current_[self]) emit_answer(ctx, self, x, str);
  }
  dq.clear();
  relay_[self].serve(
      current_[self], static_cast<std::uint32_t>(
                          shared_->pull_quorum(current_[self], self).size()),
      shared_->relay_scratch,
      [&](NodeId x, StringId str, PollLabel r) {
        forward_pull(ctx, self, x, str, r);
      },
      [&](NodeId x, StringId str, NodeId w, PollLabel r) {
        ctx.send(w, fw2_msg(x, str, r));
      },
      [&](NodeId x, StringId str) { emit_answer(ctx, self, x, str); });
}

// ----- pull phase: forwarder, first hop (Algorithm 2) -----------------------

void SoaAerState::handle_pull(sim::Context& ctx, NodeId self, NodeId from,
                              const sim::Message& m) {
  if (!shared_->pull_quorum(m.s, from).contains(self)) return;
  if (m.s != current_[self]) {
    if (!has_decided_[self]) relay_[self].retain_pull(from, m.s, m.r);
    return;
  }
  forward_pull(ctx, self, from, m.s, m.r);
}

void SoaAerState::forward_pull(sim::Context& ctx, NodeId self, NodeId x,
                               StringId s, PollLabel r) {
  if (!relay_[self].mark_forwarded(x, s)) return;
  const sampler::QuorumView poll_view = shared_->poll_list(x, r);
  if (burst_engine_ != nullptr) {
    // Burst path: charge every expanded send now — send_from charges before
    // queueing (and before horizon culling) too, so the books match the
    // per-send path exactly — then queue one descriptor in place of the d^2
    // envelopes; expand() re-enumerates the same (w, h) pairs at delivery.
    // An Fw1's wire size does not depend on its b field (fixed-width node
    // id), so one size fits the whole fan-out.
    const sim::Wire& wire = shared_->wire();
    const sim::Message proto = fw1_msg(x, s, r, 0);
    const std::size_t bits =
        sim::message_bit_size(proto, wire) + wire.header_bits();
    TrafficMetrics& metrics = burst_engine_->metrics();
    for (std::uint32_t i = 0; i < poll_view.distinct_count; ++i) {
      const sampler::QuorumView h_w =
          shared_->pull_quorum(s, poll_view.distinct[i]);
      for (std::uint32_t j = 0; j < h_w.distinct_count; ++j) {
        metrics.on_message(self, bits, sim::MessageKind::kFw1);
      }
    }
    sim::Envelope env;
    env.src = self;
    env.msg = proto;
    env.send_time = burst_engine_->now();
    burst_engine_->queue_burst(env);
    return;
  }
  for (std::uint32_t i = 0; i < poll_view.distinct_count; ++i) {
    const NodeId w = poll_view.distinct[i];
    const sim::Message fw1 = fw1_msg(x, s, r, w);
    const sampler::QuorumView h_w = shared_->pull_quorum(s, w);
    for (std::uint32_t j = 0; j < h_w.distinct_count; ++j) {
      ctx.send(h_w.distinct[j], fw1);
    }
  }
}

void SoaAerState::expand(const sim::Envelope& burst, sim::SyncEngine& engine) {
  // The template message carries a = x, s and r; b (the poll-list member w)
  // is filled in per expanded copy, exactly as forward_pull's send loop
  // would have built it.
  const sim::Message& t = burst.msg;
  const sampler::QuorumView poll_view = shared_->poll_list(t.a, t.r);
  sim::Envelope env;
  env.src = burst.src;
  env.send_time = burst.send_time;
  for (std::uint32_t i = 0; i < poll_view.distinct_count; ++i) {
    const NodeId w = poll_view.distinct[i];
    env.msg = fw1_msg(t.a, t.s, t.r, w);
    const sampler::QuorumView h_w = shared_->pull_quorum(t.s, w);
    for (std::uint32_t j = 0; j < h_w.distinct_count; ++j) {
      env.dst = h_w.distinct[j];
      engine.deliver_expanded(env);
    }
  }
}

// ----- pull phase: relay, second hop (Algorithm 2) ---------------------------

void SoaAerState::handle_fw1(sim::Context& ctx, NodeId self, NodeId from,
                             const sim::Message& m) {
  RelayState& relay = relay_[self];
  RelayState::Fw1Tally* tally = relay.find_fw1(m.a, m.s, m.b);
  const bool vouched = tally != nullptr && tally->r == m.r;
  if (vouched && tally->fired) return;
  if (!vouched && !shared_->pull_quorum(m.s, m.b).contains(self)) {
    return;  // this in H(s, w)
  }
  const sampler::QuorumView h_x = shared_->pull_quorum(m.s, m.a);
  const sampler::QuorumView::Hit hit = h_x.locate(from);
  if (hit.count == 0) return;  // y in H(s, x)
  if (!vouched && !shared_->poll_list(m.a, m.r).contains(m.b)) {
    return;  // w in J(x, r)
  }

  if (tally == nullptr) {
    tally = &relay.fw1(m.a, m.s, m.b);
    tally->r = m.r;
  }
  if (tally->fired || !credit(tally->counted, hit.pos)) return;
  tally->slots += hit.count;
  if (m.s == current_[self] && tally->slots * 2 > h_x.size()) {
    tally->fired = true;  // forward only once
    ctx.send(m.b, fw2_msg(m.a, m.s, m.r));
  }
}

// ----- pull phase: responder (Algorithm 3) -----------------------------------

void SoaAerState::handle_fw2(sim::Context& ctx, NodeId self, NodeId from,
                             const sim::Message& m) {
  if (!shared_->poll_list(m.a, m.r).contains(self)) return;  // in J(x,r)
  const sampler::QuorumView h_self = shared_->pull_quorum(m.s, self);
  const sampler::QuorumView::Hit hit = h_self.locate(from);
  if (hit.count == 0) return;  // z in H(s, this)

  RelayState::Responder& st = relay_[self].responder(m.a, m.s);
  if (st.answered || !credit(st.counted, hit.pos)) return;
  st.slots += hit.count;
  if (m.s == current_[self] && st.slots * 2 > h_self.size() && st.polled) {
    st.answered = true;
    emit_answer(ctx, self, m.a, m.s);
  }
}

void SoaAerState::handle_poll(sim::Context& ctx, NodeId self, NodeId from,
                              const sim::Message& m) {
  if (!shared_->poll_list(from, m.r).contains(self)) return;
  RelayState::Responder& st = relay_[self].responder(from, m.s);
  if (st.polled) return;
  st.polled = true;
  const sampler::QuorumView h_self = shared_->pull_quorum(m.s, self);
  if (m.s == current_[self] && !st.answered && st.slots * 2 > h_self.size()) {
    st.answered = true;
    emit_answer(ctx, self, from, m.s);
  }
}

void SoaAerState::emit_answer(sim::Context& ctx, NodeId self, NodeId x,
                              StringId s) {
  if (!has_decided_[self] && over_budget(self, s)) {
    deferred_[self].emplace_back(x, s);
    deferred_peak_[self] =
        std::max(deferred_peak_[self],
                 static_cast<std::uint32_t>(deferred_[self].size()));
    return;
  }
  ++answer_counts_.get_or_create(pack_ns(self, s));
  ctx.send(x, answer_msg(s));
}

// ----- memory accounting -----------------------------------------------------

void SoaAerState::charge_mem(support::MemBudget& mem) const {
  mem.charge_vector(initial_);
  mem.charge_vector(current_);
  mem.charge_vector(decided_);
  mem.charge_vector(has_decided_);
  mem.charge_vector(candidate_count_);
  mem.charge_vector(deferred_peak_);
  mem.charge_vector(targets_scratch_);

  mem.charge(
      support::flat_table_bytes(push_tallies_.size(), sizeof(PushTally)));
  mem.charge(support::flat_table_bytes(in_list_.size(), 1));
  mem.charge(support::flat_table_bytes(my_pulls_.size(), sizeof(MyPull)));
  mem.charge(support::flat_table_bytes(answer_counts_.size(),
                                       sizeof(std::uint32_t)));

  // Per-node container headers (charged at n_, not at the vectors' possibly
  // larger warm capacity, so cold and warm runs report identical bytes).
  mem.charge(static_cast<std::uint64_t>(n_) *
             (sizeof(RelayState) + sizeof(deferred_[0])));
  for (std::size_t id = 0; id < n_; ++id) {
    relay_[id].charge_mem(mem);
    mem.charge(static_cast<std::uint64_t>(deferred_peak_[id]) *
               sizeof(std::pair<NodeId, StringId>));
  }
}

// ----- runner ----------------------------------------------------------------

namespace {

/// AER-specific report sections from the SoA state (the analogue of
/// protocol.cpp's fill_aer_specific).
void fill_aer_specific_soa(AerReport& report, const AerWorld& world,
                           const SoaAerState& state) {
  const AerShared& shared = *world.shared;
  for (NodeId id : world.correct) {
    report.sum_candidate_lists += state.candidate_list_size(id);
    report.max_candidate_list =
        std::max(report.max_candidate_list, state.candidate_list_size(id));
    if (!state.has_candidate(id, shared.gstring)) {
      ++report.nodes_missing_gstring;
    }
    report.max_deferred_answers =
        std::max(report.max_deferred_answers, state.deferred_peak(id));
  }
}

/// Trial-wide memory account shared by both engine flavors: the SoA state
/// (whose tallies hold their credits inline, as 64-bit masks), the event
/// core's high-water bytes (in its storage layout), the two per-node
/// TrafficMetrics arrays, the dense sampler tables and the interned strings.
/// All terms are logical sizes or capacity-rules over counts
/// (support/mem.h), never allocator state.
void charge_trial_mem(support::MemBudget& mem, const AerWorld& world,
                      const SoaAerState& state, std::size_t queue_bytes) {
  const AerShared& shared = *world.shared;
  const std::size_t n = shared.config.n;
  const std::size_t d = shared.config.resolved_d();

  state.charge_mem(mem);
  mem.charge(queue_bytes);
  // TrafficMetrics: sent bits / sent messages per node.
  mem.charge(static_cast<std::uint64_t>(n) * 2 * sizeof(std::uint64_t));
  // Dense sampler rows (sampler/tables.cpp layout): quorum rows hold a
  // distinct-count header plus three d-sized regions; poll rows prepend a
  // 4-entry identity header. Each built row also owns one probe-index
  // entry, and each activated string slab caches its d slot permutations.
  const std::uint64_t quorum_row = (1 + 3 * d) * sizeof(NodeId);
  mem.charge(shared.tables.push.rows_built() * quorum_row);
  mem.charge(shared.tables.pull.rows_built() * quorum_row);
  mem.charge(shared.tables.poll.rows_built() *
             (quorum_row + 4 * sizeof(NodeId)));
  mem.charge(support::flat_table_bytes(shared.tables.push.rows_built(),
                                       sizeof(std::uint32_t)));
  mem.charge(support::flat_table_bytes(shared.tables.pull.rows_built(),
                                       sizeof(std::uint32_t)));
  mem.charge(support::flat_table_bytes(shared.tables.poll.rows_built(),
                                       sizeof(std::uint32_t)));
  const std::uint64_t slab_bytes =
      64 + d * sizeof(FeistelPermutation);
  mem.charge(shared.tables.push.slab_count() * slab_bytes);
  mem.charge(shared.tables.pull.slab_count() * slab_bytes);
  // Interned strings: payload bits plus the table's per-entry bookkeeping
  // (digest, length, chain link).
  for (StringId id = 0; id < shared.table.size(); ++id) {
    mem.charge((shared.table.bits(id) + 7) / 8 + 16);
  }
  mem.charge_vector(world.view.initial);
}

}  // namespace

AerReport run_aer_world_soa(AerWorld& world, SoaArena& arena,
                            const SoaRunOptions& opts,
                            const StrategyFactory& make_strategy) {
  const AerConfig& config = world.shared->config;
  auto attach = [&](auto& engine, const adv::Strategy* strategy) {
    arena.state.reset(world.shared.get(), world.view.initial, engine);
    if constexpr (std::is_same_v<std::decay_t<decltype(engine)>,
                                 sim::SyncEngine>) {
      // Bursts skip the per-send observe/fault/recovery taps, so they are
      // only legal when all of them are no-ops.
      if (opts.bursts && strategy == nullptr && config.fault_plan.empty() &&
          config.recovery_plan.empty()) {
        engine.set_burst_source(&arena.state);
        arena.state.enable_bursts(&engine);
      }
      if (opts.round_progress) engine.set_round_progress(opts.round_progress);
    }
  };
  auto harvest = [&](AerReport& report, const auto& engine) {
    fill_aer_specific_soa(report, world, arena.state);
    support::MemBudget mem;
    charge_trial_mem(mem, world, arena.state, engine.queue_peak_bytes());
    report.mem_bytes = mem.total_bytes();
    report.mem_bytes_per_node = mem.bytes_per_node(config.n);
  };
  return run_on_engines(world, arena.sync, arena.async, make_strategy, attach,
                        harvest);
}

}  // namespace fba::aer
