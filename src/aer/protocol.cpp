#include "aer/protocol.h"

#include <algorithm>
#include <cmath>

#include "aer/runner.h"

namespace fba::aer {

const char* model_name(Model model) {
  switch (model) {
    case Model::kSyncNonRushing:
      return "sync-nonrushing";
    case Model::kSyncRushing:
      return "sync-rushing";
    case Model::kAsync:
      return "async";
  }
  return "?";
}

std::size_t AerConfig::resolved_t() const {
  if (explicit_t >= 0) return static_cast<std::size_t>(explicit_t);
  return static_cast<std::size_t>(
      std::floor(corrupt_fraction * static_cast<double>(n)));
}

std::size_t AerConfig::resolved_d() const {
  if (d_override > 0) return d_override;
  const double log2n = std::log2(static_cast<double>(n));
  return std::max<std::size_t>(
      8, static_cast<std::size_t>(std::lround(c_d * log2n)));
}

std::size_t AerConfig::resolved_answer_budget() const {
  if (answer_budget > 0) return answer_budget;
  const auto log2n = static_cast<std::size_t>(
      std::ceil(std::log2(static_cast<double>(n))));
  return log2n * log2n;
}

std::size_t AerConfig::resolved_gstring_bits() const {
  return gstring_c * static_cast<std::size_t>(node_id_bits(n));
}

AerWorld build_aer_world(const AerConfig& config,
                         const CorruptPicker& pick_corrupt) {
  AerWorld world;
  build_aer_world_into(world, config, pick_corrupt);
  return world;
}

namespace {

/// Shared body of the two build_aer_world_into overloads: `fixed_corrupt`
/// (when non-null) bypasses both the picker and the random draw.
void build_world_impl(AerWorld& world, const AerConfig& config,
                      const CorruptPicker& pick_corrupt,
                      const std::vector<NodeId>* fixed_corrupt) {
  FBA_REQUIRE(config.n >= 8, "AER needs at least 8 nodes");
  const std::size_t n = config.n;
  const std::size_t t = config.resolved_t();
  FBA_REQUIRE(t < n, "cannot corrupt every node");

  sampler::SamplerParams sp =
      sampler::SamplerParams::defaults(n, config.seed, config.c_d);
  sp.d = config.resolved_d();

  if (world.shared == nullptr) {
    world.shared = std::make_unique<AerShared>(config, sp);
  } else {
    world.shared->reset(config, sp);
  }
  AerShared& shared = *world.shared;
  world.correct.clear();
  world.runtime_corrupt.clear();

  Rng setup_rng = Rng(config.seed).split(0x5e7u);

  // The agreement value: c*log n bits, of which only a 2/3 fraction needs to
  // be uniformly random; the rest is adversary-influenced (it comes from
  // Byzantine committee members in the composed protocol). We fix those bits
  // to zero, the structured worst case for an oblivious choice.
  GstringSpec gspec;
  gspec.length_bits = config.resolved_gstring_bits();
  gspec.random_fraction = config.gstring_random_fraction;
  world.scratch.adversary_bits.reset_zero(gspec.length_bits);
  Rng gstring_rng = setup_rng.split(0x65u);
  make_gstring_into(gspec, world.scratch.adversary_bits, gstring_rng,
                    world.scratch.gstring);
  shared.gstring = shared.table.intern(world.scratch.gstring);

  // Non-adaptive corruption, before any protocol activity.
  Rng corrupt_rng = setup_rng.split(0xc0u);
  if (fixed_corrupt != nullptr) {
    world.view.corrupt.assign(fixed_corrupt->begin(), fixed_corrupt->end());
  } else if (pick_corrupt) {
    world.view.corrupt = pick_corrupt(n, t, corrupt_rng, shared);
  } else {
    adv::random_corruption_into(n, t, corrupt_rng, world.view.corrupt);
  }
  FBA_REQUIRE(world.view.corrupt.size() <= t,
              "corrupt picker exceeded its budget");

  std::vector<bool>& is_corrupt = world.scratch.is_corrupt;
  is_corrupt.assign(n, false);
  for (NodeId id : world.view.corrupt) is_corrupt.at(id) = true;

  for (NodeId id = 0; id < n; ++id) {
    if (!is_corrupt[id]) world.correct.push_back(id);
  }

  // Knowledgeable assignment: a random knowledgeable_fraction of correct
  // nodes starts with gstring; the rest start with private random strings
  // (the "sx can be random or set to a default value" case).
  const auto know_count = static_cast<std::size_t>(
      std::floor(config.knowledgeable_fraction *
                 static_cast<double>(world.correct.size())));
  Rng know_rng = setup_rng.split(0x4bu);
  world.scratch.shuffled = world.correct;
  std::vector<NodeId>& shuffled = world.scratch.shuffled;
  know_rng.shuffle(shuffled);

  world.view.shared = &shared;
  world.view.gstring = shared.gstring;
  world.view.initial.assign(n, kNoString);
  world.view.knowledgeable.assign(n, false);
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    const NodeId id = shuffled[i];
    if (i < know_count) {
      world.view.initial[id] = shared.gstring;
      world.view.knowledgeable[id] = true;
    } else {
      world.scratch.candidate.randomize(gspec.length_bits, know_rng);
      world.view.initial[id] = shared.table.intern(world.scratch.candidate);
    }
  }
  world.decisions.reset(n);
}

}  // namespace

void build_aer_world_into(AerWorld& world, const AerConfig& config,
                          const CorruptPicker& pick_corrupt) {
  build_world_impl(world, config, pick_corrupt, nullptr);
}

void build_aer_world_into(AerWorld& world, const AerConfig& config,
                          const std::vector<NodeId>& fixed_corrupt) {
  build_world_impl(world, config, {}, &fixed_corrupt);
}

bool note_runtime_corruption(AerWorld& world, NodeId node) {
  world.runtime_corrupt.push_back(node);
  if (world.decisions.has_decided(node)) return false;
  auto it = std::find(world.correct.begin(), world.correct.end(), node);
  if (it == world.correct.end()) return false;
  world.correct.erase(it);
  return true;
}

void fill_outcome_and_traffic(AerReport& report, const AerWorld& world,
                              const TrafficMetrics& metrics) {
  const AerShared& shared = *world.shared;
  report.correct_count = world.correct.size();
  report.knowledgeable_count = 0;
  for (bool k : world.view.knowledgeable) {
    if (k) ++report.knowledgeable_count;
  }

  report.decided_count = world.decisions.count_decided(world.correct);
  report.decided_gstring =
      world.decisions.count_correct_decisions(world.correct, shared.gstring);
  report.everyone_decided = report.decided_count == world.correct.size();
  report.agreement = report.decided_gstring == world.correct.size();
  report.completion_time = world.decisions.completion_time(world.correct);

  double time_sum = 0;
  std::size_t timed = 0;
  for (NodeId id : world.correct) {
    if (world.decisions.has_decided(id)) {
      time_sum += world.decisions.time(id);
      ++timed;
    }
  }
  report.mean_decision_time = timed > 0 ? time_sum / timed : 0;

  report.total_messages = metrics.total_messages();
  report.total_bits = metrics.total_bits();
  report.amortized_bits = metrics.amortized_bits();
  report.sent_bits = metrics.sent_bits_stats();
  report.bits_by_kind = metrics.bits_by_kind();
  report.msgs_by_kind = metrics.messages_by_kind();
  report.fault_dropped_msgs = metrics.fault_dropped_messages();
  report.fault_dropped_bits = metrics.fault_dropped_bits();
  report.fault_delayed_msgs = metrics.fault_delayed_messages();
  report.fault_drops_by_cause = metrics.drops_by_cause();
  report.recovery_retransmit_msgs = metrics.recovery_retransmit_messages();
  report.recovery_retransmit_bits = metrics.recovery_retransmit_bits();
  report.recovery_acked_msgs = metrics.recovery_acked_messages();
  report.recovery_dead_msgs = metrics.recovery_dead_messages();
  report.recovery_dup_msgs = metrics.recovery_duplicate_messages();

  report.push_bits_per_node =
      report.n > 0
          ? static_cast<double>(metrics.bits_of(sim::MessageKind::kPush)) /
                static_cast<double>(report.n)
          : 0;
}

namespace {

/// AER-specific report sections (candidate lists, deferred-answer peaks).
/// Walks world.correct (not the dense actor table) so nodes flipped by a
/// runtime corruption drop out of the harvest, matching the SoA path —
/// identical to the old whole-table walk for static runs, where `correct`
/// and the non-null entries of `nodes` coincide.
void fill_aer_specific(AerReport& report, const AerWorld& world,
                       const std::vector<AerNode*>& nodes) {
  const AerShared& shared = *world.shared;
  for (NodeId id : world.correct) {
    AerNode* node = nodes[id];
    if (node == nullptr) continue;
    report.sum_candidate_lists += node->candidate_list().size();
    report.max_candidate_list =
        std::max(report.max_candidate_list, node->candidate_list().size());
    if (!node->has_candidate(shared.gstring)) ++report.nodes_missing_gstring;
    report.max_deferred_answers =
        std::max(report.max_deferred_answers, node->deferred_peak());
  }
}

}  // namespace

AerReport run_aer(const AerConfig& config, const StrategyFactory& make_strategy,
                  const CorruptPicker& pick_corrupt) {
  AerWorld world = build_aer_world(config, pick_corrupt);
  // World-owning variant of run_aer_world: the whole run — world included —
  // is self-contained, so concurrent run_aer calls (the experiment runner's
  // trials) share nothing. Captures are by value because the world moves.
  AerShared* shared = world.shared.get();
  const std::vector<StringId> initial = world.view.initial;
  auto nodes =
      std::make_shared<std::vector<AerNode*>>(config.n, nullptr);
  return run_world_protocol(
      std::move(world),
      [shared, initial, nodes](NodeId id) {
        auto actor = std::make_unique<AerNode>(shared, id, initial[id]);
        (*nodes)[id] = actor.get();
        return actor;
      },
      make_strategy,
      [nodes](AerReport& report, AerWorld& owned) {
        fill_aer_specific(report, owned, *nodes);
      });
}

AerReport run_aer_world_arena(AerWorld& world, RunArena& arena,
                              const StrategyFactory& make_strategy) {
  // Mirrors run_world_protocol step for step (order included — the golden
  // fingerprints pin it), substituting engine reset and pooled actors for
  // fresh construction.
  const AerConfig& config = world.shared->config;
  world.decisions.reset(config.n);

  AerReport report;
  report.n = config.n;
  report.t = world.view.corrupt.size();
  report.d = config.resolved_d();
  report.model = config.model;

  std::unique_ptr<adv::Strategy> strategy;
  if (make_strategy) strategy = make_strategy(world.view);

  std::size_t decided = 0;
  std::size_t target = world.correct.size();
  auto on_decide = [&world, &decided](NodeId node, StringId value,
                                      double time) {
    if (!world.decisions.has_decided(node)) ++decided;
    world.decisions.record(node, value, time);
  };
  auto done = [&] { return decided >= target; };
  auto on_corrupt = [&world, &target](NodeId node, double /*time*/) {
    if (note_runtime_corruption(world, node)) --target;
  };

  auto wire_nodes = [&](auto& engine) {
    engine.set_wire(&world.shared->wire());
    engine.set_fault_plan(&config.fault_plan);
    engine.set_recovery_plan(&config.recovery_plan);
    engine.set_corrupt(world.view.corrupt);
    arena.wire_actors(engine, world);
    engine.set_strategy(strategy.get());
    engine.set_decision_callback(on_decide);
    engine.set_corruption_budget(config.adaptive_budget);
    engine.set_corruption_callback(on_corrupt);
  };
  auto harvest_adaptive = [&report](auto& engine) {
    report.runtime_corruptions = engine.corruptions_spent();
    report.first_corruption_time = engine.first_corruption_time();
    report.last_corruption_time = engine.last_corruption_time();
  };

  if (config.model == Model::kAsync) {
    sim::AsyncConfig ec;
    ec.n = config.n;
    ec.seed = config.seed;
    ec.max_time = config.max_time;
    if (arena.async.has_value()) arena.async->reset(ec);
    else arena.async.emplace(ec);
    sim::AsyncEngine& engine = *arena.async;
    wire_nodes(engine);
    const auto result = engine.run(done);
    report.engine_time = result.time;
    report.engine_completed = result.completed;
    harvest_adaptive(engine);
    fill_outcome_and_traffic(report, world, engine.metrics());
  } else {
    sim::SyncConfig ec;
    ec.n = config.n;
    ec.seed = config.seed;
    ec.rushing_adversary = config.model == Model::kSyncRushing;
    ec.max_rounds = config.max_rounds;
    if (arena.sync.has_value()) arena.sync->reset(ec);
    else arena.sync.emplace(ec);
    sim::SyncEngine& engine = *arena.sync;
    wire_nodes(engine);
    const auto result = engine.run(done);
    report.engine_time = static_cast<double>(result.rounds);
    report.engine_completed = result.completed;
    harvest_adaptive(engine);
    fill_outcome_and_traffic(report, world, engine.metrics());
  }
  fill_aer_specific(report, world, arena.active);
  return report;
}

AerReport run_aer_world(AerWorld& world, const StrategyFactory& make_strategy) {
  std::vector<AerNode*> nodes(world.shared->config.n, nullptr);
  auto make_actor = [&world, &nodes](NodeId id) {
    auto actor = std::make_unique<AerNode>(world.shared.get(), id,
                                           world.view.initial[id]);
    nodes[id] = actor.get();
    return actor;
  };
  auto post_run = [&world, &nodes](AerReport& report) {
    fill_aer_specific(report, world, nodes);
  };
  return run_world_protocol(world, make_actor, make_strategy, post_run);
}

}  // namespace fba::aer
