// The one run loop: run_on_engines executes any actor-based protocol on a
// prebuilt AerWorld under the model selected in the world's config. It
// builds or resets the model's engine, installs the wire, the fault and
// recovery plans, the corrupt set, the actors, the adversary strategy and
// the decision and runtime-corruption bookkeeping, runs until every correct
// node decided, and fills the outcome and traffic sections of the report.
// The callers differ only in where the engines and actors live:
// run_world_protocol (fresh engines, engine-owned actors),
// run_aer_world_arena (RunArena) and run_aer_world_soa (SoaArena).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "aer/protocol.h"
#include "net/async_engine.h"
#include "net/sync_engine.h"

namespace fba::aer {

namespace detail {
inline double engine_time(const sim::SyncResult& r) {
  return static_cast<double>(r.rounds);
}
inline double engine_time(const sim::AsyncResult& r) { return r.time; }
}  // namespace detail

/// Runs one trial on `world` through the engine `world`'s model selects,
/// emplaced into `sync` or `async` or reset in place if it already exists.
/// `attach(engine, strategy)` registers the run's actors with the engine
/// (its corrupt set is installed; `strategy` may be null).
/// `harvest(report, engine)` adds the caller's own report sections after
/// the outcome and traffic ones, while the actors are still alive.
///
/// The order of the steps is part of the results: the golden fingerprints
/// pin it, so every runner goes through this one function.
template <typename Attach, typename Harvest>
AerReport run_on_engines(AerWorld& world, std::optional<sim::SyncEngine>& sync,
                         std::optional<sim::AsyncEngine>& async,
                         const StrategyFactory& make_strategy, Attach&& attach,
                         Harvest&& harvest) {
  const AerConfig& config = world.shared->config;
  world.decisions.reset(config.n);

  AerReport report;
  report.n = config.n;
  report.t = world.view.corrupt.size();
  report.d = config.resolved_d();
  report.model = config.model;

  // Made before the engine exists: a factory may mark the instant the run
  // starts (the benchmark's traced BA pass does).
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

  auto run = [&](auto& engine) {
    engine.set_wire(&world.shared->wire());
    engine.set_fault_plan(&config.fault_plan);
    engine.set_recovery_plan(&config.recovery_plan);
    engine.set_corrupt(world.view.corrupt);
    attach(engine, static_cast<const adv::Strategy*>(strategy.get()));
    engine.set_strategy(strategy.get());
    engine.set_decision_callback(on_decide);
    engine.set_corruption_budget(config.adaptive_budget);
    engine.set_corruption_callback(on_corrupt);
    const auto result = engine.run(done);
    report.engine_time = detail::engine_time(result);
    report.engine_completed = result.completed;
    report.runtime_corruptions = engine.corruptions_spent();
    report.first_corruption_time = engine.first_corruption_time();
    report.last_corruption_time = engine.last_corruption_time();
    fill_outcome_and_traffic(report, world, engine.metrics());
    harvest(report, engine);
  };

  if (config.model == Model::kAsync) {
    sim::AsyncConfig ec;
    ec.n = config.n;
    ec.seed = config.seed;
    ec.max_time = config.max_time;
    if (async.has_value()) async->reset(ec);
    else async.emplace(ec);
    run(*async);
  } else {
    sim::SyncConfig ec;
    ec.n = config.n;
    ec.seed = config.seed;
    ec.rushing_adversary = config.model == Model::kSyncRushing;
    ec.max_rounds = config.max_rounds;
    if (sync.has_value()) sync->reset(ec);
    else sync.emplace(ec);
    run(*sync);
  }
  return report;
}

/// Reusable run machinery for back-to-back trials (the trial-arena path):
/// one engine of each flavor, reset per trial instead of reconstructed, and
/// a pool of AerNode actors whose container storage survives across trials.
/// A warm arena executes a whole trial without heap allocation; results are
/// bit-identical to a cold arena's (reset() replicates construction
/// semantics — golden_test and exp_test enforce it).
struct RunArena {
  std::optional<sim::SyncEngine> sync;
  std::optional<sim::AsyncEngine> async;
  std::vector<std::unique_ptr<AerNode>> node_pool;
  /// Per-trial dispatch view: active[id] is the pooled actor of correct
  /// node id (nullptr for corrupt ids), valid until the next trial.
  std::vector<AerNode*> active;

  /// Resets `count` pooled nodes for a fresh trial and registers them with
  /// `engine` (non-owning) for every correct node; fills `active`.
  template <typename Engine>
  void wire_actors(Engine& engine, const AerWorld& world) {
    const std::size_t n = world.shared->config.n;
    active.assign(n, nullptr);
    std::size_t used = 0;
    for (NodeId id = 0; id < n; ++id) {
      if (engine.is_corrupt(id)) continue;
      if (used == node_pool.size()) {
        node_pool.push_back(std::make_unique<AerNode>(
            world.shared.get(), id, world.view.initial[id]));
      } else {
        node_pool[used]->reset(world.shared.get(), id,
                               world.view.initial[id]);
      }
      AerNode* node = node_pool[used++].get();
      active[id] = node;
      engine.set_actor(id, static_cast<sim::Actor*>(node));
    }
  }
};

/// Runs AER on a prebuilt world through `arena` (engines reset in place,
/// pooled actors). run_aer_world is this on a fresh arena.
AerReport run_aer_world_arena(AerWorld& world, RunArena& arena,
                              const StrategyFactory& make_strategy = {});

/// Runs a protocol on fresh engines: `make_actor(id)` returns the
/// std::unique_ptr<sim::Actor> the engine owns for each correct node id.
/// The report holds the common sections only.
template <typename ActorFactory>
AerReport run_world_protocol(AerWorld& world, ActorFactory&& make_actor,
                             const StrategyFactory& make_strategy = {}) {
  std::optional<sim::SyncEngine> sync;
  std::optional<sim::AsyncEngine> async;
  return run_on_engines(
      world, sync, async, make_strategy,
      [&](auto& engine, const adv::Strategy*) {
        for (NodeId id = 0; id < world.shared->config.n; ++id) {
          if (engine.is_corrupt(id)) continue;
          engine.set_actor(id, make_actor(id));
        }
      },
      [](AerReport&, auto&) {});
}

}  // namespace fba::aer
