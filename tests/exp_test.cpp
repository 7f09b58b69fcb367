// Tests for the exp/ experiment runner: deterministic seeding, grid
// expansion, thread-count-independent aggregation, the statistics helpers,
// and the async-engine accounting fixes that the runner's traffic numbers
// rely on (timer/delivery separation, immediate done re-check).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "fba.h"

namespace fba {
namespace {

// ----- stats -----------------------------------------------------------------

TEST(StatsTest, SummarizeSampleBasics) {
  const auto s = exp::summarize_sample({4, 1, 3, 2});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 4);
  EXPECT_DOUBLE_EQ(s.p50, 2.5);
  EXPECT_GT(s.stddev, 0);
  EXPECT_GT(s.ci95, 0);
  EXPECT_LT(s.ci_lo(), s.mean);
  EXPECT_GT(s.ci_hi(), s.mean);
}

TEST(StatsTest, SummarizeIsOrderInvariant) {
  const std::vector<double> a = {5, 1, 9, 2, 2, 7};
  std::vector<double> b = a;
  std::reverse(b.begin(), b.end());
  const auto sa = exp::summarize_sample(a);
  const auto sb = exp::summarize_sample(b);
  EXPECT_DOUBLE_EQ(sa.mean, sb.mean);
  EXPECT_DOUBLE_EQ(sa.p99, sb.p99);
  EXPECT_DOUBLE_EQ(sa.stddev, sb.stddev);
}

TEST(StatsTest, QuantileInterpolates) {
  const std::vector<double> sorted = {0, 10};
  EXPECT_DOUBLE_EQ(exp::quantile_sorted(sorted, 0.0), 0);
  EXPECT_DOUBLE_EQ(exp::quantile_sorted(sorted, 0.5), 5);
  EXPECT_DOUBLE_EQ(exp::quantile_sorted(sorted, 1.0), 10);
  EXPECT_DOUBLE_EQ(exp::quantile_sorted({}, 0.5), 0);
}

TEST(StatsTest, EmptyAndSingletonSamples) {
  EXPECT_EQ(exp::summarize_sample({}).count, 0u);
  const auto s = exp::summarize_sample({7});
  EXPECT_DOUBLE_EQ(s.mean, 7);
  EXPECT_DOUBLE_EQ(s.ci95, 0);
}

// ----- seeds and grid --------------------------------------------------------

TEST(SweepTest, TrialSeedsAreDeterministicAndDistinct) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t p = 0; p < 8; ++p) {
    for (std::uint64_t t = 0; t < 64; ++t) {
      const std::uint64_t s = exp::trial_seed(1, p, t);
      EXPECT_EQ(s, exp::trial_seed(1, p, t));
      EXPECT_NE(s, 0u);
      seen.insert(s);
    }
  }
  EXPECT_EQ(seen.size(), 8u * 64u);  // no collisions across the sweep
  EXPECT_NE(exp::trial_seed(1, 0, 0), exp::trial_seed(2, 0, 0));
}

TEST(SweepTest, GridExpansionCoversCrossProduct) {
  aer::AerConfig base;
  base.n = 64;
  exp::Grid grid;
  grid.ns = {64, 128};
  grid.models = {aer::Model::kSyncRushing, aer::Model::kAsync};
  grid.strategies = {"none", "wrong"};
  EXPECT_EQ(grid.points(), 8u);
  const auto points = exp::expand_grid(base, grid);
  ASSERT_EQ(points.size(), 8u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
    EXPECT_DOUBLE_EQ(points[i].corrupt_fraction, base.corrupt_fraction);
  }
  // n varies fastest; strategy slowest.
  EXPECT_EQ(points[0].n, 64u);
  EXPECT_EQ(points[1].n, 128u);
  EXPECT_EQ(points[0].strategy, "none");
  EXPECT_EQ(points[4].strategy, "wrong");
}

TEST(SweepTest, EmptyGridIsSinglePointFromBase) {
  aer::AerConfig base;
  base.n = 96;
  base.model = aer::Model::kAsync;
  const auto points = exp::expand_grid(base, exp::Grid{});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].n, 96u);
  EXPECT_EQ(points[0].model, aer::Model::kAsync);
  EXPECT_EQ(points[0].strategy, "none");
}

TEST(SweepTest, UnknownAttackThrows) {
  EXPECT_THROW(exp::attack_factory("no-such-attack"), ConfigError);
  for (const std::string& name : exp::known_attacks()) {
    EXPECT_NO_THROW(exp::attack_factory(name));
  }
}

// ----- run_indexed -----------------------------------------------------------

TEST(SweepTest, RunIndexedCoversEveryIndexOnce) {
  for (std::size_t threads : {1u, 4u}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    exp::run_indexed(hits.size(), threads,
                     [&hits](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

// Sweep's and the service's per-worker arenas rely on two facts: every
// worker id is below the clamped thread count, and one id never runs two
// tasks at once. Task 0 holds its id until every other task has finished,
// so a scheduler that hands out a busy id is caught.
TEST(SweepTest, RunIndexedWorkersKeepsEachIdToOneTaskAtATime) {
  struct Case {
    std::size_t count;
    std::size_t threads;
  };
  for (const Case c : {Case{257, 4}, Case{3, 8}, Case{40, 1}}) {
    const std::size_t clamped = std::min(c.threads, c.count);
    std::vector<std::atomic<bool>> busy(clamped);
    std::atomic<std::size_t> finished{0};
    std::atomic<std::size_t> overlaps{0};
    exp::run_indexed_workers(
        c.count, c.threads, [&](std::size_t worker, std::size_t i) {
          ASSERT_LT(worker, clamped) << "threads=" << c.threads;
          if (busy[worker].exchange(true)) ++overlaps;
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(5);
          while (i == 0 && clamped > 1 && finished.load() + 1 < c.count &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
          busy[worker].store(false);
          ++finished;
        });
    EXPECT_EQ(finished.load(), c.count);
    EXPECT_EQ(overlaps.load(), 0u) << "threads=" << c.threads;
  }
}

TEST(SweepTest, RunIndexedPropagatesExceptions) {
  EXPECT_THROW(
      exp::run_indexed(64, 4,
                       [](std::size_t i) {
                         if (i == 13) throw ConfigError("boom");
                       }),
      ConfigError);
}

// ----- the determinism contract ---------------------------------------------

TEST(SweepTest, AggregateBitIdenticalAcrossThreadCounts) {
  aer::AerConfig base;
  base.n = 64;
  base.seed = 20130722;
  exp::Grid grid;
  grid.models = {aer::Model::kSyncRushing, aer::Model::kAsync};

  exp::Sweep serial(base, grid, 4);
  serial.set_threads(1);
  const auto serial_results = serial.run();

  exp::Sweep parallel(base, grid, 4);
  parallel.set_threads(4);
  const auto parallel_results = parallel.run();

  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    const exp::Aggregate& a = serial_results[i].aggregate;
    const exp::Aggregate& b = parallel_results[i].aggregate;
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_DOUBLE_EQ(a.completion_time.mean, b.completion_time.mean);
    EXPECT_DOUBLE_EQ(a.amortized_bits.p99, b.amortized_bits.p99);
    EXPECT_EQ(a.agreements, b.agreements);
    // Raw outcomes line up trial by trial, including derived seeds.
    ASSERT_EQ(serial_results[i].outcomes.size(),
              parallel_results[i].outcomes.size());
    for (std::size_t t = 0; t < serial_results[i].outcomes.size(); ++t) {
      EXPECT_EQ(serial_results[i].outcomes[t].seed,
                parallel_results[i].outcomes[t].seed);
      EXPECT_DOUBLE_EQ(serial_results[i].outcomes[t].completion_time,
                       parallel_results[i].outcomes[t].completion_time);
    }
  }
}

TEST(SweepTest, ArenaTrialsMatchFreshConstructionBitForBit) {
  // The trial-arena path (Sweep's default: world/engine/actor storage
  // reused across a worker's trials) must reproduce the legacy
  // fresh-construction path exactly — no dependence on arena history.
  aer::AerConfig base;
  base.n = 64;
  base.seed = 20130722;
  exp::Grid grid;
  grid.models = {aer::Model::kSyncRushing, aer::Model::kAsync};
  grid.strategies = {"none", "junk-light"};

  exp::Sweep arena_sweep(base, grid, 3);
  arena_sweep.set_threads(1);  // one arena, maximally reused
  const auto arena_results = arena_sweep.run();
  EXPECT_TRUE(arena_sweep.timing().available);
  EXPECT_EQ(arena_sweep.timing().trials, arena_sweep.total_trials());
  EXPECT_GT(arena_sweep.timing().setup_seconds, 0.0);
  EXPECT_GT(arena_sweep.timing().run_seconds, 0.0);

  exp::Sweep fresh_sweep(base, grid, 3);
  fresh_sweep.set_threads(1);
  fresh_sweep.set_trial(
      static_cast<exp::TrialOutcome (*)(const aer::AerConfig&,
                                        const exp::GridPoint&)>(
          exp::run_aer_trial));
  const auto fresh_results = fresh_sweep.run();
  EXPECT_FALSE(fresh_sweep.timing().available);

  ASSERT_EQ(arena_results.size(), fresh_results.size());
  for (std::size_t i = 0; i < arena_results.size(); ++i) {
    EXPECT_EQ(arena_results[i].aggregate.fingerprint(),
              fresh_results[i].aggregate.fingerprint())
        << arena_results[i].point.label();
  }
}

TEST(SweepTest, ArenaReusedAcrossGridShapesStaysCorrect) {
  // One arena serves trials of different n / model back to back (grid
  // points resize the world, engines and tables in place).
  aer::AerConfig base;
  base.seed = 7;
  exp::Grid grid;
  grid.ns = {64, 32, 96};
  grid.models = {aer::Model::kSyncRushing, aer::Model::kAsync};
  exp::Sweep sweep(base, grid, 2);
  sweep.set_threads(1);
  const auto results = sweep.run();
  ASSERT_EQ(results.size(), 6u);
  for (const exp::PointResult& r : results) {
    EXPECT_EQ(r.aggregate.agreements, r.aggregate.trials) << r.point.label();
  }
  // And the same sweep through four workers (four arenas, different trial
  // interleavings) folds to identical fingerprints.
  exp::Sweep parallel(base, grid, 2);
  parallel.set_threads(4);
  const auto parallel_results = parallel.run();
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].aggregate.fingerprint(),
              parallel_results[i].aggregate.fingerprint());
  }
}

TEST(SweepTest, PerKindTrafficAxesArePopulatedAndConsistent) {
  aer::AerConfig base;
  base.n = 64;
  base.seed = 20130722;
  exp::Sweep sweep(base, exp::Grid{}, 3);
  sweep.set_threads(1);
  const exp::Aggregate agg = sweep.run().front().aggregate;

  // All six AER hops carry traffic, and the per-kind means decompose the
  // whole-run totals: sum over kinds == total messages, per trial.
  using sim::MessageKind;
  double msg_sum = 0;
  double bits_mean_sum = 0;
  for (std::size_t k = 0; k < sim::kNumMessageKinds; ++k) {
    msg_sum += agg.msgs_by_kind[k];
    bits_mean_sum += agg.bits_by_kind[k].mean;
  }
  EXPECT_NEAR(msg_sum, agg.total_messages.mean, 1e-6);
  EXPECT_GT(bits_mean_sum, 0);
  for (const MessageKind kind :
       {MessageKind::kPush, MessageKind::kPoll, MessageKind::kPull,
        MessageKind::kFw1, MessageKind::kFw2, MessageKind::kAnswer}) {
    EXPECT_GT(agg.msgs_by_kind[sim::kind_index(kind)], 0)
        << sim::kind_name(kind);
    EXPECT_GT(agg.bits_by_kind[sim::kind_index(kind)].mean, 0)
        << sim::kind_name(kind);
  }
  // Non-AER kinds stay zero in an AER sweep.
  EXPECT_EQ(agg.msgs_by_kind[sim::kind_index(MessageKind::kSnowQuery)], 0);
}

TEST(SweepTest, ProgressCallbackCountsEveryTrial) {
  aer::AerConfig base;
  base.n = 64;
  base.seed = 3;
  for (std::size_t threads : {1u, 4u}) {
    exp::Sweep sweep(base, exp::Grid{}, 6);
    sweep.set_threads(threads);
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    sweep.set_progress([&calls](std::size_t done, std::size_t total) {
      calls.emplace_back(done, total);  // serialized by the sweep
    });
    sweep.run();
    ASSERT_EQ(calls.size(), 6u);
    for (std::size_t i = 0; i < calls.size(); ++i) {
      EXPECT_EQ(calls[i].first, i + 1);  // monotonically counted
      EXPECT_EQ(calls[i].second, 6u);
    }
  }
}

TEST(SweepTest, ModelSweepReachesAgreementWithAllCorrectNodes) {
  aer::AerConfig base;
  base.seed = 7;
  base.corrupt_fraction = 0.0;  // all-correct population
  exp::Grid grid;
  grid.ns = {64, 128};
  grid.models = {aer::Model::kSyncNonRushing, aer::Model::kSyncRushing,
                 aer::Model::kAsync};
  exp::Sweep sweep(base, grid, 3);
  sweep.set_threads(exp::default_threads());
  const auto results = sweep.run();
  ASSERT_EQ(results.size(), 6u);
  for (const exp::PointResult& r : results) {
    EXPECT_EQ(r.aggregate.trials, 3u) << r.point.label();
    EXPECT_EQ(r.aggregate.agreements, 3u) << r.point.label();
    EXPECT_EQ(r.aggregate.wrong_decisions, 0u) << r.point.label();
    EXPECT_EQ(r.aggregate.stalled_nodes, 0u) << r.point.label();
    EXPECT_EQ(r.aggregate.engine_incomplete, 0u) << r.point.label();
    EXPECT_GT(r.aggregate.decision_time.count, 0u) << r.point.label();
  }
}

TEST(SweepTest, CorruptedSweepNeverDecidesWrong) {
  // With the default 8% corruption a correct node can stall (a liveness
  // tail at laptop-scale d — see fba_repro --figure=resilience), but
  // safety must hold: no correct node ever decides on junk.
  aer::AerConfig base;
  base.seed = 7;
  exp::Grid grid;
  grid.ns = {64, 128};
  grid.models = {aer::Model::kSyncRushing, aer::Model::kAsync};
  grid.strategies = {"wrong"};
  exp::Sweep sweep(base, grid, 3);
  sweep.set_threads(exp::default_threads());
  for (const exp::PointResult& r : sweep.run()) {
    EXPECT_EQ(r.aggregate.wrong_decisions, 0u) << r.point.label();
    EXPECT_GT(r.aggregate.agreement_rate(), 0.5) << r.point.label();
  }
}

// ----- async engine accounting ----------------------------------------------

sim::Wire count_wire() {
  sim::Wire w;
  w.node_id_bits = 8;
  w.label_bits = 16;
  w.fixed_string_bits = 32;
  return w;
}

sim::Message note_msg() {
  sim::Message m;
  m.kind = sim::MessageKind::kPing;
  return m;
}

/// Sends `sends` messages to node 1 and schedules `timers` timers at start.
struct SenderActor final : sim::Actor {
  SenderActor(int sends, int timers) : sends(sends), timers(timers) {}
  void on_start(sim::Context& ctx) override {
    for (int i = 0; i < sends; ++i) ctx.send(1, note_msg());
    for (int i = 0; i < timers; ++i) {
      ctx.schedule_timer(0.25 * (i + 1), static_cast<std::uint64_t>(i));
    }
  }
  void on_message(sim::Context&, const sim::Envelope&) override {}
  int sends;
  int timers;
};

struct SinkActor final : sim::Actor {
  void on_start(sim::Context&) override {}
  void on_message(sim::Context&, const sim::Envelope&) override { ++received; }
  void on_timer(sim::Context&, std::uint64_t) override { ++timer_fires; }
  int received = 0;
  int timer_fires = 0;
};

TEST(AsyncAccountingTest, DeliveriesExcludeTimerFirings) {
  sim::AsyncConfig cfg;
  cfg.n = 2;
  cfg.seed = 11;
  sim::AsyncEngine engine(cfg);
  const sim::Wire wire = count_wire();
  engine.set_wire(&wire);
  auto* sender = new SenderActor(/*sends=*/5, /*timers=*/3);
  engine.set_actor(0, std::unique_ptr<sim::Actor>(sender));
  engine.set_actor(1, std::make_unique<SinkActor>());
  const auto result = engine.run([] { return false; });
  EXPECT_TRUE(result.quiescent);
  EXPECT_EQ(result.deliveries, 5u);
  EXPECT_EQ(result.timer_fires, 3u);
  EXPECT_EQ(engine.metrics().total_messages(), 5u);
}

/// Decides on the first delivered message.
struct DecideOnFirstActor final : sim::Actor {
  void on_start(sim::Context&) override {}
  void on_message(sim::Context& ctx, const sim::Envelope&) override {
    if (!decided) {
      decided = true;
      ctx.decide(0);
    }
  }
  bool decided = false;
};

TEST(AsyncAccountingTest, DoneRecheckedImmediatelyAfterDecision) {
  sim::AsyncConfig cfg;
  cfg.n = 2;
  cfg.seed = 5;
  cfg.done_check_stride = 64;
  sim::AsyncEngine engine(cfg);
  const sim::Wire wire = count_wire();
  engine.set_wire(&wire);
  // 40 in-flight messages; the first delivery decides. With the stride-only
  // check the engine would chew through up to 39 more events before
  // noticing; the decision-triggered re-check must stop it at exactly one.
  engine.set_actor(0, std::make_unique<SenderActor>(/*sends=*/40,
                                                    /*timers=*/0));
  engine.set_actor(1, std::make_unique<DecideOnFirstActor>());
  bool decided = false;
  engine.set_decision_callback(
      [&decided](NodeId, StringId, double) { decided = true; });
  const auto result = engine.run([&decided] { return decided; });
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.deliveries, 1u);
  EXPECT_LE(result.time, 1.0);
}

}  // namespace
}  // namespace fba
