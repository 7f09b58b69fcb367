// Service-mode contracts (exp/service.h, docs/perf.md "service mode"):
// the streaming repeated-consensus loop must produce bit-identical
// deterministic results at ANY worker count or arena warmth — per-instance
// seeds derive from (base_seed, instance) alone and each window of
// outcomes is folded in instance order. A golden pins a persistent-
// adversary (grudge) stream so the derivation chain cannot drift silently.
// The streaming histogram backing the latency stats is checked against the
// exact sample-based summary it stands in for.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fba.h"

namespace fba {
namespace {

constexpr std::uint64_t kSeed = 20130722;

exp::ServiceConfig small_config() {
  exp::ServiceConfig config;
  config.base.n = 48;
  config.base.model = aer::Model::kSyncRushing;
  config.base_seed = kSeed;
  config.instances = 12;
  return config;
}

TEST(ServiceTest, InstanceSeedsAreDistinctStableAndNonzero) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 256; ++i) {
    const std::uint64_t s = exp::instance_seed(kSeed, i);
    EXPECT_NE(s, 0u);
    EXPECT_TRUE(seen.insert(s).second) << "collision at instance " << i;
    // Stable: the same (base_seed, instance) always derives the same seed.
    EXPECT_EQ(s, exp::instance_seed(kSeed, i));
    // Keyed apart from the sweep derivation: a service stream and a sweep
    // on the same base seed must draw unrelated randomness.
    EXPECT_NE(s, exp::trial_seed(kSeed, 0, i));
  }
}

// Instances run in windows of 32 per worker, so streams that are empty,
// end inside the first window, or run one past a full 4-worker window
// (129) must fold exactly as the one-worker stream does.
TEST(ServiceTest, WorkerCountDoesNotChangeResults) {
  for (const std::uint64_t instances : {0u, 1u, 3u, 12u, 129u}) {
    exp::ServiceConfig config = small_config();
    config.instances = instances;
    const std::uint64_t reference =
        exp::run_service(config).stats.fingerprint();
    for (const std::size_t workers : {2u, 3u, 4u}) {
      config.workers = workers;
      const exp::ServiceResult r = exp::run_service(config);
      EXPECT_EQ(r.stats.fingerprint(), reference)
          << "instances=" << instances << " workers=" << workers;
      EXPECT_EQ(r.stats.instances, instances);
      EXPECT_EQ(r.load.instance_wall_ms.count(), instances);
      EXPECT_EQ(r.timing.trials, instances);
    }
  }
}

// A quorum size past the 64-bit credit mask passes the plan but fails every
// world build inside run_instance; the stream must rethrow that on the
// calling thread, inline and from worker threads alike, and not hang.
TEST(ServiceTest, FailingInstanceRethrows) {
  exp::ServiceConfig config = small_config();
  config.base.d_override = 65;
  EXPECT_NO_THROW(exp::ServicePlan{config});
  for (const std::size_t workers : {1u, 4u}) {
    config.workers = workers;
    EXPECT_THROW(exp::run_service(config), ConfigError)
        << "workers=" << workers;
  }
}

TEST(ServiceTest, WarmAndColdArenasAgree) {
  exp::ServiceConfig warm = small_config();
  exp::ServiceConfig cold = small_config();
  cold.warm = false;
  const exp::ServiceResult w = exp::run_service(warm);
  const exp::ServiceResult c = exp::run_service(cold);
  EXPECT_EQ(w.stats.fingerprint(), c.stats.fingerprint());
  // And cold on several workers too: warmth and parallelism are
  // independent axes of the same contract.
  cold.workers = 3;
  EXPECT_EQ(exp::run_service(cold).stats.fingerprint(),
            w.stats.fingerprint());
}

TEST(ServiceTest, PersistentAdversariesChangeResultsDeterministically) {
  const std::uint64_t honest =
      exp::run_service(small_config()).stats.fingerprint();
  for (const char* attack : {"grudge-silent", "grudge-wrong", "grudge-stuff"}) {
    exp::ServiceConfig config = small_config();
    config.attack = attack;
    const std::uint64_t fp = exp::run_service(config).stats.fingerprint();
    EXPECT_NE(fp, honest) << attack;
    EXPECT_EQ(exp::run_service(config).stats.fingerprint(), fp) << attack;
  }
}

TEST(ServiceTest, GrudgeRosterIsPinnedAcrossInstances) {
  exp::ServiceConfig config = small_config();
  config.attack = "grudge-wrong";
  const exp::ServicePlan plan(config);
  EXPECT_TRUE(plan.grudge());
  const std::vector<NodeId>& roster = plan.grudge_roster();
  EXPECT_EQ(roster.size(), config.base.resolved_t());
  for (const NodeId id : roster) EXPECT_LT(id, config.base.n);
  // Same service seed -> same roster; the grudge is the ROSTER persisting,
  // not a per-instance redraw.
  EXPECT_EQ(exp::ServicePlan(config).grudge_roster(), roster);
  // Every instance's world pins exactly this corrupt set.
  exp::TrialArena arena;
  aer::AerConfig cfg;
  exp::TrialOutcome out;
  for (std::uint64_t i = 0; i < 3; ++i) {
    plan.run_instance(i, cfg, arena, out);
    std::vector<NodeId> corrupt = arena.world.view.corrupt;
    std::vector<NodeId> expected = roster;
    std::sort(corrupt.begin(), corrupt.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(corrupt, expected) << "instance " << i;
  }
}

TEST(ServiceTest, SlowBurnChurnRampsAcrossInstances) {
  exp::ServiceConfig config = small_config();
  config.fault = "slow-burn-churn";
  const exp::ServicePlan plan(config);
  aer::AerConfig cfg;
  plan.configure(cfg, 0);
  ASSERT_FALSE(cfg.fault_plan.churns.empty());
  const double start = cfg.fault_plan.churns.front().fraction;
  plan.configure(cfg, 16);
  const double mid = cfg.fault_plan.churns.front().fraction;
  plan.configure(cfg, 32);
  const double top = cfg.fault_plan.churns.front().fraction;
  plan.configure(cfg, 400);
  const double capped = cfg.fault_plan.churns.front().fraction;
  EXPECT_LT(start, mid);
  EXPECT_LT(mid, top);
  EXPECT_DOUBLE_EQ(top, capped);  // the ramp saturates, never exceeds it
  EXPECT_NEAR(start, 0.05, 1e-12);
  EXPECT_NEAR(top, 0.25, 1e-12);
}

// Golden: a persistent-adversary service stream, pinned end to end —
// instance-seed derivation, grudge roster draw, fixed-order reduction and
// the ServiceStats hash itself. If an intentional change moves it, rerun
//   ./service_test --gtest_filter=ServiceTest.GrudgeStreamGolden
// and update the constant (the failure message prints the new value).
TEST(ServiceTest, GrudgeStreamGolden) {
  exp::ServiceConfig config = small_config();
  config.attack = "grudge-wrong";
  const std::uint64_t fp = exp::run_service(config).stats.fingerprint();
  const std::uint64_t kPinned = 0x34e1ff770bc4d763ull;
  EXPECT_EQ(fp, kPinned) << "new fingerprint: 0x" << std::hex << fp;
}

TEST(ServiceTest, StatsFoldMatchesOutcomeCounts) {
  exp::ServiceConfig config = small_config();
  const exp::ServiceResult r = exp::run_service(config);
  const exp::ServiceStats& s = r.stats;
  EXPECT_EQ(s.instances, config.instances);
  EXPECT_EQ(s.instance_latency.count(), config.instances);
  EXPECT_EQ(s.total_messages.count(), config.instances);
  // Pooled per-node decision latencies: one sample per decided correct node.
  EXPECT_GT(s.decision_latency.count(), 0u);
  EXPECT_LE(s.decision_latency.count(), s.correct_nodes);
  const exp::Aggregate a = s.to_aggregate();
  EXPECT_EQ(a.trials, s.instances);
  EXPECT_EQ(a.agreements, s.agreements);
  EXPECT_EQ(a.completion_time.count, s.instances);
  EXPECT_DOUBLE_EQ(a.completion_time.mean, s.instance_latency.mean());
  EXPECT_EQ(a.wrong_decisions, s.wrong_decisions);
}

TEST(ServiceTest, StreamingStatsTracksExactSummary) {
  // A skewed sample: the histogram's quantiles must land within its
  // documented ~6% relative bucket error of the exact sorted-sample
  // quantiles, and the moment-backed fields must be exact.
  Rng rng(7);
  std::vector<double> values;
  exp::StreamingStats stream;
  for (int i = 0; i < 20000; ++i) {
    const double v =
        1.0 + static_cast<double>(rng.below(1000)) / 10.0 +
        (i % 100 == 0 ? 500.0 : 0.0);  // a 1% far tail
    values.push_back(v);
    stream.add(v);
  }
  const exp::SummaryStats exact = exp::summarize_sample(values);
  const exp::SummaryStats approx = stream.summary();
  EXPECT_EQ(approx.count, exact.count);
  // summarize_sample sums a sorted copy; the stream sums in arrival order —
  // same moments up to float summation order.
  EXPECT_NEAR(approx.mean, exact.mean, 1e-9 * exact.mean);
  EXPECT_NEAR(approx.stddev, exact.stddev, 1e-6);
  EXPECT_DOUBLE_EQ(approx.min, exact.min);
  EXPECT_DOUBLE_EQ(approx.max, exact.max);
  EXPECT_NEAR(approx.ci95, exact.ci95, 1e-6);
  const std::array<std::pair<double, double>, 4> quantiles = {
      std::pair{approx.p50, exact.p50}, std::pair{approx.p90, exact.p90},
      std::pair{approx.p99, exact.p99}, std::pair{approx.p999, exact.p999}};
  for (const auto& [got, want] : quantiles) {
    EXPECT_NEAR(got, want, 0.08 * want) << "quantile drifted past the"
                                           " documented bucket error";
  }
}

TEST(ServiceTest, ReportRoundTripsServiceLoadBlock) {
  exp::ServiceConfig config = small_config();
  const exp::ServiceResult r = exp::run_service(config);

  exp::ReportMeta meta;
  meta.tool = "service_test";
  meta.figure = "service";
  meta.base_seed = kSeed;
  meta.trials = config.instances;
  exp::Report report(std::move(meta));

  exp::ReportPoint rp;
  rp.point.n = config.base.n;
  rp.point.model = config.base.model;
  rp.provenance = exp::point_provenance(config.base, rp.point);
  rp.aggregate = r.stats.to_aggregate();
  rp.has_load = true;
  rp.load.wall_seconds = r.load.wall_seconds;
  rp.load.instances_per_sec = r.load.instances_per_sec;
  rp.load.wall_ms_p50 = r.load.instance_wall_ms.quantile(0.5);
  rp.load.wall_ms_p99 = r.load.instance_wall_ms.quantile(0.99);
  rp.load.wall_ms_p999 = r.load.instance_wall_ms.quantile(0.999);
  report.add_point("service", rp);

  // A second, load-free point: absence must survive the round trip too.
  // (Distinct n so the point labels — diff's matching key — differ.)
  exp::ReportPoint bare = rp;
  bare.point.index = 1;
  bare.point.n = config.base.n * 2;
  bare.provenance = exp::point_provenance(config.base, bare.point);
  bare.has_load = false;
  bare.load = exp::PointLoad{};
  report.add_point("service", bare);

  const exp::Report parsed = exp::Report::from_json(report.to_json());
  ASSERT_EQ(parsed.total_points(), 2u);
  const exp::ReportSeries* series = parsed.find_series("service");
  ASSERT_NE(series, nullptr);
  const exp::ReportPoint& got = series->points[0];
  ASSERT_TRUE(got.has_load);
  EXPECT_DOUBLE_EQ(got.load.wall_seconds, rp.load.wall_seconds);
  EXPECT_DOUBLE_EQ(got.load.instances_per_sec, rp.load.instances_per_sec);
  EXPECT_DOUBLE_EQ(got.load.wall_ms_p50, rp.load.wall_ms_p50);
  EXPECT_DOUBLE_EQ(got.load.wall_ms_p999, rp.load.wall_ms_p999);
  EXPECT_FALSE(series->points[1].has_load);
  // The load block sits outside the determinism contract: identical
  // deterministic results with different wall-clock load must still diff
  // as fingerprint-identical.
  exp::Report other = exp::Report::from_json(report.to_json());
  EXPECT_EQ(other.diff(parsed).regressions, 0u);
  EXPECT_EQ(other.diff(parsed).points_identical, 2u);

  // Load blocks written before the queue statistics were retired carry four
  // more keys (baselines/BENCH_service.json does); readers ignore them.
  std::string legacy = report.to_json();
  const std::string key = "\"load\": {";
  const std::size_t at = legacy.find(key);
  ASSERT_NE(at, std::string::npos);
  legacy.insert(at + key.size(),
                "\"queue_depth_mean\": 1.5, \"queue_depth_max\": 4,"
                " \"push_blocks\": 2, \"pop_blocks\": 3,");
  const exp::Report old = exp::Report::from_json(legacy);
  const exp::ReportPoint& old_point = old.find_series("service")->points[0];
  ASSERT_TRUE(old_point.has_load);
  EXPECT_DOUBLE_EQ(old_point.load.wall_seconds, rp.load.wall_seconds);
  EXPECT_DOUBLE_EQ(old_point.load.wall_ms_p999, rp.load.wall_ms_p999);
  EXPECT_EQ(old.diff(parsed).points_identical, 2u);
}

}  // namespace
}  // namespace fba
