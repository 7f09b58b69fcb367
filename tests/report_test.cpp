// The report subsystem's contract (exp/report.h, docs/output-schema.md):
// byte-stable round-trips, schema-version and fingerprint guards on load,
// CI-bounded regression detection in diff, and byte-identical serialized
// output at any thread count (the golden-fingerprint contract extended to
// the files we publish).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "fba.h"

namespace fba {
namespace {

exp::Report small_report(std::size_t threads, std::size_t trials = 3) {
  aer::AerConfig base;
  base.n = 32;
  base.seed = 20130722;
  base.max_rounds = 80;
  exp::Grid grid;
  grid.models = {aer::Model::kSyncRushing, aer::Model::kAsync};
  exp::Sweep sweep(base, grid, trials);
  sweep.set_threads(threads);

  exp::ReportMeta meta;
  meta.tool = "report_test";
  meta.figure = "test-fig";
  meta.title = "round-trip corpus";
  meta.base_seed = base.seed;
  meta.trials = trials;
  meta.scale = "quick";
  meta.y_metric = "completion_time.mean";
  meta.y_label = "completion time";
  exp::Report report(std::move(meta));
  report.add_points("AER", base, sweep.run());
  return report;
}

TEST(JsonTest, RoundTripsValuesExactly) {
  const std::string doc =
      "{\"a\": 1, \"b\": [true, false, null, \"s\\n\"], \"c\": 0.1}";
  const json::Value v = json::Value::parse(doc);
  EXPECT_EQ(v.at("a").as_uint64(), 1u);
  EXPECT_EQ(v.at("b").as_array().size(), 4u);
  EXPECT_EQ(v.at("b").as_array()[3].as_string(), "s\n");
  EXPECT_DOUBLE_EQ(v.at("c").as_double(), 0.1);
  // Canonical dump re-parses to an equal value, and dumping again is
  // byte-identical.
  const std::string dumped = v.dump();
  EXPECT_EQ(json::Value::parse(dumped), v);
  EXPECT_EQ(json::Value::parse(dumped).dump(), dumped);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(json::Value::parse("{\"a\": }"), ConfigError);
  EXPECT_THROW(json::Value::parse("[1, 2,"), ConfigError);
  EXPECT_THROW(json::Value::parse("{} trailing"), ConfigError);
  EXPECT_THROW(json::Value::parse("nulL"), ConfigError);
  // from_chars would accept these; JSON numbers must be finite.
  EXPECT_THROW(json::Value::parse("inf"), ConfigError);
  EXPECT_THROW(json::Value::parse("{\"a\": -infinity}"), ConfigError);
  EXPECT_THROW(json::Value::parse("nan"), ConfigError);
  EXPECT_THROW(json::Value::parse("1e999"), ConfigError);
  // Integer reads reject values beyond the double-exact range (the cast
  // would be UB) and nesting beyond the recursion bound.
  EXPECT_THROW(json::Value::parse("1e300").as_uint64(), ConfigError);
  EXPECT_THROW(json::Value::parse(std::string(300, '[')), ConfigError);
}

TEST(ReportTest, JsonRoundTripIsByteIdentical) {
  const exp::Report report = small_report(/*threads=*/1);
  const std::string first = report.to_json();
  const exp::Report parsed = exp::Report::from_json(first);
  EXPECT_EQ(parsed.to_json(), first);
  // The parsed report carries the same data: diff says every point is
  // fingerprint-identical.
  const exp::DiffResult diff = parsed.diff(report);
  EXPECT_TRUE(diff.ok());
  EXPECT_EQ(diff.points_compared, 2u);
  EXPECT_EQ(diff.points_identical, 2u);
}

TEST(ReportTest, SerializedOutputIsByteIdenticalAcrossThreadCounts) {
  const exp::Report serial = small_report(/*threads=*/1);
  const exp::Report parallel = small_report(/*threads=*/4);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  EXPECT_EQ(serial.to_markdown(), parallel.to_markdown());
  EXPECT_EQ(serial.to_gnuplot(), parallel.to_gnuplot());
}

TEST(ReportTest, SchemaVersionGuardRejectsOtherVersions) {
  std::string doc = small_report(1).to_json();
  const std::string needle = "\"schema_version\": 5";
  const std::size_t pos = doc.find(needle);
  ASSERT_NE(pos, std::string::npos);
  doc.replace(pos, needle.size(), "\"schema_version\": 999");
  try {
    exp::Report::from_json(doc);
    FAIL() << "expected a schema-version ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("schema version 999"),
              std::string::npos)
        << e.what();
  }
}

// v5 is the only layout a reader accepts: an older document fails with one
// ConfigError line that names the version this build reads.
TEST(ReportTest, PreV5DocumentsAreRefused) {
  const std::string doc = small_report(1).to_json();
  const std::string needle = "\"schema_version\": 5";
  const std::size_t pos = doc.find(needle);
  ASSERT_NE(pos, std::string::npos);
  for (int version = 1; version <= 4; ++version) {
    std::string old = doc;
    old.replace(pos, needle.size(),
                "\"schema_version\": " + std::to_string(version));
    try {
      exp::Report::from_json(old);
      FAIL() << "expected a ConfigError for schema v" << version;
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("reads v5 only"), std::string::npos) << what;
      EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    }
  }
}

// An Aggregate with a distinct non-zero value in every field the metric
// table stores, every per-kind stat and every per-cause mean, so a field a
// layer drops shows as a zero. Doubles get a fractional part.
exp::Aggregate every_field_aggregate() {
  exp::Aggregate a;
  double next = 1;
  const auto fill = [&next](exp::SummaryStats& s) {
    s.count = static_cast<std::size_t>(next++);
    for (double* c : {&s.mean, &s.stddev, &s.min, &s.max, &s.p50, &s.p90,
                      &s.p99, &s.p999, &s.ci95}) {
      *c = next++ + 0.25;
    }
  };
  exp::for_each_aggregate_metric(a, [&](const exp::MetricInfo&, auto&& v) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (!std::is_lvalue_reference_v<decltype(v)>) {
      return;  // a DERIVED row: computed, not stored
    } else if constexpr (std::is_same_v<T, exp::SummaryStats>) {
      fill(v);
    } else if constexpr (std::is_same_v<T, double>) {
      v = next++ + 0.5;
    } else {
      v = static_cast<T>(next++);
    }
  });
  for (exp::SummaryStats& s : a.bits_by_kind) fill(s);
  for (double& m : a.msgs_by_kind) m = next++ + 0.5;
  for (double& d : a.drops_by_cause) d = next++ + 0.5;
  return a;
}

// Every stored number of `a`, in table order, then the arrays.
std::vector<double> stored_values(const exp::Aggregate& a) {
  std::vector<double> out;
  const auto add = [&out](const exp::SummaryStats& s) {
    out.push_back(double(s.count));
    for (double c : {s.mean, s.stddev, s.min, s.max, s.p50, s.p90, s.p99,
                     s.p999, s.ci95}) {
      out.push_back(c);
    }
  };
  exp::for_each_aggregate_metric(a, [&](const exp::MetricInfo&, auto&& v) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (!std::is_lvalue_reference_v<decltype(v)>) {
      return;
    } else if constexpr (std::is_same_v<T, exp::SummaryStats>) {
      add(v);
    } else {
      out.push_back(static_cast<double>(v));
    }
  });
  for (const exp::SummaryStats& s : a.bits_by_kind) add(s);
  out.insert(out.end(), a.msgs_by_kind.begin(), a.msgs_by_kind.end());
  out.insert(out.end(), a.drops_by_cause.begin(), a.drops_by_cause.end());
  return out;
}

TEST(MetricTableTest, EveryAggregateFieldRoundTripsThroughReportJson) {
  const exp::Aggregate a = every_field_aggregate();
  const std::vector<double> values = stored_values(a);
  // The filler reached every field: no zero, no repeat.
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_GT(sorted.front(), 0.0);

  exp::ReportMeta meta;
  meta.tool = "report_test";
  meta.figure = "every-field";
  exp::Report report(std::move(meta));
  exp::ReportPoint point;
  point.point.n = 64;
  point.aggregate = a;
  report.add_point("all", point);

  const std::string json = report.to_json();
  const exp::Report parsed = exp::Report::from_json(json);
  EXPECT_EQ(parsed.to_json(), json);
  const exp::Aggregate& back = parsed.series().front().points.front().aggregate;
  EXPECT_EQ(stored_values(back), values);
  EXPECT_EQ(back.fingerprint(), a.fingerprint());
}

// Aggregate::fingerprint() keeps its pinned field order by hand
// (aggregate.cpp); the metric table's fp column must say exactly which
// stored rows it hashes, since Report::diff skips those on a match.
TEST(MetricTableTest, FingerprintHashesExactlyTheFpRows) {
  const exp::Aggregate base = every_field_aggregate();
  std::vector<exp::MetricInfo> rows;
  exp::for_each_aggregate_metric(base,
                                 [&](const exp::MetricInfo& m, auto&& v) {
                                   if constexpr (std::is_lvalue_reference_v<
                                                     decltype(v)>) {
                                     rows.push_back(m);
                                   }
                                 });
  ASSERT_FALSE(rows.empty());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    exp::Aggregate changed = base;
    std::size_t row = 0;
    exp::for_each_aggregate_metric(
        changed, [&](const exp::MetricInfo&, auto&& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_lvalue_reference_v<decltype(v)>) {
            if (row++ != i) return;
            if constexpr (std::is_same_v<T, exp::SummaryStats>) {
              v.mean += 1;
            } else {
              v += 1;
            }
          }
        });
    EXPECT_EQ(changed.fingerprint() != base.fingerprint(),
              rows[i].fingerprinted)
        << rows[i].name;
  }
}

TEST(ReportTest, FingerprintGuardRejectsTamperedData) {
  std::string doc = small_report(1).to_json();
  // Bump the first completion_time mean: data no longer matches the stored
  // fingerprint.
  const std::string needle = "\"completion_time\": {\n              \"count\"";
  const std::size_t stats_pos = doc.find(needle);
  ASSERT_NE(stats_pos, std::string::npos);
  const std::size_t mean_pos = doc.find("\"mean\": ", stats_pos);
  ASSERT_NE(mean_pos, std::string::npos);
  doc.insert(mean_pos + std::strlen("\"mean\": "), "9");
  try {
    exp::Report::from_json(doc);
    FAIL() << "expected a fingerprint ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(ReportTest, DiffFlagsSeededRegression) {
  const exp::Report baseline = small_report(1);
  exp::Report current = exp::Report::from_json(baseline.to_json());

  // Same data -> clean diff.
  EXPECT_TRUE(current.diff(baseline).ok());

  // Degrade one point far beyond both CIs: completion time doubles (+10 to
  // clear zero-variance corpora) and a safety violation appears.
  {
    const exp::ReportSeries* s = current.find_series("AER");
    ASSERT_NE(s, nullptr);
    exp::Aggregate& a =
        const_cast<exp::ReportSeries*>(s)->points[0].aggregate;
    a.completion_time.mean = a.completion_time.mean * 2 + 10;
    a.wrong_decisions += 1;
  }
  const exp::DiffResult diff = current.diff(baseline);
  EXPECT_FALSE(diff.ok());
  EXPECT_GE(diff.regressions, 2u);  // the time metric and wrong_decisions
  bool saw_time = false, saw_wrong = false;
  for (const exp::DiffEntry& e : diff.entries) {
    if (e.verdict != exp::DiffEntry::Verdict::kRegressed) continue;
    saw_time |= e.metric == "completion_time.mean";
    saw_wrong |= e.metric == "wrong_decisions_per_trial";
  }
  EXPECT_TRUE(saw_time);
  EXPECT_TRUE(saw_wrong);
  EXPECT_NE(diff.summary().find("REGRESSED"), std::string::npos);

  // The reverse direction is an improvement, not a regression.
  const exp::DiffResult reverse = baseline.diff(current);
  EXPECT_TRUE(reverse.ok());
  EXPECT_GE(reverse.improvements, 1u);
}

TEST(ReportTest, DiffFlagsMissingPointsAndReportsAdded) {
  const exp::Report baseline = small_report(1);
  exp::Report current = exp::Report::from_json(baseline.to_json());
  const exp::ReportSeries* s = current.find_series("AER");
  ASSERT_NE(s, nullptr);
  const_cast<exp::ReportSeries*>(s)->points.pop_back();

  const exp::DiffResult diff = current.diff(baseline);
  EXPECT_FALSE(diff.ok());  // a baseline point disappeared
  EXPECT_EQ(diff.regressions, 1u);
  ASSERT_FALSE(diff.entries.empty());
  EXPECT_EQ(diff.entries.front().verdict, exp::DiffEntry::Verdict::kMissing);

  // The other direction: the extra point is "added", never a failure.
  const exp::DiffResult reverse = baseline.diff(current);
  EXPECT_TRUE(reverse.ok());
  EXPECT_EQ(reverse.added.size(), 1u);
}

TEST(ReportTest, MetricNamesResolve) {
  const exp::Report report = small_report(1);
  const exp::Aggregate& a = report.series().front().points.front().aggregate;
  for (const char* name :
       {"completion_time.mean", "completion_time.p99", "decision_time.p50",
        "amortized_bits.ci95", "total_messages.mean", "imbalance.max",
        "fault_dropped_msgs.mean", "agreement_rate", "decided_fraction",
        "wrong_decisions", "push_bits_per_node", "max_candidate_list",
        "fault_delayed_msgs"}) {
    EXPECT_TRUE(std::isfinite(metric_value(a, name))) << name;
  }
  EXPECT_THROW(metric_value(a, "no_such_metric"), ConfigError);
  EXPECT_THROW(metric_value(a, "completion_time.p12"), ConfigError);
  // CI companions: stats expose their ci95, rates get a binomial CI.
  EXPECT_EQ(metric_ci(a, "completion_time.mean"), a.completion_time.ci95);
  EXPECT_EQ(metric_ci(a, "completion_time.p99"), 0.0);
  EXPECT_GE(metric_ci(a, "agreement_rate"), 0.0);
}

TEST(ReportTest, CsvHasOneRowPerPointAndStableHeader) {
  const exp::Report report = small_report(1);
  const std::string csv = report.to_csv();
  const std::size_t rows =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, 1 + report.total_points());  // header + points
  EXPECT_EQ(csv.find("figure,series,label,index,n,model"), 0u);
  EXPECT_NE(csv.find("completion_time_mean"), std::string::npos);
  EXPECT_NE(csv.find(",fingerprint"), std::string::npos);
  EXPECT_NE(csv.find("bits_push_mean"), std::string::npos);
}

TEST(ReportTest, CurveRenderingsNameEverySeries) {
  const exp::Report report = small_report(1);
  const std::string md = report.to_markdown();
  EXPECT_NE(md.find("## Curve"), std::string::npos);
  EXPECT_NE(md.find("## AER"), std::string::npos);
  EXPECT_NE(md.find("`completion_time.mean`"), std::string::npos);
  const std::string gp = report.to_gnuplot();
  EXPECT_NE(gp.find("$series_0 << EOD"), std::string::npos);
  EXPECT_NE(gp.find("plot $series_0"), std::string::npos);
  EXPECT_NE(gp.find("title \"AER\""), std::string::npos);
}

// The corrupt-fraction axis (fba_repro --figure=resilience) plots each point
// at its fraction, on a linear scale.
TEST(ReportTest, CorruptAxisCurvePlotsTheFractions) {
  aer::AerConfig base;
  base.n = 32;
  base.seed = 20130722;
  base.max_rounds = 80;
  exp::Grid grid;
  grid.corrupt_fractions = {0.05, 0.1};
  exp::Sweep sweep(base, grid, /*trials=*/2);
  exp::ReportMeta meta;
  meta.figure = "test-corrupt";
  meta.x_axis = "corrupt";
  meta.y_metric = "agreement_rate";
  meta.y_label = "agreement rate";
  exp::Report report(std::move(meta));
  report.add_points("AER", base, sweep.run());

  const std::string gp = report.to_gnuplot();
  EXPECT_EQ(gp.find("set logscale"), std::string::npos);
  EXPECT_EQ(gp.find("xtic("), std::string::npos);
  EXPECT_NE(gp.find("EOD\n0.05 "), std::string::npos) << gp;
  EXPECT_NE(gp.find("\n0.1 "), std::string::npos) << gp;

  const std::string md = report.to_markdown();
  const std::size_t axis = md.find("(corrupt)");
  ASSERT_NE(axis, std::string::npos) << md;
  const std::size_t line = md.rfind('\n', axis) + 1;
  const std::string tics = md.substr(line, md.find('\n', axis) - line);
  EXPECT_NE(tics.find(" 0.05 "), std::string::npos) << tics;
  EXPECT_NE(tics.find(" 0.1 "), std::string::npos) << tics;
  EXPECT_EQ(tics.find("log scale"), std::string::npos) << tics;
}

// The --help satellite: the generated usage block is the single source of
// truth, so it must mention every registered attack, fault and recovery
// preset and the report flag.
TEST(ScenarioUsageTest, MentionsEveryAttackFaultAndReportFlag) {
  const std::string usage = exp::scenario_usage();
  for (const std::string& name : exp::known_attacks()) {
    EXPECT_NE(usage.find(name), std::string::npos) << name;
  }
  for (const std::string& name : exp::known_faults()) {
    EXPECT_NE(usage.find(name), std::string::npos) << name;
  }
  EXPECT_NE(usage.find("--json"), std::string::npos);
  EXPECT_NE(usage.find("--trials"), std::string::npos);
  // Registry names resolve through the factories (tables cannot drift).
  for (const std::string& name : exp::known_attacks()) {
    EXPECT_NO_THROW(exp::attack_factory(name)) << name;
  }
  for (const std::string& name : exp::known_faults()) {
    EXPECT_NO_THROW(exp::fault_plan_factory(name)) << name;
  }
}

// The --recovery flag's usage block must mention every registered recovery
// preset, each name must resolve through the factory, and the off preset
// must come back disabled (the recovery-off bit-identity contract hangs
// off that default).
TEST(ScenarioUsageTest, MentionsEveryRecoveryPreset) {
  const std::string usage = exp::scenario_usage();
  ASSERT_FALSE(exp::known_recoveries().empty());
  for (const std::string& name : exp::known_recoveries()) {
    EXPECT_NE(usage.find(name), std::string::npos) << name;
    EXPECT_NO_THROW(exp::recovery_plan_factory(name)) << name;
  }
  EXPECT_TRUE(exp::recovery_plan_factory("off").empty());
  EXPECT_TRUE(exp::recovery_plan_factory("").empty());
  for (const char* name : {"arq-fast", "arq-patient", "arq-capped"}) {
    EXPECT_FALSE(exp::recovery_plan_factory(name).empty()) << name;
  }
  // Unknown names fail with a one-line diagnostic listing the known
  // presets (the strict-parse satellite).
  try {
    exp::recovery_plan_factory("argh-fast");
    FAIL() << "expected ConfigError for an unknown recovery preset";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("argh-fast"), std::string::npos) << what;
    EXPECT_NE(what.find("arq-patient"), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace fba
