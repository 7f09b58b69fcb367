// Machine-readable experiment reports: one audited output path for every
// bench, fba_sim and the fba_repro figure driver.
//
// A Report is a named set of series, each a list of (grid point, resolved
// provenance, Aggregate) records, plus run-level metadata (tool, figure id,
// base seed, trials, git build version). It serializes to:
//   - a stable versioned JSON schema (docs/output-schema.md) that carries
//     every Aggregate field — all SummaryStats, per-kind traffic, fault
//     counters, CI95s — plus the point fingerprint, and parses back exactly
//     (round-trip is byte-identical; fingerprints are revalidated on load);
//   - a flat CSV table with one row per point;
//   - a self-contained gnuplot script and a markdown rendering of the
//     figure's headline curve (meta.y_metric vs meta.x_axis).
//
// Determinism contract (extends the golden-fingerprint contract): a report
// contains no timestamps, hostnames or thread counts — only inputs that
// determine the results and the results themselves — so the same sweep
// produces byte-identical files at any thread count, and `diff` against a
// committed baseline is meaningful. The one environment-dependent field,
// meta.git_version, is ignored by diff.
//
//   exp::Report report(exp::ReportMeta{.tool = "fba_repro",
//                                      .figure = "fig1b", ...});
//   report.add_points("BA/aer", base_config, sweep.run());
//   report.write_all("results");          // BENCH_fig1b.{json,csv,md,gp}
//   exp::DiffResult d =
//       report.diff(exp::Report::from_json_file("baselines/BENCH_fig1b.json"));
//   if (!d.ok()) { puts(d.summary().c_str()); return 1; }
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exp/sweep.h"

namespace fba::exp {

/// Bumped whenever the JSON layout changes; readers accept the versions
/// they can parse (docs/output-schema.md tracks the history). v2 added the
/// mem_bytes_per_node stat; v3 added the p999 stat component and the
/// optional per-point `load` block (service mode); v4 added the adaptive
/// axes (budget / adaptive_from, written only when set) and the
/// corruption-timeline scalars; v5 added the recovery sublayer: the
/// optional `recovery` axis, the retransmit stats, the ack/dead/duplicate
/// scalars, and the `ack` traffic kind. Older files still load: missing
/// stats/components default to zero, a missing load block to "absent",
/// missing adaptive/recovery axes to "unset", missing trailing traffic
/// kinds to zero.
inline constexpr std::uint64_t kReportSchemaVersion = 5;

/// Quantities the config resolves per point (functions of n and the base
/// config), recorded so a report is interpretable without the binary.
struct PointProvenance {
  std::size_t d = 0;             ///< quorum / poll-list size.
  std::size_t t = 0;             ///< corrupt-node count.
  std::size_t gstring_bits = 0;  ///< candidate-string length on the wire.
  std::size_t node_id_bits = 0;  ///< wire node-id field width.
  std::size_t answer_budget = 0; ///< Algorithm 3 per-responder budget.
};

/// Provenance for one grid point under `base` (axes applied first).
PointProvenance point_provenance(const aer::AerConfig& base,
                                 const GridPoint& point);

/// Wall-clock load figures of a service-mode point (schema v3). By nature
/// environment-dependent, so this block sits OUTSIDE the determinism
/// contract: never fingerprinted, never compared by Report::diff, absent
/// from the CSV — serialized to JSON purely as information for the reader.
struct PointLoad {
  double wall_seconds = 0;
  double instances_per_sec = 0;  ///< sustained stream throughput.
  double wall_ms_p50 = 0;        ///< per-instance wall latency quantiles.
  double wall_ms_p99 = 0;
  double wall_ms_p999 = 0;
};

/// One serialized grid point: axes + provenance + the full Aggregate, plus
/// an optional wall-clock load block (service-mode points only).
struct ReportPoint {
  GridPoint point;
  PointProvenance provenance;
  Aggregate aggregate;
  bool has_load = false;  ///< true iff `load` carries data (service mode).
  PointLoad load{};
};

struct ReportSeries {
  std::string name;
  std::vector<ReportPoint> points;
};

struct ReportMeta {
  std::string tool;    ///< emitting binary ("fba_repro", "bench_push_phase").
  std::string figure;  ///< artifact id: "fig1b", "push-phase", ...
  std::string title;   ///< human-readable one-liner.
  std::uint64_t base_seed = 0;
  /// The requested trial count (--trials, else the scale's default): the
  /// value --merge replays and grid_fingerprint hashes. A point may hold
  /// another count (fig3-scale caps its largest n, service counts
  /// instances); each point's own `trials` count says what it holds.
  std::size_t trials = 0;
  std::string scale;       ///< "quick" / "default" / "large" / "".
  /// Headline-curve axes for the markdown/gnuplot renderings: x_axis names
  /// a grid axis ("n", "corrupt", "fault", "budget", "index") or "kind"
  /// (per-kind traffic of a single-point report); y_metric is a
  /// metric_value() name.
  std::string x_axis = "n";
  std::string y_metric = "completion_time.mean";
  std::string y_label = "completion time";
  /// `git describe` of the emitting build (Report::build_version());
  /// provenance only — diff ignores it.
  std::string git_version;
};

/// Looks up a metric by name on an aggregate. Names are either a summary
/// stat field — "completion_time.mean", "amortized_bits.ci95",
/// "decision_time.p99", ... (stats: completion_time, mean_decision_time,
/// engine_time, total_messages, amortized_bits, max_sent_bits,
/// mean_sent_bits, imbalance, decision_time, fault_dropped_msgs,
/// fault_dropped_bits, mem_bytes_per_node;
/// fields: count, mean, stddev, min, max, p50, p90,
/// p99, p999, ci95) — or a scalar: agreement_rate, decided_fraction, trials,
/// agreements, engine_incomplete, wrong_decisions,
/// wrong_decisions_per_trial, stalled_nodes,
/// ae_rounds, reduction_time, ae_bits, reduction_bits, push_bits_per_node,
/// push_msgs_per_node, candidate_lists_per_node, max_candidate_list,
/// missing_gstring, max_deferred, fault_delayed_msgs, runtime_corruptions,
/// runtime_corruptions_per_trial, first_corruption_time,
/// last_corruption_time. Throws ConfigError on an unknown name.
double metric_value(const Aggregate& aggregate, std::string_view name);

/// 95%-CI half-width companion of a metric: the stat's ci95 for
/// "<stat>.mean" names, a normal-approximation binomial CI over the trial
/// count for agreement_rate / decided_fraction (per-node outcomes within a
/// trial are correlated, so trials is the effective sample size), 0
/// otherwise.
double metric_ci(const Aggregate& aggregate, std::string_view name);

struct DiffEntry {
  enum class Verdict {
    kIdentical,  ///< fingerprints match: every field bit-identical.
    kWithinCi,   ///< |current - baseline| within the summed CI95s.
    kImproved,   ///< better than baseline beyond CI bounds.
    kRegressed,  ///< worse than baseline beyond CI bounds.
    kMissing,    ///< series/point present in baseline, absent here.
  };
  std::string series;
  std::string label;   ///< point label ("" for a missing whole series).
  std::string metric;  ///< "" for fingerprint / missing entries.
  double baseline = 0;
  double current = 0;
  double tolerance = 0;  ///< CI-derived allowance used for the verdict.
  Verdict verdict = Verdict::kIdentical;
};

struct DiffResult {
  std::vector<DiffEntry> entries;  ///< regressions first, then the rest.
  std::size_t points_compared = 0;
  std::size_t points_identical = 0;  ///< matched by fingerprint.
  std::size_t regressions = 0;       ///< kRegressed + kMissing entries.
  std::size_t improvements = 0;
  /// Labels present here but not in the baseline (new points are fine —
  /// reported, never a failure).
  std::vector<std::string> added;

  bool ok() const { return regressions == 0; }
  /// Human-readable block: verdict lines for every non-identical entry
  /// plus a one-line summary.
  std::string summary() const;
};

class Report {
 public:
  Report() = default;
  /// Fills meta.git_version from build_version() when the caller left it
  /// empty.
  explicit Report(ReportMeta meta);

  const ReportMeta& meta() const { return meta_; }
  ReportMeta& meta() { return meta_; }

  /// Appends an empty series (name must be unique) and returns it. The
  /// reference is invalidated by the next add_series call.
  ReportSeries& add_series(std::string name);
  /// Convenience: one series from a sweep's results, provenance resolved
  /// against `base`.
  void add_points(const std::string& series, const aer::AerConfig& base,
                  const std::vector<PointResult>& results);
  void add_point(const std::string& series, ReportPoint point);

  const std::vector<ReportSeries>& series() const { return series_; }
  const ReportSeries* find_series(std::string_view name) const;
  std::size_t total_points() const;

  // ---- serialization ----
  std::string to_json() const;
  std::string to_csv() const;
  std::string to_markdown() const;
  std::string to_gnuplot() const;

  /// Parses a report; throws ConfigError on schema-version mismatch,
  /// missing fields, or a point whose recomputed fingerprint differs from
  /// the stored one (a hand-edited or corrupted file).
  static Report from_json(std::string_view text);
  static Report from_json_file(const std::string& path);

  /// Writes BENCH_<figure>.{json,csv,md,gp} under `dir` (created if
  /// needed); returns the paths written.
  std::vector<std::string> write_all(const std::string& dir) const;
  void write_json(const std::string& path) const;

  /// Compares this report's points against `baseline` by series name and
  /// point label: fingerprint-identical points short-circuit the
  /// fingerprint-covered metrics; otherwise the headline metrics
  /// (completion_time.mean, amortized_bits.mean, total_messages.mean,
  /// agreement_rate, decided_fraction, wrong_decisions_per_trial) are
  /// compared with the summed CI95s as tolerance, each with its own
  /// worse-direction. mem_bytes_per_node.mean (higher is worse) sits
  /// outside the fingerprint, so it is compared even when fingerprints
  /// match — skipped only when the baseline recorded no memory data.
  /// Missing series/points regress; added ones are reported but pass.
  /// Meta (including git_version) is never compared.
  DiffResult diff(const Report& baseline) const;

  /// `git describe` captured at configure time ("unknown" outside a git
  /// checkout).
  static const char* build_version();

 private:
  ReportMeta meta_;
  std::vector<ReportSeries> series_;
};

}  // namespace fba::exp
