#include "exp/report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/json.h"
#include "support/types.h"

// Injected by CMake from `git describe --always --dirty` at configure time;
// stale across commits until reconfigure, which is fine for provenance.
#ifndef FBA_GIT_DESCRIBE
#define FBA_GIT_DESCRIBE "unknown"
#endif

namespace fba::exp {

namespace {

// ---- canonical number / id formatting --------------------------------------

/// Canonical number form for CSV cells and gnuplot datablocks — the JSON
/// writer's own formatting, so every artifact of one run agrees
/// byte-for-byte.
std::string canonical_num(double v) { return json::number_to_string(v); }

std::string hex_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string dec_u64(std::uint64_t v) { return std::to_string(v); }

std::uint64_t parse_u64(const std::string& text, int radix) {
  std::uint64_t out = 0;
  const auto r =
      std::from_chars(text.data(), text.data() + text.size(), out, radix);
  FBA_REQUIRE(r.ec == std::errc() && r.ptr == text.data() + text.size(),
              "report: malformed integer field \"" + text + "\"");
  return out;
}

/// Short human-oriented form for markdown tables (4 significant digits).
std::string pretty_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

aer::Model model_from_name(const std::string& name) {
  for (const aer::Model m :
       {aer::Model::kSyncNonRushing, aer::Model::kSyncRushing,
        aer::Model::kAsync}) {
    if (name == aer::model_name(m)) return m;
  }
  throw ConfigError("report: unknown model name \"" + name + "\"");
}

// ---- the metric name tables -------------------------------------------------

struct StatField {
  const char* name;
  SummaryStats Aggregate::* stat;
};

const StatField kStatFields[] = {
    {"completion_time", &Aggregate::completion_time},
    {"mean_decision_time", &Aggregate::mean_decision_time},
    {"engine_time", &Aggregate::engine_time},
    {"total_messages", &Aggregate::total_messages},
    {"amortized_bits", &Aggregate::amortized_bits},
    {"max_sent_bits", &Aggregate::max_sent_bits},
    {"mean_sent_bits", &Aggregate::mean_sent_bits},
    {"imbalance", &Aggregate::imbalance},
    {"decision_time", &Aggregate::decision_time},
    {"fault_dropped_msgs", &Aggregate::fault_dropped_msgs},
    {"fault_dropped_bits", &Aggregate::fault_dropped_bits},
    // Schema v2: absent from v1 files, so point_from_json must tolerate a
    // missing stats entry (defaults to all-zero).
    {"mem_bytes_per_node", &Aggregate::mem_bytes_per_node},
    // Schema v5: the recovery sublayer's overhead (absent from v1–v4 files,
    // same missing-entry tolerance).
    {"recovery_retransmit_msgs", &Aggregate::recovery_retransmit_msgs},
    {"recovery_retransmit_bits", &Aggregate::recovery_retransmit_bits},
};

struct ScalarField {
  const char* name;
  double (*get)(const Aggregate&);
};

const ScalarField kScalarFields[] = {
    {"agreement_rate", [](const Aggregate& a) { return a.agreement_rate(); }},
    {"decided_fraction",
     [](const Aggregate& a) { return a.decided_fraction(); }},
    {"trials", [](const Aggregate& a) { return double(a.trials); }},
    {"agreements", [](const Aggregate& a) { return double(a.agreements); }},
    {"engine_incomplete",
     [](const Aggregate& a) { return double(a.engine_incomplete); }},
    {"wrong_decisions",
     [](const Aggregate& a) { return double(a.wrong_decisions); }},
    // Per-trial rate of the summed counter, so diffs stay meaningful when
    // the two reports ran different trial counts.
    {"wrong_decisions_per_trial",
     [](const Aggregate& a) {
       return a.trials > 0 ? double(a.wrong_decisions) / double(a.trials) : 0;
     }},
    {"stalled_nodes",
     [](const Aggregate& a) { return double(a.stalled_nodes); }},
    {"ae_rounds", [](const Aggregate& a) { return a.ae_rounds; }},
    {"reduction_time", [](const Aggregate& a) { return a.reduction_time; }},
    {"ae_bits", [](const Aggregate& a) { return a.ae_bits; }},
    {"reduction_bits", [](const Aggregate& a) { return a.reduction_bits; }},
    {"push_bits_per_node",
     [](const Aggregate& a) { return a.push_bits_per_node; }},
    {"push_msgs_per_node",
     [](const Aggregate& a) { return a.push_msgs_per_node; }},
    {"candidate_lists_per_node",
     [](const Aggregate& a) { return a.candidate_lists_per_node; }},
    {"max_candidate_list",
     [](const Aggregate& a) { return double(a.max_candidate_list); }},
    {"missing_gstring",
     [](const Aggregate& a) { return double(a.missing_gstring); }},
    {"max_deferred", [](const Aggregate& a) { return double(a.max_deferred); }},
    {"fault_delayed_msgs",
     [](const Aggregate& a) { return a.fault_delayed_msgs; }},
    // Schema v4: the adaptive-adversary corruption timeline. All zero on
    // static runs, and deliberately outside Aggregate::fingerprint().
    {"runtime_corruptions",
     [](const Aggregate& a) { return double(a.runtime_corruptions); }},
    {"runtime_corruptions_per_trial",
     [](const Aggregate& a) {
       return a.trials > 0 ? double(a.runtime_corruptions) / double(a.trials)
                           : 0;
     }},
    {"first_corruption_time",
     [](const Aggregate& a) { return a.first_corruption_time; }},
    {"last_corruption_time",
     [](const Aggregate& a) { return a.last_corruption_time; }},
    // Schema v5: recovery-sublayer scalar means. All zero with the layer
    // off, and deliberately outside Aggregate::fingerprint().
    {"recovery_acked_msgs",
     [](const Aggregate& a) { return a.recovery_acked_msgs; }},
    {"recovery_dead_msgs",
     [](const Aggregate& a) { return a.recovery_dead_msgs; }},
    {"recovery_dup_msgs",
     [](const Aggregate& a) { return a.recovery_dup_msgs; }},
};

struct StatComponent {
  const char* name;
  double (*get)(const SummaryStats&);
};

const StatComponent kStatComponents[] = {
    {"count", [](const SummaryStats& s) { return double(s.count); }},
    {"mean", [](const SummaryStats& s) { return s.mean; }},
    {"stddev", [](const SummaryStats& s) { return s.stddev; }},
    {"min", [](const SummaryStats& s) { return s.min; }},
    {"max", [](const SummaryStats& s) { return s.max; }},
    {"p50", [](const SummaryStats& s) { return s.p50; }},
    {"p90", [](const SummaryStats& s) { return s.p90; }},
    {"p99", [](const SummaryStats& s) { return s.p99; }},
    // Schema v3: absent from v1/v2 files, so stats_from_json must tolerate
    // a missing component (defaults to 0). Deliberately outside
    // Aggregate::fingerprint(), so adding it changed no golden values.
    {"p999", [](const SummaryStats& s) { return s.p999; }},
    {"ci95", [](const SummaryStats& s) { return s.ci95; }},
};

const SummaryStats* stat_by_name(const Aggregate& a, std::string_view name) {
  for (const StatField& f : kStatFields) {
    if (name == f.name) return &(a.*(f.stat));
  }
  return nullptr;
}

/// The metrics `Report::diff` compares, each with its worse-direction.
/// `fingerprint_covered` says whether Aggregate::fingerprint() hashes the
/// metric: covered metrics are provably equal when fingerprints match and
/// are skipped then; uncovered ones (the memory account) must be compared
/// either way.
struct DiffMetric {
  const char* name;
  bool higher_is_worse;
  bool fingerprint_covered;
};

const DiffMetric kDiffMetrics[] = {
    {"completion_time.mean", true, true},
    {"amortized_bits.mean", true, true},
    {"total_messages.mean", true, true},
    {"agreement_rate", false, true},
    {"decided_fraction", false, true},
    // The per-trial rate (not the summed counter): comparable across
    // reports with different trial counts; zero tolerance, so any new
    // safety-violation rate regresses.
    {"wrong_decisions_per_trial", true, true},
    // Deliberately outside the fingerprint (exp/aggregate.h) — compared
    // even on fingerprint-identical points. A zero baseline means the
    // baseline never accounted memory (v1 file or pointer-path run); the
    // comparison is skipped then rather than flagging any positive value
    // as a regression.
    {"mem_bytes_per_node.mean", true, false},
    // Also outside the fingerprint. A zero baseline means the baseline ran
    // without the recovery layer (or a pre-v5 file) — skipped then, like
    // the memory account.
    {"recovery_retransmit_bits.mean", true, false},
};

// ---- JSON (de)serialization -------------------------------------------------

json::Value stats_json(const SummaryStats& s) {
  json::Value out = json::Value::object();
  for (const StatComponent& c : kStatComponents) out.set(c.name, c.get(s));
  return out;
}

SummaryStats stats_from_json(const json::Value& v) {
  SummaryStats s;
  s.count = static_cast<std::size_t>(v.at("count").as_uint64());
  s.mean = v.at("mean").as_double();
  s.stddev = v.at("stddev").as_double();
  s.min = v.at("min").as_double();
  s.max = v.at("max").as_double();
  s.p50 = v.at("p50").as_double();
  s.p90 = v.at("p90").as_double();
  s.p99 = v.at("p99").as_double();
  // v1/v2 files predate p999: load it as 0, matching what those writers
  // would have summarized for an untracked quantile.
  const json::Value* p999 = v.find("p999");
  s.p999 = p999 != nullptr ? p999->as_double() : 0;
  s.ci95 = v.at("ci95").as_double();
  return s;
}

json::Value point_json(const ReportPoint& rp) {
  const Aggregate& a = rp.aggregate;
  json::Value out = json::Value::object();
  out.set("label", rp.point.label());

  json::Value axes = json::Value::object();
  axes.set("index", std::uint64_t{rp.point.index});
  axes.set("n", std::uint64_t{rp.point.n});
  axes.set("model", aer::model_name(rp.point.model));
  axes.set("corrupt_fraction", rp.point.corrupt_fraction);
  axes.set("attack", rp.point.strategy);
  axes.set("fault", rp.point.fault);
  // Recovery axis (schema v5), written only when the sweep set it — a
  // recovery-less report carries the same axes block as a v4 writer's.
  if (!rp.point.recovery.empty()) {
    axes.set("recovery", rp.point.recovery);
  }
  // Adaptive axes (schema v4), written only when the sweep set them, so a
  // non-adaptive report carries the same axes block as a v3 writer's.
  if (rp.point.budget >= 0) {
    axes.set("budget", std::uint64_t(rp.point.budget));
  }
  if (rp.point.adaptive_from >= 0) {
    axes.set("adaptive_from", rp.point.adaptive_from);
  }
  out.set("axes", std::move(axes));

  json::Value resolved = json::Value::object();
  resolved.set("d", std::uint64_t{rp.provenance.d});
  resolved.set("t", std::uint64_t{rp.provenance.t});
  resolved.set("gstring_bits", std::uint64_t{rp.provenance.gstring_bits});
  resolved.set("node_id_bits", std::uint64_t{rp.provenance.node_id_bits});
  resolved.set("answer_budget", std::uint64_t{rp.provenance.answer_budget});
  out.set("resolved", std::move(resolved));

  json::Value counts = json::Value::object();
  counts.set("trials", std::uint64_t{a.trials});
  counts.set("agreements", std::uint64_t{a.agreements});
  counts.set("engine_incomplete", std::uint64_t{a.engine_incomplete});
  counts.set("wrong_decisions", a.wrong_decisions);
  counts.set("stalled_nodes", a.stalled_nodes);
  counts.set("correct_nodes", a.correct_nodes);
  counts.set("max_candidate_list", std::uint64_t{a.max_candidate_list});
  counts.set("missing_gstring", a.missing_gstring);
  counts.set("max_deferred", std::uint64_t{a.max_deferred});
  out.set("counts", std::move(counts));

  // Derived convenience fields; ignored (and recomputed) on load.
  json::Value derived = json::Value::object();
  derived.set("agreement_rate", a.agreement_rate());
  derived.set("decided_fraction", a.decided_fraction());
  out.set("derived", std::move(derived));

  json::Value stats = json::Value::object();
  for (const StatField& f : kStatFields) stats.set(f.name, stats_json(a.*(f.stat)));
  out.set("stats", std::move(stats));

  json::Value scalars = json::Value::object();
  scalars.set("ae_rounds", a.ae_rounds);
  scalars.set("reduction_time", a.reduction_time);
  scalars.set("ae_bits", a.ae_bits);
  scalars.set("reduction_bits", a.reduction_bits);
  scalars.set("push_bits_per_node", a.push_bits_per_node);
  scalars.set("push_msgs_per_node", a.push_msgs_per_node);
  scalars.set("candidate_lists_per_node", a.candidate_lists_per_node);
  scalars.set("fault_delayed_msgs", a.fault_delayed_msgs);
  scalars.set("runtime_corruptions", std::uint64_t{a.runtime_corruptions});
  scalars.set("first_corruption_time", a.first_corruption_time);
  scalars.set("last_corruption_time", a.last_corruption_time);
  scalars.set("recovery_acked_msgs", a.recovery_acked_msgs);
  scalars.set("recovery_dead_msgs", a.recovery_dead_msgs);
  scalars.set("recovery_dup_msgs", a.recovery_dup_msgs);
  out.set("scalars", std::move(scalars));

  json::Value causes = json::Value::object();
  for (std::size_t c = 0; c < sim::kNumFaultCauses; ++c) {
    causes.set(sim::fault_cause_name(static_cast<sim::FaultCause>(c)),
               a.drops_by_cause[c]);
  }
  out.set("drops_by_cause", std::move(causes));

  // Every kind, in kind_index order (zero-traffic kinds still carry their
  // sample counts, which the fingerprint covers).
  json::Value traffic = json::Value::array();
  for (std::size_t k = 0; k < sim::kNumMessageKinds; ++k) {
    json::Value entry = json::Value::object();
    entry.set("kind", sim::kind_name(static_cast<sim::MessageKind>(k)));
    entry.set("msgs_mean", a.msgs_by_kind[k]);
    entry.set("bits", stats_json(a.bits_by_kind[k]));
    traffic.push_back(std::move(entry));
  }
  out.set("traffic_by_kind", std::move(traffic));

  // Service-mode wall-clock load (schema v3). Environment-dependent by
  // definition — the one block outside the determinism contract besides
  // meta.git_version: not fingerprinted, not diffed, absent from the CSV.
  if (rp.has_load) {
    const PointLoad& l = rp.load;
    json::Value load = json::Value::object();
    load.set("wall_seconds", l.wall_seconds);
    load.set("instances_per_sec", l.instances_per_sec);
    load.set("wall_ms_p50", l.wall_ms_p50);
    load.set("wall_ms_p99", l.wall_ms_p99);
    load.set("wall_ms_p999", l.wall_ms_p999);
    load.set("queue_depth_mean", l.queue_depth_mean);
    load.set("queue_depth_max", std::uint64_t{l.queue_depth_max});
    load.set("push_blocks", std::uint64_t{l.push_blocks});
    load.set("pop_blocks", std::uint64_t{l.pop_blocks});
    out.set("load", std::move(load));
  }

  out.set("fingerprint", hex_u64(a.fingerprint()));
  return out;
}

ReportPoint point_from_json(const json::Value& v) {
  ReportPoint rp;
  const json::Value& axes = v.at("axes");
  rp.point.index = static_cast<std::size_t>(axes.at("index").as_uint64());
  rp.point.n = static_cast<std::size_t>(axes.at("n").as_uint64());
  rp.point.model = model_from_name(axes.at("model").as_string());
  rp.point.corrupt_fraction = axes.at("corrupt_fraction").as_double();
  rp.point.strategy = axes.at("attack").as_string();
  rp.point.fault = axes.at("fault").as_string();
  // Absent in pre-v5 files and recovery-less v5 reports: empty = unset.
  const json::Value* recovery = axes.find("recovery");
  rp.point.recovery = recovery != nullptr ? recovery->as_string() : "";
  // Absent in pre-v4 files and in non-adaptive v4 reports: -1 = unset.
  const json::Value* budget = axes.find("budget");
  rp.point.budget = budget != nullptr ? long(budget->as_uint64()) : -1;
  const json::Value* from = axes.find("adaptive_from");
  rp.point.adaptive_from = from != nullptr ? from->as_double() : -1;

  const json::Value& resolved = v.at("resolved");
  rp.provenance.d = static_cast<std::size_t>(resolved.at("d").as_uint64());
  rp.provenance.t = static_cast<std::size_t>(resolved.at("t").as_uint64());
  rp.provenance.gstring_bits =
      static_cast<std::size_t>(resolved.at("gstring_bits").as_uint64());
  rp.provenance.node_id_bits =
      static_cast<std::size_t>(resolved.at("node_id_bits").as_uint64());
  rp.provenance.answer_budget =
      static_cast<std::size_t>(resolved.at("answer_budget").as_uint64());

  Aggregate& a = rp.aggregate;
  const json::Value& counts = v.at("counts");
  a.trials = static_cast<std::size_t>(counts.at("trials").as_uint64());
  a.agreements = static_cast<std::size_t>(counts.at("agreements").as_uint64());
  a.engine_incomplete =
      static_cast<std::size_t>(counts.at("engine_incomplete").as_uint64());
  a.wrong_decisions = counts.at("wrong_decisions").as_uint64();
  a.stalled_nodes = counts.at("stalled_nodes").as_uint64();
  a.correct_nodes = counts.at("correct_nodes").as_uint64();
  a.max_candidate_list =
      static_cast<std::size_t>(counts.at("max_candidate_list").as_uint64());
  a.missing_gstring = counts.at("missing_gstring").as_uint64();
  a.max_deferred =
      static_cast<std::size_t>(counts.at("max_deferred").as_uint64());

  const json::Value& stats = v.at("stats");
  for (const StatField& f : kStatFields) {
    // v1 files predate mem_bytes_per_node: a missing stat loads as
    // all-zero, which is exactly what a v1 writer would have summarized.
    const json::Value* stat = stats.find(f.name);
    a.*(f.stat) = stat != nullptr ? stats_from_json(*stat) : SummaryStats{};
  }

  const json::Value& scalars = v.at("scalars");
  a.ae_rounds = scalars.at("ae_rounds").as_double();
  a.reduction_time = scalars.at("reduction_time").as_double();
  a.ae_bits = scalars.at("ae_bits").as_double();
  a.reduction_bits = scalars.at("reduction_bits").as_double();
  a.push_bits_per_node = scalars.at("push_bits_per_node").as_double();
  a.push_msgs_per_node = scalars.at("push_msgs_per_node").as_double();
  a.candidate_lists_per_node =
      scalars.at("candidate_lists_per_node").as_double();
  a.fault_delayed_msgs = scalars.at("fault_delayed_msgs").as_double();
  // Pre-v4 files predate the corruption timeline: load as zero, which is
  // what those (budget-less) runs would have recorded.
  const json::Value* rc = scalars.find("runtime_corruptions");
  a.runtime_corruptions = rc != nullptr ? rc->as_uint64() : 0;
  const json::Value* fct = scalars.find("first_corruption_time");
  a.first_corruption_time = fct != nullptr ? fct->as_double() : 0;
  const json::Value* lct = scalars.find("last_corruption_time");
  a.last_corruption_time = lct != nullptr ? lct->as_double() : 0;
  // Pre-v5 files predate the recovery sublayer: load as zero.
  const json::Value* ra = scalars.find("recovery_acked_msgs");
  a.recovery_acked_msgs = ra != nullptr ? ra->as_double() : 0;
  const json::Value* rd = scalars.find("recovery_dead_msgs");
  a.recovery_dead_msgs = rd != nullptr ? rd->as_double() : 0;
  const json::Value* rdup = scalars.find("recovery_dup_msgs");
  a.recovery_dup_msgs = rdup != nullptr ? rdup->as_double() : 0;

  const json::Value& causes = v.at("drops_by_cause");
  for (std::size_t c = 0; c < sim::kNumFaultCauses; ++c) {
    a.drops_by_cause[c] =
        causes.at(sim::fault_cause_name(static_cast<sim::FaultCause>(c)))
            .as_double();
  }

  // Tolerant of files written before a kind was appended (pre-v5 files
  // predate kAck): missing trailing kinds load as zero, which is exactly
  // what those runs — which could not have sent them — recorded.
  const auto& traffic = v.at("traffic_by_kind").as_array();
  FBA_REQUIRE(traffic.size() <= sim::kNumMessageKinds,
              "report: traffic_by_kind lists unknown message kinds");
  for (std::size_t k = 0; k < traffic.size(); ++k) {
    const json::Value& entry = traffic[k];
    FBA_REQUIRE(entry.at("kind").as_string() ==
                    sim::kind_name(static_cast<sim::MessageKind>(k)),
                "report: traffic_by_kind out of kind order");
    a.msgs_by_kind[k] = entry.at("msgs_mean").as_double();
    a.bits_by_kind[k] = stats_from_json(entry.at("bits"));
  }

  const json::Value* load = v.find("load");
  if (load != nullptr) {
    rp.has_load = true;
    rp.load.wall_seconds = load->at("wall_seconds").as_double();
    rp.load.instances_per_sec = load->at("instances_per_sec").as_double();
    rp.load.wall_ms_p50 = load->at("wall_ms_p50").as_double();
    rp.load.wall_ms_p99 = load->at("wall_ms_p99").as_double();
    rp.load.wall_ms_p999 = load->at("wall_ms_p999").as_double();
    rp.load.queue_depth_mean = load->at("queue_depth_mean").as_double();
    rp.load.queue_depth_max = load->at("queue_depth_max").as_uint64();
    rp.load.push_blocks = load->at("push_blocks").as_uint64();
    rp.load.pop_blocks = load->at("pop_blocks").as_uint64();
  }

  const std::string stored = v.at("fingerprint").as_string();
  const std::string recomputed = hex_u64(a.fingerprint());
  FBA_REQUIRE(stored == recomputed,
              "report: fingerprint mismatch for point \"" +
                  rp.point.label() + "\" (stored " + stored + ", recomputed " +
                  recomputed + ") — file corrupted or hand-edited; "
                  "regenerate it with the emitting tool");
  return rp;
}

// ---- curve extraction (markdown + gnuplot) ----------------------------------

struct CurvePoint {
  double x = 0;
  std::string tic;  ///< x tick label (categorical axes).
  double y = 0;
  double ci = 0;
};

std::vector<CurvePoint> curve_of(const ReportMeta& meta,
                                 const ReportSeries& series) {
  std::vector<CurvePoint> out;
  out.reserve(series.points.size());
  for (std::size_t i = 0; i < series.points.size(); ++i) {
    const ReportPoint& rp = series.points[i];
    CurvePoint c;
    if (meta.x_axis == "n") {
      c.x = double(rp.point.n);
      c.tic = std::to_string(rp.point.n);
    } else if (meta.x_axis == "corrupt") {
      c.x = rp.point.corrupt_fraction;
      c.tic = pretty_num(rp.point.corrupt_fraction);
    } else if (meta.x_axis == "fault") {
      c.x = double(i);
      c.tic = rp.point.fault.empty() ? "none" : rp.point.fault;
    } else if (meta.x_axis == "budget") {
      const double b = rp.point.budget >= 0 ? double(rp.point.budget) : 0;
      c.x = b;
      c.tic = pretty_num(b);
    } else {  // "index" (and the single-point "kind" reports)
      c.x = double(i);
      c.tic = rp.point.label();
    }
    c.y = metric_value(rp.aggregate, meta.y_metric);
    c.ci = metric_ci(rp.aggregate, meta.y_metric);
    out.push_back(std::move(c));
  }
  return out;
}

/// Text scatter plot of every series' headline curve: x spans the value
/// range, marker letters identify series ('#' on collision).
std::string ascii_chart(const ReportMeta& meta,
                        const std::vector<ReportSeries>& series) {
  constexpr int kW = 64, kH = 14;
  struct Named {
    char marker;
    const ReportSeries* s;
    std::vector<CurvePoint> curve;
  };
  std::vector<Named> curves;
  double xmin = 0, xmax = 0, ymin = 0, ymax = 0;
  bool first = true;
  for (std::size_t i = 0; i < series.size(); ++i) {
    Named n{static_cast<char>('A' + (i % 26)), &series[i],
            curve_of(meta, series[i])};
    for (const CurvePoint& c : n.curve) {
      if (first) {
        xmin = xmax = c.x;
        ymin = ymax = c.y;
        first = false;
      }
      xmin = std::min(xmin, c.x);
      xmax = std::max(xmax, c.x);
      ymin = std::min(ymin, c.y);
      ymax = std::max(ymax, c.y);
    }
    curves.push_back(std::move(n));
  }
  if (first) return "(no points)\n";
  // log-x when the axis is n (sizes double per step).
  const bool logx = meta.x_axis == "n" && xmin > 0 && xmax > xmin;
  const auto xpos = [&](double x) {
    if (xmax == xmin) return kW / 2;
    const double f = logx ? (std::log2(x) - std::log2(xmin)) /
                                (std::log2(xmax) - std::log2(xmin))
                          : (x - xmin) / (xmax - xmin);
    return std::clamp(int(std::lround(f * (kW - 1))), 0, kW - 1);
  };
  const auto ypos = [&](double y) {
    if (ymax == ymin) return kH / 2;
    const double f = (y - ymin) / (ymax - ymin);
    return std::clamp(kH - 1 - int(std::lround(f * (kH - 1))), 0, kH - 1);
  };
  std::vector<std::string> grid(kH, std::string(kW, ' '));
  for (const Named& n : curves) {
    for (const CurvePoint& c : n.curve) {
      char& cell = grid[ypos(c.y)][xpos(c.x)];
      cell = cell == ' ' ? n.marker : '#';
    }
  }
  std::string out;
  char label[64];
  for (int row = 0; row < kH; ++row) {
    if (row == 0) {
      std::snprintf(label, sizeof(label), "%10s |", pretty_num(ymax).c_str());
    } else if (row == kH - 1) {
      std::snprintf(label, sizeof(label), "%10s |", pretty_num(ymin).c_str());
    } else {
      std::snprintf(label, sizeof(label), "%10s |", "");
    }
    out += label;
    out += grid[row];
    out += '\n';
  }
  out += std::string(11, ' ') + '+' + std::string(kW, '-') + '\n';
  std::snprintf(label, sizeof(label), "%10s   %-28s", "",
                pretty_num(xmin).c_str());
  out += label;
  std::snprintf(label, sizeof(label), "%33s  (%s%s)\n",
                pretty_num(xmax).c_str(), meta.x_axis.c_str(),
                logx ? ", log scale" : "");
  out += label;
  for (const Named& n : curves) {
    out += "  ";
    out += n.marker;
    out += " = " + n.s->name + "\n";
  }
  return out;
}

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + "\"";
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  FBA_REQUIRE(out.good(), "report: cannot open \"" + path + "\" for writing");
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  out.close();
  FBA_REQUIRE(out.good(), "report: short write to \"" + path + "\"");
}

}  // namespace

// ---- provenance -------------------------------------------------------------

PointProvenance point_provenance(const aer::AerConfig& base,
                                 const GridPoint& point) {
  const aer::AerConfig cfg = point.apply(base);
  PointProvenance p;
  p.d = cfg.resolved_d();
  p.t = cfg.resolved_t();
  p.gstring_bits = cfg.resolved_gstring_bits();
  p.node_id_bits = node_id_bits(cfg.n);
  p.answer_budget = cfg.resolved_answer_budget();
  return p;
}

// ---- metric access ----------------------------------------------------------

double metric_value(const Aggregate& aggregate, std::string_view name) {
  const std::size_t dot = name.find('.');
  if (dot != std::string_view::npos) {
    const SummaryStats* stat = stat_by_name(aggregate, name.substr(0, dot));
    if (stat != nullptr) {
      const std::string_view component = name.substr(dot + 1);
      for (const StatComponent& c : kStatComponents) {
        if (component == c.name) return c.get(*stat);
      }
    }
  } else {
    for (const ScalarField& f : kScalarFields) {
      if (name == f.name) return f.get(aggregate);
    }
  }
  std::string stats, scalars;
  for (const StatField& f : kStatFields) {
    if (!stats.empty()) stats += ", ";
    stats += f.name;
  }
  for (const ScalarField& f : kScalarFields) {
    if (!scalars.empty()) scalars += ", ";
    scalars += f.name;
  }
  throw ConfigError("report: unknown metric \"" + std::string(name) +
                    "\" (stats — suffix with .count/.mean/.stddev/.min/.max/"
                    ".p50/.p90/.p99/.p999/.ci95: " + stats +
                    "; scalars: " + scalars + ")");
}

double metric_ci(const Aggregate& aggregate, std::string_view name) {
  const std::size_t dot = name.find('.');
  if (dot != std::string_view::npos && name.substr(dot + 1) == "mean") {
    const SummaryStats* stat = stat_by_name(aggregate, name.substr(0, dot));
    if (stat != nullptr) return stat->ci95;
  }
  if (name == "agreement_rate" || name == "decided_fraction") {
    // Normal-approximation binomial CI with the trial count as the sample
    // size — also for decided_fraction, whose per-node outcomes within one
    // trial are strongly correlated (a partition stalls whole groups), so
    // trials, not trials * n, is the honest effective-sample count.
    const double p = metric_value(aggregate, name);
    const double samples = double(aggregate.trials);
    if (samples > 0) return 1.96 * std::sqrt(p * (1 - p) / samples);
  }
  return 0;
}

// ---- Report basics ----------------------------------------------------------

Report::Report(ReportMeta meta) : meta_(std::move(meta)) {
  if (meta_.git_version.empty()) meta_.git_version = build_version();
}

const char* Report::build_version() { return FBA_GIT_DESCRIBE; }

ReportSeries& Report::add_series(std::string name) {
  FBA_REQUIRE(find_series(name) == nullptr,
              "report: duplicate series name \"" + name + "\"");
  series_.push_back(ReportSeries{std::move(name), {}});
  return series_.back();
}

void Report::add_points(const std::string& series, const aer::AerConfig& base,
                        const std::vector<PointResult>& results) {
  ReportSeries& s = add_series(series);
  s.points.reserve(results.size());
  for (const PointResult& r : results) {
    s.points.push_back(
        ReportPoint{r.point, point_provenance(base, r.point), r.aggregate});
  }
}

void Report::add_point(const std::string& series, ReportPoint point) {
  for (ReportSeries& s : series_) {
    if (s.name == series) {
      s.points.push_back(std::move(point));
      return;
    }
  }
  add_series(series).points.push_back(std::move(point));
}

const ReportSeries* Report::find_series(std::string_view name) const {
  for (const ReportSeries& s : series_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::size_t Report::total_points() const {
  std::size_t n = 0;
  for (const ReportSeries& s : series_) n += s.points.size();
  return n;
}

// ---- JSON -------------------------------------------------------------------

std::string Report::to_json() const {
  json::Value root = json::Value::object();
  root.set("schema", "fba.report");
  root.set("schema_version", kReportSchemaVersion);

  json::Value meta = json::Value::object();
  meta.set("tool", meta_.tool);
  meta.set("figure", meta_.figure);
  meta.set("title", meta_.title);
  meta.set("base_seed", dec_u64(meta_.base_seed));  // string: full 64 bits
  meta.set("trials", std::uint64_t{meta_.trials});
  meta.set("scale", meta_.scale);
  meta.set("x_axis", meta_.x_axis);
  meta.set("y_metric", meta_.y_metric);
  meta.set("y_label", meta_.y_label);
  meta.set("git_version", meta_.git_version);
  root.set("meta", std::move(meta));

  json::Value series = json::Value::array();
  for (const ReportSeries& s : series_) {
    json::Value entry = json::Value::object();
    entry.set("name", s.name);
    json::Value points = json::Value::array();
    for (const ReportPoint& rp : s.points) points.push_back(point_json(rp));
    entry.set("points", std::move(points));
    series.push_back(std::move(entry));
  }
  root.set("series", std::move(series));
  return root.dump();
}

Report Report::from_json(std::string_view text) {
  const json::Value root = json::Value::parse(text);
  FBA_REQUIRE(root.find("schema") != nullptr &&
                  root.at("schema").as_string() == "fba.report",
              "report: not an fba.report document");
  const std::uint64_t version = root.at("schema_version").as_uint64();
  // Each version is a strict subset of the next (v2 added the
  // stats.mem_bytes_per_node entry, v3 the p999 component and the optional
  // load block, v4 the optional adaptive axes and corruption-timeline
  // scalars), so all of them parse with the same tolerant code path.
  FBA_REQUIRE(version >= 1 && version <= kReportSchemaVersion,
              "report: schema version " + std::to_string(version) +
                  " unsupported (this build reads versions 1-" +
                  std::to_string(kReportSchemaVersion) +
                  "; see docs/output-schema.md)");

  Report out;
  const json::Value& meta = root.at("meta");
  out.meta_.tool = meta.at("tool").as_string();
  out.meta_.figure = meta.at("figure").as_string();
  out.meta_.title = meta.at("title").as_string();
  out.meta_.base_seed = parse_u64(meta.at("base_seed").as_string(), 10);
  out.meta_.trials = static_cast<std::size_t>(meta.at("trials").as_uint64());
  out.meta_.scale = meta.at("scale").as_string();
  out.meta_.x_axis = meta.at("x_axis").as_string();
  out.meta_.y_metric = meta.at("y_metric").as_string();
  out.meta_.y_label = meta.at("y_label").as_string();
  out.meta_.git_version = meta.at("git_version").as_string();

  for (const json::Value& entry : root.at("series").as_array()) {
    ReportSeries& s = out.add_series(entry.at("name").as_string());
    for (const json::Value& p : entry.at("points").as_array()) {
      s.points.push_back(point_from_json(p));
    }
  }
  return out;
}

Report Report::from_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FBA_REQUIRE(in.good(), "report: cannot read \"" + path + "\"");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return from_json(buffer.str());
  } catch (const ConfigError& e) {
    throw ConfigError(path + ": " + e.what());
  }
}

// ---- CSV --------------------------------------------------------------------

std::string Report::to_csv() const {
  std::string out;
  // Header: identity, axes, provenance, counts, then the stat columns and
  // per-kind traffic. One row per point, stable column order (schema v5).
  // The per-point load block is JSON-only: wall-clock cells would make the
  // CSV environment-dependent. Unset adaptive axes serialize as -1, an
  // unset recovery axis as the empty cell.
  out += "figure,series,label,index,n,model,corrupt_fraction,attack,fault"
         ",recovery,budget,adaptive_from"
         ",d,t,gstring_bits,node_id_bits,answer_budget"
         ",trials,agreements,agreement_rate,decided_fraction"
         ",engine_incomplete,wrong_decisions,stalled_nodes,correct_nodes"
         ",max_candidate_list,missing_gstring,max_deferred,fingerprint";
  for (const StatField& f : kStatFields) {
    for (const StatComponent& c : kStatComponents) {
      out += ',';
      out += f.name;
      out += '_';
      out += c.name;
    }
  }
  out += ",ae_rounds,reduction_time,ae_bits,reduction_bits"
         ",push_bits_per_node,push_msgs_per_node,candidate_lists_per_node"
         ",fault_delayed_msgs"
         ",runtime_corruptions,first_corruption_time,last_corruption_time"
         ",recovery_acked_msgs,recovery_dead_msgs,recovery_dup_msgs";
  for (std::size_t c = 0; c < sim::kNumFaultCauses; ++c) {
    out += ",drops_";
    out += sim::fault_cause_name(static_cast<sim::FaultCause>(c));
  }
  for (std::size_t k = 0; k < sim::kNumMessageKinds; ++k) {
    const char* kind = sim::kind_name(static_cast<sim::MessageKind>(k));
    out += ",msgs_";
    out += kind;
    out += ",bits_";
    out += kind;
    out += "_mean";
  }
  out += '\n';

  for (const ReportSeries& s : series_) {
    for (const ReportPoint& rp : s.points) {
      const Aggregate& a = rp.aggregate;
      std::vector<std::string> cells = {
          meta_.figure,
          s.name,
          rp.point.label(),
          dec_u64(rp.point.index),
          dec_u64(rp.point.n),
          aer::model_name(rp.point.model),
          canonical_num(rp.point.corrupt_fraction),
          rp.point.strategy,
          rp.point.fault,
          rp.point.recovery,
          std::to_string(rp.point.budget),
          canonical_num(rp.point.adaptive_from),
          dec_u64(rp.provenance.d),
          dec_u64(rp.provenance.t),
          dec_u64(rp.provenance.gstring_bits),
          dec_u64(rp.provenance.node_id_bits),
          dec_u64(rp.provenance.answer_budget),
          dec_u64(a.trials),
          dec_u64(a.agreements),
          canonical_num(a.agreement_rate()),
          canonical_num(a.decided_fraction()),
          dec_u64(a.engine_incomplete),
          dec_u64(a.wrong_decisions),
          dec_u64(a.stalled_nodes),
          dec_u64(a.correct_nodes),
          dec_u64(a.max_candidate_list),
          dec_u64(a.missing_gstring),
          dec_u64(a.max_deferred),
          hex_u64(a.fingerprint()),
      };
      for (const StatField& f : kStatFields) {
        const SummaryStats& stat = a.*(f.stat);
        for (const StatComponent& c : kStatComponents) {
          cells.push_back(canonical_num(c.get(stat)));
        }
      }
      for (const double v : {a.ae_rounds, a.reduction_time, a.ae_bits,
                             a.reduction_bits, a.push_bits_per_node,
                             a.push_msgs_per_node, a.candidate_lists_per_node,
                             a.fault_delayed_msgs,
                             double(a.runtime_corruptions),
                             a.first_corruption_time,
                             a.last_corruption_time,
                             a.recovery_acked_msgs,
                             a.recovery_dead_msgs,
                             a.recovery_dup_msgs}) {
        cells.push_back(canonical_num(v));
      }
      for (std::size_t c = 0; c < sim::kNumFaultCauses; ++c) {
        cells.push_back(canonical_num(a.drops_by_cause[c]));
      }
      for (std::size_t k = 0; k < sim::kNumMessageKinds; ++k) {
        cells.push_back(canonical_num(a.msgs_by_kind[k]));
        cells.push_back(canonical_num(a.bits_by_kind[k].mean));
      }
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i > 0) out += ',';
        out += csv_escape(cells[i]);
      }
      out += '\n';
    }
  }
  return out;
}

// ---- markdown ---------------------------------------------------------------

std::string Report::to_markdown() const {
  std::string out;
  out += "# " + (meta_.title.empty() ? meta_.figure : meta_.title) + "\n\n";
  out += "figure `" + meta_.figure + "` · tool `" + meta_.tool +
         "` · build `" + meta_.git_version + "` · schema v" +
         std::to_string(kReportSchemaVersion) + "\n\n";
  out += "- base seed " + dec_u64(meta_.base_seed) + ", " +
         std::to_string(meta_.trials) + " trials/point" +
         (meta_.scale.empty() ? "" : ", scale " + meta_.scale) + "\n";
  out += "- headline curve: " + meta_.y_label + " (`" + meta_.y_metric +
         "`) vs " + meta_.x_axis + "\n\n";

  if (meta_.x_axis == "kind") {
    // Single-configuration traffic breakdown instead of an x/y curve.
    for (const ReportSeries& s : series_) {
      for (const ReportPoint& rp : s.points) {
        out += "## " + s.name + " — " + rp.point.label() + "\n\n";
        out += "| kind | msgs (mean) | bits/run (mean ± ci95) |\n";
        out += "|---|---|---|\n";
        for (std::size_t k = 0; k < sim::kNumMessageKinds; ++k) {
          if (rp.aggregate.msgs_by_kind[k] == 0) continue;
          out += "| " +
                 std::string(
                     sim::kind_name(static_cast<sim::MessageKind>(k))) +
                 " | " + pretty_num(rp.aggregate.msgs_by_kind[k]) + " | " +
                 pretty_num(rp.aggregate.bits_by_kind[k].mean) + " ± " +
                 pretty_num(rp.aggregate.bits_by_kind[k].ci95) + " |\n";
        }
        out += '\n';
      }
    }
  } else {
    out += "## Curve\n\n```\n" + ascii_chart(meta_, series_) + "```\n\n";
  }

  for (const ReportSeries& s : series_) {
    out += "## " + s.name + "\n\n";
    out += "| point | " + meta_.y_label +
           " | ±ci95 | agree | decided | wrong | bits/node | fingerprint |\n";
    out += "|---|---|---|---|---|---|---|---|\n";
    for (const ReportPoint& rp : s.points) {
      const Aggregate& a = rp.aggregate;
      out += "| " + rp.point.label() + " | " +
             pretty_num(metric_value(a, meta_.y_metric)) + " | " +
             pretty_num(metric_ci(a, meta_.y_metric)) + " | " +
             pretty_num(a.agreement_rate()) + " | " +
             pretty_num(a.decided_fraction()) + " | " +
             dec_u64(a.wrong_decisions) + " | " +
             pretty_num(a.amortized_bits.mean) + " | `" +
             hex_u64(a.fingerprint()) + "` |\n";
    }
    out += '\n';
  }
  return out;
}

// ---- gnuplot ----------------------------------------------------------------

std::string Report::to_gnuplot() const {
  std::string out;
  out += "# BENCH_" + meta_.figure + ".gp — generated by " + meta_.tool +
         " (fba.report schema v" + std::to_string(kReportSchemaVersion) +
         ", build " + meta_.git_version + ")\n";
  out += "# render to a file with e.g.:\n";
  out += "#   gnuplot -e \"set terminal pngcairo size 960,640; set output "
         "'BENCH_" + meta_.figure + ".png'\" BENCH_" + meta_.figure + ".gp\n";
  out += "set title \"" + (meta_.title.empty() ? meta_.figure : meta_.title) +
         "\"\n";
  out += "set xlabel \"" + meta_.x_axis + "\"\n";
  out += "set ylabel \"" + meta_.y_label + "\"\n";
  out += "set key outside right top\nset grid\n";
  const bool categorical = meta_.x_axis == "fault" || meta_.x_axis == "kind" ||
                           meta_.x_axis == "index";
  if (meta_.x_axis == "n") out += "set logscale x 2\n";
  if (categorical) out += "set xtics rotate by -30\nset offsets 0.5,0.5,0,0\n";

  if (meta_.x_axis == "kind") {
    // Per-kind bits of each series' single point, labeled by kind.
    for (std::size_t i = 0; i < series_.size(); ++i) {
      out += "$series_" + std::to_string(i) + " << EOD\n";
      for (const ReportPoint& rp : series_[i].points) {
        for (std::size_t k = 0; k < sim::kNumMessageKinds; ++k) {
          if (rp.aggregate.msgs_by_kind[k] == 0) continue;
          out += std::string("\"") +
                 sim::kind_name(static_cast<sim::MessageKind>(k)) + "\" " +
                 canonical_num(rp.aggregate.bits_by_kind[k].mean) + " " +
                 canonical_num(rp.aggregate.bits_by_kind[k].ci95) + "\n";
        }
      }
      out += "EOD\n";
    }
    out += "set ylabel \"bits per run\"\nset boxwidth 0.6\nset style fill "
           "solid 0.4\n";
  } else {
    for (std::size_t i = 0; i < series_.size(); ++i) {
      out += "$series_" + std::to_string(i) + " << EOD\n";
      for (const CurvePoint& c : curve_of(meta_, series_[i])) {
        if (categorical) {
          out += "\"" + c.tic + "\" " + canonical_num(c.y) + " " +
                 canonical_num(c.ci) + "\n";
        } else {
          out += canonical_num(c.x) + " " + canonical_num(c.y) + " " +
                 canonical_num(c.ci) + "\n";
        }
      }
      out += "EOD\n";
    }
  }

  out += "plot ";
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (i > 0) out += ", \\\n     ";
    const std::string block = "$series_" + std::to_string(i);
    if (meta_.x_axis == "kind") {
      out += block + " using 0:2:3:xtic(1) with boxerrorbars title \"" +
             series_[i].name + "\"";
    } else if (categorical) {
      out += block + " using 0:2:3:xtic(1) with yerrorlines title \"" +
             series_[i].name + "\"";
    } else {
      out += block + " using 1:2:3 with yerrorlines title \"" +
             series_[i].name + "\"";
    }
  }
  out += "\n";
  return out;
}

// ---- files ------------------------------------------------------------------

void Report::write_json(const std::string& path) const {
  write_file(path, to_json());
}

std::vector<std::string> Report::write_all(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  FBA_REQUIRE(!ec, "report: cannot create output directory \"" + dir +
                       "\": " + ec.message());
  const std::string stem =
      dir + "/BENCH_" + (meta_.figure.empty() ? "report" : meta_.figure);
  std::vector<std::string> paths;
  write_file(stem + ".json", to_json());
  paths.push_back(stem + ".json");
  write_file(stem + ".csv", to_csv());
  paths.push_back(stem + ".csv");
  write_file(stem + ".md", to_markdown());
  paths.push_back(stem + ".md");
  write_file(stem + ".gp", to_gnuplot());
  paths.push_back(stem + ".gp");
  return paths;
}

// ---- diff -------------------------------------------------------------------

DiffResult Report::diff(const Report& baseline) const {
  DiffResult result;
  std::vector<DiffEntry> regressed, other;

  for (const ReportSeries& base_series : baseline.series_) {
    const ReportSeries* cur_series = find_series(base_series.name);
    if (cur_series == nullptr) {
      DiffEntry e;
      e.series = base_series.name;
      e.verdict = DiffEntry::Verdict::kMissing;
      regressed.push_back(std::move(e));
      ++result.regressions;
      continue;
    }
    for (const ReportPoint& base_point : base_series.points) {
      const std::string label = base_point.point.label();
      const ReportPoint* cur_point = nullptr;
      for (const ReportPoint& rp : cur_series->points) {
        if (rp.point.label() == label) {
          cur_point = &rp;
          break;
        }
      }
      if (cur_point == nullptr) {
        DiffEntry e;
        e.series = base_series.name;
        e.label = label;
        e.verdict = DiffEntry::Verdict::kMissing;
        regressed.push_back(std::move(e));
        ++result.regressions;
        continue;
      }
      ++result.points_compared;
      const bool fingerprints_match = cur_point->aggregate.fingerprint() ==
                                      base_point.aggregate.fingerprint();
      if (fingerprints_match) ++result.points_identical;
      for (const DiffMetric& m : kDiffMetrics) {
        // A fingerprint match proves covered metrics equal; uncovered
        // ones (the memory account) still need an explicit comparison.
        if (fingerprints_match && m.fingerprint_covered) continue;
        DiffEntry e;
        e.series = base_series.name;
        e.label = label;
        e.metric = m.name;
        e.baseline = metric_value(base_point.aggregate, m.name);
        // No baseline data for an uncovered metric (v1 file, or a run
        // that never accounted memory): nothing to gate against.
        if (!m.fingerprint_covered && e.baseline == 0) continue;
        e.current = metric_value(cur_point->aggregate, m.name);
        e.tolerance = metric_ci(base_point.aggregate, m.name) +
                      metric_ci(cur_point->aggregate, m.name);
        const double worse =
            m.higher_is_worse ? e.current - e.baseline : e.baseline - e.current;
        if (e.current == e.baseline) {
          e.verdict = DiffEntry::Verdict::kIdentical;
        } else if (worse > e.tolerance) {
          e.verdict = DiffEntry::Verdict::kRegressed;
        } else if (worse < -e.tolerance) {
          e.verdict = DiffEntry::Verdict::kImproved;
        } else {
          e.verdict = DiffEntry::Verdict::kWithinCi;
        }
        if (e.verdict == DiffEntry::Verdict::kRegressed) {
          ++result.regressions;
          regressed.push_back(std::move(e));
        } else {
          if (e.verdict == DiffEntry::Verdict::kImproved) ++result.improvements;
          other.push_back(std::move(e));
        }
      }
    }
  }

  // Points/series here that the baseline lacks: newly added, reported only.
  for (const ReportSeries& s : series_) {
    const ReportSeries* base_series = baseline.find_series(s.name);
    if (base_series == nullptr) {
      result.added.push_back(s.name + " (whole series)");
      continue;
    }
    for (const ReportPoint& rp : s.points) {
      const std::string label = rp.point.label();
      bool found = false;
      for (const ReportPoint& bp : base_series->points) {
        if (bp.point.label() == label) {
          found = true;
          break;
        }
      }
      if (!found) result.added.push_back(s.name + " | " + label);
    }
  }

  result.entries = std::move(regressed);
  result.entries.insert(result.entries.end(),
                        std::make_move_iterator(other.begin()),
                        std::make_move_iterator(other.end()));
  return result;
}

std::string DiffResult::summary() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "report diff: %zu points compared, %zu fingerprint-identical,"
                " %zu regressions, %zu improvements, %zu added\n",
                points_compared, points_identical, regressions, improvements,
                added.size());
  out += line;
  for (const DiffEntry& e : entries) {
    const char* verdict = "";
    switch (e.verdict) {
      case DiffEntry::Verdict::kIdentical: continue;  // noise
      case DiffEntry::Verdict::kWithinCi: verdict = "within-ci"; break;
      case DiffEntry::Verdict::kImproved: verdict = "improved "; break;
      case DiffEntry::Verdict::kRegressed: verdict = "REGRESSED"; break;
      case DiffEntry::Verdict::kMissing: verdict = "MISSING  "; break;
    }
    if (e.verdict == DiffEntry::Verdict::kMissing) {
      out += "  MISSING   " + e.series +
             (e.label.empty() ? " (whole series)" : " | " + e.label) + "\n";
      continue;
    }
    std::snprintf(line, sizeof(line), "  %s %s | %s | %s: %s -> %s (tol %s)\n",
                  verdict, e.series.c_str(), e.label.c_str(), e.metric.c_str(),
                  pretty_num(e.baseline).c_str(), pretty_num(e.current).c_str(),
                  pretty_num(e.tolerance).c_str());
    out += line;
  }
  for (const std::string& a : added) out += "  added     " + a + "\n";
  return out;
}

}  // namespace fba::exp
