#include "exp/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <type_traits>

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

std::string dec_u64(std::uint64_t v) { return std::to_string(v); }

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

// ---- metric access ----------------------------------------------------------

/// Calls f(name, component) for each component of a SummaryStats block, in
/// serialization order.
template <class Stats, class F>
void for_each_component(Stats& s, F&& f) {
  f("count", s.count);
  f("mean", s.mean);
  f("stddev", s.stddev);
  f("min", s.min);
  f("max", s.max);
  f("p50", s.p50);
  f("p90", s.p90);
  f("p99", s.p99);
  f("p999", s.p999);
  f("ci95", s.ci95);
}

template <class T>
constexpr bool kIsStats = std::is_same_v<std::decay_t<T>, SummaryStats>;

/// The table row `name` reads and its value on `a`: "<stat>.<component>"
/// for a SummaryStats metric, the bare row name otherwise.
struct MetricReading {
  MetricInfo info;
  double value = 0;
};

std::optional<MetricReading> find_metric(const Aggregate& a,
                                         std::string_view name) {
  const std::size_t dot = name.find('.');
  const std::string_view base = name.substr(0, dot);
  std::optional<MetricReading> found;
  for_each_aggregate_metric(a, [&](const MetricInfo& m, const auto& v) {
    if (m.name != base) return;
    if constexpr (kIsStats<decltype(v)>) {
      if (dot == std::string_view::npos) return;
      for_each_component(v, [&](std::string_view component, const auto& c) {
        if (name.substr(dot + 1) == component) {
          found = MetricReading{m, static_cast<double>(c)};
        }
      });
    } else if (dot == std::string_view::npos) {
      found = MetricReading{m, static_cast<double>(v)};
    }
  });
  return found;
}

/// find_metric, or a ConfigError listing every name.
MetricReading read_metric(const Aggregate& a, std::string_view name) {
  if (const std::optional<MetricReading> found = find_metric(a, name)) {
    return *found;
  }
  std::string stats, scalars;
  for_each_aggregate_metric(a, [&](const MetricInfo& m, const auto& v) {
    std::string& list = kIsStats<decltype(v)> ? stats : scalars;
    if (!list.empty()) list += ", ";
    list += m.name;
  });
  throw ConfigError("report: unknown metric \"" + std::string(name) +
                    "\" (stats — suffix with .count/.mean/.stddev/.min/.max/"
                    ".p50/.p90/.p99/.p999/.ci95: " + stats +
                    "; scalars: " + scalars + ")");
}

/// The metrics `Report::diff` compares. Each row's `better` column gives
/// the worse direction, and its `fp` column says whether a fingerprint
/// match already proves the metric equal; the others (the memory account,
/// retransmit bits) are compared on every point the baseline recorded them
/// for. The per-trial wrong-decision rate compares across trial counts, and
/// with zero tolerance any new safety violation regresses.
const char* const kDiffMetrics[] = {
    "completion_time.mean",    "amortized_bits.mean",
    "total_messages.mean",     "agreement_rate",
    "decided_fraction",        "wrong_decisions_per_trial",
    "mem_bytes_per_node.mean", "recovery_retransmit_bits.mean",
};

/// The point's JSON object of each ReportGroup but kNone.
const char* const kGroupKeys[] = {"counts", "derived", "stats", "scalars"};

// ---- JSON (de)serialization -------------------------------------------------

/// Calls f(name, value) for each resolved provenance field, in
/// serialization order.
template <class Provenance, class F>
void for_each_provenance(Provenance& p, F&& f) {
  f("d", p.d);
  f("t", p.t);
  f("gstring_bits", p.gstring_bits);
  f("node_id_bits", p.node_id_bits);
  f("answer_budget", p.answer_budget);
}

/// Calls f(name, value) for each field of a service point's load block.
template <class Load, class F>
void for_each_load_field(Load& l, F&& f) {
  f("wall_seconds", l.wall_seconds);
  f("instances_per_sec", l.instances_per_sec);
  f("wall_ms_p50", l.wall_ms_p50);
  f("wall_ms_p99", l.wall_ms_p99);
  f("wall_ms_p999", l.wall_ms_p999);
}

template <class T>
json::Value metric_json(const T& v) {
  if constexpr (kIsStats<T>) {
    json::Value out = json::Value::object();
    for_each_component(v, [&](const char* name, const auto& c) {
      out.set(name, c);
    });
    return out;
  } else {
    return v;
  }
}

template <class T>
void metric_from_json(const json::Value& v, T& out) {
  if constexpr (kIsStats<T>) {
    for_each_component(out, [&](const char* name, auto& c) {
      json::read_into(v.at(name), c);
    });
  } else {
    json::read_into(v, out);
  }
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
  // The recovery and adaptive axes are written only when the sweep set
  // them.
  if (!rp.point.recovery.empty()) {
    axes.set("recovery", rp.point.recovery);
  }
  if (rp.point.budget >= 0) {
    axes.set("budget", std::uint64_t(rp.point.budget));
  }
  if (rp.point.adaptive_from >= 0) {
    axes.set("adaptive_from", rp.point.adaptive_from);
  }
  out.set("axes", std::move(axes));

  json::Value resolved = json::Value::object();
  for_each_provenance(rp.provenance, [&](const char* name, std::size_t v) {
    resolved.set(name, std::uint64_t{v});
  });
  out.set("resolved", std::move(resolved));

  // Derived convenience fields are ignored (and recomputed) on load.
  json::Value groups[std::size(kGroupKeys)];
  for (json::Value& g : groups) g = json::Value::object();
  for_each_aggregate_metric(a, [&](const MetricInfo& m, const auto& v) {
    if (m.group == ReportGroup::kNone) return;
    groups[static_cast<std::size_t>(m.group)].set(std::string(m.name),
                                                  metric_json(v));
  });
  for (std::size_t g = 0; g < std::size(kGroupKeys); ++g) {
    out.set(kGroupKeys[g], std::move(groups[g]));
  }

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
    entry.set("bits", metric_json(a.bits_by_kind[k]));
    traffic.push_back(std::move(entry));
  }
  out.set("traffic_by_kind", std::move(traffic));

  // Service-mode wall-clock load. Environment-dependent by
  // definition — the one block outside the determinism contract besides
  // meta.git_version: not fingerprinted, not diffed, absent from the CSV.
  if (rp.has_load) {
    json::Value load = json::Value::object();
    for_each_load_field(rp.load, [&](const char* name, double v) {
      load.set(name, v);
    });
    out.set("load", std::move(load));
  }

  out.set("fingerprint", json::hex_u64(a.fingerprint()));
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
  // The optional axes: absent means unset (empty recovery, -1 otherwise).
  const json::Value* recovery = axes.find("recovery");
  rp.point.recovery = recovery != nullptr ? recovery->as_string() : "";
  const json::Value* budget = axes.find("budget");
  rp.point.budget = budget != nullptr ? long(budget->as_uint64()) : -1;
  const json::Value* from = axes.find("adaptive_from");
  rp.point.adaptive_from = from != nullptr ? from->as_double() : -1;

  const json::Value& resolved = v.at("resolved");
  for_each_provenance(rp.provenance, [&](const char* name, std::size_t& f) {
    json::read_into(resolved.at(name), f);
  });

  Aggregate& a = rp.aggregate;
  for_each_aggregate_metric(a, [&](const MetricInfo& m, auto&& value) {
    if (m.group == ReportGroup::kDerived || m.group == ReportGroup::kNone) {
      return;
    }
    const char* group = kGroupKeys[static_cast<std::size_t>(m.group)];
    metric_from_json(v.at(group).at(m.name), value);
  });

  const json::Value& causes = v.at("drops_by_cause");
  for (std::size_t c = 0; c < sim::kNumFaultCauses; ++c) {
    a.drops_by_cause[c] =
        causes.at(sim::fault_cause_name(static_cast<sim::FaultCause>(c)))
            .as_double();
  }

  const auto& traffic = v.at("traffic_by_kind").as_array();
  FBA_REQUIRE(traffic.size() == sim::kNumMessageKinds,
              "report: traffic_by_kind must list every message kind");
  for (std::size_t k = 0; k < traffic.size(); ++k) {
    const json::Value& entry = traffic[k];
    FBA_REQUIRE(entry.at("kind").as_string() ==
                    sim::kind_name(static_cast<sim::MessageKind>(k)),
                "report: traffic_by_kind out of kind order");
    a.msgs_by_kind[k] = entry.at("msgs_mean").as_double();
    metric_from_json(entry.at("bits"), a.bits_by_kind[k]);
  }

  if (const json::Value* load = v.find("load")) {
    rp.has_load = true;
    for_each_load_field(rp.load, [&](const char* name, double& f) {
      f = load->at(name).as_double();
    });
  }

  const std::string stored = v.at("fingerprint").as_string();
  const std::string recomputed = json::hex_u64(a.fingerprint());
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
  return read_metric(aggregate, name).value;
}

double metric_ci(const Aggregate& aggregate, std::string_view name) {
  const std::size_t dot = name.find('.');
  if (dot != std::string_view::npos && name.substr(dot + 1) == "mean") {
    const std::string ci95 = std::string(name.substr(0, dot)) + ".ci95";
    if (const std::optional<MetricReading> ci = find_metric(aggregate, ci95)) {
      return ci->value;
    }
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
  FBA_REQUIRE(version == kReportSchemaVersion,
              "report: schema version " + std::to_string(version) +
                  " unsupported (this build reads v" +
                  std::to_string(kReportSchemaVersion) +
                  " only; regenerate the file with the emitting tool, see"
                  " docs/output-schema.md)");

  Report out;
  const json::Value& meta = root.at("meta");
  out.meta_.tool = meta.at("tool").as_string();
  out.meta_.figure = meta.at("figure").as_string();
  out.meta_.title = meta.at("title").as_string();
  out.meta_.base_seed = json::parse_u64(meta.at("base_seed").as_string(), 10);
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
  const std::string text = json::read_file(path);
  try {
    return from_json(text);
  } catch (const ConfigError& e) {
    throw ConfigError(path + ": " + e.what());
  }
}

// ---- CSV --------------------------------------------------------------------

std::string Report::to_csv() const {
  // One row per point, stable column order: identity, axes, provenance,
  // then the table metrics (counts and derived, the fingerprint, stats
  // component by component, scalars), per-cause drops and per-kind traffic.
  // The per-point load block is JSON-only: wall-clock cells would make the
  // CSV environment-dependent. Unset adaptive axes serialize as -1, an
  // unset recovery axis as the empty cell.
  using Columns = std::vector<std::pair<std::string, std::string>>;
  const auto columns = [&](const std::string& series, const ReportPoint& rp) {
    Columns cols;
    const auto col = [&cols](std::string name, std::string cell) {
      cols.emplace_back(std::move(name), std::move(cell));
    };
    const GridPoint& p = rp.point;
    const Aggregate& a = rp.aggregate;
    col("figure", meta_.figure);
    col("series", series);
    col("label", p.label());
    col("index", dec_u64(p.index));
    col("n", dec_u64(p.n));
    col("model", aer::model_name(p.model));
    col("corrupt_fraction", canonical_num(p.corrupt_fraction));
    col("attack", p.strategy);
    col("fault", p.fault);
    col("recovery", p.recovery);
    col("budget", std::to_string(p.budget));
    col("adaptive_from", canonical_num(p.adaptive_from));
    for_each_provenance(rp.provenance, [&](const char* name, std::size_t v) {
      col(name, dec_u64(v));
    });
    const auto metrics = [&](std::initializer_list<ReportGroup> groups) {
      for_each_aggregate_metric(a, [&](const MetricInfo& m, const auto& v) {
        if (std::find(groups.begin(), groups.end(), m.group) == groups.end()) {
          return;
        }
        if constexpr (kIsStats<decltype(v)>) {
          for_each_component(v, [&](const char* name, const auto& c) {
            col(std::string(m.name) + '_' + name,
                canonical_num(static_cast<double>(c)));
          });
        } else if constexpr (std::is_integral_v<
                                 std::decay_t<decltype(v)>>) {
          col(std::string(m.name), dec_u64(v));
        } else {
          col(std::string(m.name), canonical_num(v));
        }
      });
    };
    metrics({ReportGroup::kCounts, ReportGroup::kDerived});
    col("fingerprint", json::hex_u64(a.fingerprint()));
    metrics({ReportGroup::kStats});
    metrics({ReportGroup::kScalars});
    for (std::size_t c = 0; c < sim::kNumFaultCauses; ++c) {
      col(std::string("drops_") +
              sim::fault_cause_name(static_cast<sim::FaultCause>(c)),
          canonical_num(a.drops_by_cause[c]));
    }
    for (std::size_t k = 0; k < sim::kNumMessageKinds; ++k) {
      const std::string kind = sim::kind_name(static_cast<sim::MessageKind>(k));
      col("msgs_" + kind, canonical_num(a.msgs_by_kind[k]));
      col("bits_" + kind + "_mean", canonical_num(a.bits_by_kind[k].mean));
    }
    return cols;
  };
  const auto line = [](const Columns& cols, bool header) {
    std::string out;
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (i > 0) out += ',';
      out += csv_escape(header ? cols[i].first : cols[i].second);
    }
    return out + '\n';
  };

  std::string out = line(columns("", ReportPoint{}), /*header=*/true);
  for (const ReportSeries& s : series_) {
    for (const ReportPoint& rp : s.points) {
      out += line(columns(s.name, rp), /*header=*/false);
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
             json::hex_u64(a.fingerprint()) + "` |\n";
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
  json::write_file(path, to_json());
}

std::vector<std::string> Report::write_all(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  FBA_REQUIRE(!ec, "report: cannot create output directory \"" + dir +
                       "\": " + ec.message());
  const std::string stem =
      dir + "/BENCH_" + (meta_.figure.empty() ? "report" : meta_.figure);
  std::vector<std::string> paths;
  json::write_file(stem + ".json", to_json());
  paths.push_back(stem + ".json");
  json::write_file(stem + ".csv", to_csv());
  paths.push_back(stem + ".csv");
  json::write_file(stem + ".md", to_markdown());
  paths.push_back(stem + ".md");
  json::write_file(stem + ".gp", to_gnuplot());
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
      for (const char* name : kDiffMetrics) {
        const MetricReading base = read_metric(base_point.aggregate, name);
        // A fingerprint match proves covered metrics equal; uncovered
        // ones (the memory account) still need an explicit comparison.
        if (fingerprints_match && base.info.fingerprinted) continue;
        DiffEntry e;
        e.series = base_series.name;
        e.label = label;
        e.metric = name;
        e.baseline = base.value;
        // No baseline data for an uncovered metric (a run that never
        // accounted memory): nothing to gate against.
        if (!base.info.fingerprinted && e.baseline == 0) continue;
        e.current = metric_value(cur_point->aggregate, name);
        e.tolerance = metric_ci(base_point.aggregate, name) +
                      metric_ci(cur_point->aggregate, name);
        FBA_ASSERT(base.info.better != Better::kNeither,
                   "report: a diffed metric needs a direction");
        const double worse = base.info.better == Better::kLower
                                 ? e.current - e.baseline
                                 : e.baseline - e.current;
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
