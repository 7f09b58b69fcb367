#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <tuple>

#include "metrics.h"
#include "support/json.h"
#include "support/types.h"

namespace fba::bench {

namespace {

struct Record {
  std::string result_fp;
  bool correct = false;
  std::map<std::string, double> metrics;
};

/// (workload, seed, trace) -> records, in file order.
using Groups = std::map<std::tuple<std::string, std::string, int>,
                        std::vector<Record>>;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void load(const std::string& path, Groups& groups) {
  const json::Value doc = json::Value::parse(read_file(path));
  Record r;
  r.result_fp = doc.at("result_fp").as_string();
  r.correct = doc.at("correct").as_bool();
  for (const auto& [name, metric] : doc.at("metrics").as_object()) {
    if (find_metric(name) == nullptr) {
      throw ConfigError(path + ": unknown metric " + name);
    }
    r.metrics[name] = metric.at("value").as_double();
  }
  const auto trace = doc.at("trace").as_uint64();
  if (trace > 1) throw ConfigError(path + ": trace must be 0 or 1");
  groups[{doc.at("workload").as_string(), doc.at("seed").as_string(),
          static_cast<int>(trace)}]
      .push_back(std::move(r));
}

/// Median and quartiles as Python's statistics.quantiles(n=4) gives them
/// (the 'exclusive' method), so these numbers match the acceptance script.
struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};

Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * (ld + 1) / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * (ld + 1) - j * 4;
    q[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                v[j] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

/// End-to-end bounds from BENCHMARK.json, by metric name.
std::map<std::string, double> load_bounds(const std::string& spec_path) {
  const json::Value spec = json::Value::parse(read_file(spec_path));
  std::map<std::string, double> bounds;
  for (const json::Value& m : spec.at("end_to_end").as_array()) {
    bounds[m.at("name").as_string()] = m.at("bound").as_double();
  }
  return bounds;
}

std::vector<double> values_of(const std::vector<Record>& records,
                              const std::string& metric) {
  std::vector<double> values;
  for (const Record& r : records) {
    const auto it = r.metrics.find(metric);
    if (it != r.metrics.end()) values.push_back(it->second);
  }
  return values;
}

}  // namespace

int compare_runs(const std::string& spec_path,
                 const std::vector<std::string>& set_a,
                 const std::vector<std::string>& set_b) {
  const std::map<std::string, double> bounds = load_bounds(spec_path);
  Groups a, b;
  for (const std::string& path : set_a) load(path, a);
  for (const std::string& path : set_b) load(path, b);

  int failures = 0;
  auto fail = [&failures](const char* fmt, const std::string& what) {
    std::printf(fmt, what.c_str());
    ++failures;
  };
  for (const auto& [key, records] : b) {
    if (!a.count(key)) fail("%s: only in set B\n", std::get<0>(key));
  }
  for (const auto& [key, records_a] : a) {
    const auto& [workload, seed, trace] = key;
    const std::string group =
        workload + " seed=" + seed + " trace=" + std::to_string(trace);
    const auto it = b.find(key);
    if (it == b.end()) {
      fail("%s: only in set A\n", group);
      continue;
    }
    const std::vector<Record>& records_b = it->second;
    std::printf("== %s (A: %zu runs, B: %zu runs)\n", group.c_str(),
                records_a.size(), records_b.size());

    bool all_correct = true;
    bool same_fp = true;
    for (const auto* records : {&records_a, &records_b}) {
      for (const Record& r : *records) {
        all_correct = all_correct && r.correct;
        same_fp = same_fp && r.result_fp == records_a.front().result_fp;
      }
    }
    if (!all_correct) fail("%s: a run reported correct=false\n", group);
    if (!same_fp) fail("%s: result_fp differs between runs\n", group);

    for (const auto table : {std::span<const MetricDef>(kEndToEnd),
                             std::span<const MetricDef>(kPerLayer)}) {
      for (const MetricDef& m : table) {
        const std::vector<double> va = values_of(records_a, m.name);
        const std::vector<double> vb = values_of(records_b, m.name);
        if (va.empty() && vb.empty()) continue;
        if (va.size() != records_a.size() || vb.size() != records_b.size()) {
          fail("%s: metric missing from some runs\n", group + " " + m.name);
          continue;
        }
        const Quartiles qa = quartiles(va);
        const Quartiles qb = quartiles(vb);
        const double change =
            qa.median != 0 ? (qb.median - qa.median) / std::fabs(qa.median) : 0;
        const double worse = m.higher_is_better ? -change : change;
        std::string verdict;
        if (m.kind == Kind::kExact) {
          bool same = true;
          for (double v : va) same = same && v == va.front();
          for (double v : vb) same = same && v == va.front();
          verdict = same ? "same" : "DIFFERS";
        } else if (const auto bound = bounds.find(m.name);
                   bound != bounds.end()) {
          verdict = worse > bound->second    ? "REGRESSED"
                    : -worse > bound->second ? "improved"
                                             : "within";
        } else {
          verdict = "info";
        }
        std::printf(
            "  %-30s A %.6g [%.6g, %.6g] n=%zu | B %.6g [%.6g, %.6g] n=%zu |"
            " %+.2f%% %s\n",
            m.name, qa.median, qa.q1, qa.q3, va.size(), qb.median, qb.q1,
            qb.q3, vb.size(), 100.0 * change, verdict.c_str());
        if (verdict == "DIFFERS" || verdict == "REGRESSED") ++failures;
      }
    }
  }
  std::printf("%s: %d failure%s\n", failures == 0 ? "PASS" : "FAIL", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}

}  // namespace fba::bench
