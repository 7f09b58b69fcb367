#include "exp/grid.h"

#include <cstdio>

#include "exp/scenario.h"

namespace fba::exp {

namespace {

template <typename T>
std::vector<T> axis_or(const std::vector<T>& axis, const T& fallback) {
  if (axis.empty()) return {fallback};
  return axis;
}

}  // namespace

std::size_t Grid::points() const {
  auto dim = [](std::size_t v) { return v == 0 ? std::size_t{1} : v; };
  return dim(ns.size()) * dim(models.size()) * dim(corrupt_fractions.size()) *
         dim(strategies.size()) * dim(faults.size()) * dim(budgets.size()) *
         dim(adaptive_froms.size()) * dim(recoveries.size());
}

aer::AerConfig GridPoint::apply(aer::AerConfig base) const {
  base.n = n;
  base.model = model;
  base.corrupt_fraction = corrupt_fraction;
  if (!fault.empty()) base.fault_plan = fault_plan_factory(fault);
  if (!recovery.empty()) base.recovery_plan = recovery_plan_factory(recovery);
  if (budget >= 0) base.adaptive_budget = static_cast<std::size_t>(budget);
  if (adaptive_from >= 0) base.adaptive_from = adaptive_from;
  return base;
}

std::string GridPoint::label() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "n=%zu model=%s corrupt=%.2f attack=%s", n,
                aer::model_name(model), corrupt_fraction, strategy.c_str());
  std::string out = buf;
  if (!fault.empty()) {
    out += " fault=";
    out += fault;
  }
  if (!recovery.empty()) {
    out += " recovery=";
    out += recovery;
  }
  if (budget >= 0) {
    std::snprintf(buf, sizeof(buf), " budget=%ld", budget);
    out += buf;
  }
  if (adaptive_from >= 0) {
    std::snprintf(buf, sizeof(buf), " from=%g", adaptive_from);
    out += buf;
  }
  return out;
}

std::vector<GridPoint> expand_grid(const aer::AerConfig& base,
                                   const Grid& grid) {
  const auto ns = axis_or(grid.ns, base.n);
  const auto models = axis_or(grid.models, base.model);
  const auto fractions = axis_or(grid.corrupt_fractions, base.corrupt_fraction);
  const auto strategies = axis_or<std::string>(grid.strategies, "none");
  // Empty fault string = "keep the base config's fault plan", so an
  // unset axis leaves non-sweep callers untouched. Same sentinel idea for
  // the adaptive axes: -1 = "keep the base config's value" (and keep the
  // label unchanged), so every pre-adaptive sweep expands exactly as
  // before — same points, same indexes, same per-trial seeds.
  const auto faults = axis_or<std::string>(grid.faults, "");
  const auto recoveries = axis_or<std::string>(grid.recoveries, "");
  std::vector<long> budget_axis;
  budget_axis.reserve(grid.budgets.size());
  for (std::size_t b : grid.budgets) budget_axis.push_back(static_cast<long>(b));
  const auto budgets = axis_or<long>(budget_axis, -1);
  const auto froms = axis_or<double>(grid.adaptive_froms, -1);

  std::vector<GridPoint> points;
  points.reserve(ns.size() * models.size() * fractions.size() *
                 strategies.size() * faults.size() * budgets.size() *
                 froms.size() * recoveries.size());
  for (const std::string& recovery : recoveries) {
    for (double from : froms) {
      for (long budget : budgets) {
        for (const std::string& fault : faults) {
          for (const std::string& strategy : strategies) {
            for (double fraction : fractions) {
              for (aer::Model model : models) {
                for (std::size_t n : ns) {
                  GridPoint p;
                  p.index = points.size();
                  p.n = n;
                  p.model = model;
                  p.corrupt_fraction = fraction;
                  p.strategy = strategy;
                  p.fault = fault;
                  p.recovery = recovery;
                  p.budget = budget;
                  p.adaptive_from = from;
                  points.push_back(std::move(p));
                }
              }
            }
          }
        }
      }
    }
  }
  return points;
}

}  // namespace fba::exp
