// Parameter grids for experiment sweeps.
//
// A Grid names the axes a sweep varies — network size, timing model,
// corrupt fraction, adversary strategy — and expands against a base
// AerConfig into the cross product of grid points. An empty axis means
// "keep the base config's value", so a Grid{.ns = {128, 256}} is a plain
// size sweep and Grid{} is a single point (pure trial replication).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "aer/config.h"

namespace fba::exp {

struct Grid {
  std::vector<std::size_t> ns;
  std::vector<aer::Model> models;
  std::vector<double> corrupt_fractions;
  /// Adversary strategy names resolved via exp::attack_factory (scenario.h);
  /// "none" is the honest run.
  std::vector<std::string> strategies;
  /// Fault-preset names resolved via exp::fault_plan_factory (scenario.h);
  /// "none" is the paper's reliable-channel model. An empty axis keeps the
  /// base config's fault plan.
  std::vector<std::string> faults;

  /// Recovery-preset names resolved via exp::recovery_plan_factory
  /// (scenario.h); "off" disables the layer. An empty axis keeps the base
  /// config's recovery plan — pre-recovery sweeps expand to identical
  /// points and labels.
  std::vector<std::string> recoveries;

  /// Runtime corruption budgets for adaptive-* strategies
  /// (AerConfig::adaptive_budget). An empty axis keeps the base config's
  /// budget — every non-adaptive sweep expands exactly as before.
  std::vector<std::size_t> budgets;
  /// Earliest spend times (AerConfig::adaptive_from). Same empty-axis rule.
  std::vector<double> adaptive_froms;

  /// Number of grid points after expansion (>= 1; empty axes count as 1).
  std::size_t points() const;
};

/// One cell of the cross product. `index` is the point's position in the
/// expansion order (strategy-major … n-minor, see expand_grid), which also
/// keys the deterministic per-trial seed derivation.
struct GridPoint {
  std::size_t index = 0;
  std::size_t n = 0;
  aer::Model model = aer::Model::kSyncRushing;
  double corrupt_fraction = 0;
  std::string strategy = "none";
  /// Fault-preset name, resolved by apply() (exp::fault_plan_factory).
  /// Empty means "keep the base config's fault plan".
  std::string fault;
  /// Recovery-preset name, resolved by apply()
  /// (exp::recovery_plan_factory). Empty means "keep the base config's
  /// recovery plan" (and keeps the label unchanged).
  std::string recovery;
  /// Runtime corruption budget (adaptive-* strategies). -1 means "keep the
  /// base config's adaptive_budget" — and keeps the label unchanged, so
  /// non-adaptive baselines diff cleanly against old files.
  long budget = -1;
  /// Earliest adaptive spend time; -1 keeps the base config's value.
  double adaptive_from = -1;

  /// The base config with this point's axes applied, the fault and
  /// recovery preset names resolved into plans. Every trial runner takes
  /// its config from here. The seed is left untouched: the sweep assigns
  /// per-trial seeds itself.
  aer::AerConfig apply(aer::AerConfig base) const;

  /// "n=256 model=async corrupt=0.08 attack=poll-stuff fault=lossy-1pct
  /// recovery=arq-fast budget=4" — for table rows. The fault / recovery /
  /// budget / from fields appear only when their axis is set.
  std::string label() const;
};

/// Cross-product expansion, axes fixed in the order
/// recovery > adaptive_from > budget > fault > strategy > corrupt_fraction
/// > model > n (n varies fastest). Missing axes are filled from `base`.
std::vector<GridPoint> expand_grid(const aer::AerConfig& base,
                                   const Grid& grid);

}  // namespace fba::exp
