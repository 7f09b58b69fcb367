// Per-trial outcomes and their cross-trial reduction.
//
// A TrialOutcome is the flat, report-shaped record one protocol run leaves
// behind; Aggregate reduces a fixed-order sequence of them into the
// distributional summaries benches print (mean/p50/p99 decision time,
// traffic distributions, safety-violation counts, 95% CIs). The reduction
// is a pure fold over the outcome vector in index order, so a sweep that
// produces the same outcomes produces a bit-identical Aggregate no matter
// how many threads ran the trials.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "aer/protocol.h"
#include "exp/metrics.h"
#include "exp/stats.h"

namespace fba::ba {
struct BaReport;
}

namespace fba::exp {

/// Everything the aggregator needs from one finished trial: one member per
/// FIELD and METRIC row of the metric table (exp/metrics.h), plus the trial
/// seed, the per-kind and per-cause traffic arrays and the per-node decision
/// times.
struct TrialOutcome {
  std::uint64_t seed = 0;  ///< the derived per-trial seed actually used.

#define FBA_OUTCOME_MEMBER(name, type, ...) type name{};
  FBA_TRIAL_METRICS(FBA_OUTCOME_MEMBER, FBA_OUTCOME_MEMBER, FBA_METRIC_SKIP,
                    FBA_METRIC_SKIP)
#undef FBA_OUTCOME_MEMBER

  /// Per-kind traffic axes (whole-run totals, indexed by sim::kind_index()).
  std::array<double, sim::kNumMessageKinds> bits_by_kind{};
  std::array<double, sim::kNumMessageKinds> msgs_by_kind{};
  /// Fault-layer drops per cause (net/fault.h; all zero on reliable
  /// channels).
  std::array<double, sim::kNumFaultCauses> drops_by_cause{};

  /// Per-node decision times, when the trial runner harvested them (the
  /// world-aware outcome_of/outcome_into do); pooled across trials for
  /// latency quantiles.
  std::vector<double> decision_times;
};

/// Flattens an AerReport; the world-aware overload additionally harvests
/// per-node decision times from the world's decision log.
TrialOutcome outcome_of(const aer::AerReport& report);
TrialOutcome outcome_of(const aer::AerReport& report,
                        const aer::AerWorld& world);
/// In-place variant of the world-aware overload: identical result, but
/// `out`'s decision-times capacity is reused (the trial-arena path).
void outcome_into(const aer::AerReport& report, const aer::AerWorld& world,
                  TrialOutcome& out);
/// Flattens a composed-BA run: time/traffic totals cover both phases,
/// AER-specific fields come from the reduction phase.
TrialOutcome outcome_of(const ba::BaReport& report);

/// Cross-trial reduction of one grid point: one member per METRIC and
/// TALLY row of the metric table (exp/metrics.h), typed by its reduction,
/// plus the per-kind and per-cause traffic arrays.
struct Aggregate {
#define FBA_AGGREGATE_METRIC(name, type, from_report, reduce, ...) \
  AggregateType<Reduce::reduce> name{};
#define FBA_AGGREGATE_TALLY(name, per_trial, reduce, ...) \
  AggregateType<Reduce::reduce> name{};
  FBA_TRIAL_METRICS(FBA_METRIC_SKIP, FBA_AGGREGATE_METRIC, FBA_AGGREGATE_TALLY,
                    FBA_METRIC_SKIP)
#undef FBA_AGGREGATE_METRIC
#undef FBA_AGGREGATE_TALLY

  /// Per-kind traffic distributions across trials (mean/CI95 per kind).
  std::array<SummaryStats, sim::kNumMessageKinds> bits_by_kind{};
  std::array<double, sim::kNumMessageKinds> msgs_by_kind{};  ///< means.
  std::array<double, sim::kNumFaultCauses> drops_by_cause{};  ///< means.

  double agreement_rate() const {
    return trials > 0 ? static_cast<double>(agreements) /
                            static_cast<double>(trials)
                      : 0;
  }
  double decided_fraction() const {
    return correct_nodes > 0
               ? 1.0 - static_cast<double>(stalled_nodes) /
                           static_cast<double>(correct_nodes)
               : 0;
  }

  /// Order-sensitive hash of the metrics whose table row says fp, the
  /// per-kind traffic and the per-cause drops (used by the determinism
  /// tests and CI). Every distribution's p999 stays out (exp/stats.h), and
  /// message kinds after kPing enter the hash only when they carried
  /// traffic (aggregate.cpp).
  std::uint64_t fingerprint() const;
};

/// Folds outcomes in index order. Deterministic: no RNG, no dependence on
/// the thread interleaving that produced the vector.
Aggregate aggregate_outcomes(const std::vector<TrialOutcome>& outcomes);

}  // namespace fba::exp
