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
#include "exp/stats.h"

namespace fba::ba {
struct BaReport;
}

namespace fba::exp {

/// Everything the aggregator needs from one finished trial.
struct TrialOutcome {
  std::uint64_t seed = 0;  ///< the derived per-trial seed actually used.

  // Outcome.
  std::size_t correct = 0;
  std::size_t decided = 0;
  std::size_t wrong_decisions = 0;  ///< correct nodes deciding != gstring.
  std::size_t knowledgeable = 0;
  bool agreement = false;
  bool engine_completed = false;

  // Time (rounds in sync models, normalized time in async).
  double completion_time = 0;
  double mean_decision_time = 0;
  double engine_time = 0;

  // Traffic.
  double total_messages = 0;
  double amortized_bits = 0;  ///< total bits / n, the paper's measure.
  double max_sent_bits = 0;
  double mean_sent_bits = 0;
  double imbalance = 0;  ///< max / mean per-node sent bits.
  /// Per-kind traffic axes (whole-run totals, indexed by sim::kind_index()).
  std::array<double, sim::kNumMessageKinds> bits_by_kind{};
  std::array<double, sim::kNumMessageKinds> msgs_by_kind{};
  /// Fault-layer activity (net/fault.h; all zero on reliable channels).
  double fault_dropped_msgs = 0;
  double fault_dropped_bits = 0;
  double fault_delayed_msgs = 0;
  std::array<double, sim::kNumFaultCauses> drops_by_cause{};
  /// Recovery-sublayer activity (net/recovery.h; all zero with it off).
  double recovery_retransmit_msgs = 0;
  double recovery_retransmit_bits = 0;
  double recovery_acked_msgs = 0;
  double recovery_dead_msgs = 0;
  double recovery_dup_msgs = 0;

  // Composed-BA phase split (zero for single-phase runs).
  double ae_rounds = 0;
  double reduction_time = 0;
  double ae_bits = 0;
  double reduction_bits = 0;

  // Push phase / responder pressure (AER-specific; zero elsewhere).
  double push_bits_per_node = 0;
  double push_msgs_per_node = 0;
  double candidate_lists_per_node = 0;
  std::size_t max_candidate_list = 0;
  std::size_t missing_gstring = 0;
  std::size_t max_deferred = 0;

  /// Deterministic per-node memory account (AerReport::mem_bytes_per_node;
  /// the SoA scale runner fills it, every other runner leaves 0).
  double mem_bytes_per_node = 0;

  // Adaptive-adversary corruption timeline (all zero under the paper's
  // non-adaptive model).
  double runtime_corruptions = 0;
  double first_corruption_time = 0;
  double last_corruption_time = 0;

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

/// Cross-trial reduction of one grid point.
struct Aggregate {
  std::size_t trials = 0;
  std::size_t agreements = 0;
  std::size_t engine_incomplete = 0;  ///< runs stopped by max_time/rounds.
  std::uint64_t wrong_decisions = 0;  ///< summed safety violations.
  std::uint64_t stalled_nodes = 0;    ///< summed undecided correct nodes.
  std::uint64_t correct_nodes = 0;    ///< summed correct-node population.

  SummaryStats completion_time;
  SummaryStats mean_decision_time;
  SummaryStats engine_time;
  SummaryStats total_messages;
  SummaryStats amortized_bits;
  SummaryStats max_sent_bits;
  SummaryStats mean_sent_bits;
  SummaryStats imbalance;
  /// Pooled per-node decision times across all trials that recorded them.
  SummaryStats decision_time;
  /// Per-kind traffic distributions across trials (mean/CI95 per kind).
  std::array<SummaryStats, sim::kNumMessageKinds> bits_by_kind{};
  std::array<double, sim::kNumMessageKinds> msgs_by_kind{};  ///< means.

  /// Fault-layer activity across trials.
  SummaryStats fault_dropped_msgs;
  SummaryStats fault_dropped_bits;
  double fault_delayed_msgs = 0;  ///< mean per trial.
  std::array<double, sim::kNumFaultCauses> drops_by_cause{};  ///< means.

  // Composed-BA phase-split means across trials.
  double ae_rounds = 0;
  double reduction_time = 0;
  double ae_bits = 0;
  double reduction_bits = 0;

  // Push/responder means across trials.
  double push_bits_per_node = 0;
  double push_msgs_per_node = 0;
  double candidate_lists_per_node = 0;
  std::size_t max_candidate_list = 0;
  std::uint64_t missing_gstring = 0;
  std::size_t max_deferred = 0;

  /// Memory distribution across trials (bytes/node; all-zero on runners
  /// that do not account memory). Deliberately OUTSIDE fingerprint(): the
  /// pinned golden fingerprints predate the memory metric, and pointer-path
  /// and SoA-path runs of the same point must keep matching fingerprints
  /// while only one of them fills this field. Report::diff compares it
  /// explicitly instead (exp/report.cpp kDiffMetrics).
  SummaryStats mem_bytes_per_node;

  /// Adaptive-adversary corruption timeline across trials. Same placement
  /// rule as mem_bytes_per_node: deliberately OUTSIDE fingerprint(), so the
  /// pinned goldens (all recorded with budget 0) stay valid and a budget-0
  /// adaptive run fingerprints identically to its static twin.
  std::uint64_t runtime_corruptions = 0;  ///< summed over trials.
  double first_corruption_time = 0;  ///< mean over trials that corrupted.
  double last_corruption_time = 0;   ///< mean over trials that corrupted.

  /// Recovery-sublayer activity across trials. Same placement rule as
  /// mem_bytes_per_node: deliberately OUTSIDE fingerprint(), so the pinned
  /// goldens (all recorded pre-recovery) stay valid and a recovery-off run
  /// fingerprints identically to a build without the layer. Report::diff
  /// compares retransmit bits explicitly (exp/report.cpp kDiffMetrics).
  SummaryStats recovery_retransmit_msgs;
  SummaryStats recovery_retransmit_bits;
  double recovery_acked_msgs = 0;  ///< mean per trial.
  double recovery_dead_msgs = 0;   ///< mean per trial.
  double recovery_dup_msgs = 0;    ///< mean per trial.

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

  /// Order-sensitive hash of the protocol and traffic fields: the outcome
  /// counters, the time / traffic / imbalance distributions, the push and
  /// candidate-list figures, the composed-BA phase split, per-kind traffic
  /// and the fault-layer counters (used by the determinism tests and CI).
  /// Left out: mem_bytes_per_node, the corruption timeline, the recovery_*
  /// fields (see their declarations) and every distribution's p999
  /// (exp/stats.h). Message kinds after kPing enter the hash only when they
  /// carried traffic (aggregate.cpp).
  std::uint64_t fingerprint() const;
};

/// Folds outcomes in index order. Deterministic: no RNG, no dependence on
/// the thread interleaving that produced the vector.
Aggregate aggregate_outcomes(const std::vector<TrialOutcome>& outcomes);

}  // namespace fba::exp
