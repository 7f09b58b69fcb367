// The metric table: every per-trial metric the harness records, declared
// once. A metric travels from a run's aer::AerReport to a TrialOutcome
// (outcome_of), an Aggregate (aggregate_outcomes), the report's JSON and
// CSV, metric_value, Report::diff and the shard codec. Each of those is a
// loop over FBA_TRIAL_METRICS, and the rows also declare the TrialOutcome
// and Aggregate members (exp/aggregate.h). Only shape stays outside the
// table: the trial seed, the per-kind and per-cause traffic arrays and the
// per-node decision times.
//
// FBA_TRIAL_METRICS(FIELD, METRIC, TALLY, DERIVED) calls one row macro per
// row, in report column order:
//   FIELD(name, type, from_report): a TrialOutcome member only; TALLY rows
//     reduce it. `from_report` computes it from the aer::AerReport `r`.
//   METRIC(name, type, from_report, reduce, group, better, fp): a
//     TrialOutcome member and the Aggregate member of the same name.
//   TALLY(name, per_trial, reduce, group, better, fp): an Aggregate member
//     folded from `per_trial`, an expression over the TrialOutcome `o`.
//   DERIVED(name, value, group, better, fp): computed from the Aggregate
//     `a` when read; stored nowhere.
// `reduce` also fixes the Aggregate member's type. `group` names the
// point's JSON object (the CSV writes counts and derived, the fingerprint,
// stats, then scalars); kNone keeps a metric out of the files. `better` is
// the direction Report::diff judges by. `fp` says whether
// Aggregate::fingerprint() hashes the metric: the pinned goldens predate
// the memory account, the corruption timeline and the recovery counters.
// exp::outcome_fingerprint hashes every TrialOutcome field.
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "exp/stats.h"

namespace fba::exp {

enum class Reduce {
  kSum,              ///< summed over trials (an integer count).
  kMax,              ///< the largest per-trial value.
  kMean,             ///< mean per trial.
  kMeanIfCorrupted,  ///< mean over the trials that corrupted at run time.
  kStats,            ///< SummaryStats over the per-trial values.
  kPooled,           ///< SummaryStats over every trial's samples pooled.
};

enum class ReportGroup { kCounts, kDerived, kStats, kScalars, kNone };

enum class Better { kLower, kHigher, kNeither };

/// The Aggregate member type a reduction produces.
template <Reduce R>
using AggregateType = std::conditional_t<
    R == Reduce::kSum || R == Reduce::kMax, std::uint64_t,
    std::conditional_t<R == Reduce::kStats || R == Reduce::kPooled,
                       SummaryStats, double>>;

/// num / den, or 0 when den is 0.
inline double metric_ratio(double num, double den) {
  return den > 0 ? num / den : 0;
}

// clang-format off
#define FBA_TRIAL_METRICS(FIELD, METRIC, TALLY, DERIVED)                       \
  /* Outcome: counts over the trial's correct nodes. */                        \
  FIELD(correct, std::size_t, r.correct_count)                                 \
  FIELD(decided, std::size_t, r.decided_count)                                 \
  FIELD(knowledgeable, std::size_t, r.knowledgeable_count)                     \
  FIELD(agreement, bool, r.agreement)                                          \
  FIELD(engine_completed, bool, r.engine_completed)                            \
  TALLY(trials, 1, kSum, kCounts, kNeither, true)                              \
  TALLY(agreements, o.agreement, kSum, kCounts, kHigher, true)                 \
  DERIVED(agreement_rate, a.agreement_rate(), kDerived, kHigher, true)         \
  DERIVED(decided_fraction, a.decided_fraction(), kDerived, kHigher, true)     \
  /* Runs stopped by max_time / max_rounds. */                                 \
  TALLY(engine_incomplete, !o.engine_completed, kSum, kCounts, kLower, true)   \
  /* Correct nodes deciding a value other than gstring. */                     \
  METRIC(wrong_decisions, std::size_t, r.decided_count - r.decided_gstring,    \
         kSum, kCounts, kLower, true)                                          \
  DERIVED(wrong_decisions_per_trial,                                           \
          metric_ratio(a.wrong_decisions, a.trials),                           \
          kNone, kLower, true)                                                 \
  TALLY(stalled_nodes, o.correct - o.decided, kSum, kCounts, kLower, true)     \
  TALLY(correct_nodes, o.correct, kSum, kCounts, kNeither, true)               \
  /* Push phase and responder pressure (AER only; zero elsewhere). */          \
  METRIC(max_candidate_list, std::size_t, r.max_candidate_list,                \
         kMax, kCounts, kLower, true)                                          \
  METRIC(missing_gstring, std::size_t, r.nodes_missing_gstring,                \
         kSum, kCounts, kLower, true)                                          \
  METRIC(max_deferred, std::size_t, r.max_deferred_answers,                    \
         kMax, kCounts, kLower, true)                                          \
  /* Time: rounds in the sync models, normalized time in async. */             \
  METRIC(completion_time, double, r.completion_time,                           \
         kStats, kStats, kLower, true)                                         \
  METRIC(mean_decision_time, double, r.mean_decision_time,                     \
         kStats, kStats, kLower, true)                                         \
  METRIC(engine_time, double, r.engine_time, kStats, kStats, kLower, true)     \
  /* Traffic; amortized_bits (total bits / n) is the paper's measure. */       \
  METRIC(total_messages, double, r.total_messages,                             \
         kStats, kStats, kLower, true)                                         \
  METRIC(amortized_bits, double, r.amortized_bits,                             \
         kStats, kStats, kLower, true)                                         \
  METRIC(max_sent_bits, double, r.sent_bits.max,                               \
         kStats, kStats, kLower, true)                                         \
  METRIC(mean_sent_bits, double, r.sent_bits.mean,                             \
         kStats, kStats, kLower, true)                                         \
  /* Max over mean per-node sent bits. */                                      \
  METRIC(imbalance, double, r.sent_bits.imbalance(),                           \
         kStats, kStats, kLower, true)                                         \
  /* Per-node decision times pooled across trials. */                          \
  TALLY(decision_time, o.decision_times, kPooled, kStats, kLower, true)        \
  /* Fault layer (net/fault.h; zero on reliable channels). */                  \
  METRIC(fault_dropped_msgs, double, r.fault_dropped_msgs,                     \
         kStats, kStats, kNeither, true)                                       \
  METRIC(fault_dropped_bits, double, r.fault_dropped_bits,                     \
         kStats, kStats, kNeither, true)                                       \
  /* Deterministic bytes/node account; only the SoA runner fills it. */        \
  METRIC(mem_bytes_per_node, double, r.mem_bytes_per_node,                     \
         kStats, kStats, kLower, false)                                        \
  /* Recovery sublayer (net/recovery.h; zero with it off). */                  \
  METRIC(recovery_retransmit_msgs, double, r.recovery_retransmit_msgs,         \
         kStats, kStats, kLower, false)                                        \
  METRIC(recovery_retransmit_bits, double, r.recovery_retransmit_bits,         \
         kStats, kStats, kLower, false)                                        \
  /* Composed-BA phase split (ba::BaReport fills it; zero elsewhere). */       \
  METRIC(ae_rounds, double, 0, kMean, kScalars, kLower, true)                  \
  METRIC(reduction_time, double, 0, kMean, kScalars, kLower, true)             \
  METRIC(ae_bits, double, 0, kMean, kScalars, kLower, true)                    \
  METRIC(reduction_bits, double, 0, kMean, kScalars, kLower, true)             \
  METRIC(push_bits_per_node, double, r.push_bits_per_node,                     \
         kMean, kScalars, kLower, true)                                        \
  METRIC(push_msgs_per_node, double,                                           \
         metric_ratio(r.msgs_of(sim::MessageKind::kPush), r.n),                \
         kMean, kScalars, kLower, true)                                        \
  METRIC(candidate_lists_per_node, double,                                     \
         metric_ratio(r.sum_candidate_lists, r.correct_count),                 \
         kMean, kScalars, kLower, true)                                        \
  METRIC(fault_delayed_msgs, double, r.fault_delayed_msgs,                     \
         kMean, kScalars, kNeither, true)                                      \
  /* Adaptive-adversary corruption timeline (zero under the paper's */         \
  /* non-adaptive model). */                                                   \
  METRIC(runtime_corruptions, double, r.runtime_corruptions,                   \
         kSum, kScalars, kNeither, false)                                      \
  DERIVED(runtime_corruptions_per_trial,                                       \
          metric_ratio(a.runtime_corruptions, a.trials),                       \
          kNone, kNeither, false)                                              \
  METRIC(first_corruption_time, double, r.first_corruption_time,               \
         kMeanIfCorrupted, kScalars, kNeither, false)                          \
  METRIC(last_corruption_time, double, r.last_corruption_time,                 \
         kMeanIfCorrupted, kScalars, kNeither, false)                          \
  METRIC(recovery_acked_msgs, double, r.recovery_acked_msgs,                   \
         kMean, kScalars, kNeither, false)                                     \
  METRIC(recovery_dead_msgs, double, r.recovery_dead_msgs,                     \
         kMean, kScalars, kLower, false)                                       \
  METRIC(recovery_dup_msgs, double, r.recovery_dup_msgs,                       \
         kMean, kScalars, kLower, false)
// clang-format on

/// A row macro that expands to nothing, for the shapes a loop skips.
#define FBA_METRIC_SKIP(...)

/// What the table says about one Aggregate metric.
struct MetricInfo {
  std::string_view name;
  ReportGroup group;
  Better better;
  bool fingerprinted;
};

/// Calls f(name, member) for every TrialOutcome member the table declares
/// (FIELD and METRIC rows), in table order.
template <class Outcome, class F>
void for_each_outcome_metric(Outcome& o, F&& f) {
#define FBA_VISIT_FIELD(name, ...) f(std::string_view(#name), o.name);
  FBA_TRIAL_METRICS(FBA_VISIT_FIELD, FBA_VISIT_FIELD, FBA_METRIC_SKIP,
                    FBA_METRIC_SKIP)
#undef FBA_VISIT_FIELD
}

/// Calls f(info, value) for every metric an Aggregate reports (METRIC, TALLY
/// and DERIVED rows), in table order. `value` is the member itself, or a
/// computed double for a DERIVED row.
template <class Agg, class F>
void for_each_aggregate_metric(Agg& a, F&& f) {
#define FBA_VISIT_METRIC(name, type, from_report, reduce, group, better, fp) \
  f(MetricInfo{#name, ReportGroup::group, Better::better, fp}, a.name);
#define FBA_VISIT_TALLY(name, per_trial, reduce, group, better, fp) \
  f(MetricInfo{#name, ReportGroup::group, Better::better, fp}, a.name);
#define FBA_VISIT_DERIVED(name, value, group, better, fp)      \
  f(MetricInfo{#name, ReportGroup::group, Better::better, fp}, \
    static_cast<double>(value));
  FBA_TRIAL_METRICS(FBA_METRIC_SKIP, FBA_VISIT_METRIC, FBA_VISIT_TALLY,
                    FBA_VISIT_DERIVED)
#undef FBA_VISIT_METRIC
#undef FBA_VISIT_TALLY
#undef FBA_VISIT_DERIVED
}

}  // namespace fba::exp
