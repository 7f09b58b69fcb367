#include "exp/aggregate.h"

#include <algorithm>
#include <cstring>

#include "ba/ba.h"
#include "support/siphash.h"

namespace fba::exp {

TrialOutcome outcome_of(const aer::AerReport& r) {
  TrialOutcome o;
#define FBA_COPY_FROM_REPORT(name, type, from_report, ...) \
  o.name = static_cast<type>(from_report);
  FBA_TRIAL_METRICS(FBA_COPY_FROM_REPORT, FBA_COPY_FROM_REPORT,
                    FBA_METRIC_SKIP, FBA_METRIC_SKIP)
#undef FBA_COPY_FROM_REPORT
  for (std::size_t k = 0; k < sim::kNumMessageKinds; ++k) {
    o.bits_by_kind[k] = static_cast<double>(r.bits_by_kind[k]);
    o.msgs_by_kind[k] = static_cast<double>(r.msgs_by_kind[k]);
  }
  for (std::size_t c = 0; c < sim::kNumFaultCauses; ++c) {
    o.drops_by_cause[c] = static_cast<double>(r.fault_drops_by_cause[c]);
  }
  return o;
}

TrialOutcome outcome_of(const aer::AerReport& report,
                        const aer::AerWorld& world) {
  TrialOutcome o;
  outcome_into(report, world, o);
  return o;
}

void outcome_into(const aer::AerReport& report, const aer::AerWorld& world,
                  TrialOutcome& out) {
  std::vector<double> times = std::move(out.decision_times);
  out = outcome_of(report);
  times.clear();
  times.reserve(world.correct.size());
  for (NodeId id : world.correct) {
    if (world.decisions.has_decided(id)) {
      times.push_back(world.decisions.time(id));
    }
  }
  out.decision_times = std::move(times);
}

TrialOutcome outcome_of(const ba::BaReport& r) {
  TrialOutcome o = outcome_of(r.reduction);
  // Whole-composition totals override the reduction-phase view.
  o.agreement = r.agreement;
  o.completion_time = r.total_time;
  o.total_messages = static_cast<double>(r.total_messages);
  o.amortized_bits = r.amortized_bits;
  o.ae_rounds = static_cast<double>(r.ae.rounds);
  o.reduction_time = r.reduction.completion_time;
  o.ae_bits = r.ae.amortized_bits;
  o.reduction_bits = r.reduction.amortized_bits;
  return o;
}

namespace {

/// Folds one metric's per-trial values, in outcome order, into `out`.
template <Reduce R, class Out, class PerTrial>
void fold(Out& out, const std::vector<TrialOutcome>& outcomes,
          PerTrial per_trial) {
  if constexpr (R == Reduce::kSum) {
    for (const TrialOutcome& o : outcomes) {
      out += static_cast<std::uint64_t>(per_trial(o));
    }
  } else if constexpr (R == Reduce::kMax) {
    for (const TrialOutcome& o : outcomes) {
      out = std::max(out, static_cast<std::uint64_t>(per_trial(o)));
    }
  } else if constexpr (R == Reduce::kMean || R == Reduce::kMeanIfCorrupted) {
    double sum = 0;
    std::size_t counted = 0;
    for (const TrialOutcome& o : outcomes) {
      if (R == Reduce::kMean || o.runtime_corruptions > 0) {
        ++counted;
        sum += per_trial(o);
      }
    }
    if (counted > 0) out = sum / static_cast<double>(counted);
  } else if constexpr (R == Reduce::kStats) {
    std::vector<double> values;
    values.reserve(outcomes.size());
    for (const TrialOutcome& o : outcomes) values.push_back(per_trial(o));
    out = summarize_sample(std::move(values));
  } else {
    static_assert(R == Reduce::kPooled);
    std::vector<double> pooled;
    for (const TrialOutcome& o : outcomes) {
      const std::vector<double>& samples = per_trial(o);
      pooled.insert(pooled.end(), samples.begin(), samples.end());
    }
    out = summarize_sample(std::move(pooled));
  }
}

void hash_doubles(std::uint64_t& h, std::initializer_list<double> values) {
  for (double v : values) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    h = siphash_words(SipKey{h, 0x41676772u}, {bits});
  }
}

void hash_stats(std::uint64_t& h, const SummaryStats& s) {
  h = siphash_words(SipKey{h, 0x53746174u}, {s.count});
  hash_doubles(h, {s.mean, s.stddev, s.min, s.max, s.p50, s.p90, s.p99,
                   s.ci95});
}

}  // namespace

std::uint64_t Aggregate::fingerprint() const {
  // The golden corpora and every committed baseline pin this hash, in this
  // order: the counts in one block, then the time and traffic stats, then
  // the push and phase-split means, the per-kind traffic, and the fault
  // counters. The metric table follows the report's columns, which order
  // these fields differently, so the list is spelled out here; report_test
  // checks that it hashes exactly the rows whose fp column says true.
  std::uint64_t h = 0x666261206578700aull;
  h = siphash_words(SipKey{h, 1},
                    {trials, agreements, engine_incomplete, wrong_decisions,
                     stalled_nodes, correct_nodes, max_candidate_list,
                     missing_gstring, max_deferred});
  for (const SummaryStats* s :
       {&completion_time, &mean_decision_time, &engine_time, &total_messages,
        &amortized_bits, &max_sent_bits, &mean_sent_bits, &imbalance,
        &decision_time}) {
    hash_stats(h, *s);
  }
  hash_doubles(h, {push_bits_per_node, push_msgs_per_node,
                   candidate_lists_per_node, ae_rounds, reduction_time,
                   ae_bits, reduction_bits});
  // The first 19 kinds (everything up to kPing) are hashed unconditionally —
  // the pinned golden fingerprints were recorded over exactly those. Kinds
  // appended later (kAck and any successors) enter the hash only when they
  // carried traffic, so a run that never sends them — every recovery-off
  // run — fingerprints identically to a build without the kind. The skip
  // decision depends only on round-tripped values (msgs_by_kind), so a
  // JSON-reloaded Aggregate hashes the same.
  constexpr std::size_t kLegacyKinds =
      sim::kind_index(sim::MessageKind::kAck);
  for (std::size_t k = 0; k < sim::kNumMessageKinds; ++k) {
    if (k >= kLegacyKinds && msgs_by_kind[k] == 0) continue;
    hash_stats(h, bits_by_kind[k]);
    hash_doubles(h, {msgs_by_kind[k]});
  }
  hash_stats(h, fault_dropped_msgs);
  hash_stats(h, fault_dropped_bits);
  hash_doubles(h, {fault_delayed_msgs});
  for (std::size_t c = 0; c < sim::kNumFaultCauses; ++c) {
    hash_doubles(h, {drops_by_cause[c]});
  }
  return h;
}

Aggregate aggregate_outcomes(const std::vector<TrialOutcome>& outcomes) {
  Aggregate agg;
  // `per_trial` is parenthesized so a member reads as a reference, not a
  // copy (the pooled decision times).
#define FBA_FOLD_TALLY(name, per_trial, reduce, ...)        \
  fold<Reduce::reduce>(                                     \
      agg.name, outcomes,                                   \
      []([[maybe_unused]] const TrialOutcome& o)            \
          -> decltype(auto) { return (per_trial); });
#define FBA_FOLD_METRIC(name, type, from_report, reduce, ...) \
  FBA_FOLD_TALLY(name, o.name, reduce)
  FBA_TRIAL_METRICS(FBA_METRIC_SKIP, FBA_FOLD_METRIC, FBA_FOLD_TALLY,
                    FBA_METRIC_SKIP)
#undef FBA_FOLD_METRIC
#undef FBA_FOLD_TALLY

  if (outcomes.empty()) return agg;
  const auto count = static_cast<double>(outcomes.size());
  std::vector<double> kind_values(outcomes.size());
  for (std::size_t k = 0; k < sim::kNumMessageKinds; ++k) {
    double msg_sum = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      kind_values[i] = outcomes[i].bits_by_kind[k];
      msg_sum += outcomes[i].msgs_by_kind[k];
    }
    agg.bits_by_kind[k] = summarize_sample(kind_values);
    agg.msgs_by_kind[k] = msg_sum / count;
  }
  for (std::size_t c = 0; c < sim::kNumFaultCauses; ++c) {
    double sum = 0;
    for (const TrialOutcome& o : outcomes) sum += o.drops_by_cause[c];
    agg.drops_by_cause[c] = sum / count;
  }
  return agg;
}

}  // namespace fba::exp
