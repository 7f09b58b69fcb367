// The benchmark's metric vocabulary: every name fba_bench can print, with its
// unit, direction and kind. BENCHMARK.json at the repository root declares
// the same names (plus the end-to-end regression bounds); check.py fails when
// the two lists drift apart.
#pragma once

#include <cstddef>
#include <string_view>

namespace fba::bench {

enum class Kind {
  /// Wall-clock or OS-measured: varies run to run; compared against a bound.
  kMeasured,
  /// A pure function of (workload, seed): must repeat exactly.
  kExact,
};

struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
  Kind kind;
};

inline constexpr bool kHigher = true;
inline constexpr bool kLower = false;

/// Printed by an untraced run (--trace=0).
inline constexpr MetricDef kEndToEnd[] = {
    {"trials_per_s", "1/s", kHigher, Kind::kMeasured},
    {"trial_ms_p50", "ms", kLower, Kind::kMeasured},
    {"setup_s", "s", kLower, Kind::kMeasured},
    {"peak_rss_mb", "MiB", kLower, Kind::kMeasured},
    {"amortized_bits", "bits/node", kLower, Kind::kExact},
    {"decision_rounds", "rounds", kLower, Kind::kExact},
    {"decided_frac", "fraction", kHigher, Kind::kExact},
};

/// Printed by a traced run (--trace=1). Values are per traced trial unless
/// the name says otherwise; a layer a workload never enters reads 0.
inline constexpr MetricDef kPerLayer[] = {
    // The trace itself.
    {"bench.trace_overhead", "ratio", kLower, Kind::kMeasured},
    {"bench.span_coverage", "fraction", kHigher, Kind::kMeasured},
    {"bench.traced_trial_ms", "ms", kLower, Kind::kMeasured},
    // aer: pointer-actor handlers, inclusive of the sends they issue.
    {"aer.handler_ms.start", "ms", kLower, Kind::kMeasured},
    {"aer.handler_ms.push", "ms", kLower, Kind::kMeasured},
    {"aer.handler_ms.poll", "ms", kLower, Kind::kMeasured},
    {"aer.handler_ms.pull", "ms", kLower, Kind::kMeasured},
    {"aer.handler_ms.fw1", "ms", kLower, Kind::kMeasured},
    {"aer.handler_ms.fw2", "ms", kLower, Kind::kMeasured},
    {"aer.handler_ms.answer", "ms", kLower, Kind::kMeasured},
    {"aer.handler_ms.round", "ms", kLower, Kind::kMeasured},
    {"aer.handler_ms.timer", "ms", kLower, Kind::kMeasured},
    {"aer.handler_calls.start", "count", kLower, Kind::kExact},
    {"aer.handler_calls.push", "count", kLower, Kind::kExact},
    {"aer.handler_calls.poll", "count", kLower, Kind::kExact},
    {"aer.handler_calls.pull", "count", kLower, Kind::kExact},
    {"aer.handler_calls.fw1", "count", kLower, Kind::kExact},
    {"aer.handler_calls.fw2", "count", kLower, Kind::kExact},
    {"aer.handler_calls.answer", "count", kLower, Kind::kExact},
    {"aer.handler_calls.round", "count", kLower, Kind::kExact},
    {"aer.handler_calls.timer", "count", kLower, Kind::kExact},
    // aer: world build and harvest, memory account (SoA runner only).
    {"aer.world_build_ms", "ms", kLower, Kind::kMeasured},
    {"aer.harvest_us", "us", kLower, Kind::kMeasured},
    {"aer.mem_bytes_per_node", "bytes/node", kLower, Kind::kExact},
    // net: engine loop, event queue, send path with fault and recovery.
    {"net.engine_run_ms", "ms", kLower, Kind::kMeasured},
    {"net.loop_self_ms", "ms", kLower, Kind::kMeasured},
    {"net.deliveries", "count", kLower, Kind::kExact},
    {"net.msgs_sent", "count", kLower, Kind::kExact},
    {"net.bits_sent", "bits", kLower, Kind::kExact},
    {"net.queue_peak", "count", kLower, Kind::kExact},
    {"net.rounds", "count", kLower, Kind::kExact},
    {"net.round_ms_p50", "ms", kLower, Kind::kMeasured},
    {"net.round_ms_max", "ms", kLower, Kind::kMeasured},
    {"net.fault_dropped", "count", kLower, Kind::kExact},
    {"net.recovery_retransmits", "count", kLower, Kind::kExact},
    {"net.recovery_acks", "count", kLower, Kind::kExact},
    {"net.recovery_dups", "count", kLower, Kind::kExact},
    {"net.recovery_dead", "count", kLower, Kind::kExact},
    {"net.wire_efficiency", "fraction", kHigher, Kind::kExact},
    // adversary: the strategy behind a forwarding shim.
    {"adversary.strategy_ms", "ms", kLower, Kind::kMeasured},
    {"adversary.observe_calls", "count", kLower, Kind::kExact},
    {"adversary.deliver_calls", "count", kLower, Kind::kExact},
    // sampler: rows the trial materialized, and a cold/warm row probe.
    {"sampler.rows_push", "count", kLower, Kind::kExact},
    {"sampler.rows_pull", "count", kLower, Kind::kExact},
    {"sampler.rows_poll", "count", kLower, Kind::kExact},
    {"sampler.cold_row_ns", "ns", kLower, Kind::kMeasured},
    {"sampler.warm_row_ns", "ns", kLower, Kind::kMeasured},
    // ba / ae / baseline: the composed protocol of Figure 1(b).
    {"ba.trial_ms.aer", "ms", kLower, Kind::kMeasured},
    {"baseline.trial_ms.sqrt", "ms", kLower, Kind::kMeasured},
    {"baseline.trial_ms.flood", "ms", kLower, Kind::kMeasured},
    {"ae.phase_ms", "ms", kLower, Kind::kMeasured},
    {"ae.rounds", "count", kLower, Kind::kExact},
    {"ae.bits", "bits/node", kLower, Kind::kExact},
    // exp: service plumbing, reduction, report and shard I/O.
    {"exp.service_configure_us", "us", kLower, Kind::kMeasured},
    {"exp.service_fold_us", "us", kLower, Kind::kMeasured},
    {"exp.aggregate_ms", "ms", kLower, Kind::kMeasured},
    {"exp.report_json_ms", "ms", kLower, Kind::kMeasured},
    {"exp.report_parse_ms", "ms", kLower, Kind::kMeasured},
    {"exp.report_bytes", "bytes", kLower, Kind::kExact},
    {"exp.shard_encode_us_per_cell", "us", kLower, Kind::kMeasured},
    {"exp.shard_decode_us_per_cell", "us", kLower, Kind::kMeasured},
    {"exp.shard_bytes_per_cell", "bytes", kLower, Kind::kExact},
};

inline constexpr std::size_t kNumEndToEnd = std::size(kEndToEnd);

/// The definition of `name` in either table, or nullptr.
inline const MetricDef* find_metric(std::string_view name) {
  for (const MetricDef& m : kEndToEnd) {
    if (name == m.name) return &m;
  }
  for (const MetricDef& m : kPerLayer) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

}  // namespace fba::bench
