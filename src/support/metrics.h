// Traffic and timing metrics.
//
// The paper's two complexity measures (Section 2.1):
//   - time: number of steps before all correct nodes return a value;
//   - communication: total bits exchanged divided by n (amortized), which
//     for non-load-balanced algorithms differs from the per-node maximum.
// TrafficMetrics tracks both, per node and per message kind, so benches can
// report amortized bits, the per-node maximum, and the load-balance ratio.
// Per-kind counters are fixed-size arrays indexed by sim::MessageKind — one
// add per send, no string hashing on the hot path.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "net/fault.h"
#include "net/message.h"
#include "support/types.h"

namespace fba {

/// Summary statistics over a set of per-node values.
struct LoadStats {
  double mean = 0;
  double max = 0;
  double min = 0;
  double p99 = 0;

  /// max / mean — ~1 for load-balanced protocols, grows under skew.
  double imbalance() const { return mean > 0 ? max / mean : 0; }
};

LoadStats summarize(const std::vector<double>& values);
LoadStats summarize_u64(const std::vector<std::uint64_t>& values);

/// Scratch-reusing variant: sorts into `scratch` instead of allocating
/// (the per-trial stats harvest on the trial-arena zero-allocation path).
LoadStats summarize_u64_into(const std::vector<std::uint64_t>& values,
                             std::vector<double>& scratch);

/// Per-kind counter array, indexed by sim::kind_index().
using KindCounters = std::array<std::uint64_t, sim::kNumMessageKinds>;

/// Per-fault-cause counter array, indexed by sim::fault_cause_index().
using FaultCounters = std::array<std::uint64_t, sim::kNumFaultCauses>;

class TrafficMetrics {
 public:
  explicit TrafficMetrics(std::size_t n = 0) { reset(n); }

  void reset(std::size_t n);

  /// Records one message of `bits` payload+header bits sent by src.
  void on_message(NodeId src, std::size_t bits, sim::MessageKind kind);

  /// Records a send the fault layer dropped (already charged via
  /// on_message — drops are bandwidth spent on traffic nobody receives).
  void on_fault_drop(std::size_t bits, sim::FaultCause cause);

  /// Records a send the fault layer delayed past its natural delivery.
  void on_fault_delay() { ++fault_delayed_msgs_; }

  // Recovery sublayer (net/recovery.h) counters. Retransmissions are also
  // charged through on_message — these isolate the layer's overhead so the
  // bit-cost of restoring the reliable-channel assumption is reportable on
  // its own.
  void on_recovery_retransmit(std::size_t bits) {
    ++recovery_retransmit_msgs_;
    recovery_retransmit_bits_ += bits;
  }
  void on_recovery_ack_landed() { ++recovery_acked_msgs_; }
  void on_recovery_dead() { ++recovery_dead_msgs_; }
  void on_recovery_duplicate() { ++recovery_dup_msgs_; }

  std::uint64_t total_messages() const { return total_messages_; }
  std::uint64_t total_bits() const { return total_bits_; }

  /// Amortized communication complexity: total bits / n.
  double amortized_bits() const;

  LoadStats sent_bits_stats() const;

  std::uint64_t sent_bits(NodeId node) const { return sent_bits_.at(node); }
  std::uint64_t sent_messages(NodeId node) const {
    return sent_msgs_.at(node);
  }

  const KindCounters& messages_by_kind() const { return msgs_by_kind_; }
  const KindCounters& bits_by_kind() const { return bits_by_kind_; }

  /// Fault-layer drop totals, whole-run and per cause.
  std::uint64_t fault_dropped_messages() const { return fault_dropped_msgs_; }
  std::uint64_t fault_dropped_bits() const { return fault_dropped_bits_; }
  std::uint64_t fault_delayed_messages() const { return fault_delayed_msgs_; }
  const FaultCounters& drops_by_cause() const { return drops_by_cause_; }
  std::uint64_t drops_of(sim::FaultCause cause) const {
    return drops_by_cause_[sim::fault_cause_index(cause)];
  }
  std::uint64_t messages_of(sim::MessageKind k) const {
    return msgs_by_kind_[sim::kind_index(k)];
  }
  std::uint64_t bits_of(sim::MessageKind k) const {
    return bits_by_kind_[sim::kind_index(k)];
  }

  /// Recovery-sublayer totals (all zero with the layer off).
  std::uint64_t recovery_retransmit_messages() const {
    return recovery_retransmit_msgs_;
  }
  std::uint64_t recovery_retransmit_bits() const {
    return recovery_retransmit_bits_;
  }
  std::uint64_t recovery_acked_messages() const { return recovery_acked_msgs_; }
  std::uint64_t recovery_dead_messages() const { return recovery_dead_msgs_; }
  std::uint64_t recovery_duplicate_messages() const {
    return recovery_dup_msgs_;
  }

  std::size_t n() const { return sent_bits_.size(); }

 private:
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bits_ = 0;
  std::vector<std::uint64_t> sent_bits_;
  std::vector<std::uint64_t> sent_msgs_;
  KindCounters msgs_by_kind_{};
  KindCounters bits_by_kind_{};
  std::uint64_t fault_dropped_msgs_ = 0;
  std::uint64_t fault_dropped_bits_ = 0;
  std::uint64_t fault_delayed_msgs_ = 0;
  FaultCounters drops_by_cause_{};
  std::uint64_t recovery_retransmit_msgs_ = 0;
  std::uint64_t recovery_retransmit_bits_ = 0;
  std::uint64_t recovery_acked_msgs_ = 0;
  std::uint64_t recovery_dead_msgs_ = 0;
  std::uint64_t recovery_dup_msgs_ = 0;
  /// Sort scratch for the *_stats() harvest (capacity reused across trials).
  mutable std::vector<double> stats_scratch_;
};

/// Decision bookkeeping: when each node decided and on what.
class DecisionLog {
 public:
  explicit DecisionLog(std::size_t n = 0) { reset(n); }

  void reset(std::size_t n);

  void record(NodeId node, StringId value, double time);

  bool has_decided(NodeId node) const { return decided_.at(node); }
  StringId value(NodeId node) const { return values_.at(node); }
  double time(NodeId node) const { return times_.at(node); }

  /// record() calls for nodes that had already decided. "No correct node
  /// decides twice" is a protocol invariant the property suite asserts.
  std::uint64_t repeat_decisions() const { return repeat_decisions_; }

  /// Count of nodes (from `relevant`) that decided `expected`.
  std::size_t count_correct_decisions(const std::vector<NodeId>& relevant,
                                      StringId expected) const;
  std::size_t count_decided(const std::vector<NodeId>& relevant) const;

  /// Latest decision time among `relevant` nodes that decided; 0 if none.
  double completion_time(const std::vector<NodeId>& relevant) const;

 private:
  std::vector<bool> decided_;
  std::vector<StringId> values_;
  std::vector<double> times_;
  std::uint64_t repeat_decisions_ = 0;
};

}  // namespace fba
