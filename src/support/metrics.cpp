#include "support/metrics.h"

#include <cmath>

namespace fba {

namespace {

/// `sorted` must already hold the (unsorted) sample; sorted in place.
LoadStats summarize_sorting(std::vector<double>& sorted) {
  LoadStats s;
  if (sorted.empty()) return s;
  std::sort(sorted.begin(), sorted.end());
  double sum = 0;
  for (double v : sorted) sum += v;
  s.mean = sum / static_cast<double>(sorted.size());
  s.min = sorted.front();
  s.max = sorted.back();
  const auto idx = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(sorted.size()))) - 1;
  s.p99 = sorted[std::min(idx, sorted.size() - 1)];
  return s;
}

}  // namespace

LoadStats summarize(const std::vector<double>& values) {
  std::vector<double> sorted = values;
  return summarize_sorting(sorted);
}

LoadStats summarize_u64(const std::vector<std::uint64_t>& values) {
  std::vector<double> scratch;
  return summarize_u64_into(values, scratch);
}

LoadStats summarize_u64_into(const std::vector<std::uint64_t>& values,
                             std::vector<double>& scratch) {
  scratch.clear();
  scratch.reserve(values.size());
  for (std::uint64_t v : values) scratch.push_back(static_cast<double>(v));
  return summarize_sorting(scratch);
}

void TrafficMetrics::reset(std::size_t n) {
  total_messages_ = 0;
  total_bits_ = 0;
  sent_bits_.assign(n, 0);
  sent_msgs_.assign(n, 0);
  msgs_by_kind_.fill(0);
  bits_by_kind_.fill(0);
  fault_dropped_msgs_ = 0;
  fault_dropped_bits_ = 0;
  fault_delayed_msgs_ = 0;
  drops_by_cause_.fill(0);
  recovery_retransmit_msgs_ = 0;
  recovery_retransmit_bits_ = 0;
  recovery_acked_msgs_ = 0;
  recovery_dead_msgs_ = 0;
  recovery_dup_msgs_ = 0;
}

void TrafficMetrics::on_fault_drop(std::size_t bits, sim::FaultCause cause) {
  ++fault_dropped_msgs_;
  fault_dropped_bits_ += bits;
  ++drops_by_cause_[sim::fault_cause_index(cause)];
}

void TrafficMetrics::on_message(NodeId src, std::size_t bits,
                                sim::MessageKind kind) {
  ++total_messages_;
  total_bits_ += bits;
  sent_bits_[src] += bits;
  ++sent_msgs_[src];
  const std::size_t k = sim::kind_index(kind);
  ++msgs_by_kind_[k];
  bits_by_kind_[k] += bits;
}

double TrafficMetrics::amortized_bits() const {
  return sent_bits_.empty()
             ? 0
             : static_cast<double>(total_bits_) /
                   static_cast<double>(sent_bits_.size());
}

LoadStats TrafficMetrics::sent_bits_stats() const {
  return summarize_u64_into(sent_bits_, stats_scratch_);
}

void DecisionLog::reset(std::size_t n) {
  decided_.assign(n, false);
  values_.assign(n, kNoString);
  times_.assign(n, 0.0);
  repeat_decisions_ = 0;
}

void DecisionLog::record(NodeId node, StringId value, double time) {
  FBA_ASSERT(node < decided_.size(), "decision for unknown node");
  if (decided_[node]) {  // first decision wins; nodes decide once
    ++repeat_decisions_;
    return;
  }
  decided_[node] = true;
  values_[node] = value;
  times_[node] = time;
}

std::size_t DecisionLog::count_correct_decisions(
    const std::vector<NodeId>& relevant, StringId expected) const {
  std::size_t count = 0;
  for (NodeId id : relevant) {
    if (decided_.at(id) && values_.at(id) == expected) ++count;
  }
  return count;
}

std::size_t DecisionLog::count_decided(
    const std::vector<NodeId>& relevant) const {
  std::size_t count = 0;
  for (NodeId id : relevant) {
    if (decided_.at(id)) ++count;
  }
  return count;
}

double DecisionLog::completion_time(
    const std::vector<NodeId>& relevant) const {
  double latest = 0;
  for (NodeId id : relevant) {
    if (decided_.at(id)) latest = std::max(latest, times_.at(id));
  }
  return latest;
}

}  // namespace fba
