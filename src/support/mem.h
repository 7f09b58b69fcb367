// Memory accounting for scale-mode trials.
//
// The million-node profile makes memory a first-class metric: a trial
// reports its protocol-state footprint as bytes/node alongside bits/node
// (AerReport::mem_bytes -> exp::TrialOutcome -> exp::Aggregate -> report
// schema v2). The accounting is *logical and deterministic*: every charge
// derives from entry counts and fixed element sizes (or from capacity
// rules that are pure functions of those counts), never from allocator or
// arena state — a warm arena whose buffers carry capacity from a previous
// trial must report the same bytes as a cold run, and reports stay
// byte-identical at any thread count (the determinism contract of
// docs/output-schema.md).
//
// peak_rss_bytes() is the physical cross-check: the process-wide RSS
// high-water mark from the OS. It is printed by `fba_sim --timing` /
// `fba_repro --timing` next to the setup-vs-run split and never
// serialized (it is environment-dependent).
#pragma once

#include <cstdint>
#include <vector>

namespace fba::support {

/// Accumulator for one trial's logical protocol-state footprint. Plain sum
/// of charges; callers charge each structure once at harvest time.
class MemBudget {
 public:
  void reset() { total_ = 0; }

  void charge(std::uint64_t bytes) { total_ += bytes; }

  /// Logical footprint of a vector: elements held, not capacity (capacity
  /// is arena history, which must not leak into reported numbers).
  template <typename T>
  void charge_vector(const std::vector<T>& v) {
    charge(static_cast<std::uint64_t>(v.size()) * sizeof(T));
  }

  std::uint64_t total_bytes() const { return total_; }

  double bytes_per_node(std::size_t n) const {
    return n > 0 ? static_cast<double>(total_) / static_cast<double>(n) : 0.0;
  }

 private:
  std::uint64_t total_ = 0;
};

/// Slot count a freshly grown FlatMap64/FlatSet64 holds after `entries`
/// monotone inserts: the smallest power-of-two capacity (>= 16) satisfying
/// the 3/4 load bound. A pure function of the entry count, so charging
/// `flat_table_slots(size()) * slot_bytes` is reuse-independent.
inline std::uint64_t flat_table_slots(std::size_t entries) {
  if (entries == 0) return 0;
  std::uint64_t cap = 16;
  while (static_cast<std::uint64_t>(entries) * 4 > cap * 3) cap <<= 1;
  return cap;
}

/// Logical bytes of a FlatMap64 holding `entries` values of `value_size`
/// bytes: its slot count times one 64-bit key plus one value per slot.
inline std::uint64_t flat_table_bytes(std::size_t entries,
                                      std::size_t value_size) {
  return flat_table_slots(entries) * (sizeof(std::uint64_t) + value_size);
}

/// Process peak resident set size in bytes (VmHWM from /proc/self/status).
/// Returns 0 when unavailable (non-Linux). Diagnostic only — never fold
/// this into reports or fingerprints.
std::uint64_t peak_rss_bytes();

}  // namespace fba::support
