// Summary statistics for multi-trial experiment results.
//
// The paper's headline claims (O(log n / log log n) async decision time,
// O(1) expected sync rounds) are statements about distributions, so the
// experiment runner reports distributional summaries — mean, median, tail
// quantiles — plus a 95% confidence interval on the mean so sweeps can say
// whether two configurations actually differ.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fba::exp {

/// Distribution summary over a sample of doubles. All fields are derived
/// deterministically from the sample values (no RNG), so two runs that
/// produce the same samples in the same order produce bit-identical stats.
struct SummaryStats {
  std::size_t count = 0;
  double mean = 0;
  double stddev = 0;  ///< sample standard deviation (n-1 denominator).
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  /// Deep-tail quantile for service-mode latency streams (schema v3).
  /// Deliberately OUTSIDE Aggregate::fingerprint()'s hash_stats so the
  /// pinned golden fingerprints predate it and stay valid.
  double p999 = 0;
  /// Half-width of the normal-approximation 95% CI on the mean
  /// (1.96 * stddev / sqrt(count)); 0 for samples of size < 2.
  double ci95 = 0;

  double ci_lo() const { return mean - ci95; }
  double ci_hi() const { return mean + ci95; }
};

/// Quantile by linear interpolation between order statistics; `sorted` must
/// be ascending and non-empty, q in [0, 1].
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Summarizes a sample (copied and sorted internally; input order does not
/// affect the result).
SummaryStats summarize_sample(std::vector<double> values);

/// Streaming distribution summary over an unbounded sample stream, in O(1)
/// memory: a fixed-bucket log-scale histogram (for p50/p90/p99/p99.9) plus
/// exact running moments and extrema (for mean/stddev/min/max/ci95).
///
/// Service mode (exp/service.h) folds millions of per-instance and
/// per-node latencies through this without storing samples. Bucketing uses
/// std::frexp — exact floating-point arithmetic, so bucket assignment is
/// bit-identical across platforms (std::log-based bucketing would tie the
/// golden fingerprints to libm rounding). kSubBuckets = 16 sub-buckets per
/// octave bounds the relative quantile error at ~1/(2*16) ≈ 3%; the exact
/// min/max clamp the tails.
///
/// Determinism: bucket counts are order-independent; the double moments
/// (sum, sum of squares) are folded in add() call order, so a fixed-order
/// reduction produces bit-identical summaries at any worker count — the
/// same contract Aggregate has.
class StreamingStats {
 public:
  static constexpr int kMinExp = -32;      ///< underflow bin below 2^-32.
  static constexpr int kMaxExp = 32;       ///< overflow bin at/above 2^32.
  static constexpr int kSubBuckets = 16;   ///< per octave (~6% bucket width).
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  void add(double v);

  std::uint64_t count() const { return count_; }
  double total() const { return sum_; }
  double min() const { return count_ ? min_ : 0; }
  double max() const { return count_ ? max_ : 0; }
  double mean() const;
  double stddev() const;  ///< sample stddev (n-1 denominator), as SummaryStats.

  /// Quantile from the buckets: cumulative counts with linear interpolation
  /// inside the landing bucket, clamped to the exact [min, max]. Relative
  /// error is bounded by the bucket width (~6%).
  double quantile(double q) const;

  /// The SummaryStats this stream is a constant-memory stand-in for:
  /// count/mean/stddev/min/max/ci95 exact, quantiles from the histogram.
  SummaryStats summary() const;

  /// Raw state for fingerprinting (exp::ServiceStats::fingerprint hashes the
  /// bucket counts and the bit patterns of the moments).
  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }
  double sum_squares() const { return sum_sq_; }

 private:
  static std::size_t bucket_of(double v);
  static double bucket_lo(std::size_t b);
  static double bucket_hi(std::size_t b);

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double sum_sq_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace fba::exp
