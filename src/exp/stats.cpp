#include "exp/stats.h"

#include <algorithm>
#include <cmath>

namespace fba::exp {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  if (sorted.size() == 1) return sorted.front();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

SummaryStats summarize_sample(std::vector<double> values) {
  SummaryStats s;
  s.count = values.size();
  if (values.empty()) return s;

  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  s.p50 = quantile_sorted(values, 0.50);
  s.p90 = quantile_sorted(values, 0.90);
  s.p99 = quantile_sorted(values, 0.99);
  s.p999 = quantile_sorted(values, 0.999);

  double sum = 0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());

  if (values.size() >= 2) {
    double sq = 0;
    for (double v : values) sq += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(sq / static_cast<double>(values.size() - 1));
    s.ci95 = 1.96 * s.stddev / std::sqrt(static_cast<double>(values.size()));
  }
  return s;
}

// ----- StreamingStats --------------------------------------------------------

std::size_t StreamingStats::bucket_of(double v) {
  if (!(v > 0)) return 0;  // zero, negatives, NaN: the underflow bin.
  int exp = 0;
  const double mant = std::frexp(v, &exp);  // v = mant * 2^exp, mant ∈ [0.5, 1)
  if (exp <= kMinExp) return 0;
  if (exp > kMaxExp) return kBuckets - 1;
  auto sub = static_cast<std::size_t>((mant - 0.5) * (2 * kSubBuckets));
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;  // mant == nextafter(1, 0)
  return 1 + static_cast<std::size_t>(exp - 1 - kMinExp) * kSubBuckets + sub;
}

double StreamingStats::bucket_lo(std::size_t b) {
  if (b == 0) return 0;
  if (b >= kBuckets - 1) return std::ldexp(0.5, kMaxExp + 1);
  const std::size_t i = b - 1;
  const int exp = kMinExp + 1 + static_cast<int>(i / kSubBuckets);
  const auto sub = static_cast<double>(i % kSubBuckets);
  return std::ldexp(0.5 + sub / (2 * kSubBuckets), exp);
}

double StreamingStats::bucket_hi(std::size_t b) {
  if (b == 0) return std::ldexp(0.5, kMinExp + 1);
  if (b >= kBuckets - 1) return std::ldexp(0.5, kMaxExp + 1);
  return bucket_lo(b + 1);
}

void StreamingStats::add(double v) {
  buckets_[bucket_of(v)] += 1;
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  count_ += 1;
  sum_ += v;
  sum_sq_ += v * v;
}

double StreamingStats::mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0;
}

double StreamingStats::stddev() const {
  if (count_ < 2) return 0;
  const double n = static_cast<double>(count_);
  const double m = sum_ / n;
  // Guard the catastrophic-cancellation case (all-equal samples) at 0.
  const double var = std::max(0.0, (sum_sq_ - n * m * m) / (n - 1));
  return std::sqrt(var);
}

double StreamingStats::quantile(double q) const {
  if (count_ == 0) return 0;
  if (count_ == 1) return min_;
  q = std::clamp(q, 0.0, 1.0);
  // Rank convention matches quantile_sorted: q spans [first, last] sample.
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    const auto first = static_cast<double>(cum);
    cum += buckets_[b];
    if (rank < static_cast<double>(cum) || cum == count_) {
      const double frac =
          (rank - first + 0.5) / static_cast<double>(buckets_[b]);
      const double lo = bucket_lo(b);
      const double hi = bucket_hi(b);
      const double v = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      return std::clamp(v, min_, max_);
    }
  }
  return max_;  // unreachable: the loop always lands a bucket.
}

SummaryStats StreamingStats::summary() const {
  SummaryStats s;
  s.count = count_;
  if (count_ == 0) return s;
  s.mean = mean();
  s.stddev = stddev();
  s.min = min_;
  s.max = max_;
  s.p50 = quantile(0.50);
  s.p90 = quantile(0.90);
  s.p99 = quantile(0.99);
  s.p999 = quantile(0.999);
  if (count_ >= 2) {
    s.ci95 = 1.96 * s.stddev / std::sqrt(static_cast<double>(count_));
  }
  return s;
}

}  // namespace fba::exp
