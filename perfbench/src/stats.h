// Measurement helpers shared by the workloads: the percentile rule,
// open-loop due-time accounting, and span self-time over trace intervals.
// Header-only and free of ringdb types so the self-tests exercise exactly
// the code the workloads run.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// Nearest-rank quantile: the smallest sample with at least q * n samples
// at or below it. Sorts `v` in place; 0 for an empty sample.
inline double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// Samples strictly above the nearest-rank q-quantile of n samples.
inline size_t SamplesBeyond(size_t n, double q) {
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(rank, n);
}

// The percentile rule: a timing is reported as its median plus the
// highest of these percentiles that has at least ten samples beyond it.
// Returns 0 when even the median has fewer than ten beyond (n < 20).
inline double TailLevel(size_t n) {
  double best = 0.0;
  for (double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (SamplesBeyond(n, q) >= 10) best = q;
  }
  return best;
}

// A timing distribution as reported: sample count, median, p99 (only
// meaningful when p99_supported), the highest supported tail and max.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool p99_supported = false;
  double tail_level = 0.0;
  double tail = 0.0;
  double max = 0.0;
};

inline Summary Summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  s.p50 = Quantile(v, 0.5);
  s.p99 = Quantile(v, 0.99);
  s.p99_supported = SamplesBeyond(s.n, 0.99) >= 10;
  s.tail_level = TailLevel(s.n);
  s.tail = s.tail_level > 0 ? Quantile(v, s.tail_level) : v.back();
  s.max = v.back();
  return s;
}

// Open-loop schedule: operation i is due at start + i / rate, whatever
// happened to earlier operations. Latency is charged from the due time,
// so a stall is also paid by every operation queued behind it;
// lateness is how far the generator itself started an operation after
// its due time.
class OpenLoop {
 public:
  OpenLoop(uint64_t start_ns, double rate_per_s)
      : start_ns_(start_ns), period_ns_(1e9 / rate_per_s) {}

  uint64_t Due(uint64_t i) const {
    return start_ns_ + static_cast<uint64_t>(static_cast<double>(i) * period_ns_);
  }

  // Records operation i, begun at start_ns and completed at end_ns.
  void Record(uint64_t i, uint64_t start_ns, uint64_t end_ns) {
    const uint64_t due = Due(i);
    latency_ns.push_back(end_ns > due ? static_cast<double>(end_ns - due) : 0.0);
    late_ns.push_back(start_ns > due ? static_cast<double>(start_ns - due) : 0.0);
  }

  std::vector<double> latency_ns;
  std::vector<double> late_ns;

 private:
  uint64_t start_ns_;
  double period_ns_;
};

using Interval = std::pair<uint64_t, uint64_t>;  // [begin, end) in ns

// Length of the union of `intervals` clipped to [lo, hi).
inline uint64_t CoveredNs(std::vector<Interval> intervals, uint64_t lo,
                          uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t cursor = lo;
  for (const Interval& iv : intervals) {
    const uint64_t b = std::max(iv.first, cursor);
    const uint64_t e = std::min(iv.second, hi);
    if (e > b) {
      covered += e - b;
      cursor = e;
    }
  }
  return covered;
}

// A span's self time: its length minus the part its children cover.
inline uint64_t SelfNs(const Interval& span,
                       const std::vector<Interval>& children) {
  if (span.second <= span.first) return 0;
  return span.second - span.first -
         CoveredNs(children, span.first, span.second);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
