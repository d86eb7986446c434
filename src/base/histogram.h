// Log-bucketed latency histogram with percentile queries.
//
// HDR-histogram style: values are bucketed with a fixed number of linear
// sub-buckets per power-of-two range, giving a bounded relative error
// (~1/kSubBuckets) across many orders of magnitude while using O(1) memory
// per recorded value. This is what the latency-percentile figures (Fig 6, 7)
// are computed from.
#ifndef GHOST_SIM_SRC_BASE_HISTOGRAM_H_
#define GHOST_SIM_SRC_BASE_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace gs {

class Histogram {
 public:
  Histogram();

  void Add(int64_t value);
  void Merge(const Histogram& other);
  void Reset();

  int64_t count() const { return count_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return count_ == 0 ? 0 : max_; }
  double Mean() const;

  // Returns the smallest recorded bucket value v such that at least
  // `percentile` percent of samples are <= v. `percentile` in [0, 100].
  int64_t Percentile(double percentile) const;

  // "p50=12us p99=340us ..." summary for logs; values scaled by `unit_divisor`
  // and suffixed with `unit` (e.g. 1000, "us" for nanosecond inputs).
  std::string Summary(int64_t unit_divisor, const std::string& unit) const;

  // Machine-readable counterpart of Summary(): a JSON object
  //   {"count":N,"min":..,"max":..,"mean":..,"p50":..,"p90":..,"p99":..,
  //    "p99.9":..,"p99.99":..}
  // in the histogram's native unit. Deterministic byte-for-byte for equal
  // recorded distributions.
  std::string ToJson() const;

 private:
  // Values 0..63 get exact buckets; beyond that, each power-of-two range is
  // split into 32 sub-buckets (~3% max relative error).
  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kLinearBuckets = 2 * kSubBuckets;  // exact buckets 0..63
  // Log ranges 1..57 cover msb 6..62, i.e. every positive int64.
  static constexpr int NumBuckets() {
    return kLinearBuckets + (62 - kSubBucketBits) * kSubBuckets;
  }

  static int BucketIndex(int64_t value);
  static int64_t BucketValue(int index);

  // NumBuckets() counters, allocated by the first Add() or non-empty
  // Merge(), so a registered histogram that is never observed costs no
  // bucket storage. Reset() zeroes them and keeps the storage.
  std::vector<int64_t> buckets_;
  int64_t count_;
  int64_t sum_;
  int64_t min_;
  int64_t max_;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_BASE_HISTOGRAM_H_
