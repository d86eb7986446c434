#include "src/base/histogram.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "src/base/json.h"

namespace gs {

Histogram::Histogram() { Reset(); }

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = INT64_MAX;
  max_ = INT64_MIN;
}

int Histogram::BucketIndex(int64_t value) {
  if (value < 0) {
    value = 0;
  }
  if (value < kLinearBuckets) {
    return static_cast<int>(value);  // exact buckets 0..63
  }
  const int msb = 63 - std::countl_zero(static_cast<uint64_t>(value));
  // Log range r >= 1 covers values with msb == kSubBucketBits + r, i.e.
  // [kSubBuckets << r, kSubBuckets << (r+1)); within it, `value >> r` is in
  // [kSubBuckets, 2*kSubBuckets) — strip the implied leading bit for the
  // sub-bucket.
  const int range = msb - kSubBucketBits;  // >= 1 since value >= kLinearBuckets
  const int sub = static_cast<int>(value >> range) - kSubBuckets;
  int index = kLinearBuckets + (range - 1) * kSubBuckets + sub;
  if (index >= NumBuckets()) {
    index = NumBuckets() - 1;
  }
  return index;
}

int64_t Histogram::BucketValue(int index) {
  if (index < kLinearBuckets) {
    return index;
  }
  const int range = (index - kLinearBuckets) / kSubBuckets + 1;
  const int sub = (index - kLinearBuckets) % kSubBuckets;
  // Top of the bucket (conservative: Percentile() never under-reports). The
  // bucket covers [(kSubBuckets+sub) << range, (kSubBuckets+sub+1) << range).
  return ((static_cast<int64_t>(kSubBuckets + sub + 1)) << range) - 1;
}

void Histogram::Add(int64_t value) {
  if (buckets_.empty()) {
    buckets_.assign(NumBuckets(), 0);
  }
  buckets_[BucketIndex(value)]++;
  count_++;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  // An empty histogram adds nothing: its min/max sentinels are the identity
  // of std::min/std::max.
  if (other.count_ == 0) {
    return;
  }
  if (buckets_.empty()) {
    buckets_.assign(NumBuckets(), 0);
  }
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
}

int64_t Histogram::Percentile(double percentile) const {
  if (count_ == 0) {
    return 0;
  }
  if (percentile <= 0) {
    return min_;
  }
  if (percentile >= 100) {
    return max_;
  }
  const double target = percentile / 100.0 * static_cast<double>(count_);
  int64_t running = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    running += buckets_[i];
    if (static_cast<double>(running) >= target) {
      return std::min(BucketValue(static_cast<int>(i)), max_);
    }
  }
  return max_;
}

std::string Histogram::Summary(int64_t unit_divisor, const std::string& unit) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%lld p50=%.1f%s p90=%.1f%s p99=%.1f%s p99.9=%.1f%s p99.99=%.1f%s max=%.1f%s",
                static_cast<long long>(count_),
                static_cast<double>(Percentile(50)) / static_cast<double>(unit_divisor),
                unit.c_str(),
                static_cast<double>(Percentile(90)) / static_cast<double>(unit_divisor),
                unit.c_str(),
                static_cast<double>(Percentile(99)) / static_cast<double>(unit_divisor),
                unit.c_str(),
                static_cast<double>(Percentile(99.9)) / static_cast<double>(unit_divisor),
                unit.c_str(),
                static_cast<double>(Percentile(99.99)) / static_cast<double>(unit_divisor),
                unit.c_str(),
                static_cast<double>(max()) / static_cast<double>(unit_divisor), unit.c_str());
  return buf;
}

std::string Histogram::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.KV("count", count_);
  w.KV("min", min());
  w.KV("max", max());
  w.KV("mean", Mean());
  w.KV("p50", Percentile(50));
  w.KV("p90", Percentile(90));
  w.KV("p99", Percentile(99));
  w.KV("p99.9", Percentile(99.9));
  w.KV("p99.99", Percentile(99.99));
  w.EndObject();
  return w.str();
}

}  // namespace gs
