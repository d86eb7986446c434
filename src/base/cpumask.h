// Fixed-capacity CPU bitmask, analogous to the kernel's cpumask_t.
//
// Used for task affinity (sched_setaffinity / THREAD_AFFINITY messages), for
// enclave CPU sets, and for idle-CPU intersection in scheduling policies
// (e.g. the Search policy intersects a task's affinity mask with the idle set,
// §4.4 of the paper).
#ifndef GHOST_SIM_SRC_BASE_CPUMASK_H_
#define GHOST_SIM_SRC_BASE_CPUMASK_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "src/base/logging.h"

namespace gs {

class CpuMask {
 public:
  static constexpr int kMaxCpus = 512;

  constexpr CpuMask() : words_{} {}

  static CpuMask AllUpTo(int num_cpus) {
    CpuMask mask;
    for (int cpu = 0; cpu < num_cpus; ++cpu) {
      mask.Set(cpu);
    }
    return mask;
  }

  static CpuMask Single(int cpu) {
    CpuMask mask;
    mask.Set(cpu);
    return mask;
  }

  void Set(int cpu) {
    CheckBounds(cpu);
    words_[cpu / 64] |= (1ULL << (cpu % 64));
  }

  void Clear(int cpu) {
    CheckBounds(cpu);
    words_[cpu / 64] &= ~(1ULL << (cpu % 64));
  }

  bool IsSet(int cpu) const {
    CheckBounds(cpu);
    return (words_[cpu / 64] >> (cpu % 64)) & 1;
  }

  void SetAll() {
    for (auto& w : words_) {
      w = ~0ULL;
    }
  }

  void ClearAll() { words_.fill(0); }

  int Count() const {
    int total = 0;
    for (uint64_t w : words_) {
      total += std::popcount(w);
    }
    return total;
  }

  bool Empty() const {
    for (uint64_t w : words_) {
      if (w != 0) {
        return false;
      }
    }
    return true;
  }

  // First set CPU, or -1 if empty.
  int First() const {
    for (size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] != 0) {
        return static_cast<int>(i * 64 + std::countr_zero(words_[i]));
      }
    }
    return -1;
  }

  // Next set CPU strictly after `cpu`, or -1.
  int NextAfter(int cpu) const {
    for (int c = cpu + 1; c < kMaxCpus; ++c) {
      const uint64_t word = words_[c / 64] >> (c % 64);
      if (word == 0) {
        c = (c / 64) * 64 + 63;  // skip the rest of this word
        continue;
      }
      return c + std::countr_zero(word);
    }
    return -1;
  }

  CpuMask& operator&=(const CpuMask& other) {
    for (size_t i = 0; i < words_.size(); ++i) {
      words_[i] &= other.words_[i];
    }
    return *this;
  }

  // this &= ~other, without materializing the complement.
  CpuMask& AndNot(const CpuMask& other) {
    for (size_t i = 0; i < words_.size(); ++i) {
      words_[i] &= ~other.words_[i];
    }
    return *this;
  }

  CpuMask operator&(const CpuMask& other) const {
    CpuMask out;
    for (size_t i = 0; i < words_.size(); ++i) {
      out.words_[i] = words_[i] & other.words_[i];
    }
    return out;
  }

  CpuMask operator|(const CpuMask& other) const {
    CpuMask out;
    for (size_t i = 0; i < words_.size(); ++i) {
      out.words_[i] = words_[i] | other.words_[i];
    }
    return out;
  }

  CpuMask operator~() const {
    CpuMask out;
    for (size_t i = 0; i < words_.size(); ++i) {
      out.words_[i] = ~words_[i];
    }
    return out;
  }

  bool operator==(const CpuMask& other) const { return words_ == other.words_; }
  bool operator!=(const CpuMask& other) const { return !(*this == other); }
  // An arbitrary strict total order, for ordered containers.
  bool operator<(const CpuMask& other) const { return words_ < other.words_; }

  bool Intersects(const CpuMask& other) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & other.words_[i]) != 0) {
        return true;
      }
    }
    return false;
  }

  std::string ToString() const {
    std::string out = "{";
    bool first = true;
    for (int cpu = First(); cpu >= 0; cpu = NextAfter(cpu)) {
      if (!first) {
        out += ",";
      }
      out += std::to_string(cpu);
      first = false;
    }
    out += "}";
    return out;
  }

 private:
  // One unsigned compare inline (a negative cpu wraps past kMaxCpus); the
  // failure path is out of line and aborts in every build type.
  static void CheckBounds(int cpu) {
    if (static_cast<unsigned>(cpu) >= static_cast<unsigned>(kMaxCpus)) [[unlikely]] {
      OutOfBounds(cpu);
    }
  }

  [[gnu::cold, gnu::noinline, noreturn]] static void OutOfBounds(int cpu) {
    LOG(FATAL) << "CpuMask: cpu " << cpu << " is outside [0, " << kMaxCpus << ")";
    std::abort();  // LOG(FATAL) aborts; this tells the compiler
  }

  std::array<uint64_t, kMaxCpus / 64> words_;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_BASE_CPUMASK_H_
