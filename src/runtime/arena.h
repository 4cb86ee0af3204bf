// Allocation accounting, mirroring the TensorFlow-allocator measurement the
// paper compares its topological footprint estimates against (Figure 10),
// plus the aligned allocator every runtime buffer goes through.
//
// Counters are atomics (peak via a CAS loop), so they stay consistent if
// charged from several threads. The executor charges its persistent state
// and the memory plan's slab from the thread that builds it or calls
// run_step(); pool workers never allocate or free.
#pragma once

#include <atomic>
#include <cstddef>
#include <new>
#include <stdexcept>
#include <vector>

namespace gf::rt {

/// All DenseTensor storage and GEMM packing scratch is aligned to this so
/// packed tiles start on cacheline boundaries and SIMD loads never split.
inline constexpr std::size_t kTensorAlignment = 64;

/// Process-wide counters over every AlignedAllocator heap allocation.
/// memplan_bench uses the deltas to show a steady-state step performs O(1)
/// allocations.
struct AlignedAllocStats {
  static std::atomic<std::size_t>& count() {
    static std::atomic<std::size_t> v{0};
    return v;
  }
  static std::atomic<std::size_t>& bytes() {
    static std::atomic<std::size_t> v{0};
    return v;
  }
};

inline std::size_t aligned_alloc_count() {
  return AlignedAllocStats::count().load(std::memory_order_relaxed);
}
inline std::size_t aligned_alloc_bytes() {
  return AlignedAllocStats::bytes().load(std::memory_order_relaxed);
}

/// Minimal std::allocator replacement with a fixed over-alignment.
template <typename T, std::size_t Alignment = kTensorAlignment>
class AlignedAllocator {
 public:
  static_assert(Alignment >= alignof(T) && (Alignment & (Alignment - 1)) == 0,
                "alignment must be a power of two covering alignof(T)");
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  T* allocate(std::size_t n) {
    AlignedAllocStats::count().fetch_add(1, std::memory_order_relaxed);
    AlignedAllocStats::bytes().fetch_add(n * sizeof(T), std::memory_order_relaxed);
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };
  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

/// Cacheline-aligned vector: tensor buffers, packed GEMM panels, im2col
/// scratch.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

class ArenaAccounting {
 public:
  void allocate(std::size_t bytes) {
    const std::size_t now = current_.fetch_add(bytes, std::memory_order_acq_rel) + bytes;
    std::size_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_acq_rel)) {
    }
  }

  void release(std::size_t bytes) {
    // Validate-then-subtract in one CAS loop: the old fetch_sub-then-check
    // wrapped current_ before throwing, corrupting accounting for every
    // later reader. Now an underflowing release leaves current_ untouched.
    std::size_t cur = current_.load(std::memory_order_acquire);
    do {
      if (bytes > cur) throw std::logic_error("arena accounting underflow");
    } while (
        !current_.compare_exchange_weak(cur, cur - bytes, std::memory_order_acq_rel));
  }

  std::size_t current_bytes() const { return current_.load(std::memory_order_acquire); }
  std::size_t peak_bytes() const { return peak_.load(std::memory_order_acquire); }

 private:
  std::atomic<std::size_t> current_{0};
  std::atomic<std::size_t> peak_{0};
};

}  // namespace gf::rt
