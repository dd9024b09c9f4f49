// Spin-wait primitives for machines the runtime may oversubscribe.
//
// The software NMP runtime serves its partitions with a combiner pool sized
// to leave each host thread a core (nmp/combiner_pool.hpp), but a caller
// may still run more threads than the machine has, and then a pure spin
// loop livelocks. Waiters therefore spin briefly with a pause hint and then
// fall back to yielding the CPU; the runtime's longer waits park on a futex
// (util/futex.hpp).
#pragma once

#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace hybrids::util {

/// CPU pause hint (no-op on architectures without one).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Adaptive backoff: `spin()` pauses for the first `spin_limit` calls, then
/// yields to the OS scheduler. Reset when the awaited condition makes
/// progress.
class Backoff {
 public:
  explicit Backoff(std::uint32_t spin_limit = 64) noexcept
      : spin_limit_(spin_limit) {}

  void spin() noexcept {
    if (count_ < spin_limit_) {
      ++count_;
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }

  void reset() noexcept { count_ = 0; }

 private:
  std::uint32_t spin_limit_;
  std::uint32_t count_ = 0;
};

/// Exponential backoff for retry loops (stale-begin-node and parent-seqnum
/// retries in the hybrid structures): each wait() pauses twice as long as
/// the previous one, and past the yield threshold also cedes the CPU, so a
/// burst of correlated retries decays instead of hammering the combiner.
class ExpBackoff {
 public:
  void wait() noexcept {
    for (std::uint32_t i = 0; i < current_; ++i) cpu_relax();
    if (current_ >= kYieldThreshold) std::this_thread::yield();
    if (current_ < kMaxPause) current_ <<= 1;
  }

  void reset() noexcept { current_ = 1; }

 private:
  static constexpr std::uint32_t kMaxPause = 4096;
  static constexpr std::uint32_t kYieldThreshold = 1024;
  std::uint32_t current_ = 1;
};

}  // namespace hybrids::util
