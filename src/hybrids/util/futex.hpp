// Raw futex wait/wake on a 32-bit atomic.
//
// The NMP runtime parks threads on plain atomics and wakes them itself:
// a host parked on a publication slot's status word (with a deadline, so it
// can give up after a window, re-kick a possibly stalled combiner and
// re-arm) and a combiner-pool thread parked on its doorbell word. Every
// wake is an explicit FUTEX_WAKE issued by the other side of a Dekker
// handshake (see the protocol comment in nmp/publication.hpp) — never a
// std::atomic::notify_*, whose implementation may skip the syscall when it
// sees no std::atomic::wait waiter (libstdc++ 12 does), stranding a raw
// FUTEX_WAIT until its timeout. Elsewhere than Linux the waits degrade to a
// sleep-slice poll and wakes are no-ops.
#pragma once

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#else
#include <thread>
#endif

namespace hybrids::util {

static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "futex wait requires a lock-free 4-byte atomic");

/// Blocks while `word` still holds `expected`, for at most `timeout`.
/// Returns false iff the full timeout elapsed with no wake — even if the
/// value changed meanwhile, since a change nobody woke us for is a lost
/// wakeup the caller should count; true on wake, a value already changed at
/// entry, or spurious return. Callers re-check the predicate either way.
inline bool timed_wait(std::atomic<std::uint32_t>& word, std::uint32_t expected,
                       std::chrono::nanoseconds timeout) {
  if (timeout <= std::chrono::nanoseconds::zero()) {
    return word.load(std::memory_order_acquire) != expected;
  }
#if defined(__linux__)
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(timeout.count() / 1000000000);
  ts.tv_nsec = static_cast<long>(timeout.count() % 1000000000);
  const long rc =
      syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
              FUTEX_WAIT_PRIVATE, expected, &ts, nullptr, 0);
  return !(rc == -1 && errno == ETIMEDOUT);
#else
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (word.load(std::memory_order_acquire) == expected) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
#endif
}

/// Blocks while `word` still holds `expected`, with no deadline. May return
/// spuriously; callers re-check their predicate.
inline void futex_wait(std::atomic<std::uint32_t>& word,
                       std::uint32_t expected) {
#if defined(__linux__)
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAIT_PRIVATE, expected, nullptr, nullptr, 0);
#else
  while (word.load(std::memory_order_acquire) == expected) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
#endif
}

/// Wakes up to `count` threads parked on `word` (timed_wait / futex_wait).
inline void futex_wake(std::atomic<std::uint32_t>& word, int count = INT_MAX) {
#if defined(__linux__)
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAKE_PRIVATE, count, nullptr, nullptr, 0);
#else
  (void)word;
  (void)count;
#endif
}

}  // namespace hybrids::util
