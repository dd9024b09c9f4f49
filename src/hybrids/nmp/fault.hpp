// Deterministic, seed-driven fault injection for the software NMP runtime.
//
// The injector exists to prove, under adversarial scheduling, that the
// runtime's resilience machinery works: bounded waits fire instead of
// hanging, the watchdog re-wakes stalled combiners, and the hybrid
// structures' retry protocols (stale begin nodes, LOCK_PATH/RESUME_INSERT)
// stay linearizable when the transport misbehaves.
//
// Everything here compiles in only under -DHYBRIDS_FAULTS (CMake option
// HYBRIDS_FAULTS). In the default build every hook is an empty inline
// function, the implementation file contributes no symbols, and instrumented
// hot paths carry zero cost.
//
// Determinism: each fault kind draws from per-(kind, stream) ticket
// sequences hashed with the armed seed, so a single-threaded call site (a
// combiner, which is the only thread running its partition's hooks) sees an
// exactly reproducible fault sequence for a given seed. Host-side sites
// (post-wakeup loss, slot-publish delay) interleave across host threads, so
// for them the seed fixes the fault *rate* and the per-stream subsequences,
// not the global interleaving.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hybrids::nmp::fault {

/// Fault kinds the injector can produce. Sites:
///  * kCombinerStall    — combiner sleeps at the top of a scan pass
///                        (wedged NMP core; exercises the watchdog).
///  * kDelayedResponse  — combiner sleeps between running the handler and
///                        publishing kDone (slow response; exercises
///                        bounded waits), and host-side slot-publish delay.
///  * kLostWakeup       — post() skips ringing a parked pool thread's
///                        doorbell after bumping the pending counter
///                        (dropped doorbell; exercises wait_done_for's kick
///                        and the watchdog kick).
///  * kSpuriousRetry    — the combiner replies retry *without running the
///                        handler* (exercises host retry loops and retry
///                        budgets; safe because no partition state changed).
///  * kSpuriousLockPath — for kInsert requests only, the combiner replies
///                        lock_path with a null pending handle and without
///                        running the handler (exercises the host's
///                        LOCK_PATH fallback when the NMP side has no record
///                        of the escalation).
///  * kCombinerAbort    — the pool permanently stops serving the partition
///                        at the top of a pass, before touching any slot
///                        (dead NMP core; exercises the failover
///                        supervisor: fence, bounce, re-arm).
///  * kCombinerWedge    — sticky variant of kCombinerStall: at the top of a
///                        pass the pool thread sleeps holding the
///                        partition's pass token, serving nothing, until
///                        the partition is fenced (livelocked core, like a
///                        handler that never returns; same supervisor path,
///                        but the seize waits until the thread sees the
///                        fence, and the thread's other partitions wait or
///                        are moved by the re-arm).
enum class Kind : std::uint8_t {
  kCombinerStall = 0,
  kDelayedResponse,
  kLostWakeup,
  kSpuriousRetry,
  kSpuriousLockPath,
  kCombinerAbort,
  kCombinerWedge,
};

inline constexpr std::size_t kKindCount = 7;

/// Lifecycle kinds kill (or wedge until fenced) a partition's server itself
/// rather than perturbing one protocol step. They require the failover
/// supervisor to make progress again, so Config::all() — used by chaos
/// scenarios that expect every enabled kind to be survivable by the
/// transport-level retry machinery alone — leaves them disabled; arm them
/// explicitly in kill-recover scenarios.
inline constexpr bool is_lifecycle(Kind k) noexcept {
  return k == Kind::kCombinerAbort || k == Kind::kCombinerWedge;
}

/// Suffix of the `fault_injected_<kind>` telemetry counters.
inline const char* kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::kCombinerStall: return "combiner_stall";
    case Kind::kDelayedResponse: return "delayed_response";
    case Kind::kLostWakeup: return "lost_wakeup";
    case Kind::kSpuriousRetry: return "spurious_retry";
    case Kind::kSpuriousLockPath: return "spurious_lock_path";
    case Kind::kCombinerAbort: return "combiner_abort";
    case Kind::kCombinerWedge: return "combiner_wedge";
  }
  return "unknown";
}

/// Stream id used by host-side hooks that have no partition context
/// (PubSlot::post). Streams are folded modulo kStreamCount.
inline constexpr std::uint32_t kHostStream = 0xFFFFFFFFu;

struct Config {
  std::uint64_t seed = 1;
  double probability[kKindCount] = {};  // per-kind injection probability
  std::uint32_t stall_us = 200;         // kCombinerStall sleep
  std::uint32_t delay_us = 50;          // kDelayedResponse sleep

  Config& enable(Kind k, double p) noexcept {
    probability[static_cast<std::size_t>(k)] = p;
    return *this;
  }

  /// All transport/protocol kinds enabled at probability `p` (chaos-harness
  /// convenience). Lifecycle kinds (see is_lifecycle) stay disabled: they
  /// need the failover supervisor, not just retries, to recover.
  static Config all(std::uint64_t seed, double p) noexcept {
    Config c;
    c.seed = seed;
    for (std::size_t k = 0; k < kKindCount; ++k) {
      if (!is_lifecycle(static_cast<Kind>(k))) c.probability[k] = p;
    }
    return c;
  }
};

#if defined(HYBRIDS_FAULTS)

inline constexpr bool kCompiledIn = true;

/// Process-wide injector. arm()/disarm() are quiescent-only (call them while
/// no runtime threads are inside hooks); fire() is safe from any thread.
class FaultInjector {
 public:
  static void arm(const Config& config);
  static void disarm();
  static bool armed() noexcept;

  /// True if fault `k` should be injected at this call. Draws the next
  /// ticket of the (kind, stream) sequence and bumps the
  /// `fault_injected_<kind>` counter when it fires.
  static bool fire(Kind k, std::uint32_t stream) noexcept;

  /// Sleeps for the configured duration of `k` (stall_us / delay_us).
  static void sleep_for(Kind k) noexcept;
};

/// Convenience: fire-and-sleep for duration faults.
inline void maybe_stall(Kind k, std::uint32_t stream) noexcept {
  if (FaultInjector::fire(k, stream)) FaultInjector::sleep_for(k);
}

#else  // HYBRIDS_FAULTS off: every hook is a no-op the optimizer deletes.

inline constexpr bool kCompiledIn = false;

class FaultInjector {
 public:
  static void arm(const Config&) noexcept {}
  static void disarm() noexcept {}
  static bool armed() noexcept { return false; }
  static bool fire(Kind, std::uint32_t) noexcept { return false; }
  static void sleep_for(Kind) noexcept {}
};

inline void maybe_stall(Kind, std::uint32_t) noexcept {}

#endif  // HYBRIDS_FAULTS

}  // namespace hybrids::nmp::fault
