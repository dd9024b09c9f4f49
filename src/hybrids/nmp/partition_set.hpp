// A set of NMP partitions with equal-width key-range routing, plus the
// per-thread slot bookkeeping used for blocking and non-blocking NMP calls.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "hybrids/nmp/combiner_pool.hpp"
#include "hybrids/nmp/nmp_core.hpp"

namespace hybrids::nmp {

/// Configuration for a PartitionSet. `slots_per_thread` bounds the number of
/// in-flight non-blocking calls a single host thread may have against one
/// partition (the paper's hybrid-nonblocking4 uses 4); the resulting
/// publication-list layout is documented once, at PartitionSet::thread_base.
///
/// `combiner_threads` sizes the CombinerPool that serves the partitions; 0
/// picks min(partitions, max(1, hardware threads - max_threads)), leaving
/// one core to each host thread (with at least as many host threads as
/// cores that is one pool thread, which measured faster than one per core;
/// see EXPERIMENTS.md). Pool threads spin briefly before parking only when
/// the machine has more hardware threads than max_threads. The library,
/// benches and examples all use the rule; a nonzero value pins the count,
/// which the pool tests need.
///
/// The watchdog monitors per-core served() progress: a core with posted but
/// unserved requests and no progress across one interval is re-kicked (futex
/// re-notify) and `watchdog_fired` is bumped; after
/// `watchdog_misses_to_degrade` consecutive missed heartbeats (the counter
/// saturates and is sticky across idle intervals — only observed progress
/// clears it) the partition is marked degraded (`partition_degraded`,
/// queryable via degraded()), fenced, its in-flight slots bounced, and it is
/// re-armed on the pool. It stays degraded until
/// `watchdog_misses_to_recover` consecutive *progressing* intervals
/// (hysteresis — an idle partition cannot prove liveness, so it stays
/// degraded until traffic shows progress). With the watchdog disabled there
/// is no failover either.
struct PartitionConfig {
  std::uint32_t partitions = 8;
  std::uint32_t max_threads = 8;
  std::uint32_t slots_per_thread = 4;
  std::uint32_t combiner_threads = 0;  // 0: the rule above
  Key partition_width = 0;  // keys in [p*width, (p+1)*width) -> partition p
  std::uint32_t watchdog_interval_ms = 10;    // 0 disables the watchdog
  std::uint32_t watchdog_misses_to_degrade = 5;
  std::uint32_t watchdog_misses_to_recover = 3;
};

/// Identifies one in-flight non-blocking NMP call.
struct OpHandle {
  std::uint32_t partition = 0;
  std::uint32_t slot = 0;
  bool valid = false;
};

/// Owns the NMP cores of a hybrid data structure and routes operations to
/// them. Handlers are installed per partition before start().
class PartitionSet {
 public:
  /// Throws std::invalid_argument if the config is unusable (zero
  /// partitions, partition_width, max_threads, or slots_per_thread —
  /// partition_of divides by partition_width, so a zero width would fault).
  explicit PartitionSet(const PartitionConfig& config);
  ~PartitionSet();

  PartitionSet(const PartitionSet&) = delete;
  PartitionSet& operator=(const PartitionSet&) = delete;

  /// Installs the combiner handler for partition `p`. Must be called for all
  /// partitions before start().
  void set_handler(std::uint32_t p, NmpCore::Handler handler);

  /// Installs the optional key-sorted batch handler for partition `p` (see
  /// NmpCore::set_batch_handler). Must be called before start(); survives a
  /// later set_handler() on the same partition in either order.
  void set_batch_handler(std::uint32_t p, NmpCore::BatchHandler handler);

  void start();
  void stop();

  std::uint32_t partitions() const { return static_cast<std::uint32_t>(cores_.size()); }
  Key partition_width() const { return config_.partition_width; }

  /// Equal-width range routing, clamped to the last partition.
  std::uint32_t partition_of(Key key) const {
    const auto p = static_cast<std::uint32_t>(key / config_.partition_width);
    return p >= partitions() ? partitions() - 1 : p;
  }

  NmpCore& core(std::uint32_t p) { return *cores_[p]; }

  /// Combiner pool threads: the running count once started, else the count
  /// start() would launch.
  std::uint32_t combiner_threads() const;

  /// True from the moment the watchdog considers partition `p` wedged (no
  /// served() progress for watchdog_misses_to_degrade consecutive intervals
  /// with requests outstanding) until the supervisor has re-integrated it:
  /// `watchdog_misses_to_recover` consecutive progressing intervals after
  /// recovery (hysteresis). Sticky while the partition is idle. A caller
  /// that reads false also sees the recoveries() count of that
  /// re-integration.
  bool degraded(std::uint32_t p) const { return lane(p) != kHealthy; }

  /// Forces the failover path on partition `p`: the next watchdog tick
  /// treats it as having crossed the degrade threshold. Safe from any
  /// thread; used by kill-recover tests and the availability bench — it
  /// exercises the exact fence/bounce/recover machinery a real combiner
  /// death would, without needing the fault injector compiled in. No-op
  /// while the watchdog is disabled.
  void trigger_failover(std::uint32_t p) {
    force_failover_[p].store(true, std::memory_order_release);
  }

  /// Lifetime counts of failover events and supervisor-recovered lanes
  /// (tests; the telemetry counters carry the same values per partition).
  std::uint64_t failovers(std::uint32_t p) const {
    return failovers_[p].load(std::memory_order_acquire);
  }
  std::uint64_t recoveries(std::uint32_t p) const {
    return recoveries_[p].load(std::memory_order_acquire);
  }

  /// Blocking call: posts `r` to partition `p` on behalf of `thread_id` and
  /// waits for the response. Uses the thread's blocking slot (see thread_base
  /// for the layout), so blocking and non-blocking calls from the same thread
  /// cannot collide.
  Response call(std::uint32_t p, std::uint32_t thread_id, const Request& r);

  /// Non-blocking call: posts `r` and returns a handle, or an invalid handle
  /// if the thread already has all of its slots for `p` in flight.
  OpHandle call_async(std::uint32_t p, std::uint32_t thread_id, const Request& r);

  /// True once the response for `h` is available.
  bool poll(const OpHandle& h);
  /// Blocks until `h` completes and returns its response, releasing the slot.
  Response retrieve(const OpHandle& h);

 private:
  // Publication-list slot layout (the one canonical description; everything
  // else refers here). Each partition's list has
  //   max_threads * (1 + slots_per_thread)
  // slots. Host thread t owns the contiguous range
  //   [t * (1 + slots_per_thread), (t + 1) * (1 + slots_per_thread)).
  // The first slot of the range — index thread_base(t) — is the thread's
  // *blocking* slot, used exclusively by call(). The remaining
  // slots_per_thread slots are its *async* slots, handed out by call_async()
  // and tracked in async_busy_. Because every slot has exactly one owning
  // thread and the blocking slot is disjoint from the async window, a
  // thread's blocking and non-blocking calls never collide and no slot is
  // ever contended between host threads.
  std::uint32_t thread_base(std::uint32_t thread_id) const {
    return thread_id * (1 + config_.slots_per_thread);
  }

  // Failover lane state machine, advanced only by the watchdog thread
  // (supervisor); host threads read it to decide whether to bounce.
  // Every lane but kHealthy reads as degraded(). Transitions:
  //   kHealthy/kRecovering -> kFenced  degrade threshold crossed: fence
  //                                    epoch raised
  //   kFenced -> kRecovering           pass token seized, slots bounced,
  //                                    partition re-armed on the pool
  //   kRecovering -> kHealthy          hysteresis met: re-integrated
  enum LaneState : std::uint8_t {
    kHealthy = 0,
    kFenced,
    kRecovering,
  };

  LaneState lane(std::uint32_t p) const {
    return static_cast<LaneState>(lane_[p].load(std::memory_order_acquire));
  }

  void watchdog_loop();
  /// One supervisor step for partition `p` (called per watchdog tick).
  void supervise(std::uint32_t p);
  /// Fences partition `p` and moves its lane to kFenced.
  void fence(std::uint32_t p);
  /// kFenced tick: seize the pass token once the fenced pass (if any) has
  /// finished, bounce in-flight slots, re-arm the partition on the pool.
  void recover(std::uint32_t p);
  /// Completes every still-kPending slot of `p` with a failed_over response.
  /// Only legal while holding the partition's seized pass token.
  std::uint64_t bounce_pending(std::uint32_t p);
  /// How long a pool thread may sit in one pass before rearm() treats it as
  /// wedged: the watchdog's own degrade budget.
  std::chrono::nanoseconds stuck_after() const {
    return std::chrono::milliseconds(config_.watchdog_interval_ms) *
           config_.watchdog_misses_to_degrade;
  }
  /// Builds the immediate failed_over response used when a call arrives at
  /// a fenced lane (fast bounce: nothing is posted, so the host never waits
  /// on a dead combiner).
  Response bounce_response(std::uint32_t p, const Request& r);

  PartitionConfig config_;
  std::vector<std::unique_ptr<NmpCore>> cores_;
  std::unique_ptr<CombinerPool> pool_;  // live between start() and stop()
  // Batch handlers are kept here as well as in the cores: set_handler()
  // rebuilds a core from scratch, so its batch handler must be re-applied.
  std::vector<NmpCore::BatchHandler> batch_handlers_;
  // In-flight flags for async slots, indexed [partition][slot]; only the
  // owning host thread touches its entries.
  std::vector<std::vector<std::uint8_t>> async_busy_;
  bool started_ = false;

  // Watchdog thread state. `lane_` is written by the watchdog and read by
  // any thread; the per-core progress snapshots are watchdog-private.
  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  struct WatchState {
    std::uint64_t last_served = 0;
    std::uint32_t misses = 0;  // saturating; cleared only by progress
    std::uint32_t clean = 0;   // consecutive progressing intervals (hysteresis)
  };
  std::vector<WatchState> watch_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> lane_;   // LaneState per part.
  std::unique_ptr<std::atomic<bool>[]> force_failover_; // trigger_failover()
  std::unique_ptr<std::atomic<std::uint64_t>[]> failovers_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> recoveries_;
  std::vector<telemetry::Counter*> watchdog_fired_;     // per partition
  std::vector<telemetry::Counter*> degraded_counter_;   // per partition
  std::vector<telemetry::Counter*> failover_counter_;   // per partition
  std::vector<telemetry::Counter*> recovered_counter_;  // per partition
  std::vector<telemetry::Counter*> bounced_counter_;    // per partition

  // Host-level telemetry (global scope; per-partition metrics live in the
  // cores). The recorder tracks the non-blocking in-flight depth observed
  // right after each successful async post.
  telemetry::Counter* calls_blocking_;
  telemetry::Counter* calls_async_;
  telemetry::Counter* async_rejected_;
  telemetry::LatencyRecorder* async_inflight_;
};

}  // namespace hybrids::nmp
