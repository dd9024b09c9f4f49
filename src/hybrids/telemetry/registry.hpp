// Process-wide metric registry.
//
// Instruments are registered by (name, scope) where scope is either a
// partition id (per-NMP-partition metrics) or kGlobal (host-level metrics).
// Registration takes a lock and is meant for construction time; hot paths
// hold the returned reference, which stays valid for the process lifetime.
//
// Canonical metric names are declared in `names` below so the runtime, the
// simulator transport, and the exporters agree on spelling. The reference
// catalogue (kind, unit, layer, when each fires) is docs/METRICS.md;
// tests/metrics_doc_test.cpp keeps it consistent with this header.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "hybrids/telemetry/counters.hpp"

namespace hybrids::telemetry {

namespace names {
// Partition scope (one instrument per NMP partition/core).
inline constexpr const char* kServedTotal = "served_total";
inline constexpr const char* kServedPrefix = "served_";  // + opcode name
inline constexpr const char* kRetryStaleBeginNode = "retry_stale_begin_node";
inline constexpr const char* kRetryParentSeqnum = "retry_parent_seqnum";
inline constexpr const char* kBeginFromHead = "begin_from_head";
inline constexpr const char* kQueueWaitNs = "queue_wait_ns";
inline constexpr const char* kServiceNs = "service_ns";
inline constexpr const char* kScanOccupancy = "scan_occupancy";
inline constexpr const char* kCombinerBatch = "combiner_batch";
inline constexpr const char* kBatchSize = "nmp.batch_size";
inline constexpr const char* kBatchFingerHits = "nmp.batch_finger_hits";
inline constexpr const char* kScanLen = "nmp.scan_len";
inline constexpr const char* kWaitTimeoutTotal = "wait_timeout_total";
inline constexpr const char* kWatchdogFired = "watchdog_fired";
inline constexpr const char* kPartitionDegraded = "partition_degraded";
inline constexpr const char* kPartitionFailover = "partition_failover";
inline constexpr const char* kPartitionRecovered = "partition_recovered";
inline constexpr const char* kFailoverBouncedOps = "failover_bounced_ops";
inline constexpr const char* kTraceQueueWaitNs = "trace.queue_wait_ns";
inline constexpr const char* kTraceServiceNs = "trace.service_ns";
// Global scope (combiner pool).
inline constexpr const char* kParkTotal = "park_total";
inline constexpr const char* kWakeTotal = "wake_total";
inline constexpr const char* kIdleSpinHitTotal = "idle_spin_hit_total";
// Global scope (host side).
inline constexpr const char* kOffloadPosted = "host.offload_posted";
inline constexpr const char* kCallBlocking = "host.call_blocking";
inline constexpr const char* kCallAsync = "host.call_async";
inline constexpr const char* kAsyncRejected = "host.async_rejected";
inline constexpr const char* kAsyncInflight = "host.async_inflight";
inline constexpr const char* kHostReadHits = "host.read_hits";
inline constexpr const char* kHostRetryTotal = "host.retry_total";
inline constexpr const char* kLockPathTotal = "host.lock_path_total";
inline constexpr const char* kResumeInsertTotal = "host.resume_insert_total";
inline constexpr const char* kUnlockPathTotal = "host.unlock_path_total";
inline constexpr const char* kRetryBudgetExhausted = "host.retry_budget_exhausted";
inline constexpr const char* kScanPartitionHops = "host.scan_partition_hops";
inline constexpr const char* kScanRetry = "host.scan_retry";
inline constexpr const char* kInterleaveDepth = "host.interleave_depth";
inline constexpr const char* kInterleaveYields = "host.interleave_yields";
inline constexpr const char* kInterleaveFallbackWaits = "host.interleave_fallback_waits";
inline constexpr const char* kHostNodeKeysScanned = "host.node_keys_scanned";
inline constexpr const char* kMemArenaBytes = "mem.arena_bytes";
inline constexpr const char* kMemPoolRecycled = "mem.pool_recycled";
inline constexpr const char* kMemPoolShardMisses = "mem.pool_shard_misses";
inline constexpr const char* kMemFatnodeSplits = "mem.fatnode_splits";
inline constexpr const char* kCacheHits = "cache.hits";
inline constexpr const char* kCacheMisses = "cache.misses";
inline constexpr const char* kCacheBytes = "cache.bytes";
inline constexpr const char* kCacheInvalidations = "cache.invalidations";
inline constexpr const char* kTraceSampledOps = "trace.sampled_ops";
inline constexpr const char* kTraceDroppedEvents = "trace.dropped_events";
inline constexpr const char* kFaultInjectedPrefix = "fault_injected_";  // + kind
}  // namespace names

struct CounterSample {
  std::string name;
  std::int32_t partition;  // Registry::kGlobal for host-level metrics
  std::uint64_t value;
};

struct HistogramSample {
  std::string name;
  std::int32_t partition;
  util::Histogram hist;
};

/// Point-in-time copy of every registered instrument.
struct Snapshot {
  std::uint64_t taken_ns = 0;  // now_ns() at snapshot time
  std::vector<CounterSample> counters;     // sorted by (name, partition)
  std::vector<HistogramSample> histograms; // sorted by (name, partition)

  /// Sum of `name` across every scope it is registered under.
  std::uint64_t counter_total(std::string_view name) const;
  /// Merge of `name` across every scope it is registered under.
  util::Histogram histogram_total(std::string_view name) const;
};

class Registry {
 public:
  static constexpr std::int32_t kGlobal = -1;

  /// The process-wide registry used by all instrumentation.
  static Registry& global();

  /// Returns (registering on first use) the instrument for (name, scope).
  Counter& counter(std::string_view name, std::int32_t partition = kGlobal);
  LatencyRecorder& latency(std::string_view name,
                           std::int32_t partition = kGlobal);

  Snapshot snapshot() const;

  /// Zeroes every instrument. Quiescent-only; intended for tests and for
  /// benches that reset between warmup and the measured phase.
  void reset();

 private:
  using Key = std::pair<std::string, std::int32_t>;

  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<LatencyRecorder>> latencies_;
};

/// Shorthands for the global registry.
inline Counter& counter(std::string_view name,
                        std::int32_t partition = Registry::kGlobal) {
  return Registry::global().counter(name, partition);
}
inline LatencyRecorder& latency(std::string_view name,
                                std::int32_t partition = Registry::kGlobal) {
  return Registry::global().latency(name, partition);
}
inline Snapshot snapshot() { return Registry::global().snapshot(); }
inline void reset_all() { Registry::global().reset(); }

}  // namespace hybrids::telemetry
