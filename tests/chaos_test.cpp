// Seeded chaos-stress harness (built only with -DHYBRIDS_FAULTS=ON).
//
// Runs both hybrid structures under every injected fault kind and
// cross-checks each operation's result against a per-thread std::map oracle.
// Threads operate on disjoint key stripes (key % kThreads == tid), so every
// op has exactly one correct answer and the oracle check is exact — any
// divergence (a lost insert, a phantom remove, a stale read) fails the test
// rather than hiding in a statistical tolerance. Stitched range scans ride
// in every mix: they cross stripes, so their results are checked
// structurally (ascending, in-range, bounded) plus exactly against the
// scanning thread's own stripe (see check_chaos_scan), and their completion
// under injected spurious retries proves the scan retry loop terminates.
//
// What each fault kind proves when the oracle still matches at the end:
//  * combiner_stall      — watchdog/bounded waits ride out a wedged core.
//  * delayed_response    — slow completions never tear the slot handshake.
//  * lost_wakeup         — wait_done_for's re-notify recovers the doorbell.
//  * spurious_retry      — host retry loops + budgets re-execute correctly.
//  * spurious_lock_path  — the LOCK_PATH fallback tolerates escalations the
//                          NMP side has no record of.
//  * combiner_abort      — a dead combiner is fenced, its in-flight slots
//                          bounced, and the lane re-armed on the pool
//                          (kill-recover scenarios at the bottom).
//  * combiner_wedge      — same, against a wedged-but-alive combiner that
//                          only exits once it observes the fence.
//
// The seed comes from $CHAOS_SEED (default 1) so CI can sweep seeds and a
// failing schedule can be replayed exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <thread>
#include <vector>

#include "hybrids/ds/hybrid_btree.hpp"
#include "hybrids/ds/hybrid_skiplist.hpp"
#include "hybrids/ds/nmp_skiplist.hpp"
#include "hybrids/nmp/fault.hpp"
#include "hybrids/telemetry/registry.hpp"
#include "hybrids/trace/trace.hpp"
#include "hybrids/types.hpp"
#include "hybrids/util/rng.hpp"

namespace {

using namespace hybrids;
namespace fault = hybrids::nmp::fault;

static_assert(fault::kCompiledIn,
              "chaos_test must be built with -DHYBRIDS_FAULTS=ON");

constexpr std::uint32_t kThreads = 4;
constexpr std::uint32_t kKeysPerThread = 600;

std::uint64_t chaos_seed() {
  const char* env = std::getenv("CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1ull;
}

// $HYBRIDS_TRACE_SAMPLE=N turns on 1-in-N operation tracing for the whole
// run, so CI exercises the trace recorders (per-thread rings, cross-thread
// combiner attribution) under injected faults and TSan. The drained data is
// discarded — the point is racing the recording paths, not the output.
[[maybe_unused]] const bool g_tracing = [] {
  const char* env = std::getenv("HYBRIDS_TRACE_SAMPLE");
  if (env == nullptr) return false;
  hybrids::trace::set_sample_every(
      static_cast<std::uint32_t>(std::strtoul(env, nullptr, 10)));
  return hybrids::trace::sample_every() > 0;
}();

fault::Config one_kind(std::uint64_t seed, fault::Kind k, double p) {
  fault::Config c;
  c.seed = seed;
  c.enable(k, p);
  return c;
}

std::uint64_t injected_count(fault::Kind k) {
  const std::string name =
      std::string(telemetry::names::kFaultInjectedPrefix) + fault::kind_name(k);
  return telemetry::snapshot().counter_total(name);
}

/// The resilience counters must be present in every telemetry export (they
/// are registered eagerly at construction, so dashboards see them even at
/// zero) — chaos runs additionally leave a live structure behind them.
void expect_resilience_counters_exported() {
  const telemetry::Snapshot snap = telemetry::snapshot();
  bool wait_timeout = false, watchdog = false, budget = false;
  for (const auto& c : snap.counters) {
    wait_timeout |= c.name == telemetry::names::kWaitTimeoutTotal;
    watchdog |= c.name == telemetry::names::kWatchdogFired;
    budget |= c.name == telemetry::names::kRetryBudgetExhausted;
  }
  EXPECT_TRUE(wait_timeout) << "wait_timeout_total not exported";
  EXPECT_TRUE(watchdog) << "watchdog_fired not exported";
  EXPECT_TRUE(budget) << "host.retry_budget_exhausted not exported";
}

/// Arms the injector for a scope; disarms on exit so teardown (stop(),
/// destructors) runs fault-free. Also records per-kind injection counts and
/// asserts every enabled kind actually fired — a scenario that injects
/// nothing proves nothing.
class ArmedScope {
 public:
  explicit ArmedScope(const fault::Config& config) : config_(config) {
    for (std::size_t k = 0; k < fault::kKindCount; ++k) {
      before_[k] = injected_count(static_cast<fault::Kind>(k));
    }
    fault::FaultInjector::arm(config);
  }

  ~ArmedScope() {
    fault::FaultInjector::disarm();
    for (std::size_t k = 0; k < fault::kKindCount; ++k) {
      if (config_.probability[k] <= 0.0) continue;
      const auto kind = static_cast<fault::Kind>(k);
      EXPECT_GT(injected_count(kind), before_[k])
          << "enabled fault never fired: " << fault::kind_name(kind);
    }
  }

 private:
  fault::Config config_;
  std::uint64_t before_[fault::kKindCount] = {};
};

/// Oracle check for a chaos scan. Cross-stripe churn means the full result
/// can't be compared against any single thread's oracle, but two classes of
/// checks stay exact: (a) structural — strictly ascending keys, all >= start,
/// at most the requested length; (b) the scanning thread's own stripe — no
/// other thread mutates it and the scanner itself is busy scanning, so own
/// stripe membership is frozen for the scan's whole duration. Within the
/// covered window ([start, last returned key] for a full result, [start, inf)
/// for a short one) every own-stripe oracle key must appear with its exact
/// value, and no unknown own-stripe key may appear. The scan returning at
/// all is itself part of the property: retry responses (stale begin nodes,
/// injected spurious retries) must not loop a chunk forever.
void check_chaos_scan(const std::vector<ScanEntry>& buf, std::size_t n,
                      std::size_t len, Key start,
                      const std::map<Key, Value>& oracle,
                      std::uint32_t stripe_mod, std::uint32_t stripe) {
  ASSERT_LE(n, len);
  for (std::size_t j = 0; j < n; ++j) {
    if (j > 0) {
      EXPECT_LT(buf[j - 1].key, buf[j].key) << "scan not ascending at " << j;
    }
    EXPECT_GE(buf[j].key, start) << "scan result below start key";
    if (buf[j].key % stripe_mod == stripe) {
      const auto it = oracle.find(buf[j].key);
      ASSERT_NE(it, oracle.end())
          << "scan returned unknown own-stripe key " << buf[j].key;
      EXPECT_EQ(buf[j].value, it->second) << "scan value, key " << buf[j].key;
    }
  }
  const Key end = (n == len && n > 0) ? buf[n - 1].key : ~Key{0};
  std::size_t j = 0;
  for (auto it = oracle.lower_bound(start);
       it != oracle.end() && it->first <= end; ++it) {
    while (j < n && buf[j].key < it->first) ++j;
    ASSERT_TRUE(j < n && buf[j].key == it->first)
        << "scan missed own-stripe key " << it->first;
  }
}

// ---------------------------------------------------------------------------
// Failover tuning for the kill-recover scenarios: a fast watchdog so several
// fence/bounce/respawn cycles complete within one chaos run.

struct FailoverTuning {
  std::uint32_t interval_ms = 2;
  std::uint32_t degrade = 2;
  std::uint32_t recover = 2;
};

/// Pumps `op` until every partition reports healthy at the same time. The
/// degraded mark is sticky while idle (re-integration is hysteresis-gated on
/// progressing intervals), so coming back requires driving traffic — which
/// also proves the recovered lane serves again. A lane that re-integrated
/// can still be fenced again while the others are pumped (a server
/// descheduled past the 2 ms watchdog's budget, common under TSan), so the
/// pump checks all of them on every round, not one after another.
template <typename Op>
void pump_until_recovered(nmp::PartitionSet& set, Op op) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  const auto first_degraded = [&] {
    for (std::uint32_t p = 0; p < set.partitions(); ++p) {
      if (set.degraded(p)) return static_cast<std::int64_t>(p);
    }
    return std::int64_t{-1};
  };
  for (std::int64_t p = first_degraded(); p >= 0; p = first_degraded()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "partition " << p << " never re-integrated";
    op();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------------------
// Skiplist chaos

void run_skiplist_chaos(const fault::Config& fc, std::uint32_t ops_per_thread,
                        const FailoverTuning* ft = nullptr) {
  ds::HybridSkipList::Config cfg;
  cfg.total_height = 12;
  cfg.nmp_height = 6;
  cfg.partitions = 4;
  cfg.partition_width = 1024;  // keys stay < 4 * 1024
  cfg.max_threads = kThreads;
  cfg.slots_per_thread = 2;
  cfg.seed = fc.seed;
  cfg.retry_budget = 4;  // small, so chaos actually exhausts budgets
  // Tiny hot-key cache: injected faults race fills, invalidations, and
  // generation bumps; a stale cached value is an exact oracle divergence.
  cfg.cache_budget_bytes = 2 * 1024;
  if (ft != nullptr) {
    cfg.watchdog_interval_ms = ft->interval_ms;
    cfg.watchdog_misses_to_degrade = ft->degrade;
    cfg.watchdog_misses_to_recover = ft->recover;
  }
  ds::HybridSkipList list(cfg);

  std::vector<std::map<Key, Value>> oracles(kThreads);
  {
    ArmedScope armed(fc);
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        util::Xoshiro256 rng(fc.seed * 0x9E3779B97F4A7C15ULL + 0xC0FFEE + t);
        std::map<Key, Value>& oracle = oracles[t];
        for (std::uint32_t i = 0; i < ops_per_thread; ++i) {
          // Disjoint stripes: thread t owns keys congruent to t mod kThreads.
          const Key key = 1 + kThreads * rng.next_below(kKeysPerThread) + t;
          const auto val = static_cast<Value>(rng.next_below(1u << 30)) | 1u;
          switch (rng.next_below(100)) {
            case 0 ... 9: {  // stitched range scan
              const std::size_t len = 1 + rng.next_below(48);
              std::vector<ScanEntry> buf(len);
              const std::size_t n = list.scan(key, len, buf.data(), t);
              check_chaos_scan(buf, n, len, key, oracle, kThreads,
                               (1 + t) % kThreads);
              break;
            }
            case 10 ... 39: {  // read
              Value out = 0;
              const bool ok = list.read(key, out, t);
              const auto it = oracle.find(key);
              EXPECT_EQ(ok, it != oracle.end()) << "read presence, key " << key;
              if (ok && it != oracle.end()) {
                EXPECT_EQ(out, it->second) << "read value, key " << key;
              }
              break;
            }
            case 40 ... 64: {  // insert
              const bool ok = list.insert(key, val, t);
              const bool expect = oracle.emplace(key, val).second;
              EXPECT_EQ(ok, expect) << "insert, key " << key;
              break;
            }
            case 65 ... 84: {  // remove
              const bool ok = list.remove(key, t);
              EXPECT_EQ(ok, oracle.erase(key) != 0) << "remove, key " << key;
              break;
            }
            default: {  // update
              const bool ok = list.update(key, val, t);
              const auto it = oracle.find(key);
              EXPECT_EQ(ok, it != oracle.end()) << "update, key " << key;
              if (it != oracle.end()) it->second = val;
              break;
            }
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }

  if (ft != nullptr) {
    nmp::PartitionSet& set = list.partition_set();
    std::uint64_t kills = 0;
    for (std::uint32_t p = 0; p < set.partitions(); ++p) {
      kills += set.failovers(p);
    }
    EXPECT_GT(kills, 0u) << "kill-recover run produced no failovers";
    // Every fenced partition must return to service. Reads cycling all
    // partitions generate the progressing intervals the hysteresis gate
    // requires; they are served (not bounced), which is the serves-again
    // half of the property. Reads mutate nothing, so the oracle checks
    // below stay exact.
    std::uint64_t k = 0;
    pump_until_recovered(set, [&] {
      Value out = 0;
      (void)list.read((k++ % set.partitions()) * cfg.partition_width + 1, out,
                      0);
    });
    for (std::uint32_t p = 0; p < set.partitions(); ++p) {
      EXPECT_FALSE(set.degraded(p)) << "partition " << p;
    }
  }

  EXPECT_TRUE(list.validate());
  std::size_t expected = 0;
  for (const auto& oracle : oracles) expected += oracle.size();
  EXPECT_EQ(list.size(), expected);

  // Memory-layer invariant: retired host towers are drained back into the
  // node pool as epochs advance, so the retired set stays bounded under
  // churn instead of growing with the remove count. The periodic drain
  // (every kDrainInterval retires) keeps the backlog within a few drain
  // windows; 256 is far below the removes this run performs.
  EXPECT_LE(list.host_retired_count(), 256u)
      << "retired towers grew with churn — reclamation is not draining";
  // All threads are joined (quiescent), so each reclaim call advances the
  // epoch; after the two-epoch grace period everything must be reclaimed.
  for (int i = 0; i < 4 && list.host_retired_count() > 0; ++i) {
    list.host_reclaim();
  }
  EXPECT_EQ(list.host_retired_count(), 0u)
      << "quiescent drain left towers unreclaimed";
  expect_resilience_counters_exported();
}

// ---------------------------------------------------------------------------
// NMP skiplist chaos (key-sorted batch apply)
//
// The prior-work NMP skiplist serves scan passes as key-sorted finger
// batches (Config::batching), so this run stresses the batch-apply path
// specifically. Only the transport fault kinds apply: the baseline's host
// side implements no retry/LOCK_PATH protocol, so the spurious-response
// kinds (which *require* host recovery) are meaningless against it — those
// are covered with batching by the hybrid B+ tree runs below.

void run_nmp_skiplist_chaos(const fault::Config& fc,
                            std::uint32_t ops_per_thread) {
  ds::NmpSkipList::Config cfg;
  cfg.total_height = 12;
  cfg.partitions = 4;
  cfg.partition_width = 1024;  // keys stay < 4 * 1024
  cfg.max_threads = kThreads;
  cfg.slots_per_thread = 2;
  cfg.seed = fc.seed;
  cfg.batching = true;
  // Value-tier hot-key cache riding the batch-apply path under faults.
  cfg.cache_budget_bytes = 2 * 1024;
  ds::NmpSkipList list(cfg);

  std::vector<std::map<Key, Value>> oracles(kThreads);
  {
    ArmedScope armed(fc);
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        util::Xoshiro256 rng(fc.seed * 0x9E3779B97F4A7C15ULL + 0xFACE + t);
        std::map<Key, Value>& oracle = oracles[t];
        for (std::uint32_t i = 0; i < ops_per_thread; ++i) {
          const Key key = 1 + kThreads * rng.next_below(kKeysPerThread) + t;
          const auto val = static_cast<Value>(rng.next_below(1u << 30)) | 1u;
          switch (rng.next_below(100)) {
            case 0 ... 9: {  // stitched range scan (batched with point ops)
              const std::size_t len = 1 + rng.next_below(48);
              std::vector<ScanEntry> buf(len);
              const std::size_t n = list.scan(key, len, buf.data(), t);
              check_chaos_scan(buf, n, len, key, oracle, kThreads,
                               (1 + t) % kThreads);
              break;
            }
            case 10 ... 39: {  // read
              Value out = 0;
              const bool ok = list.read(key, out, t);
              const auto it = oracle.find(key);
              EXPECT_EQ(ok, it != oracle.end()) << "read presence, key " << key;
              if (ok && it != oracle.end()) {
                EXPECT_EQ(out, it->second) << "read value, key " << key;
              }
              break;
            }
            case 40 ... 64: {  // insert
              const bool ok = list.insert(key, val, t);
              const bool expect = oracle.emplace(key, val).second;
              EXPECT_EQ(ok, expect) << "insert, key " << key;
              break;
            }
            case 65 ... 84: {  // remove
              const bool ok = list.remove(key, t);
              EXPECT_EQ(ok, oracle.erase(key) != 0) << "remove, key " << key;
              break;
            }
            default: {  // update
              const bool ok = list.update(key, val, t);
              const auto it = oracle.find(key);
              EXPECT_EQ(ok, it != oracle.end()) << "update, key " << key;
              if (it != oracle.end()) it->second = val;
              break;
            }
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }

  EXPECT_TRUE(list.validate());
  std::size_t expected = 0;
  for (const auto& oracle : oracles) expected += oracle.size();
  EXPECT_EQ(list.size(), expected);
}

// ---------------------------------------------------------------------------
// B+ tree chaos

void run_btree_chaos(const fault::Config& fc, std::uint32_t ops_per_thread,
                     const FailoverTuning* ft = nullptr) {
  // Initial sorted load: odd multiples j give keys 4j+t, residue t — so each
  // thread's oracle starts with its own stripe of the initial table. The
  // even multiples are left as insertion targets, keeping splits (and thus
  // LOCK_PATH escalations) flowing throughout the run.
  std::vector<Key> keys;
  std::vector<Value> values;
  std::vector<std::map<Key, Value>> oracles(kThreads);
  for (std::uint32_t j = 1; j <= kKeysPerThread; j += 2) {
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      const Key k = 4 * j + t;
      keys.push_back(k);
      values.push_back(k * 7 + 1);
      oracles[t].emplace(k, k * 7 + 1);
    }
  }

  ds::HybridBTree::Config cfg;
  cfg.nmp_levels = 2;
  cfg.partitions = 4;
  cfg.max_threads = kThreads;
  cfg.slots_per_thread = 2;
  cfg.retry_budget = 4;
  // Same tiny hot-key cache as the skiplist chaos runs (see above).
  cfg.cache_budget_bytes = 2 * 1024;
  if (ft != nullptr) {
    cfg.watchdog_interval_ms = ft->interval_ms;
    cfg.watchdog_misses_to_degrade = ft->degrade;
    cfg.watchdog_misses_to_recover = ft->recover;
  }
  ds::HybridBTree tree(cfg, keys, values);

  {
    ArmedScope armed(fc);
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        util::Xoshiro256 rng(fc.seed * 0x9E3779B97F4A7C15ULL + 0xBEEF + t);
        std::map<Key, Value>& oracle = oracles[t];
        for (std::uint32_t i = 0; i < ops_per_thread; ++i) {
          const Key key = 4 * (1 + rng.next_below(kKeysPerThread)) + t;
          const auto val = static_cast<Value>(rng.next_below(1u << 30)) | 1u;
          switch (rng.next_below(100)) {
            case 0 ... 9: {  // stitched range scan
              const std::size_t len = 1 + rng.next_below(48);
              std::vector<ScanEntry> buf(len);
              const std::size_t n = tree.scan(key, len, buf.data(), t);
              check_chaos_scan(buf, n, len, key, oracle, kThreads, t);
              break;
            }
            case 10 ... 39: {  // read
              Value out = 0;
              const bool ok = tree.read(key, out, t);
              const auto it = oracle.find(key);
              EXPECT_EQ(ok, it != oracle.end()) << "read presence, key " << key;
              if (ok && it != oracle.end()) {
                EXPECT_EQ(out, it->second) << "read value, key " << key;
              }
              break;
            }
            case 40 ... 64: {  // insert
              const bool ok = tree.insert(key, val, t);
              const bool expect = oracle.emplace(key, val).second;
              EXPECT_EQ(ok, expect) << "insert, key " << key;
              break;
            }
            case 65 ... 84: {  // remove
              const bool ok = tree.remove(key, t);
              EXPECT_EQ(ok, oracle.erase(key) != 0) << "remove, key " << key;
              break;
            }
            default: {  // update
              const bool ok = tree.update(key, val, t);
              const auto it = oracle.find(key);
              EXPECT_EQ(ok, it != oracle.end()) << "update, key " << key;
              if (it != oracle.end()) it->second = val;
              break;
            }
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }

  if (ft != nullptr) {
    nmp::PartitionSet& set = tree.partition_set();
    std::uint64_t kills = 0;
    for (std::uint32_t p = 0; p < set.partitions(); ++p) {
      kills += set.failovers(p);
    }
    EXPECT_GT(kills, 0u) << "kill-recover run produced no failovers";
    // The btree routes via tagged pointers, so partitions can't be targeted
    // by key; uniform reads over the initial table reach all of them.
    util::Xoshiro256 prng(fc.seed ^ 0xF417F417ULL);
    pump_until_recovered(set, [&] {
      Value out = 0;
      (void)tree.read(4 * (1 + prng.next_below(kKeysPerThread)) +
                          prng.next_below(kThreads),
                      out, 0);
    });
    for (std::uint32_t p = 0; p < set.partitions(); ++p) {
      EXPECT_FALSE(set.degraded(p)) << "partition " << p;
    }
  }

  EXPECT_TRUE(tree.validate());
  std::size_t expected = 0;
  for (const auto& oracle : oracles) expected += oracle.size();
  EXPECT_EQ(tree.size(), expected);
  expect_resilience_counters_exported();
}

// ---------------------------------------------------------------------------
// Scenarios: every fault kind in isolation, then all kinds at once.

constexpr fault::Kind kAllKinds[] = {
    fault::Kind::kCombinerStall,    fault::Kind::kDelayedResponse,
    fault::Kind::kLostWakeup,       fault::Kind::kSpuriousRetry,
    fault::Kind::kSpuriousLockPath,
};

TEST(ChaosSkipList, EachFaultKindInIsolation) {
  const std::uint64_t seed = chaos_seed();
  for (fault::Kind k : kAllKinds) {
    SCOPED_TRACE(fault::kind_name(k));
    run_skiplist_chaos(one_kind(seed, k, 0.05), /*ops_per_thread=*/600);
  }
}

TEST(ChaosSkipList, AllFaultKindsTogether) {
  run_skiplist_chaos(fault::Config::all(chaos_seed(), 0.02),
                     /*ops_per_thread=*/1200);
}

TEST(ChaosNmpSkipListBatching, TransportFaultKinds) {
  // Batch-apply path under the transport faults (see run_nmp_skiplist_chaos
  // for why the spurious-response kinds are excluded here).
  const std::uint64_t seed = chaos_seed();
  constexpr fault::Kind kTransportKinds[] = {
      fault::Kind::kCombinerStall,
      fault::Kind::kDelayedResponse,
      fault::Kind::kLostWakeup,
  };
  for (fault::Kind k : kTransportKinds) {
    SCOPED_TRACE(fault::kind_name(k));
    run_nmp_skiplist_chaos(one_kind(seed, k, 0.05), /*ops_per_thread=*/600);
  }
}

// Note: the hybrid B+ tree constructs with Config::batching = true, so every
// ChaosBTree scenario below — all five fault kinds, in isolation and
// together — runs with key-sorted combiner batching enabled.

TEST(ChaosBTree, EachFaultKindInIsolation) {
  const std::uint64_t seed = chaos_seed();
  for (fault::Kind k : kAllKinds) {
    SCOPED_TRACE(fault::kind_name(k));
    run_btree_chaos(one_kind(seed, k, 0.05), /*ops_per_thread=*/600);
  }
}

TEST(ChaosBTree, AllFaultKindsTogether) {
  run_btree_chaos(fault::Config::all(chaos_seed(), 0.02),
                  /*ops_per_thread=*/1200);
}

// ---------------------------------------------------------------------------
// Kill-recover: combiners die (kCombinerAbort) or wedge permanently
// (kCombinerWedge) and the failover supervisor must fence the lane, bounce
// in-flight slots, re-arm it on the pool, and re-integrate under
// the hysteresis gate — while the oracle stays exact. A bounced op is
// retried by the host, never lost, and never double-applied, even when the
// watchdog false-positive-fences a live-but-descheduled combiner (common
// under TSan's ~10x slowdown with a 2 ms watchdog): a fenced combiner
// still delivers replies for ops it already ran (the supervisor bounces
// only after joining it), so every failed_over response the host retries
// belongs to a slot that was never picked up.

TEST(ChaosSkipList, KillRecoverCombinerAbort) {
  FailoverTuning ft;
  run_skiplist_chaos(
      one_kind(chaos_seed(), fault::Kind::kCombinerAbort, 0.004),
      /*ops_per_thread=*/800, &ft);
}

TEST(ChaosSkipList, KillRecoverCombinerWedge) {
  FailoverTuning ft;
  run_skiplist_chaos(
      one_kind(chaos_seed(), fault::Kind::kCombinerWedge, 0.004),
      /*ops_per_thread=*/800, &ft);
}

TEST(ChaosBTree, KillRecoverCombinerAbort) {
  FailoverTuning ft;
  run_btree_chaos(one_kind(chaos_seed(), fault::Kind::kCombinerAbort, 0.004),
                  /*ops_per_thread=*/800, &ft);
}

TEST(ChaosBTree, KillRecoverCombinerWedge) {
  FailoverTuning ft;
  run_btree_chaos(one_kind(chaos_seed(), fault::Kind::kCombinerWedge, 0.004),
                  /*ops_per_thread=*/800, &ft);
}

}  // namespace
