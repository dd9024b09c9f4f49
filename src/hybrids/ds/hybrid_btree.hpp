// Hybrid B+ tree (§3.4) — the paper's primary B+ tree contribution.
//
// The top levels (sized to the last-level cache) form the host-managed
// portion: a seqlock B+ tree whose bottom-level children are tagged pointers
// into NMP partitions (partition id in the low bits of the 64-byte-aligned
// NMP node address). The lower levels are pushed down at construction into
// per-partition B+ subtree forests (NmpBTree), each owned by one NMP core.
//
// Synchronization across the boundary uses the host parent's sequence
// number: offloads carry the seqnum observed during traversal; the NMP side
// compares it with the begin node's recorded parent_seqnum to detect splits
// by earlier-queued operations (retry), or sibling-split staleness (adopt).
// Inserts that would split a partition's top-level node escalate: the NMP
// core keeps the path locked and replies LOCK_PATH; the host seqnum-CAS-locks
// its own path bottom-up and either resumes (RESUME_INSERT completes the NMP
// split chain and hands the new top node + divider back for host linking) or
// rolls back (UNLOCK_PATH) and retries from the root.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "hybrids/cache/hot_cache.hpp"
#include "hybrids/ds/btree_nodes.hpp"
#include "hybrids/ds/nmp_btree.hpp"
#include "hybrids/host/interleave.hpp"
#include "hybrids/mem/memlayer.hpp"
#include "hybrids/mem/node_pool.hpp"
#include "hybrids/nmp/partition_set.hpp"
#include "hybrids/telemetry/registry.hpp"
#include "hybrids/trace/trace.hpp"
#include "hybrids/types.hpp"
#include "hybrids/util/backoff.hpp"
#include "hybrids/util/marked_ptr.hpp"

namespace hybrids::ds {

class HybridBTree {
 public:
  using NmpRef = util::TaggedPtr<NmpBNode, 4>;  // partition id in low bits

  struct Config {
    int nmp_levels = 3;  // levels 0..nmp_levels-1 are NMP-managed
    std::uint32_t partitions = 8;
    std::uint32_t max_threads = 8;
    std::uint32_t slots_per_thread = 4;
    double fill = 0.5;  // initial node occupancy (sorted-load default)
    // NMP-requested retries (parent-seqnum mismatches, injected faults) per
    // operation before the retry budget counts as exhausted. Every retry
    // already retraverses root-down; past the budget the retry loop also
    // backs off exponentially and `host.retry_budget_exhausted` is bumped.
    std::uint32_t retry_budget = 8;
    // Key-sorted batch apply on the combiner (NmpCore::set_batch_handler):
    // each scan pass is served in ascending key order with an NmpBTree
    // traversal finger.
    bool batching = true;
    // NMP runtime watchdog / failover passthrough (see nmp::PartitionConfig
    // for the semantics; chaos tests shrink these to force fast failover).
    std::uint32_t watchdog_interval_ms = 10;
    std::uint32_t watchdog_misses_to_degrade = 5;
    std::uint32_t watchdog_misses_to_recover = 3;
    // Host-side hot-key cache: one byte budget split between the value tier
    // (reads served without touching the tree) and the shortcut tier
    // (begin-subtree refs + their offloaded parent seqnums, skipping the
    // host descent for warm read/update keys). 0 = off; the split is a live
    // knob (HotCache::set_value_ratio). See src/hybrids/cache/hot_cache.hpp.
    std::size_t cache_budget_bytes = 0;
    double cache_value_ratio = 0.5;
  };

  /// Split-point rule (§3.4): the largest host portion whose cumulative top
  /// levels fit in `llc_bytes`. Returns the number of NMP-managed levels.
  static int nmp_levels_for_cache(std::uint64_t initial_keys,
                                  std::size_t llc_bytes, double fill = 0.5,
                                  std::size_t node_bytes = 128) {
    const auto leaf_fill = static_cast<std::uint64_t>(kBTreeLeafSlots * fill);
    const auto inner_fill =
        static_cast<std::uint64_t>((kBTreeInnerSlots + 1) * fill);
    std::vector<std::uint64_t> counts;  // nodes per level, leaves first
    std::uint64_t c = (initial_keys + leaf_fill - 1) / (leaf_fill ? leaf_fill : 1);
    if (c == 0) c = 1;
    counts.push_back(c);
    while (c > 1) {
      c = (c + inner_fill - 1) / (inner_fill ? inner_fill : 2);
      counts.push_back(c);
    }
    const int height = static_cast<int>(counts.size());
    // Take levels from the top while they fit in the cache budget.
    std::uint64_t bytes = 0;
    int host_levels = 0;
    for (int lvl = height - 1; lvl >= 1; --lvl) {  // leaves never host-side
      bytes += counts[static_cast<std::size_t>(lvl)] * node_bytes;
      if (bytes > llc_bytes && host_levels >= 1) break;
      ++host_levels;
    }
    int nmp = height - host_levels;
    if (nmp < 1) nmp = 1;
    if (nmp > height - 1) nmp = height - 1;
    return nmp < 1 ? 1 : nmp;
  }

  /// Constructs the hybrid B+ tree over an existing sorted table (the paper
  /// assumes index construction over an existing database table, §3.4).
  HybridBTree(const Config& config, const std::vector<Key>& keys,
              const std::vector<Value>& values)
      : config_(config),
        last_host_level_(config.nmp_levels),
        set_(make_partition_config(config)) {
    assert(config.nmp_levels >= 1);
    assert(config.partitions >= 1 && config.partitions <= 16);
    namespace tn = telemetry::names;
    host_retry_ = &telemetry::counter(tn::kHostRetryTotal);
    retry_exhausted_ = &telemetry::counter(tn::kRetryBudgetExhausted);
    lock_path_ = &telemetry::counter(tn::kLockPathTotal);
    resume_insert_ = &telemetry::counter(tn::kResumeInsertTotal);
    unlock_path_ = &telemetry::counter(tn::kUnlockPathTotal);
    scan_hops_ = &telemetry::counter(tn::kScanPartitionHops);
    scan_retry_ = &telemetry::counter(tn::kScanRetry);
    if (config.cache_budget_bytes > 0) {
      cache::HotCache::Config cc;
      cc.budget_bytes = config.cache_budget_bytes;
      cc.value_ratio = config.cache_value_ratio;
      cc.partitions = config.partitions;
      cache_ = std::make_unique<cache::HotCache>(cc);
    }
    partitions_.reserve(config.partitions);
    for (std::uint32_t p = 0; p < config.partitions; ++p) {
      partitions_.push_back(std::make_unique<NmpBTree>(config.nmp_levels - 1));
      NmpBTree* bt = partitions_.back().get();
      // Per-partition retry-cause counter (parent_seqnum mismatch), captured
      // so the combiner hot path never touches the registry map.
      auto* seq_retries = &telemetry::counter(tn::kRetryParentSeqnum,
                                              static_cast<std::int32_t>(p));
      auto* scan_len = &telemetry::latency(tn::kScanLen,
                                           static_cast<std::int32_t>(p));
      set_.set_handler(p, [bt, seq_retries, scan_len](const nmp::Request& req,
                                                      nmp::Response& resp) {
        apply(*bt, *seq_retries, req, resp);
        if (req.op == nmp::OpCode::kScan && !resp.retry) {
          scan_len->record(resp.value);
        }
      });
      if (config.batching) {
        auto* finger_hits = &telemetry::counter(tn::kBatchFingerHits,
                                                static_cast<std::int32_t>(p));
        set_.set_batch_handler(p, [bt, seq_retries, finger_hits, scan_len](
                                      nmp::BatchOp* ops, std::size_t n) {
          NmpBTree::Finger fg;
          for (std::size_t i = 0; i < n; ++i) {
            apply(*bt, *seq_retries, *ops[i].req, *ops[i].resp, &fg);
            if (ops[i].req->op == nmp::OpCode::kScan && !ops[i].resp->retry) {
              scan_len->record(ops[i].resp->value);
            }
          }
          finger_hits->add(fg.hits);
        });
      }
    }
    build(keys, values);
    set_.start();
  }

  ~HybridBTree() {
    set_.stop();
    destroy_host(root_.load(std::memory_order_acquire));
  }

  HybridBTree(const HybridBTree&) = delete;
  HybridBTree& operator=(const HybridBTree&) = delete;

  // ----- operations ---------------------------------------------------------
  //
  // Each operation has exactly one body, its coroutine (docs/INTERLEAVING.md).
  // The host descent is a plain traverse(); the op suspends only where its
  // publication round-trip parks on its slot (host::offload), so under a
  // host::Frame sibling operations overlap the NMP wait (§3.5). The blocking
  // entry points run the same body through host::run_inline, where
  // host::offload is the plain blocking call. The LOCK_PATH escalation of
  // insert_co stays blocking (complete_escalated_insert): it holds host
  // seqlocks across the RESUME_INSERT round trip, and a sibling op on the
  // same frame would spin in wait_even_seq on one of them, so suspending
  // there would deadlock the thread.

  bool read(Key key, Value& out, std::uint32_t tid) {
    return host::run_inline(read_co(key, &out, tid));
  }
  bool update(Key key, Value value, std::uint32_t tid) {
    return host::run_inline(update_co(key, value, tid));
  }
  bool insert(Key key, Value value, std::uint32_t tid) {
    return host::run_inline(insert_co(key, value, tid));
  }
  bool remove(Key key, std::uint32_t tid) {
    return host::run_inline(remove_co(key, tid));
  }
  std::size_t scan(Key start, std::size_t count, ScanEntry* out,
                   std::uint32_t tid) {
    return host::run_inline(scan_co(start, count, out, tid));
  }

  host::CoTask<bool> read_co(Key key, Value* out, std::uint32_t tid) {
    RetryBudget budget(*this);
    const trace::OpToken tok = trace::begin_op();
    constexpr auto op8 = static_cast<std::uint8_t>(nmp::OpCode::kRead);
    if (cache_ != nullptr && cache_->lookup_value(key, *out)) {
      // Hot key: served from the value tier, no tree touched at all.
      if (tok.sampled()) {
        const std::uint64_t now = telemetry::now_ns();
        trace::record_instant(tok.id, trace::Phase::kCacheLookup, now, op8, -1);
        trace::end_op(tok, now, op8, -1, /*offloaded=*/false);
      }
      co_return true;
    }
    while (true) {
      const std::uint64_t d0 = tok.sampled() ? telemetry::now_ns() : 0;
      Frame frame;
      bool from_shortcut = false;
      std::uint32_t part = 0;
      nmp::Request req;
      cache::HotCache::Shortcut sc;
      if (cache_ != nullptr && !budget.exhausted() &&
          cache_->lookup_shortcut(key, sc)) {
        // Warm key: post straight to the cached begin subtree with the
        // parent seqnum observed at fill time. A host-level split since
        // then surfaces as an ordinary parent-seqnum retry; the entry is
        // dropped below and the op falls back to a real descent.
        from_shortcut = true;
        part = sc.partition;
        req.op = nmp::OpCode::kRead;
        req.key = key;
        req.node = sc.node;
        req.aux = sc.aux;
        req.trace_id = tok.id;
        trace::record_instant(tok.id, trace::Phase::kCacheLookup, d0, op8,
                              static_cast<std::int16_t>(part));
      } else {
        if (!traverse(key, frame)) continue;
        part = frame.partition;
        trace::record_span(tok.id, trace::Phase::kHostDescend, d0,
                           tok.sampled() ? telemetry::now_ns() : 0, op8,
                           static_cast<std::int16_t>(part));
        req = make_request(nmp::OpCode::kRead, key, 0, frame, tok.id);
      }
      const auto part16 = static_cast<std::int16_t>(part);
      const std::uint64_t gen0 = cache_gen(part);
      nmp::Response r = co_await host::offload(set_, part, tid, req);
      if (must_retry(r)) {
        on_retry_response(r, part, key, from_shortcut);
        trace::record_instant(tok.id, trace::Phase::kRetry,
                              tok.sampled() ? telemetry::now_ns() : 0, op8,
                              part16);
        budget.note_retry();
        continue;
      }
      *out = r.value;
      if (cache_ != nullptr && r.ok) {
        // r.aux echoes the partition's current version for reads, ordering
        // this fill against every write version the combiner issued.
        cache_->fill_value(key, part, r.value, r.aux, gen0);
        if (!from_shortcut) {
          cache_->fill_shortcut(key, part, frame.begin.ptr(),
                                frame.seqs[last_host_level_], gen0);
        }
      }
      if (tok.sampled()) {
        trace::end_op(tok, telemetry::now_ns(), op8, part16,
                      /*offloaded=*/true);
      }
      co_return r.ok;
    }
  }

  host::CoTask<bool> update_co(Key key, Value value, std::uint32_t tid) {
    RetryBudget budget(*this);
    const trace::OpToken tok = trace::begin_op();
    constexpr auto op8 = static_cast<std::uint8_t>(nmp::OpCode::kUpdate);
    while (true) {
      const std::uint64_t d0 = tok.sampled() ? telemetry::now_ns() : 0;
      Frame frame;
      bool from_shortcut = false;
      std::uint32_t part = 0;
      nmp::Request req;
      cache::HotCache::Shortcut sc;
      if (cache_ != nullptr && !budget.exhausted() &&
          cache_->lookup_shortcut(key, sc)) {
        // Updates never split, so a cached begin subtree replaces the whole
        // host descent; staleness comes back as a parent-seqnum retry.
        from_shortcut = true;
        part = sc.partition;
        req.op = nmp::OpCode::kUpdate;
        req.key = key;
        req.value = value;
        req.node = sc.node;
        req.aux = sc.aux;
        req.trace_id = tok.id;
        trace::record_instant(tok.id, trace::Phase::kCacheLookup, d0, op8,
                              static_cast<std::int16_t>(part));
      } else {
        if (!traverse(key, frame)) continue;
        part = frame.partition;
        trace::record_span(tok.id, trace::Phase::kHostDescend, d0,
                           tok.sampled() ? telemetry::now_ns() : 0, op8,
                           static_cast<std::int16_t>(part));
        req = make_request(nmp::OpCode::kUpdate, key, value, frame, tok.id);
      }
      const auto part16 = static_cast<std::int16_t>(part);
      const std::uint64_t gen0 = cache_gen(part);
      nmp::Response r = co_await host::offload(set_, part, tid, req);
      if (must_retry(r)) {
        on_retry_response(r, part, key, from_shortcut);
        trace::record_instant(tok.id, trace::Phase::kRetry,
                              tok.sampled() ? telemetry::now_ns() : 0, op8,
                              part16);
        budget.note_retry();
        continue;
      }
      if (cache_ != nullptr && r.ok) {
        // Erase + raise the partition fill floor to the write's version
        // (r.aux) BEFORE returning, then write through at that version.
        cache_->invalidate_value(key, part, r.aux);
        cache_->fill_value(key, part, value, r.aux, gen0);
        if (!from_shortcut) {
          cache_->fill_shortcut(key, part, frame.begin.ptr(),
                                frame.seqs[last_host_level_], gen0);
        }
      }
      if (tok.sampled()) {
        trace::end_op(tok, telemetry::now_ns(), op8, part16,
                      /*offloaded=*/true);
      }
      co_return r.ok;
    }
  }

  host::CoTask<bool> remove_co(Key key, std::uint32_t tid) {
    RetryBudget budget(*this);
    const trace::OpToken tok = trace::begin_op();
    constexpr auto op8 = static_cast<std::uint8_t>(nmp::OpCode::kRemove);
    while (true) {
      const std::uint64_t d0 = tok.sampled() ? telemetry::now_ns() : 0;
      Frame frame;
      if (!traverse(key, frame)) continue;
      const auto part16 = static_cast<std::int16_t>(frame.partition);
      trace::record_span(tok.id, trace::Phase::kHostDescend, d0,
                         tok.sampled() ? telemetry::now_ns() : 0, op8, part16);
      nmp::Response r = co_await host::offload(
          set_, frame.partition, tid,
          make_request(nmp::OpCode::kRemove, key, 0, frame, tok.id));
      if (must_retry(r)) {
        on_retry_response(r, frame.partition, key, false);
        trace::record_instant(tok.id, trace::Phase::kRetry,
                              tok.sampled() ? telemetry::now_ns() : 0, op8,
                              part16);
        budget.note_retry();
        continue;
      }
      if (cache_ != nullptr && r.ok) {
        cache_->invalidate_value(key, frame.partition, r.aux);
      }
      if (tok.sampled()) {
        trace::end_op(tok, telemetry::now_ns(), op8, part16,
                      /*offloaded=*/true);
      }
      co_return r.ok;
    }
  }

  host::CoTask<bool> insert_co(Key key, Value value, std::uint32_t tid) {
    RetryBudget budget(*this);
    const trace::OpToken tok = trace::begin_op();
    constexpr auto op8 = static_cast<std::uint8_t>(nmp::OpCode::kInsert);
    while (true) {
      const std::uint64_t d0 = tok.sampled() ? telemetry::now_ns() : 0;
      Frame frame;
      if (!traverse(key, frame)) continue;
      const auto part16 = static_cast<std::int16_t>(frame.partition);
      trace::record_span(tok.id, trace::Phase::kHostDescend, d0,
                         tok.sampled() ? telemetry::now_ns() : 0, op8, part16);
      nmp::Response r = co_await host::offload(
          set_, frame.partition, tid,
          make_request(nmp::OpCode::kInsert, key, value, frame, tok.id));
      if (must_retry(r)) {
        on_retry_response(r, frame.partition, key, false);
        trace::record_instant(tok.id, trace::Phase::kRetry,
                              tok.sampled() ? telemetry::now_ns() : 0, op8,
                              part16);
        budget.note_retry();
        continue;
      }
      if (!r.lock_path) {
        if (cache_ != nullptr && r.ok) {
          cache_->invalidate_value(key, frame.partition, r.aux);
        }
        if (tok.sampled()) {
          trace::end_op(tok, telemetry::now_ns(), op8, part16,
                        /*offloaded=*/true);
        }
        co_return r.ok;
      }
      lock_path_->inc();
      // LOCK_PATH escalation (Listing 4 lines 26-43). The escalation legs
      // (kUnlockPath / kResumeInsert) carry the same trace id, so their
      // transport phases land inside this op's kOp span.
      bool done = false;
      if (complete_escalated_insert(frame, r.node, frame.partition, tid, done,
                                    tok.id)) {
        if (tok.sampled()) {
          trace::end_op(tok, telemetry::now_ns(), op8, part16,
                        /*offloaded=*/true);
        }
        co_return done;
      }
      // Host-side locking failed; the NMP path was unlocked on our behalf.
    }
  }

  /// Range scan: fills `out` with up to `count` (key, value) pairs with key
  /// >= `start`, ascending. Each kScan chunk traverses the host portion to
  /// the begin subtree covering the current key and offloads with the
  /// observed parent seqnum; a seqnum mismatch (the subtree was split by an
  /// earlier-queued insert) retries the chunk under the usual retry budget.
  /// The chunk exhausts a begin subtree at the continuation key, then the
  /// host stitches onward at the subtree's inclusive upper bound + 1 — the
  /// bound the traversal read under the parent's seqlock, so the next
  /// subtree holds exactly the keys above it.
  ///
  /// Each chunk is individually atomic (combiner-serialized); the stitched
  /// whole is not a snapshot. Chunks cover strictly ascending disjoint key
  /// ranges, so the result is sorted with no duplicates, every key >= start,
  /// and every returned pair was present at some point during the scan.
  /// Returns the number of entries written.
  host::CoTask<std::size_t> scan_co(Key start, std::size_t count,
                                    ScanEntry* out, std::uint32_t tid) {
    std::size_t filled = 0;
    Key cur = start;
    RetryBudget budget(*this);
    bool have_part = false;
    std::uint32_t last_part = 0;
    const trace::OpToken tok = trace::begin_op();
    constexpr auto op8 = static_cast<std::uint8_t>(nmp::OpCode::kScan);
    bool offloaded = false;
    std::int16_t part16 = -1;
    while (filled < count) {
      const std::uint64_t c0 = tok.sampled() ? telemetry::now_ns() : 0;
      Frame frame;
      if (!traverse(cur, frame)) continue;
      part16 = static_cast<std::int16_t>(frame.partition);
      trace::record_span(tok.id, trace::Phase::kHostDescend, c0,
                         tok.sampled() ? telemetry::now_ns() : 0, op8, part16);
      const std::size_t want = count - filled < nmp::kScanChunk
                                   ? count - filled
                                   : nmp::kScanChunk;
      nmp::Request r = make_request(nmp::OpCode::kScan, cur,
                                    static_cast<Value>(want), frame, tok.id);
      r.host_node = out + filled;
      nmp::Response resp =
          co_await host::offload(set_, frame.partition, tid, r);
      offloaded = true;
      // One stitched chunk, retries included; the transport phases above
      // nest under it on the timeline.
      trace::record_span(tok.id, trace::Phase::kScanChunk, c0,
                         tok.sampled() ? telemetry::now_ns() : 0, op8, part16);
      if (must_retry(resp)) {
        if (cache_ != nullptr && resp.failed_over) {
          cache_->bump_generation(frame.partition);
        }
        trace::record_instant(tok.id, trace::Phase::kRetry,
                              tok.sampled() ? telemetry::now_ns() : 0, op8,
                              part16);
        scan_retry_->inc();
        budget.note_retry();
        continue;
      }
      if (have_part && frame.partition != last_part) scan_hops_->inc();
      have_part = true;
      last_part = frame.partition;
      filled += resp.value;
      if (resp.has_more) {
        cur = static_cast<Key>(resp.aux);
        continue;
      }
      // Begin subtree exhausted: continue right above its key range.
      if (!frame.bounded) break;  // rightmost subtree — nothing further
      if (frame.upper == ~Key{0}) break;
      cur = frame.upper + 1;
    }
    if (tok.sampled()) {
      trace::end_op(tok, telemetry::now_ns(), op8, part16, offloaded);
    }
    co_return filled;
  }


  // ----- introspection (quiescent-only) --------------------------------------

  const Config& config() const { return config_; }
  int last_host_level() const { return last_host_level_; }

  /// The underlying partition set (failover tests and the availability
  /// bench use it for trigger_failover / degraded / failovers).
  nmp::PartitionSet& partition_set() { return set_; }

  /// The hot-key cache, or nullptr when the budget is 0.
  cache::HotCache* hot_cache() { return cache_.get(); }

  int height() const {
    return root_.load(std::memory_order_acquire)->level + 1;
  }

  std::size_t size() const {
    return count_keys(root_.load(std::memory_order_acquire));
  }

  /// Number of host-side nodes (for split-sizing tests).
  std::size_t host_node_count() const {
    return count_host_nodes(root_.load(std::memory_order_acquire));
  }

  bool validate() const {
    const HostBNode* root = root_.load(std::memory_order_acquire);
    bool ok = true;
    validate_host(root, 0, false, ~Key{0}, false, ok);
    return ok;
  }

 private:
  /// Traversal snapshot: the recorded host path and sequence numbers
  /// (Listing 4's path[] / local_seqnum[]), plus the selected begin node.
  struct Frame {
    HostBNode* path[kBTreeMaxLevels] = {};
    std::uint32_t seqs[kBTreeMaxLevels] = {};
    // Inclusive key-range upper bound of path[lvl] (the divider chosen at
    // its parent); bnd[lvl] == false means rightmost spine, no upper bound.
    // Recorded together with seqs[lvl], so the same seqlock validation that
    // vouches for the path vouches for the bounds.
    Key uppers[kBTreeMaxLevels] = {};
    bool bnd[kBTreeMaxLevels] = {};
    int root_level = 0;
    NmpRef begin{};                // begin-NMP-traversal node + partition tag
    std::uint32_t partition = 0;
    Key upper = 0;        // inclusive upper bound of the begin subtree
    bool bounded = false; // false: begin is the rightmost subtree
  };

  /// A failover bounce must re-run the op exactly like an NMP-requested
  /// retry: the request may not have executed, and the operation loops
  /// re-traverse before re-posting. (lock_path is handled separately — the
  /// escalation protocol has its own legs.)
  static bool must_retry(const nmp::Response& r) {
    return r.retry || r.failed_over;
  }

  std::uint64_t cache_gen(std::uint32_t part) const {
    return cache_ != nullptr ? cache_->generation(part) : 0;
  }

  /// Cache bookkeeping for a retried response: a shortcut-derived post that
  /// bounced means the cached begin reference is stale (drop it); a
  /// failover bounce drops the partition's whole cached generation.
  void on_retry_response(const nmp::Response& r, std::uint32_t part, Key key,
                         bool from_shortcut) {
    if (cache_ == nullptr) return;
    if (from_shortcut) cache_->erase_shortcut(key);
    if (r.failed_over) cache_->bump_generation(part);
  }

  static nmp::PartitionConfig make_partition_config(const Config& c) {
    nmp::PartitionConfig pc;
    pc.partitions = c.partitions;
    pc.max_threads = c.max_threads;
    pc.slots_per_thread = c.slots_per_thread;
    pc.partition_width = 1;  // btree routes via tagged pointers, not keys
    pc.watchdog_interval_ms = c.watchdog_interval_ms;
    pc.watchdog_misses_to_degrade = c.watchdog_misses_to_degrade;
    pc.watchdog_misses_to_recover = c.watchdog_misses_to_recover;
    return pc;
  }

  /// Per-operation retry bookkeeping: counts NMP-requested retries, bumps
  /// `host.retry_budget_exhausted` once when the budget is crossed, and
  /// backs off exponentially past the budget so a partition stuck replying
  /// retry (injected faults, persistent seqnum races) is not hammered.
  class RetryBudget {
   public:
    explicit RetryBudget(HybridBTree& tree) : tree_(tree) {}
    void note_retry() {
      tree_.host_retry_->inc();
      if (++retries_ == tree_.config_.retry_budget) {
        tree_.retry_exhausted_->inc();
      }
      if (retries_ >= tree_.config_.retry_budget) backoff_.wait();
    }
    /// Past the budget the op stops trusting cached shortcuts (a poisoned
    /// entry must not keep feeding the retry loop).
    bool exhausted() const { return retries_ >= tree_.config_.retry_budget; }

   private:
    HybridBTree& tree_;
    util::ExpBackoff backoff_;
    std::uint32_t retries_ = 0;
  };

  // --- traversal -------------------------------------------------------------

  /// Optimistic descent to the last host level, then child-ref selection.
  /// On success, frame.begin / frame.partition identify the offload target
  /// and frame.seqs[last_host_level_] is the offloaded parent seqnum.
  bool traverse(Key key, Frame& frame) const {
    HostBNode* root = root_.load(std::memory_order_acquire);
    const std::uint32_t root_seq = root->wait_even_seq();
    if (root_.load(std::memory_order_acquire) != root) return false;
    frame.root_level = root->level;
    frame.path[root->level] = root;
    frame.seqs[root->level] = root_seq;
    frame.uppers[root->level] = 0;
    frame.bnd[root->level] = false;  // the root covers the whole key space

    int lvl = root->level;
    HostBNode* curr = root;
    while (lvl > last_host_level_) {
      const int idx = curr->find_child_index(key);
      HostBNode* child = curr->load_child(idx);
      // Stream the child's three lines in behind the seqlock validation
      // below; prefetch never faults, so a torn child pointer is safe to
      // hint. Only host levels are hinted — at the boundary the child slots
      // hold tagged NMP refs, not addresses.
      mem::prefetch_object(child, sizeof(HostBNode));
      // Child idx covers (keys[idx-1], keys[idx]]; the rightmost child
      // inherits the parent's bound. Read racily, validated below together
      // with the child pointer by the same seq_unchanged check.
      Key child_upper = frame.uppers[lvl];
      bool child_bnd = frame.bnd[lvl];
      if (idx < curr->load_slotuse()) {
        child_upper = curr->load_key(idx);
        child_bnd = true;
      }
      if (!curr->seq_unchanged(frame.seqs[lvl])) {
        if (!climb(frame, lvl, curr)) return false;
        continue;
      }
      const std::uint32_t child_seq = child->wait_even_seq();
      frame.path[lvl - 1] = child;
      frame.seqs[lvl - 1] = child_seq;
      frame.uppers[lvl - 1] = child_upper;
      frame.bnd[lvl - 1] = child_bnd;
      if (curr->seq_unchanged(frame.seqs[lvl])) {
        --lvl;
        curr = child;
      } else {
        if (!climb(frame, lvl, curr)) return false;
      }
    }
    // Select the NMP child reference under the last host node's seqlock.
    const int idx = curr->find_child_index(key);
    const std::uintptr_t bits = curr->load_child_bits(idx);
    Key sel_upper = frame.uppers[lvl];
    bool sel_bnd = frame.bnd[lvl];
    if (idx < curr->load_slotuse()) {
      sel_upper = curr->load_key(idx);
      sel_bnd = true;
    }
    if (!curr->seq_unchanged(frame.seqs[lvl])) return false;
    frame.begin = NmpRef{};
    frame.begin = ref_from_bits(bits);
    frame.partition = frame.begin.tag();
    frame.upper = sel_upper;
    frame.bounded = sel_bnd;
    return true;
  }

  static NmpRef ref_from_bits(std::uintptr_t bits) {
    NmpRef r;
    // TaggedPtr has no public bit constructor taking uintptr_t; rebuild.
    r = NmpRef(reinterpret_cast<NmpBNode*>(bits & ~std::uintptr_t{0xF}),
               static_cast<unsigned>(bits & 0xF));
    return r;
  }

  static bool climb(Frame& frame, int& lvl, HostBNode*& curr) {
    while (lvl <= frame.root_level &&
           !frame.path[lvl]->seq_unchanged(frame.seqs[lvl])) {
      ++lvl;
    }
    if (lvl > frame.root_level) return false;
    curr = frame.path[lvl];
    return true;
  }

  // --- offload ----------------------------------------------------------------

  nmp::Request make_request(nmp::OpCode op, Key key, Value value,
                            const Frame& frame,
                            std::uint64_t trace_id = 0) const {
    nmp::Request r;
    r.op = op;
    r.key = key;
    r.value = value;
    r.node = frame.begin.ptr();
    r.aux = frame.seqs[last_host_level_];  // offloaded parent seqnum
    r.trace_id = trace_id;
    return r;
  }

  /// Host half of the LOCK_PATH protocol. Returns true if the insert ran to
  /// completion (sets `done` to the operation result); false if host-side
  /// locking failed and the caller must retry from the root.
  bool complete_escalated_insert(Frame& frame, void* pending_handle,
                                 std::uint32_t partition, std::uint32_t tid,
                                 bool& done, std::uint64_t trace_id = 0) {
    // Lock the host path bottom-up until the first non-full node.
    int locked_top = -1;
    bool locked_all = false;
    for (int lvl = last_host_level_; lvl <= frame.root_level; ++lvl) {
      HostBNode* node = frame.path[lvl];
      if (!node->try_lock_at(frame.seqs[lvl])) break;
      locked_top = lvl;
      if (node->slotuse < kBTreeInnerSlots) {
        locked_all = true;
        break;
      }
    }
    if (!locked_all && locked_top == frame.root_level) {
      locked_all = true;  // whole path incl. root locked: root will split
    }
    if (!locked_all) {
      for (int lvl = last_host_level_; lvl <= locked_top; ++lvl) {
        frame.path[lvl]->unlock();
      }
      nmp::Request r;
      r.op = nmp::OpCode::kUnlockPath;
      r.node = pending_handle;
      r.trace_id = trace_id;
      unlock_path_->inc();
      // A failover bounce does not mean the unlock ran: the pending
      // escalation record survives a combiner respawn, so re-post until a
      // live combiner serves it (otherwise the NMP path stays locked).
      while (set_.call(partition, tid, r).failed_over) {
        std::this_thread::yield();
      }
      return false;
    }
    // All affected host nodes locked: resume. RESUME_INSERT is guaranteed to
    // succeed (Listing 4 line 39). We pass the final (post-unlock) seqnum of
    // the last host node so the NMP side can stamp parent_seqnum (footnote 3).
    nmp::Request rr;
    rr.op = nmp::OpCode::kResumeInsert;
    rr.node = pending_handle;
    rr.aux = frame.seqs[last_host_level_] + 2;
    rr.trace_id = trace_id;
    resume_insert_->inc();
    nmp::Response resp = set_.call(partition, tid, rr);
    while (resp.failed_over) {
      // Failover bounced the post before a combiner served it. The pending
      // escalation record survives the respawn, so re-post instead of
      // falling into the !resp.ok leg below — treating a bounce as "no
      // record" would abandon a half-applied escalated insert.
      std::this_thread::yield();
      resp = set_.call(partition, tid, rr);
    }
    if (!resp.ok) {
      // The NMP side has no record of this escalation: the LOCK_PATH
      // response was spurious (fault injection) or the pending insert was
      // dropped. Release our locks and have the caller retry from the root.
      for (int lvl = last_host_level_; lvl <= locked_top; ++lvl) {
        frame.path[lvl]->unlock();
      }
      return false;
    }
    auto* new_top = static_cast<NmpBNode*>(resp.node);
    const Key up_key = static_cast<Key>(resp.value);
    std::vector<HostBNode*> created;
    link_child_into_locked_path(frame, locked_top, up_key,
                                NmpRef(new_top, partition).bits(), created);
    for (int lvl = last_host_level_; lvl <= locked_top; ++lvl) {
      frame.path[lvl]->unlock();
    }
    for (HostBNode* n : created) n->unlock();
    // The escalated insert committed and rewired begin subtrees:
    // conservatively drop the partition's cached entries. Escalations are
    // rare split events — a generation bump is cheaper than threading a
    // version through the two-phase protocol.
    if (cache_ != nullptr) cache_->bump_generation(partition);
    done = true;
    return true;
  }

  /// Inserts (divider, child-bits) into the locked host path starting at the
  /// last host level, splitting full nodes upward; grows the root if even it
  /// splits. Split-off siblings replicate the (locked) seqnum (footnote 3)
  /// and are returned for unlocking.
  void link_child_into_locked_path(Frame& frame, int locked_top, Key up_key,
                                   std::uintptr_t up_child_bits,
                                   std::vector<HostBNode*>& created) {
    int lvl = last_host_level_;
    while (true) {
      if (lvl > locked_top) {
        grow_root(frame.path[frame.root_level], up_key, up_child_bits);
        return;
      }
      HostBNode* node = frame.path[lvl];
      int pos = 0;
      while (pos < node->slotuse && node->keys[pos] < up_key) ++pos;
      if (node->slotuse < kBTreeInnerSlots) {
        for (int j = node->slotuse; j > pos; --j) {
          node->store_key(j, node->keys[j - 1]);
          node->store_child(j + 1, node->children[j]);
        }
        node->store_key(pos, up_key);
        node->store_child_bits(pos + 1, up_child_bits);
        node->store_slotuse(static_cast<std::uint16_t>(node->slotuse + 1));
        return;
      }
      // Split this inner node.
      Key all_keys[kBTreeInnerSlots + 1];
      std::uintptr_t all_children[kBTreeInnerSlots + 2];
      int n = 0;
      all_children[0] = reinterpret_cast<std::uintptr_t>(node->children[0]);
      for (int i = 0; i < node->slotuse; ++i) {
        if (i == pos) {
          all_keys[n] = up_key;
          all_children[n + 1] = up_child_bits;
          ++n;
        }
        all_keys[n] = node->keys[i];
        all_children[n + 1] = reinterpret_cast<std::uintptr_t>(node->children[i + 1]);
        ++n;
      }
      if (pos == node->slotuse) {
        all_keys[n] = up_key;
        all_children[n + 1] = up_child_bits;
        ++n;
      }
      const int mid = n / 2;
      HostBNode* right = new_host_node(node->level);
      right->seqnum.store(node->seqnum.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      for (int i = 0; i < mid; ++i) {
        node->store_key(i, all_keys[i]);
        node->store_child_bits(i, all_children[i]);
      }
      node->store_child_bits(mid, all_children[mid]);
      node->store_slotuse(static_cast<std::uint16_t>(mid));
      int rn = 0;
      for (int i = mid + 1; i < n; ++i) {
        right->keys[rn] = all_keys[i];
        right->children[rn] = reinterpret_cast<HostBNode*>(all_children[i]);
        ++rn;
      }
      right->children[rn] = reinterpret_cast<HostBNode*>(all_children[n]);
      right->slotuse = static_cast<std::uint16_t>(rn);
      created.push_back(right);
      up_key = all_keys[mid];
      up_child_bits = reinterpret_cast<std::uintptr_t>(right);
      ++lvl;
    }
  }

  void grow_root(HostBNode* old_root, Key up_key, std::uintptr_t right_bits) {
    HostBNode* new_root = new_host_node(old_root->level + 1);
    new_root->slotuse = 1;
    new_root->keys[0] = up_key;
    new_root->children[0] = old_root;
    new_root->children[1] = reinterpret_cast<HostBNode*>(right_bits);
    root_.store(new_root, std::memory_order_release);
  }

  // --- NMP-side dispatch (combiner thread) ------------------------------------

  static void apply(NmpBTree& bt, telemetry::Counter& seq_retries,
                    const nmp::Request& req, nmp::Response& resp,
                    NmpBTree::Finger* fg = nullptr) {
    NmpBTree::OpResult res;
    auto* begin = static_cast<NmpBNode*>(req.node);
    const auto pseq = static_cast<std::uint32_t>(req.aux);
    switch (req.op) {
      case nmp::OpCode::kRead:
        res = bt.read(begin, pseq, req.key, fg);
        break;
      case nmp::OpCode::kUpdate:
        res = bt.update(begin, pseq, req.key, req.value, fg);
        break;
      case nmp::OpCode::kInsert:
        res = bt.insert(begin, pseq, req.key, req.value, fg);
        break;
      case nmp::OpCode::kRemove:
        res = bt.remove(begin, pseq, req.key, fg);
        break;
      case nmp::OpCode::kScan: {
        std::uint32_t max = static_cast<std::uint32_t>(req.value);
        if (max > nmp::kScanChunk) {
          max = static_cast<std::uint32_t>(nmp::kScanChunk);
        }
        res = bt.scan(begin, pseq, req.key, max,
                      static_cast<ScanEntry*>(req.host_node), fg);
        break;
      }
      case nmp::OpCode::kResumeInsert:
        res = bt.resume_insert(req.node, pseq);
        // Completing an escalated split rewires nodes the finger may have
        // cached (the node-count snapshot catches the split, but stay safe).
        if (fg != nullptr) fg->reset();
        break;
      case nmp::OpCode::kUnlockPath:
        res = bt.unlock_path(req.node);
        if (fg != nullptr) fg->reset();
        break;
      default:
        break;
    }
    if (res.retry) seq_retries.inc();
    resp.ok = res.ok;
    resp.retry = res.retry;
    resp.lock_path = res.lock_path;
    resp.has_more = res.has_more;        // kScan continuation
    resp.aux = res.scan_next;
    if (res.lock_path) {
      resp.node = res.handle;
    } else if (res.new_top != nullptr) {
      resp.node = res.new_top;
      resp.value = res.up_key;
    } else {
      resp.value = res.value;
    }
    // Version echoes for the host value cache — point ops only (kScan's aux
    // is the continuation key and must stay untouched). Reads echo the
    // partition's CURRENT version, not a node stamp: a never-updated key
    // would otherwise sit below the partition fill floor forever and be
    // permanently uncacheable.
    if (!res.retry) {
      if (req.op == nmp::OpCode::kRead) {
        resp.aux = bt.current_version();
      } else if (res.ok && !res.lock_path &&
                 (req.op == nmp::OpCode::kUpdate ||
                  req.op == nmp::OpCode::kInsert ||
                  req.op == nmp::OpCode::kRemove)) {
        resp.aux = bt.next_version();
      }
    }
  }

  // --- construction ------------------------------------------------------------

  /// Builds NMP subtrees (levels 0..nmp_levels-1) partition by partition and
  /// host levels on top. Capacity per subtree: leaf_fill * inner_fill^(S).
  void build(const std::vector<Key>& keys, const std::vector<Value>& values) {
    assert(keys.size() == values.size());
    int leaf_fill = static_cast<int>(kBTreeLeafSlots * config_.fill);
    if (leaf_fill < 1) leaf_fill = 1;
    int inner_fill = static_cast<int>((kBTreeInnerSlots + 1) * config_.fill);
    if (inner_fill < 2) inner_fill = 2;

    const int top = config_.nmp_levels - 1;
    std::uint64_t subtree_cap = static_cast<std::uint64_t>(leaf_fill);
    for (int l = 0; l < top; ++l) subtree_cap *= static_cast<std::uint64_t>(inner_fill);

    const std::uint64_t n = keys.size();
    const std::uint64_t subtrees =
        n == 0 ? 1 : (n + subtree_cap - 1) / subtree_cap;
    const std::uint64_t per_part =
        (subtrees + config_.partitions - 1) / config_.partitions;

    struct TopRef {
      std::uintptr_t bits;
      Key max_key;
    };
    std::vector<TopRef> tops;
    std::uint64_t i = 0;
    std::uint64_t built = 0;
    while (built < subtrees) {
      const auto part = static_cast<std::uint32_t>(
          built / (per_part ? per_part : 1));
      const std::uint32_t p = part >= config_.partitions ? config_.partitions - 1 : part;
      const std::uint64_t take =
          n - i < subtree_cap ? n - i : subtree_cap;
      NmpBNode* root = build_nmp_subtree(*partitions_[p], top, keys, values, i,
                                         take, leaf_fill, inner_fill);
      const Key maxk = take > 0 ? keys[i + take - 1] : 0;
      tops.push_back({NmpRef(root, p).bits(), maxk});
      i += take;
      ++built;
    }

    // Host levels over the pushed-down subtrees.
    struct HostRef {
      std::uintptr_t bits;
      Key max_key;
    };
    std::vector<HostRef> level_refs;
    level_refs.reserve(tops.size());
    for (const auto& t : tops) level_refs.push_back({t.bits, t.max_key});
    std::uint16_t level = static_cast<std::uint16_t>(last_host_level_);
    while (true) {
      std::vector<HostRef> upper;
      std::size_t j = 0;
      while (j < level_refs.size()) {
        HostBNode* node = new_host_node(level);
        int c = 0;
        while (c < inner_fill && j < level_refs.size()) {
          node->children[c] = reinterpret_cast<HostBNode*>(level_refs[j].bits);
          if (c > 0) node->keys[c - 1] = level_refs[j - 1].max_key;
          ++c;
          ++j;
        }
        if (j == level_refs.size() - 1 && c <= kBTreeInnerSlots) {
          node->children[c] = reinterpret_cast<HostBNode*>(level_refs[j].bits);
          node->keys[c - 1] = level_refs[j - 1].max_key;
          ++c;
          ++j;
        }
        node->slotuse = static_cast<std::uint16_t>(c - 1);
        upper.push_back({reinterpret_cast<std::uintptr_t>(node),
                         level_refs[j - 1].max_key});
      }
      if (upper.size() == 1) {
        root_.store(reinterpret_cast<HostBNode*>(upper.front().bits),
                    std::memory_order_release);
        return;
      }
      level_refs = std::move(upper);
      ++level;
    }
  }

  NmpBNode* build_nmp_subtree(NmpBTree& bt, int level,
                              const std::vector<Key>& keys,
                              const std::vector<Value>& values,
                              std::uint64_t offset, std::uint64_t count,
                              int leaf_fill, int inner_fill) {
    NmpBNode* node = bt.make_node(level);
    if (level == 0) {
      const int take = static_cast<int>(
          count < static_cast<std::uint64_t>(leaf_fill) ? count : leaf_fill);
      for (int k = 0; k < take; ++k) {
        node->keys[k] = keys[offset + k];
        node->values[k] = values[offset + k];
      }
      node->slotuse = static_cast<std::uint16_t>(take);
      return node;
    }
    std::uint64_t child_cap = static_cast<std::uint64_t>(leaf_fill);
    for (int l = 1; l < level; ++l) child_cap *= static_cast<std::uint64_t>(inner_fill);
    int c = 0;
    std::uint64_t consumed = 0;
    while (consumed < count || c == 0) {
      const std::uint64_t take =
          count - consumed < child_cap ? count - consumed : child_cap;
      NmpBNode* child = build_nmp_subtree(bt, level - 1, keys, values,
                                          offset + consumed, take, leaf_fill,
                                          inner_fill);
      node->children[c] = child;
      if (c > 0) node->keys[c - 1] = keys[offset + consumed - 1];
      consumed += take;
      ++c;
      if (c == kBTreeInnerSlots + 1) break;
    }
    node->slotuse = static_cast<std::uint16_t>(c - 1);
    return node;
  }

  // --- introspection helpers ----------------------------------------------------

  std::size_t count_keys(const HostBNode* node) const {
    if (node->level == last_host_level_) {
      std::size_t n = 0;
      for (int i = 0; i <= node->slotuse; ++i) {
        NmpRef ref = ref_from_bits(node->load_child_bits(i));
        n += partitions_[ref.tag()]->count_keys(ref.ptr());
      }
      return n;
    }
    std::size_t n = 0;
    for (int i = 0; i <= node->slotuse; ++i) n += count_keys(node->children[i]);
    return n;
  }

  std::size_t count_host_nodes(const HostBNode* node) const {
    if (node->level == last_host_level_) return 1;
    std::size_t n = 1;
    for (int i = 0; i <= node->slotuse; ++i) {
      n += count_host_nodes(node->children[i]);
    }
    return n;
  }

  void validate_host(const HostBNode* node, Key lower, bool has_lower,
                     Key upper, bool upper_inclusive, bool& ok) const {
    if (!ok) return;
    if (static_cast<int>(node->level) < last_host_level_) { ok = false; return; }
    for (int i = 1; i < node->slotuse; ++i) {
      if (node->keys[i - 1] >= node->keys[i]) {  // dividers strictly ascend
        ok = false;
        return;
      }
    }
    Key lo = lower;
    bool has_lo = has_lower;
    for (int i = 0; i <= node->slotuse; ++i) {
      const Key child_upper = i < node->slotuse ? node->keys[i] : upper;
      const bool child_incl = i < node->slotuse ? true : upper_inclusive;
      if (static_cast<int>(node->level) == last_host_level_) {
        NmpRef ref = ref_from_bits(node->load_child_bits(i));
        if (ref.ptr() == nullptr || ref.tag() >= partitions_.size()) {
          ok = false;
          return;
        }
        const NmpBTree& bt = *partitions_[ref.tag()];
        if (ref.ptr()->level != bt.top_level()) { ok = false; return; }
        // parent_seqnum can lag the host parent's seqnum (it is refreshed
        // lazily) but must never exceed it.
        if (ref.ptr()->parent_seqnum > node->seqnum.load()) { ok = false; return; }
        if (!bt.validate_subtree(ref.ptr(), has_lo ? lo : 0, child_upper,
                                 child_incl)) {
          ok = false;
          return;
        }
      } else {
        const HostBNode* child = node->children[i];
        if (child == nullptr || child->level != node->level - 1) {
          ok = false;
          return;
        }
        validate_host(child, lo, has_lo, child_upper, child_incl, ok);
        if (!ok) return;
      }
      lo = child_upper;
      has_lo = true;
    }
  }

  void destroy_host(HostBNode* node) {
    if (node == nullptr) return;
    if (static_cast<int>(node->level) > last_host_level_) {
      for (int i = 0; i <= node->slotuse; ++i) destroy_host(node->children[i]);
    }
    node->~HostBNode();
    pool_.deallocate(node, sizeof(HostBNode));
  }

  HostBNode* new_host_node(int level) {
    HostBNode* n = new (pool_.allocate(sizeof(HostBNode))) HostBNode;
    n->level = static_cast<std::uint16_t>(level);
    return n;
  }

  // Host node pool: split siblings and grown roots cluster near their
  // neighbors. Nothing is freed before destroy_host(), so no grace period.
  // Declared before root_ so it outlives the destructor's node walk.
  mem::NodePool pool_;
  Config config_;
  int last_host_level_;
  nmp::PartitionSet set_;
  std::vector<std::unique_ptr<NmpBTree>> partitions_;
  std::atomic<HostBNode*> root_{nullptr};
  // Host-layer telemetry: NMP retry responses and LOCK_PATH protocol legs.
  telemetry::Counter* host_retry_;
  telemetry::Counter* retry_exhausted_;
  telemetry::Counter* lock_path_;
  telemetry::Counter* resume_insert_;
  telemetry::Counter* unlock_path_;
  // Scan stitching: partition changes between chunks and retried chunks.
  telemetry::Counter* scan_hops_;
  telemetry::Counter* scan_retry_;
  std::unique_ptr<cache::HotCache> cache_;
};

}  // namespace hybrids::ds
