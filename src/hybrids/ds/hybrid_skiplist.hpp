// Hybrid skiplist (§3.3) — the paper's primary skiplist contribution.
//
// The structure is split at a level boundary: the top (total_height -
// nmp_height) levels form the host-managed portion, a lock-free skiplist
// whose working set is sized to fit the last-level cache; the bottom
// nmp_height levels are range-partitioned across NMP partitions, each a
// sequential skiplist owned by one NMP core. A node of tower height h >
// nmp_height exists in both portions (host part + NMP part linked by
// payload/host_ptr cross-references); shorter nodes exist only NMP-side.
//
// The host portion is a ds::FatSkipList: cache-line-sized fat B-link nodes
// (fat_skiplist.hpp — one two-line node per descent level) over stable
// per-key Entry records (LfSkipList::Node). A descent's result is a
// FatSkipList::View: match + pred entries, plus the leaf/version token the
// shortcut cache revalidates with.
//
// Host traversals act as shortcuts: the predecessor at the bottom host level
// supplies the begin-NMP-traversal node for the offloaded remainder of the
// operation. Correctness around concurrently removed begin nodes follows the
// paper: the NMP core logically marks remove targets before unlinking and
// never reuses their memory, so a stale begin node is detected and the host
// retries (Listing 2 lines 7-10).
//
// Ordering invariants (§3.3): insertions apply NMP-portion first, then host
// portion; removals apply host portion first, then NMP portion — preserving
// the skiplist property (level i is a subset of level i-1) across the split.
//
// Memory: host towers are pool-backed and recycled through an EBR grace
// period (see lockfree_skiplist.hpp), which adds two rules here. (1) Every
// window that reads fields of a host node returned by find() — deriving the
// begin-node shortcut, serving a cache-hit read — runs under a mem::EbrGuard
// that is dropped *before* the NMP offload, so a parked host thread
// never stalls reclamation. (2) The update path must not dereference the
// host-node address echoed back in a response (the tower may have been
// removed and recycled in flight); refresh_mirror() re-finds the live node
// by key and only writes if it is the very tower the combiner saw. Residual
// same-address ABA (tower recycled into a new tower for the same key) is
// harmless because value versions come from the partition's monotonic
// counter: the new incarnation's mirror is seeded strictly above any stale
// in-flight version, so update_versioned() discards the stale write.
#pragma once

#include <cassert>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "hybrids/cache/hot_cache.hpp"
#include "hybrids/ds/fat_skiplist.hpp"
#include "hybrids/ds/lockfree_skiplist.hpp"
#include "hybrids/ds/seq_skiplist.hpp"
#include "hybrids/host/interleave.hpp"
#include "hybrids/mem/ebr.hpp"
#include "hybrids/nmp/partition_set.hpp"
#include "hybrids/telemetry/registry.hpp"
#include "hybrids/trace/trace.hpp"
#include "hybrids/types.hpp"
#include "hybrids/util/backoff.hpp"
#include "hybrids/util/cache_aligned.hpp"
#include "hybrids/util/rng.hpp"

namespace hybrids::ds {

class HybridSkipList {
 public:
  struct Config {
    int total_height = 22;  // paper: log2(initial item count)
    int nmp_height = 9;     // lower levels in NMP memory (NMP_HEIGHT)
    std::uint32_t partitions = 8;
    Key partition_width = 0;  // key-range width per partition (required)
    std::uint32_t max_threads = 8;
    std::uint32_t slots_per_thread = 4;
    std::uint64_t seed = 1;

    // Adaptive promotion (§7 extension): when a short (NMP-only) key is
    // accessed `promote_threshold` times, it is raised into the host-managed
    // portion, up to `promote_budget` promotions. 0 disables. The budget is
    // a live knob (set_promote_budget) so the cache controller can move the
    // host-managed split online.
    std::uint32_t promote_threshold = 0;
    std::uint32_t promote_budget = 0;

    // Hot-key cache (cache/hot_cache.hpp): shared byte budget for the
    // value + shortcut tiers; 0 builds no cache at all.
    // The shortcut tier serves read/update descents; insert/remove/scan
    // keep their full host descent (remove's host-portion-first ordering
    // is semantic, inserts need the host window anyway).
    std::size_t cache_budget_bytes = 0;
    double cache_value_ratio = 0.5;

    // Stale-begin-node retries per operation before the budget counts as
    // exhausted. Past the budget the operation backs off exponentially and
    // falls back to a full root-down NMP retraversal (begin node dropped,
    // so the partition head is used — a start that can never be stale), and
    // `host.retry_budget_exhausted` is bumped.
    std::uint32_t retry_budget = 8;

    // NMP runtime watchdog / failover passthrough (see nmp::PartitionConfig
    // for the semantics; chaos tests shrink these to force fast failover).
    std::uint32_t watchdog_interval_ms = 10;
    std::uint32_t watchdog_misses_to_degrade = 5;
    std::uint32_t watchdog_misses_to_recover = 3;

    int host_height() const { return total_height - nmp_height; }
  };

  /// Chooses the host/NMP split so the host-managed portion (the top levels,
  /// expected node count 2^host_levels) fits in `llc_bytes` of cache, per
  /// the paper's sizing rule: 2^x * sizeof(Node) ~ LLC size.
  static int nmp_height_for_cache(std::uint64_t initial_keys,
                                  std::size_t llc_bytes,
                                  std::size_t node_bytes = 128) {
    int total = 1;
    while ((1ull << total) < initial_keys) ++total;
    int host_levels = 1;
    while ((1ull << (host_levels + 1)) * node_bytes <= llc_bytes &&
           host_levels < total - 1) {
      ++host_levels;
    }
    int nmp = total - host_levels;
    return nmp < 1 ? 1 : nmp;
  }

  explicit HybridSkipList(const Config& config)
      : config_(config),
        host_(config.host_height()),
        set_(make_partition_config(config)),
        promote_budget_(config.promote_budget) {
    assert(config.total_height > config.nmp_height);
    assert(config.nmp_height >= 1);
    if (config.cache_budget_bytes > 0) {
      cache::HotCache::Config cc;
      cc.budget_bytes = config.cache_budget_bytes;
      cc.value_ratio = config.cache_value_ratio;
      cc.partitions = config.partitions;
      cache_ = std::make_unique<cache::HotCache>(cc);
    }
    namespace tn = telemetry::names;
    host_read_hits_ = &telemetry::counter(tn::kHostReadHits);
    host_retry_ = &telemetry::counter(tn::kHostRetryTotal);
    retry_exhausted_ = &telemetry::counter(tn::kRetryBudgetExhausted);
    scan_hops_ = &telemetry::counter(tn::kScanPartitionHops);
    scan_retry_ = &telemetry::counter(tn::kScanRetry);
    lists_.reserve(config.partitions);
    for (std::uint32_t p = 0; p < config.partitions; ++p) {
      lists_.push_back(std::make_unique<SeqSkipList>(config.nmp_height));
      SeqSkipList* list = lists_.back().get();
      const int nmp_height = config.nmp_height;
      const std::uint32_t threshold = config.promote_threshold;
      // Per-partition retry-cause counters, captured by the handler so the
      // combiner hot path never touches the registry map.
      auto* stale = &telemetry::counter(tn::kRetryStaleBeginNode,
                                        static_cast<std::int32_t>(p));
      auto* from_head = &telemetry::counter(tn::kBeginFromHead,
                                            static_cast<std::int32_t>(p));
      auto* scan_len = &telemetry::latency(tn::kScanLen,
                                           static_cast<std::int32_t>(p));
      set_.set_handler(p, [list, nmp_height, threshold, stale, from_head,
                           scan_len](const nmp::Request& req,
                                     nmp::Response& resp) {
        apply(*list, nmp_height, threshold, *stale, *from_head, req, resp);
        if (req.op == nmp::OpCode::kScan && !resp.retry) {
          scan_len->record(resp.value);
        }
      });
    }
    rngs_ = std::vector<util::CacheAligned<util::Xoshiro256>>(config.max_threads);
    for (std::uint32_t t = 0; t < config.max_threads; ++t) {
      *rngs_[t] = util::Xoshiro256(config.seed * 0x9E3779B97F4A7C15ULL + t);
    }
    set_.start();
  }

  ~HybridSkipList() { set_.stop(); }

  // ----- operations ---------------------------------------------------------
  //
  // Each operation has exactly one body, its coroutine (docs/INTERLEAVING.md).
  // The host descent is a plain FatSkipList::find; the op suspends only where
  // its publication round-trip parks on its slot (host::offload), so under a
  // host::Frame sibling operations on the same thread overlap the NMP wait
  // (the paper's non-blocking calls, §3.5). Every EbrGuard closes before the
  // op parks. The blocking entry points run the same body through
  // host::run_inline, where host::offload is the plain blocking call.

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
    const trace::OpToken tok = trace::begin_op();
    constexpr auto op8 = static_cast<std::uint8_t>(nmp::OpCode::kRead);
    RetryBudget budget(*this);
    const std::uint32_t part = set_.partition_of(key);
    const auto part16 = static_cast<std::int16_t>(part);
    if (cache_ != nullptr && cache_->lookup_value(key, *out)) {
      // Hot key: served from the value tier, no structure touched at all.
      if (tok.sampled()) {
        const std::uint64_t now = telemetry::now_ns();
        trace::record_instant(tok.id, trace::Phase::kCacheLookup, now, op8,
                              part16);
        trace::end_op(tok, now, op8, part16, /*offloaded=*/false);
      }
      co_return true;
    }
    while (true) {
      const std::uint64_t gen0 = cache_gen(part);
      nmp::Request req;
      FatSkipList::View w;
      bool from_shortcut = false;
      const std::uint64_t d0 = tok.sampled() ? telemetry::now_ns() : 0;
      cache::HotCache::Shortcut sc;
      bool have_sc = cache_ != nullptr && !budget.exhausted() &&
                     cache_->lookup_shortcut(key, sc);
      if (have_sc && shortcut_stale(sc)) {
        cache_->erase_shortcut(key);
        have_sc = false;
      }
      if (have_sc) {
        // Warm key: post straight to the partition with the cached begin
        // node, skipping the host descent; a stale target comes back as an
        // ordinary retry and the entry is dropped below.
        from_shortcut = true;
        req.op = nmp::OpCode::kRead;
        req.key = key;
        req.node = sc.node;
        req.trace_id = tok.id;
        trace::record_instant(tok.id, trace::Phase::kCacheLookup, d0, op8,
                              part16);
      } else {
        {
          mem::EbrGuard guard;  // spans find + every View entry read
          if (host_.find(key, w)) {
            // Tall node: the value is mirrored host-side; serve from cache.
            host_read_hits_->inc();
            *out = w.match->value_now();
            if (tok.sampled()) {
              const std::uint64_t now = telemetry::now_ns();
              trace::record_span(tok.id, trace::Phase::kHostDescend, d0, now,
                                 op8, part16);
              trace::end_op(tok, now, op8, part16, /*offloaded=*/false);
            }
            co_return true;
          }
          req = make_request(nmp::OpCode::kRead, key, 0, 0, w.pred, nullptr,
                             part, budget.exhausted());
          req.trace_id = tok.id;
        }
        trace::record_span(tok.id, trace::Phase::kHostDescend, d0,
                           tok.sampled() ? telemetry::now_ns() : 0, op8,
                           part16);
      }
      nmp::Response r = co_await host::offload(set_, part, tid, req);
      if (must_retry(r)) {
        on_retry_response(r, part, key, from_shortcut);
        trace::record_instant(tok.id, trace::Phase::kRetry,
                              tok.sampled() ? telemetry::now_ns() : 0, op8,
                              part16);
        budget.note_retry();
        continue;
      }
      if (r.promote_hint) try_promote(key, tid);
      *out = r.value;
      if (cache_ != nullptr && r.ok) {
        // r.aux echoes the partition's current version for reads, so this
        // fill is ordered against every write version the combiner issued.
        cache_->fill_value(key, part, r.value, r.aux, gen0);
        if (!from_shortcut && req.node != nullptr) {
          // The fill carries the backing leaf + seqlock stamp so later hits
          // revalidate before trusting the begin node. A begin node implies
          // a host pred, so w.leaf is the validated node it was read from.
          cache_->fill_shortcut(key, part, req.node, w.leaf_version, gen0,
                                w.leaf);
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
    const trace::OpToken tok = trace::begin_op();
    constexpr auto op8 = static_cast<std::uint8_t>(nmp::OpCode::kUpdate);
    RetryBudget budget(*this);
    const std::uint32_t part = set_.partition_of(key);
    const auto part16 = static_cast<std::int16_t>(part);
    while (true) {
      const std::uint64_t gen0 = cache_gen(part);
      nmp::Request req;
      FatSkipList::View w;
      bool from_shortcut = false;
      const std::uint64_t d0 = tok.sampled() ? telemetry::now_ns() : 0;
      cache::HotCache::Shortcut sc;
      bool have_sc = cache_ != nullptr && !budget.exhausted() &&
                     cache_->lookup_shortcut(key, sc);
      if (have_sc && shortcut_stale(sc)) {
        cache_->erase_shortcut(key);
        have_sc = false;
      }
      if (have_sc) {
        // Updates go through the NMP portion regardless, so a cached begin
        // node replaces the whole host descent.
        from_shortcut = true;
        req.op = nmp::OpCode::kUpdate;
        req.key = key;
        req.value = value;
        req.node = sc.node;
        req.trace_id = tok.id;
        trace::record_instant(tok.id, trace::Phase::kCacheLookup, d0, op8,
                              part16);
      } else {
        {
          mem::EbrGuard guard;
          (void)host_.find(key, w);
          // Updates always go through the NMP portion (the authoritative
          // copy); the response tells us which host mirror to refresh, and
          // with which version, so racing updates converge (§3.3).
          req = make_request(nmp::OpCode::kUpdate, key, value, 0, w.pred,
                             nullptr, part, budget.exhausted());
          req.trace_id = tok.id;
        }
        trace::record_span(tok.id, trace::Phase::kHostDescend, d0,
                           tok.sampled() ? telemetry::now_ns() : 0, op8,
                           part16);
      }
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
        // (r.aux) BEFORE returning, then write through: the fresh fill
        // carries that same version, so it beats any stale in-flight fill.
        cache_->invalidate_value(key, part, r.aux);
        cache_->fill_value(key, part, value, r.aux, gen0);
        if (!from_shortcut && req.node != nullptr) {
          cache_->fill_shortcut(key, part, req.node, w.leaf_version, gen0,
                                w.leaf);
        }
      }
      if (r.ok) refresh_mirror(key, r, value);
      if (r.promote_hint) try_promote(key, tid);
      if (tok.sampled()) {
        trace::end_op(tok, telemetry::now_ns(), op8, part16,
                      /*offloaded=*/true);
      }
      co_return r.ok;
    }
  }

  host::CoTask<bool> insert_co(Key key, Value value, std::uint32_t tid) {
    const trace::OpToken tok = trace::begin_op();
    constexpr auto op8 = static_cast<std::uint8_t>(nmp::OpCode::kInsert);
    RetryBudget budget(*this);
    const std::uint32_t part = set_.partition_of(key);
    const auto part16 = static_cast<std::int16_t>(part);
    while (true) {
      const int height = random_height(*rngs_[tid], config_.total_height);
      LfSkipList::Node* hnode = nullptr;
      nmp::Request req;
      const std::uint64_t d0 = tok.sampled() ? telemetry::now_ns() : 0;
      {
        mem::EbrGuard guard;
        FatSkipList::View w;
        if (host_.find(key, w)) {  // tall node present
          if (tok.sampled()) {
            const std::uint64_t now = telemetry::now_ns();
            trace::record_span(tok.id, trace::Phase::kHostDescend, d0, now,
                               op8, part16);
            trace::end_op(tok, now, op8, part16, /*offloaded=*/false);
          }
          co_return false;
        }
        if (height > config_.nmp_height) {
          hnode = host_.make_entry(key, value, height - config_.nmp_height);
        }
        req = make_request(nmp::OpCode::kInsert, key, value,
                           static_cast<std::uint64_t>(height), w.pred, hnode,
                           part, budget.exhausted());
        req.trace_id = tok.id;
      }
      trace::record_span(tok.id, trace::Phase::kHostDescend, d0,
                         tok.sampled() ? telemetry::now_ns() : 0, op8, part16);
      // NMP portion first (linearization point: bottom-level link, which
      // lives in the NMP partition).
      nmp::Response r = co_await host::offload(set_, part, tid, req);
      if (must_retry(r)) {
        on_retry_response(r, part, key, /*from_shortcut=*/false);
        trace::record_instant(tok.id, trace::Phase::kRetry,
                              tok.sampled() ? telemetry::now_ns() : 0, op8,
                              part16);
        budget.note_retry();
        if (hnode != nullptr) host_.free_unlinked(hnode);
        continue;
      }
      if (!r.ok) {
        if (hnode != nullptr) host_.free_unlinked(hnode);
        if (tok.sampled()) {
          trace::end_op(tok, telemetry::now_ns(), op8, part16,
                        /*offloaded=*/true);
        }
        co_return false;  // key already present
      }
      // Inserting a key that was recently removed must kill any cached
      // "old incarnation" value; r.aux carries the insert's fresh version.
      if (cache_ != nullptr) cache_->invalidate_value(key, part, r.aux);
      if (hnode != nullptr) {
        hnode->payload = r.node;  // NMP counterpart (begin-node shortcut)
        // Seed the mirror at the insert-time version (r.aux) before linking:
        // if this tower's memory was previously a removed tower for the same
        // key, any stale in-flight refresh carries a strictly older version
        // and update_versioned discards it.
        LfSkipList::update_versioned(hnode, static_cast<std::uint32_t>(r.aux),
                                     value);
        if (!host_.insert_node(hnode)) {
          // Cannot happen while the NMP insert above owns the key; defensive.
          host_.free_unlinked(hnode);
        }
      }
      if (tok.sampled()) {
        trace::end_op(tok, telemetry::now_ns(), op8, part16,
                      /*offloaded=*/true);
      }
      co_return true;
    }
  }

  host::CoTask<bool> remove_co(Key key, std::uint32_t tid) {
    const trace::OpToken tok = trace::begin_op();
    constexpr auto op8 = static_cast<std::uint8_t>(nmp::OpCode::kRemove);
    RetryBudget budget(*this);
    const std::uint32_t part = set_.partition_of(key);
    const auto part16 = static_cast<std::int16_t>(part);
    while (true) {
      nmp::Request req;
      const std::uint64_t d0 = tok.sampled() ? telemetry::now_ns() : 0;
      {
        mem::EbrGuard guard;
        FatSkipList::View w;
        if (host_.find(key, w)) {
          // Host portion first (removals proceed top-down across the split).
          if (!host_.remove(key)) {
            // A concurrent remover won the host race; it owns the NMP side.
            if (tok.sampled()) {
              const std::uint64_t now = telemetry::now_ns();
              trace::record_span(tok.id, trace::Phase::kHostDescend, d0, now,
                                 op8, part16);
              trace::end_op(tok, now, op8, part16, /*offloaded=*/false);
            }
            co_return false;
          }
          // Re-derive the begin node: the old pred may have been the
          // victim's neighborhood; a fresh find gives a clean window.
          trace::record_span(tok.id, trace::Phase::kHostDescend, d0,
                             tok.sampled() ? telemetry::now_ns() : 0, op8,
                             part16);
          continue;
        }
        req = make_request(nmp::OpCode::kRemove, key, 0, 0, w.pred, nullptr,
                           part, budget.exhausted());
        req.trace_id = tok.id;
      }
      trace::record_span(tok.id, trace::Phase::kHostDescend, d0,
                         tok.sampled() ? telemetry::now_ns() : 0, op8, part16);
      nmp::Response r = co_await host::offload(set_, part, tid, req);
      if (must_retry(r)) {
        on_retry_response(r, part, key, /*from_shortcut=*/false);
        trace::record_instant(tok.id, trace::Phase::kRetry,
                              tok.sampled() ? telemetry::now_ns() : 0, op8,
                              part16);
        budget.note_retry();
        continue;
      }
      // r.aux carries the remove's version on success; the linearization
      // point has passed, so the cached value (if any) is now stale.
      if (cache_ != nullptr && r.ok) cache_->invalidate_value(key, part, r.aux);
      if (tok.sampled()) {
        trace::end_op(tok, telemetry::now_ns(), op8, part16,
                      /*offloaded=*/true);
      }
      co_return r.ok;
    }
  }

  /// Range scan: fills `out` with up to `count` (key, value) pairs with key
  /// >= `start`, ascending. Each kScan chunk is begun from the host
  /// portion's bottom-level predecessor shortcut (like point operations);
  /// the combiner reports a stale begin node via resp.retry and the chunk is
  /// re-issued under the usual retry budget (force_head once exhausted).
  /// Longer scans continue within a partition at the response's continuation
  /// key and hop to the next partition when one is exhausted.
  ///
  /// Each chunk is individually atomic (combiner-serialized); the stitched
  /// whole is not a snapshot. Guarantees: ascending keys with no duplicates
  /// (chunks cover strictly ascending disjoint key ranges), every returned
  /// key >= start, and every returned (key, value) was present at some point
  /// during the scan. Returns the number of entries written.
  host::CoTask<std::size_t> scan_co(Key start, std::size_t count,
                                    ScanEntry* out, std::uint32_t tid) {
    const trace::OpToken tok = trace::begin_op();
    constexpr auto op8 = static_cast<std::uint8_t>(nmp::OpCode::kScan);
    bool offloaded = false;
    std::size_t filled = 0;
    Key cur = start;
    std::uint32_t p = set_.partition_of(start);
    RetryBudget budget(*this);
    while (filled < count) {
      const std::size_t want = count - filled < nmp::kScanChunk
                                   ? count - filled
                                   : nmp::kScanChunk;
      const auto part16 = static_cast<std::int16_t>(p);
      const std::uint64_t c0 = tok.sampled() ? telemetry::now_ns() : 0;
      nmp::Request r;
      {
        mem::EbrGuard guard;
        FatSkipList::View w;
        (void)host_.find(cur, w);
        r = make_request(nmp::OpCode::kScan, cur, static_cast<Value>(want), 0,
                         w.pred, nullptr, p, budget.exhausted());
        r.trace_id = tok.id;
      }
      trace::record_span(tok.id, trace::Phase::kHostDescend, c0,
                         tok.sampled() ? telemetry::now_ns() : 0, op8, part16);
      r.host_node = out + filled;
      nmp::Response resp = co_await host::offload(set_, p, tid, r);
      offloaded = true;
      // One stitched chunk (descend + offload round-trip), including
      // retried attempts; the inner phases nest under it in the viewer.
      trace::record_span(tok.id, trace::Phase::kScanChunk, c0,
                         tok.sampled() ? telemetry::now_ns() : 0, op8, part16);
      if (must_retry(resp)) {
        on_retry_response(resp, p, cur, /*from_shortcut=*/false);
        trace::record_instant(tok.id, trace::Phase::kRetry,
                              tok.sampled() ? telemetry::now_ns() : 0, op8,
                              part16);
        scan_retry_->inc();
        budget.note_retry();
        continue;
      }
      filled += resp.value;
      if (resp.has_more) {
        cur = static_cast<Key>(resp.aux);
        continue;
      }
      if (p + 1 >= config_.partitions) break;
      ++p;
      scan_hops_->inc();
      // Partition p's keys all sit at or above its range base; continuing
      // at max(cur, base) keeps the chunk sequence strictly ascending.
      const Key base = static_cast<Key>(static_cast<std::uint64_t>(p) *
                                        config_.partition_width);
      if (base > cur) cur = base;
    }
    if (tok.sampled()) {
      trace::end_op(tok, telemetry::now_ns(), op8,
                    static_cast<std::int16_t>(p), offloaded);
    }
    co_return filled;
  }


  /// Adaptive promotion (§7 extension): raise `key` — reported hot by its
  /// NMP core — into the host-managed portion. Replaces the short NMP node
  /// with a full-height one and links a host counterpart, making future
  /// reads of the key servable from the host cache. Bounded by
  /// promote_budget; safe to call concurrently (at most one promotion per
  /// key fires, because the hint is raised exactly when the counter crosses
  /// the threshold on the serializing combiner).
  void try_promote(Key key, std::uint32_t tid) {
    const std::uint32_t budget =
        promote_budget_.load(std::memory_order_relaxed);
    if (config_.promote_threshold == 0 || budget == 0) return;
    if (promoted_.fetch_add(1, std::memory_order_relaxed) >= budget) {
      promoted_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    const int host_h = random_height(*rngs_[tid], config_.host_height());
    LfSkipList::Node* hnode = host_.make_entry(key, 0, host_h);
    const std::uint32_t part = set_.partition_of(key);
    nmp::Request req;
    {
      mem::EbrGuard guard;
      FatSkipList::View w;
      (void)host_.find(key, w);
      req = make_request(nmp::OpCode::kPromote, key, 0, 0, w.pred, hnode,
                         part, /*force_head=*/false);
    }
    nmp::Response r = set_.call(part, tid, req);
    if (!r.ok) {  // key vanished or was already promoted meanwhile
      host_.free_unlinked(hnode);
      promoted_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    // Seed the host mirror with the value captured at promotion time, then
    // link it; later updates supersede it via versioning (the promote bumped
    // the NMP-side version, so r.aux is strictly newer than any prior update).
    LfSkipList::update_versioned(hnode, static_cast<std::uint32_t>(r.aux),
                                 r.value);
    hnode->payload = r.node;
    if (!host_.insert_node(hnode)) {
      host_.free_unlinked(hnode);
      promoted_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Number of promotions performed so far (quiescent reads for tests).
  std::uint32_t promoted() const {
    return promoted_.load(std::memory_order_relaxed);
  }

  /// Live promote-budget knob: the cache controller raises it when
  /// partitions are queue-bound (more host-mirrored keys absorb reads
  /// host-side) and lowers it when host levels are pure overhead. Lowering
  /// does not demote already-promoted keys; it only stops further growth.
  void set_promote_budget(std::uint32_t budget) {
    promote_budget_.store(budget, std::memory_order_relaxed);
  }
  std::uint32_t promote_budget() const {
    return promote_budget_.load(std::memory_order_relaxed);
  }

  /// The hot-key cache, or nullptr when the budget is 0. Exposed for the
  /// controller and tests.
  cache::HotCache* hot_cache() { return cache_.get(); }

  // ----- introspection (quiescent-only) --------------------------------------

  const Config& config() const { return config_; }

  /// The underlying NMP runtime, exposed for failover control and health
  /// queries (trigger_failover / degraded / failovers / recoveries).
  nmp::PartitionSet& partition_set() { return set_; }

  /// Item count = bottom-level (NMP) count; host nodes are a strict subset.
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& l : lists_) n += l->size();
    return n;
  }

  /// Validates both portions and their cross-references.
  bool validate() const {
    for (const auto& l : lists_) {
      if (!l->validate()) return false;
    }
    if (!host_.validate()) return false;
    // Every host entry must reference a live NMP counterpart with equal key.
    bool ok = true;
    host_.for_each_entry([&](LfSkipList::Node* n) {
      auto* counterpart = static_cast<SeqSkipList::Node*>(n->payload);
      if (counterpart == nullptr || counterpart->key != n->key ||
          counterpart->marked || counterpart->host_ptr != n) {
        ok = false;
      }
    });
    return ok;
  }

  /// Number of nodes in the host-managed portion (for split-sizing tests).
  std::size_t host_size() const { return host_.size(); }

  /// Host towers awaiting their reclamation grace period (bounded under
  /// churn; see LfSkipList). Tests drain with host_reclaim() — each call
  /// also advances the epoch, so a few quiescent calls empty the set.
  std::size_t host_retired_count() const { return host_.retired_count(); }
  std::size_t host_reclaim() { return host_.reclaim_retired(); }

 private:
  /// Per-operation stale-begin-node retry bookkeeping. Within the budget,
  /// retries re-derive the host shortcut; once exhausted() the operation
  /// backs off exponentially and offloads start from the partition head (a
  /// begin node that can never be stale), guaranteeing progress.
  class RetryBudget {
   public:
    explicit RetryBudget(HybridSkipList& list) : list_(list) {}
    void note_retry() {
      list_.host_retry_->inc();
      if (++retries_ == list_.config_.retry_budget) {
        list_.retry_exhausted_->inc();
      }
      if (exhausted()) backoff_.wait();
    }
    bool exhausted() const { return retries_ >= list_.config_.retry_budget; }

   private:
    HybridSkipList& list_;
    util::ExpBackoff backoff_;
    std::uint32_t retries_ = 0;
  };

  /// True when the host must re-execute: the NMP core asked for a retry, or
  /// the response carries a lock_path escalation, which the skiplist
  /// protocol never issues (it can only appear through fault injection) and
  /// which is therefore treated as "response unusable, re-execute".
  static bool must_retry(const nmp::Response& r) {
    // failed_over: the partition was fenced mid-flight and the op was not
    // applied; re-routing through the ordinary retry loop (with its backoff)
    // rides out the recovery window.
    return r.retry || r.lock_path || r.failed_over;
  }

  /// Partition cache generation at request-build time; 0 when the cache is
  /// disabled (then never compared against anything).
  std::uint64_t cache_gen(std::uint32_t part) const {
    return cache_ != nullptr ? cache_->generation(part) : 0;
  }

  /// Cache upkeep for a response the host must re-execute: a shortcut-
  /// derived begin node that bounced is dropped (the next attempt descends
  /// for real and refills), and a failover bounce invalidates the
  /// partition's whole cached population via its generation.
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
    pc.partition_width = c.partition_width;
    pc.watchdog_interval_ms = c.watchdog_interval_ms;
    pc.watchdog_misses_to_degrade = c.watchdog_misses_to_degrade;
    pc.watchdog_misses_to_recover = c.watchdog_misses_to_recover;
    return pc;
  }

  /// Refreshes the host-side value mirror named by an NMP update response.
  /// Never dereferences r.node: the tower it names may have been removed and
  /// recycled while the response was in flight. Instead re-find the key's
  /// live host node under a guard and only install the versioned value if it
  /// is the very tower the combiner saw. If the address was recycled into a
  /// *new* tower for the same key, the identity check passes vacuously but
  /// the write is still discarded: the new mirror was seeded at a version
  /// above r.aux (versions are partition-monotonic across re-inserts).
  void refresh_mirror(Key key, const nmp::Response& r, Value value) {
    if (r.node == nullptr) return;
    mem::EbrGuard guard;
    LfSkipList::Node* n = host_.get_node(key);
    if (n == static_cast<LfSkipList::Node*>(r.node)) {
      LfSkipList::update_versioned(n, static_cast<std::uint32_t>(r.aux),
                                   value);
    }
  }

  /// Caller must hold a mem::EbrGuard spanning the host_.find() that produced
  /// `pred0` through this call: the shortcut derivation reads pred0's key and
  /// payload.
  nmp::Request make_request(nmp::OpCode op, Key key, Value value,
                            std::uint64_t aux, LfSkipList::Node* pred0,
                            LfSkipList::Node* hnode, std::uint32_t part,
                            bool force_head) const {
    nmp::Request r;
    r.op = op;
    r.key = key;
    r.value = value;
    r.aux = aux;
    r.host_node = hnode;
    // Begin-NMP-traversal node (Listing 1 lines 14-15): only usable if a
    // host-side predecessor exists (View::pred is null when the key
    // precedes every host entry) and lives in the same partition as the
    // lookup key, and not suppressed by an exhausted retry budget
    // (force_head).
    if (!force_head && pred0 != nullptr &&
        set_.partition_of(pred0->key) == part) {
      r.node = pred0->payload;
    }
    return r;
  }

  /// Shortcuts carry the backing host leaf and its seqlock stamp in
  /// (host, aux); a moved leaf means the cached begin node may already be
  /// unlinked, so drop the entry and descend for real instead of eating a
  /// bounced offload round-trip.
  bool shortcut_stale(const cache::HotCache::Shortcut& sc) const {
    return !host_.node_version_is(sc.host, sc.aux);
  }

 public:
  /// NMP-side of every operation (runs on the partition's combiner thread;
  /// mirrors Listing 2, plus the §7 adaptive-promotion extension). Public so
  /// protocol unit tests can drive the combiner side deterministically (e.g.
  /// a kScan against a logically-deleted begin node) without the runtime
  /// around it.
  static void apply(SeqSkipList& list, int nmp_height, std::uint32_t threshold,
                    telemetry::Counter& stale_retries,
                    telemetry::Counter& begin_from_head,
                    const nmp::Request& req, nmp::Response& resp) {
    SeqSkipList::Node* begin = list.head();
    if (req.node != nullptr) {
      auto* candidate = static_cast<SeqSkipList::Node*>(req.node);
      if (SeqSkipList::is_stale(candidate)) {
        // Begin node removed by an operation queued earlier: host must retry.
        stale_retries.inc();
        resp.retry = true;
        return;
      }
      begin = candidate;
    } else {
      // No usable host shortcut: traversal starts at the partition head.
      begin_from_head.inc();
    }
    // Exactly one access observes the counter crossing the threshold, so at
    // most one promotion fires per key (the combiner serializes accesses).
    auto note_access = [&](SeqSkipList::Node* n) {
      if (threshold == 0 || n == nullptr) return;
      ++n->hits;
      if (n->hits == threshold && n->host_ptr == nullptr) {
        resp.promote_hint = true;
      }
    };
    switch (req.op) {
      case nmp::OpCode::kRead: {
        SeqSkipList::Node* n = list.read(req.key, begin);
        resp.ok = n != nullptr;
        if (n != nullptr) resp.value = n->value;
        // Echo the partition's CURRENT version (not the node's): the host
        // cache fill must carry a token ordered against every write this
        // combiner has issued, including writes to other keys that raised
        // the fill floor — a never-updated key would otherwise sit below
        // the floor forever and be permanently uncacheable.
        resp.aux = list.current_version();
        note_access(n);
        break;
      }
      case nmp::OpCode::kUpdate: {
        SeqSkipList::Node* n = list.read(req.key, begin);
        resp.ok = n != nullptr;
        if (n != nullptr) {
          n->value = req.value;
          // Partition-monotonic version (not ++n->version): versions for a
          // key stay totally ordered across remove/re-insert, which the host
          // mirror-refresh relies on once towers are pool-recycled.
          n->version = list.next_version();
          resp.node = n->host_ptr;  // host refreshes its mirror (if tall)
          resp.aux = n->version;
        }
        note_access(n);
        break;
      }
      case nmp::OpCode::kPromote: {
        SeqSkipList::Node* n = list.promote(req.key, req.host_node);
        resp.ok = n != nullptr;
        if (n != nullptr) {
          resp.node = n;
          resp.value = n->value;
          resp.aux = n->version;
        }
        break;
      }
      case nmp::OpCode::kInsert: {
        int height = static_cast<int>(req.aux);
        if (height > nmp_height) height = nmp_height;
        auto [node, existed] =
            list.insert(req.key, req.value, height, req.host_node, begin);
        resp.ok = !existed;
        resp.node = node;
        if (!existed) {
          // Stamp a fresh version and echo it on EVERY successful insert
          // (not just host-mirrored ones): the host seeds a tall mirror
          // strictly above any stale in-flight refresh for a previous
          // incarnation of this key, and the hot-key cache uses the same
          // token to invalidate that incarnation's cached value.
          node->version = list.next_version();
          resp.aux = node->version;
        }
        break;
      }
      case nmp::OpCode::kRemove:
        resp.ok = list.remove(req.key, begin);
        // A fresh version for the removal so the host cache's fill floor
        // rises past every read that could still observe the key.
        if (resp.ok) resp.aux = list.next_version();
        break;
      case nmp::OpCode::kScan: {
        std::uint32_t max = static_cast<std::uint32_t>(req.value);
        if (max > nmp::kScanChunk) max = nmp::kScanChunk;
        Key next = 0;
        bool more = false;
        resp.value = list.scan(req.key, max, begin,
                               static_cast<ScanEntry*>(req.host_node), &next,
                               &more);
        resp.aux = next;
        resp.has_more = more;
        resp.ok = true;
        break;
      }
      default:
        resp.ok = false;
        break;
    }
  }

 private:
  Config config_;
  FatSkipList host_;
  nmp::PartitionSet set_;
  std::vector<std::unique_ptr<SeqSkipList>> lists_;
  std::vector<util::CacheAligned<util::Xoshiro256>> rngs_;
  std::unique_ptr<cache::HotCache> cache_;  // null when disabled
  std::atomic<std::uint32_t> promoted_{0};
  std::atomic<std::uint32_t> promote_budget_;  // live knob (controller)
  // Host-layer telemetry: reads served from the host cache mirror, and
  // NMP responses that requested a retry (stale begin node).
  telemetry::Counter* host_read_hits_;
  telemetry::Counter* host_retry_;
  telemetry::Counter* retry_exhausted_;
  // Scan stitching: partition hops and per-chunk stale-begin retries.
  telemetry::Counter* scan_hops_;
  telemetry::Counter* scan_retry_;
};

}  // namespace hybrids::ds
