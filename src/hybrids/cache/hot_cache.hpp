// Host-side hot-key cache (DINOMO-style hybrid value/shortcut caching).
//
// Zipfian traffic concentrates on a few keys, yet every hybrid-structure
// read still walks the host levels and usually crosses into a partition
// round-trip. This layer short-circuits both, with two tiers under ONE byte
// budget:
//
//  * value tier    — (key, value) pairs served without touching the
//                    structure at all: a hit is a couple of cache lines.
//  * shortcut tier — begin-NMP-traversal references (the partition-local
//                    node/subtree a descent for the key would reach), so a
//                    warm key's offload skips the host-portion descent and
//                    posts directly.
//
// Invalidation mirrors the mem layer's `update_versioned` rule: every entry
// carries the owning partition's monotonic value version (stamped by the
// combiner, the partition's serialization point). A write acknowledgment
// erases the key's entry AND raises the partition's *fill floor* to the
// write's version; fills below the floor are discarded exactly like a stale
// `update_versioned` — this closes the race where a read served before a
// write tries to fill after the write already invalidated. Failover bounces
// raise a per-partition *generation* instead: entries remember the
// generation they were filled under, so no cached value survives a bounced
// partition.
//
// Shortcut safety: targets are only ever nodes the structures never free
// individually — SeqSkipList parks removed tall nodes until destruction and
// NmpBTree's arenas free nothing before teardown — so a stale shortcut is
// always safe to *hand to the combiner*, which detects staleness (marked
// node / parent-seqnum mismatch) and answers retry; the host then erases
// the entry and falls back to a real descent. Host-side shortcut fills
// happen inside the operation's mem::EbrGuard window, like every other
// begin-node derivation.
//
// Concurrency: both tiers are set-associative arrays split into spinlocked
// shards; a lookup, fill, or erase touches exactly one shard. Capacity is
// fixed when a tier is built (resident bytes can never exceed the budget).
// set_budget()/set_value_ratio() build FRESH tiers and publish them with an
// atomic pointer swap; superseded tiers are parked until destruction so
// concurrent readers never chase freed memory (resizes are controller
// knobs, rate-limited by its hysteresis — the parked set stays tiny).
//
// Off switch: a structure configured with cache_budget_bytes == 0 never
// constructs a HotCache, and every integration site skips behind its null
// check.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "hybrids/telemetry/registry.hpp"
#include "hybrids/types.hpp"
#include "hybrids/util/cache_aligned.hpp"

namespace hybrids::cache {

class HotCache {
 public:
  struct Config {
    std::size_t budget_bytes = 0;   // both tiers together; 0 = everything misses
    double value_ratio = 0.5;       // fraction of the budget for the value tier
    std::uint32_t partitions = 1;   // per-partition floors/generations
  };

  /// Begin-NMP-traversal reference: the opaque node handle the structure
  /// posts as Request::node, plus structure-specific validation baggage
  /// (the B+tree's offloaded parent seqnum; unused by the skiplists) and
  /// the owning partition (the B+tree routes by tagged pointer, so a
  /// shortcut hit is also what names the target partition).
  struct Shortcut {
    void* node = nullptr;
    std::uint64_t aux = 0;
    std::uint32_t partition = 0;
    // Hybrid skiplist: the fat host leaf backing `node`, whose seqlock stamp
    // rides in `aux` (FatSkipList::node_version_is revalidates the pair
    // before the hit is trusted). Null for the B+tree, whose begin handles
    // are validated partition-side by parent seqnum instead.
    void* host = nullptr;
  };

  struct Stats {
    std::uint64_t value_hits = 0;
    std::uint64_t shortcut_hits = 0;
    std::uint64_t misses = 0;          // value-tier lookups that missed
    std::uint64_t invalidations = 0;   // erases + rejected stale fills
    std::size_t resident_bytes = 0;    // occupied entry bytes, both tiers
    std::size_t capacity_bytes = 0;    // allocated entry bytes (<= budget)
  };

  explicit HotCache(const Config& config)
      : config_(config),
        budget_bytes_(config.budget_bytes),
        value_ratio_(config.value_ratio) {
    namespace tn = telemetry::names;
    hits_ = &telemetry::counter(tn::kCacheHits);
    misses_ = &telemetry::counter(tn::kCacheMisses);
    invalidations_ = &telemetry::counter(tn::kCacheInvalidations);
    bytes_rec_ = &telemetry::latency(tn::kCacheBytes);
    const std::uint32_t nparts = config.partitions ? config.partitions : 1;
    parts_.reserve(nparts);
    for (std::uint32_t p = 0; p < nparts; ++p) {
      parts_.push_back(std::make_unique<util::CacheAligned<PartitionState>>());
    }
    tiers_.store(build_tiers(config_), std::memory_order_release);
  }

  ~HotCache() { delete tiers_.load(std::memory_order_acquire); }

  HotCache(const HotCache&) = delete;
  HotCache& operator=(const HotCache&) = delete;

  // ----- value tier ---------------------------------------------------------

  /// Serves `out` from the value tier. A hit also refreshes the entry's
  /// clock bit (second-chance eviction). Generation-checked against the
  /// entry's OWN partition (recorded at fill time — the caller may not know
  /// the partition before descending): entries filled before the
  /// partition's last bounce never hit.
  bool lookup_value(Key key, Value& out) {
    Tiers& t = current();
    bool hit = false;
    if (t.value.buckets != 0) {
      Shard& sh = t.value.shard(key);
      LockGuard g(sh.lock);
      ValueEntry* e = find(sh.vslots, sh.buckets, key);
      if (e != nullptr && e->gen == generation(e->partition)) {
        out = e->value;
        e->clock = 1;
        hit = true;
      }
    }
    if (hit) {
      hits_->inc();
      stat_value_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      misses_->inc();
      stat_misses_.fetch_add(1, std::memory_order_relaxed);
    }
    return hit;
  }

  /// Installs (key, value) stamped with the partition version the combiner
  /// echoed for the serving operation. Discarded when below the partition's
  /// fill floor (a newer write already invalidated this key's partition) or
  /// when `gen` is no longer current (the partition bounced since the
  /// caller captured it) — the `update_versioned` discard rule.
  void fill_value(Key key, std::uint32_t part, Value value,
                  std::uint64_t version, std::uint64_t gen) {
    Tiers& t = current();
    if (t.value.buckets == 0) return;
    PartitionState& ps = state(part);
    if (version < ps.floor.load(std::memory_order_acquire) ||
        gen != ps.gen.load(std::memory_order_acquire)) {
      note_invalidation();
      return;
    }
    Shard& sh = t.value.shard(key);
    {
      LockGuard g(sh.lock);
      ValueEntry* e = find(sh.vslots, sh.buckets, key);
      if (e == nullptr) {
        e = pick_slot(sh.vslots, sh.buckets, key);
        if (!e->valid) sh.occupied.fetch_add(1, std::memory_order_relaxed);
      } else if (version < e->version) {
        // A racing newer fill for the same key already landed.
        note_invalidation();
        return;
      }
      e->key = key;
      e->value = value;
      e->version = version;
      e->gen = gen;
      e->partition = part;
      e->valid = true;
      e->clock = 1;
    }
    bytes_rec_->record(static_cast<double>(bytes()));
  }

  /// Write-side invalidation: erases the key's cached value and raises the
  /// partition's fill floor to the write's version, so any in-flight stale
  /// fill for this partition is discarded on arrival. Called on every
  /// update/insert/remove acknowledgment BEFORE the operation returns, so
  /// per-thread program order is preserved.
  void invalidate_value(Key key, std::uint32_t part, std::uint64_t version) {
    PartitionState& ps = state(part);
    std::uint64_t cur = ps.floor.load(std::memory_order_relaxed);
    while (cur < version &&
           !ps.floor.compare_exchange_weak(cur, version,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
    }
    Tiers& t = current();
    if (t.value.buckets == 0) return;
    Shard& sh = t.value.shard(key);
    LockGuard g(sh.lock);
    ValueEntry* e = find(sh.vslots, sh.buckets, key);
    if (e != nullptr) {
      e->valid = false;
      sh.occupied.fetch_sub(1, std::memory_order_relaxed);
      note_invalidation();
    }
  }

  // ----- shortcut tier ------------------------------------------------------

  bool lookup_shortcut(Key key, Shortcut& out) {
    Tiers& t = current();
    if (t.shortcut.buckets == 0) return false;
    Shard& sh = t.shortcut.shard(key);
    bool hit = false;
    {
      LockGuard g(sh.lock);
      ShortcutEntry* e = find(sh.sslots, sh.buckets, key);
      if (e != nullptr && e->gen == generation(e->partition)) {
        out.node = e->node;
        out.aux = e->aux;
        out.partition = e->partition;
        out.host = e->host;
        e->clock = 1;
        hit = true;
      }
    }
    if (hit) {
      hits_->inc();
      stat_shortcut_hits_.fetch_add(1, std::memory_order_relaxed);
    }
    return hit;
  }

  /// Caller contract: `node` must stay safe to hand to the partition's
  /// combiner for the structure's lifetime (never-freed begin candidates),
  /// and the call must happen inside the EBR window that derived it.
  void fill_shortcut(Key key, std::uint32_t part, void* node,
                     std::uint64_t aux, std::uint64_t gen,
                     void* host = nullptr) {
    Tiers& t = current();
    if (t.shortcut.buckets == 0 || node == nullptr) return;
    if (gen != state(part).gen.load(std::memory_order_acquire)) {
      note_invalidation();
      return;
    }
    Shard& sh = t.shortcut.shard(key);
    {
      LockGuard g(sh.lock);
      ShortcutEntry* e = find(sh.sslots, sh.buckets, key);
      if (e == nullptr) {
        e = pick_slot(sh.sslots, sh.buckets, key);
        if (!e->valid) sh.occupied.fetch_add(1, std::memory_order_relaxed);
      }
      e->key = key;
      e->node = node;
      e->aux = aux;
      e->gen = gen;
      e->partition = part;
      e->host = host;
      e->valid = true;
      e->clock = 1;
    }
    bytes_rec_->record(static_cast<double>(bytes()));
  }

  /// The combiner reported the cached begin reference stale (marked node /
  /// parent-seqnum mismatch): drop it so the next descent refills.
  void erase_shortcut(Key key) {
    Tiers& t = current();
    if (t.shortcut.buckets == 0) return;
    Shard& sh = t.shortcut.shard(key);
    LockGuard g(sh.lock);
    ShortcutEntry* e = find(sh.sslots, sh.buckets, key);
    if (e != nullptr) {
      e->valid = false;
      sh.occupied.fetch_sub(1, std::memory_order_relaxed);
      note_invalidation();
    }
  }

  // ----- failover -----------------------------------------------------------

  std::uint64_t generation(std::uint32_t part) const {
    return (**parts_[part % parts_.size()])
        .gen.load(std::memory_order_acquire);
  }

  /// A host observed the partition bounce (failed_over response): every
  /// entry filled under the old generation — value or shortcut — stops
  /// hitting immediately. Slots are reclaimed lazily by eviction.
  void bump_generation(std::uint32_t part) {
    state(part).gen.fetch_add(1, std::memory_order_acq_rel);
    note_invalidation();
  }

  // ----- knobs (controller / tests) -----------------------------------------
  // Rebuilds drop all entries: correct by construction, and cheap at the
  // controller's hysteresis-limited call rate.

  void set_budget(std::size_t bytes) {
    std::lock_guard<std::mutex> g(rebuild_mu_);
    config_.budget_bytes = bytes;
    budget_bytes_.store(bytes, std::memory_order_relaxed);
    publish(build_tiers(config_));
  }

  void set_value_ratio(double ratio) {
    if (ratio < 0.0) ratio = 0.0;
    if (ratio > 1.0) ratio = 1.0;
    std::lock_guard<std::mutex> g(rebuild_mu_);
    config_.value_ratio = ratio;
    value_ratio_.store(ratio, std::memory_order_relaxed);
    publish(build_tiers(config_));
  }

  std::size_t budget() const {
    return budget_bytes_.load(std::memory_order_relaxed);
  }
  double value_ratio() const {
    return value_ratio_.load(std::memory_order_relaxed);
  }

  /// Occupied entry bytes across both tiers; <= capacity_bytes() <= budget().
  std::size_t bytes() const {
    const Tiers& t = current();
    return t.value.occupied() * sizeof(ValueEntry) +
           t.shortcut.occupied() * sizeof(ShortcutEntry);
  }

  std::size_t capacity_bytes() const {
    const Tiers& t = current();
    return t.value.slots() * sizeof(ValueEntry) +
           t.shortcut.slots() * sizeof(ShortcutEntry);
  }

  std::size_t value_capacity() const { return current().value.slots(); }
  std::size_t shortcut_capacity() const { return current().shortcut.slots(); }

  Stats stats() const {
    Stats s;
    s.value_hits = stat_value_hits_.load(std::memory_order_relaxed);
    s.shortcut_hits = stat_shortcut_hits_.load(std::memory_order_relaxed);
    s.misses = stat_misses_.load(std::memory_order_relaxed);
    s.invalidations = stat_invalidations_.load(std::memory_order_relaxed);
    s.resident_bytes = bytes();
    s.capacity_bytes = capacity_bytes();
    return s;
  }

  static constexpr std::size_t value_entry_bytes() { return sizeof(ValueEntry); }
  static constexpr std::size_t shortcut_entry_bytes() {
    return sizeof(ShortcutEntry);
  }

 private:
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kWays = 4;  // bucket associativity

  struct ValueEntry {
    Key key = 0;
    Value value = 0;
    std::uint64_t version = 0;
    std::uint64_t gen = 0;
    std::uint32_t partition = 0;
    bool valid = false;
    std::uint8_t clock = 0;
  };

  struct ShortcutEntry {
    Key key = 0;
    void* node = nullptr;
    std::uint64_t aux = 0;
    std::uint64_t gen = 0;
    void* host = nullptr;  // fat leaf whose seqlock stamp is `aux` (or null)
    std::uint32_t partition = 0;
    bool valid = false;
    std::uint8_t clock = 0;
  };

  class SpinLock {
   public:
    void lock() noexcept {
      while (flag_.test_and_set(std::memory_order_acquire)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    }
    void unlock() noexcept { flag_.clear(std::memory_order_release); }

   private:
    std::atomic_flag flag_{};
  };

  struct LockGuard {
    explicit LockGuard(SpinLock& l) : lock(l) { lock.lock(); }
    ~LockGuard() { lock.unlock(); }
    SpinLock& lock;
  };

  /// One spinlocked slice of a tier. Entries are only touched under the
  /// lock; `occupied` is relaxed-atomic so bytes()/stats() can read it
  /// without the lock (monitoring, not synchronization).
  struct Shard {
    SpinLock lock;
    std::size_t buckets = 0;  // each kWays wide
    std::vector<ValueEntry> vslots;
    std::vector<ShortcutEntry> sslots;
    std::atomic<std::size_t> occupied{0};
  };

  struct Tier {
    std::vector<std::unique_ptr<util::CacheAligned<Shard>>> shards;
    std::size_t buckets = 0;  // total across shards

    std::size_t slots() const { return buckets * kWays; }
    std::size_t occupied() const {
      std::size_t n = 0;
      for (const auto& sh : shards) {
        n += (**sh).occupied.load(std::memory_order_relaxed);
      }
      return n;
    }
    Shard& shard(Key key) { return **shards[hash(key) % shards.size()]; }
  };

  struct Tiers {
    Tier value;
    Tier shortcut;
  };

  struct PartitionState {
    std::atomic<std::uint64_t> floor{0};
    std::atomic<std::uint64_t> gen{0};
  };

  static std::uint64_t hash(Key key) {
    std::uint64_t x = static_cast<std::uint64_t>(key);
    x += 0x9E3779B97F4A7C15ull;  // splitmix64 finalizer
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  template <typename Entry>
  static Entry* find(std::vector<Entry>& slots, std::size_t buckets, Key key) {
    if (buckets == 0) return nullptr;
    Entry* way = &slots[((hash(key) >> 16) % buckets) * kWays];
    for (std::size_t w = 0; w < kWays; ++w) {
      if (way[w].valid && way[w].key == key) return &way[w];
    }
    return nullptr;
  }

  /// Picks the slot a fill for `key` lands in: an invalid way if one exists,
  /// else second-chance within the bucket (first clock==0 way; when every
  /// way is hot, clear their clocks and take way 0).
  template <typename Entry>
  static Entry* pick_slot(std::vector<Entry>& slots, std::size_t buckets,
                          Key key) {
    Entry* way = &slots[((hash(key) >> 16) % buckets) * kWays];
    for (std::size_t w = 0; w < kWays; ++w) {
      if (!way[w].valid) return &way[w];
    }
    for (std::size_t w = 0; w < kWays; ++w) {
      if (way[w].clock == 0) return &way[w];
    }
    for (std::size_t w = 0; w < kWays; ++w) way[w].clock = 0;
    return &way[0];
  }

  Tiers& current() const { return *tiers_.load(std::memory_order_acquire); }

  PartitionState& state(std::uint32_t part) {
    return **parts_[part % parts_.size()];
  }

  void note_invalidation() {
    invalidations_->inc();
    stat_invalidations_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Sizes both tiers from the budget: per-tier slot count floors to whole
  /// buckets so capacity never exceeds the budget; tiny tiers collapse to
  /// zero buckets (tier disabled) rather than over-allocating.
  static Tiers* build_tiers(const Config& config) {
    auto t = std::make_unique<Tiers>();
    const std::size_t vbytes = static_cast<std::size_t>(
        static_cast<double>(config.budget_bytes) * config.value_ratio);
    const std::size_t sbytes =
        config.budget_bytes > vbytes ? config.budget_bytes - vbytes : 0;
    build_tier(t->value, vbytes / sizeof(ValueEntry), /*value_tier=*/true);
    build_tier(t->shortcut, sbytes / sizeof(ShortcutEntry),
               /*value_tier=*/false);
    return t.release();
  }

  static void build_tier(Tier& tier, std::size_t max_slots, bool value_tier) {
    const std::size_t buckets = max_slots / kWays;
    const std::size_t shard_count =
        buckets >= kShards ? kShards : (buckets > 0 ? 1 : 0);
    for (std::size_t s = 0; s < shard_count; ++s) {
      auto shard = std::make_unique<util::CacheAligned<Shard>>();
      Shard& sh = **shard;
      sh.buckets = buckets / shard_count;
      if (value_tier) {
        sh.vslots.assign(sh.buckets * kWays, ValueEntry{});
      } else {
        sh.sslots.assign(sh.buckets * kWays, ShortcutEntry{});
      }
      tier.buckets += sh.buckets;
      tier.shards.push_back(std::move(shard));
    }
  }

  /// Swaps in freshly built tiers; the superseded generation is parked (not
  /// freed) so concurrent readers that already resolved a shard pointer
  /// stay safe. Caller holds rebuild_mu_.
  void publish(Tiers* fresh) {
    Tiers* old = tiers_.exchange(fresh, std::memory_order_acq_rel);
    retired_.emplace_back(old);
  }

  Config config_;  // mutated only under rebuild_mu_
  // Lock-free mirrors of the two knobs for concurrent getters.
  std::atomic<std::size_t> budget_bytes_;
  std::atomic<double> value_ratio_;
  std::atomic<Tiers*> tiers_{nullptr};
  std::mutex rebuild_mu_;
  std::vector<std::unique_ptr<Tiers>> retired_;  // parked until destruction
  // unique_ptr: PartitionState holds atomics, the vector must never move it.
  std::vector<std::unique_ptr<util::CacheAligned<PartitionState>>> parts_;

  // Process-wide telemetry (shared across instances by name) plus per-
  // instance totals for stats()/the controller.
  telemetry::Counter* hits_;
  telemetry::Counter* misses_;
  telemetry::Counter* invalidations_;
  telemetry::LatencyRecorder* bytes_rec_;
  std::atomic<std::uint64_t> stat_value_hits_{0};
  std::atomic<std::uint64_t> stat_shortcut_hits_{0};
  std::atomic<std::uint64_t> stat_misses_{0};
  std::atomic<std::uint64_t> stat_invalidations_{0};
};

}  // namespace hybrids::cache
