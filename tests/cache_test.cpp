// Hot-key value/shortcut cache: unit semantics, structure integration, and
// a seeded multi-thread chaos sweep.
//
// The unit half pins the invalidation protocol in isolation:
//  * stale fills — a fill below the partition's write floor, or carrying a
//    pre-bounce generation, is discarded exactly like a stale
//    update_versioned (never installed, counted as an invalidation);
//  * budget — capacity is fixed when a tier is built, so resident bytes can
//    never exceed the configured byte budget, across fills, eviction churn,
//    and knob-driven rebuilds;
//  * failover — bump_generation() stops every hit filled under the old
//    generation, for both tiers, immediately.
//
// The integration half drives all three wired structures against std::map
// oracles with the cache deliberately tiny (eviction churn on every run):
// a cached read that ever disagrees with the oracle — after updates,
// removes, non-blocking writes, EBR reclaim cycles, or (with HYBRIDS_FAULTS) a
// bounced partition — fails exactly, not statistically.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "hybrids/cache/hot_cache.hpp"
#include "hybrids/ds/hybrid_btree.hpp"
#include "hybrids/ds/hybrid_skiplist.hpp"
#include "hybrids/ds/nmp_skiplist.hpp"
#include "hybrids/host/interleave.hpp"
#include "hybrids/telemetry/registry.hpp"
#include "hybrids/types.hpp"
#include "hybrids/util/rng.hpp"

#if defined(HYBRIDS_FAULTS)
#include "hybrids/nmp/fault.hpp"
#endif

namespace hc = hybrids::cache;
namespace hd = hybrids::ds;
namespace hh = hybrids::host;
namespace hu = hybrids::util;
namespace tel = hybrids::telemetry;

using hybrids::Key;
using hybrids::Value;

namespace {

hc::HotCache::Config unit_config(std::size_t budget, double ratio = 0.5,
                                 std::uint32_t partitions = 4) {
  hc::HotCache::Config c;
  c.budget_bytes = budget;
  c.value_ratio = ratio;
  c.partitions = partitions;
  return c;
}

// ---------------------------------------------------------------------------
// Unit: version floor (write invalidation) semantics
// ---------------------------------------------------------------------------

TEST(HotCacheUnit, FillLookupRoundtrip) {
  hc::HotCache cache(unit_config(16 * 1024));
  const std::uint64_t gen = cache.generation(0);
  cache.fill_value(7, /*part=*/0, 700, /*version=*/1, gen);
  Value v = 0;
  EXPECT_TRUE(cache.lookup_value(7, v));
  EXPECT_EQ(v, 700u);
  EXPECT_FALSE(cache.lookup_value(8, v)) << "absent key must miss";
  const hc::HotCache::Stats s = cache.stats();
  EXPECT_EQ(s.value_hits, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(HotCacheUnit, WriteInvalidationErasesAndRaisesFloor) {
  hc::HotCache cache(unit_config(16 * 1024));
  const std::uint64_t gen = cache.generation(2);
  cache.fill_value(40, /*part=*/2, 1, /*version=*/1, gen);
  Value v = 0;
  ASSERT_TRUE(cache.lookup_value(40, v));

  // A write acknowledgment at version 5 erases the entry and raises the
  // partition's fill floor.
  cache.invalidate_value(40, /*part=*/2, /*version=*/5);
  EXPECT_FALSE(cache.lookup_value(40, v)) << "invalidated entry still hits";

  // An in-flight read that was served BEFORE the write now tries to fill
  // with its stale version: discarded, exactly like a stale
  // update_versioned.
  cache.fill_value(40, /*part=*/2, 2, /*version=*/3, gen);
  EXPECT_FALSE(cache.lookup_value(40, v)) << "stale fill was installed";

  // A fill at (or above) the floor is fresh and lands.
  cache.fill_value(40, /*part=*/2, 3, /*version=*/5, gen);
  ASSERT_TRUE(cache.lookup_value(40, v));
  EXPECT_EQ(v, 3u);

  // The floor is per-partition: partition 0 fills at low versions still land.
  cache.fill_value(41, /*part=*/0, 4, /*version=*/1, cache.generation(0));
  ASSERT_TRUE(cache.lookup_value(41, v));
  EXPECT_EQ(v, 4u);
}

TEST(HotCacheUnit, RacingOlderFillForSameKeyDiscarded) {
  hc::HotCache cache(unit_config(16 * 1024));
  const std::uint64_t gen = cache.generation(0);
  cache.fill_value(9, 0, 90, /*version=*/10, gen);
  cache.fill_value(9, 0, 50, /*version=*/7, gen);  // older racer arrives late
  Value v = 0;
  ASSERT_TRUE(cache.lookup_value(9, v));
  EXPECT_EQ(v, 90u) << "older racing fill overwrote a newer value";
}

// ---------------------------------------------------------------------------
// Unit: generation (failover) semantics
// ---------------------------------------------------------------------------

TEST(HotCacheUnit, GenerationBumpStopsValueHits) {
  hc::HotCache cache(unit_config(16 * 1024));
  const std::uint64_t gen = cache.generation(1);
  cache.fill_value(5, /*part=*/1, 55, /*version=*/1, gen);
  Value v = 0;
  ASSERT_TRUE(cache.lookup_value(5, v));

  cache.bump_generation(1);
  EXPECT_FALSE(cache.lookup_value(5, v))
      << "cached value survived a bounced partition";

  // Entries of OTHER partitions are untouched.
  cache.fill_value(6, /*part=*/3, 66, /*version=*/1, cache.generation(3));
  cache.bump_generation(1);
  ASSERT_TRUE(cache.lookup_value(6, v));
  EXPECT_EQ(v, 66u);
}

TEST(HotCacheUnit, StaleGenerationFillDiscarded) {
  hc::HotCache cache(unit_config(16 * 1024));
  const std::uint64_t gen0 = cache.generation(1);
  cache.bump_generation(1);  // partition bounced after the caller captured gen0
  cache.fill_value(12, /*part=*/1, 1, /*version=*/1, gen0);
  Value v = 0;
  EXPECT_FALSE(cache.lookup_value(12, v)) << "pre-bounce fill was installed";

  int node = 0;
  cache.fill_shortcut(12, /*part=*/1, &node, /*aux=*/0, gen0);
  hc::HotCache::Shortcut sc;
  EXPECT_FALSE(cache.lookup_shortcut(12, sc))
      << "pre-bounce shortcut fill was installed";
}

TEST(HotCacheUnit, ShortcutRoundtripEraseAndGenerationBump) {
  hc::HotCache cache(unit_config(16 * 1024));
  int node_a = 0;
  cache.fill_shortcut(21, /*part=*/3, &node_a, /*aux=*/0xABCD,
                      cache.generation(3));
  hc::HotCache::Shortcut sc;
  ASSERT_TRUE(cache.lookup_shortcut(21, sc));
  EXPECT_EQ(sc.node, &node_a);
  EXPECT_EQ(sc.aux, 0xABCDu);
  EXPECT_EQ(sc.partition, 3u) << "shortcut must name its owning partition";

  // The combiner reported the reference stale: erase drops it.
  cache.erase_shortcut(21);
  EXPECT_FALSE(cache.lookup_shortcut(21, sc));

  // Refill, then bounce the partition: the shortcut stops hitting too.
  cache.fill_shortcut(21, 3, &node_a, 1, cache.generation(3));
  ASSERT_TRUE(cache.lookup_shortcut(21, sc));
  cache.bump_generation(3);
  EXPECT_FALSE(cache.lookup_shortcut(21, sc))
      << "cached shortcut survived a bounced partition";
}

// ---------------------------------------------------------------------------
// Unit: budget is a hard byte ceiling
// ---------------------------------------------------------------------------

TEST(HotCacheUnit, BudgetNeverExceededAcrossFillChurn) {
  for (const std::size_t budget :
       {std::size_t{0}, std::size_t{64}, std::size_t{1024},
        std::size_t{16 * 1024}, std::size_t{256 * 1024}}) {
    hc::HotCache cache(unit_config(budget, 0.5));
    EXPECT_LE(cache.capacity_bytes(), budget) << "budget " << budget;
    int node = 0;
    // Far more keys than slots: every bucket sees eviction churn.
    for (Key k = 1; k <= 10000; ++k) {
      cache.fill_value(k, k % 4, k, /*version=*/1, cache.generation(k % 4));
      cache.fill_shortcut(k, k % 4, &node, 0, cache.generation(k % 4));
      if ((k & 255u) == 0) {
        EXPECT_LE(cache.bytes(), cache.capacity_bytes()) << "budget " << budget;
      }
    }
    EXPECT_LE(cache.bytes(), cache.capacity_bytes()) << "budget " << budget;
    EXPECT_LE(cache.capacity_bytes(), budget) << "budget " << budget;
  }
}

TEST(HotCacheUnit, ZeroBudgetAlwaysMisses) {
  hc::HotCache cache(unit_config(0));
  cache.fill_value(1, 0, 1, 1, cache.generation(0));
  Value v = 0;
  EXPECT_FALSE(cache.lookup_value(1, v));
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.capacity_bytes(), 0u);
}

TEST(HotCacheUnit, KnobRebuildsRespectNewBudgetAndDropEntries) {
  hc::HotCache cache(unit_config(64 * 1024, 0.5));
  for (Key k = 1; k <= 200; ++k) {
    cache.fill_value(k, 0, k, 1, cache.generation(0));
  }
  EXPECT_GT(cache.bytes(), 0u);

  // Shrink: the fresh tiers must fit the new budget; old entries are gone
  // (correct by construction — and concurrent readers of the superseded
  // tiers stay safe, exercised by the chaos runs below).
  cache.set_budget(4 * 1024);
  EXPECT_EQ(cache.budget(), 4u * 1024u);
  EXPECT_LE(cache.capacity_bytes(), 4u * 1024u);
  EXPECT_EQ(cache.bytes(), 0u);

  cache.set_value_ratio(0.9);
  EXPECT_DOUBLE_EQ(cache.value_ratio(), 0.9);
  EXPECT_LE(cache.capacity_bytes(), 4u * 1024u);
  // Ratio shifts capacity toward the value tier.
  EXPECT_GT(cache.value_capacity(), cache.shortcut_capacity());

  // The rebuilt tiers serve normally.
  cache.fill_value(7, 0, 70, 1, cache.generation(0));
  Value v = 0;
  ASSERT_TRUE(cache.lookup_value(7, v));
  EXPECT_EQ(v, 70u);
}

// ---------------------------------------------------------------------------
// Integration: NMP skiplist (value tier only)
// ---------------------------------------------------------------------------

hd::NmpSkipList::Config nmp_config(std::size_t cache_budget) {
  hd::NmpSkipList::Config cfg;
  cfg.total_height = 12;
  cfg.partitions = 4;
  cfg.partition_width = 1024;
  cfg.max_threads = 4;
  cfg.slots_per_thread = 2;
  cfg.cache_budget_bytes = cache_budget;
  return cfg;
}

TEST(CacheNmpSkipList, MixedChurnOracleExact) {
  // Small budget: the hot set does not fit, so fills and evictions churn
  // while the oracle checks stay exact.
  hd::NmpSkipList list(nmp_config(2 * 1024));
  ASSERT_NE(list.hot_cache(), nullptr);
  std::map<Key, Value> oracle;
  hu::Xoshiro256 rng(11);
  for (int i = 0; i < 20000; ++i) {
    // Zipf-ish: half the traffic on 1/8 of the keyspace, so repeats hit.
    const Key k = 1 + ((rng.next() & 1) ? rng.next_below(256)
                                        : rng.next_below(2048));
    const auto v = static_cast<Value>(rng.next()) | 1u;
    switch (rng.next_below(10)) {
      case 0 ... 4: {  // read-heavy so the value tier earns hits
        Value out = 0;
        auto it = oracle.find(k);
        ASSERT_EQ(list.read(k, out, 0), it != oracle.end()) << k;
        if (it != oracle.end()) { ASSERT_EQ(out, it->second) << k; }
        break;
      }
      case 5 ... 6:
        ASSERT_EQ(list.insert(k, v, 0), oracle.emplace(k, v).second) << k;
        break;
      case 7 ... 8: {
        const bool present = oracle.count(k) > 0;
        ASSERT_EQ(list.update(k, v, 0), present) << k;
        if (present) oracle[k] = v;
        break;
      }
      default:
        ASSERT_EQ(list.remove(k, 0), oracle.erase(k) > 0) << k;
        break;
    }
  }
  EXPECT_EQ(list.size(), oracle.size());
  EXPECT_TRUE(list.validate());
  const hc::HotCache::Stats s = list.hot_cache()->stats();
  EXPECT_GT(s.value_hits, 0u) << "cache never served a read";
  EXPECT_GT(s.invalidations, 0u) << "writes never invalidated";
  EXPECT_LE(list.hot_cache()->capacity_bytes(), 2u * 1024u);
}

TEST(CacheNmpSkipList, AsyncWriteInvalidatesCachedValue) {
  hd::NmpSkipList list(nmp_config(8 * 1024));
  ASSERT_NE(list.hot_cache(), nullptr);
  ASSERT_TRUE(list.insert(100, 1, 0));
  Value v = 0;
  ASSERT_TRUE(list.read(100, v, 0));  // fills the value tier
  ASSERT_TRUE(list.read(100, v, 0));
  EXPECT_GT(list.hot_cache()->stats().value_hits, 0u)
      << "second read did not hit — fill path broken, test would be vacuous";

  // Non-blocking remove, parked on its publication slot beside a sibling
  // insert: its completion must invalidate the cached value before the op
  // returns, so the next read misses.
  {
    hh::Frame frame(2);
    hh::CoTask<bool> rm = list.remove_co(100, 0);
    hh::CoTask<bool> other = list.insert_co(300, 3, 0);
    ASSERT_TRUE(frame.submit(rm.handle()));
    ASSERT_TRUE(frame.submit(other.handle()));
    frame.drain();
    ASSERT_TRUE(rm.result());
    ASSERT_TRUE(other.result());
  }
  EXPECT_FALSE(list.read(100, v, 0))
      << "read served a value the non-blocking remove already deleted";

  // Non-blocking insert of a fresh key: subsequent reads see it (and may
  // re-cache).
  {
    hh::Frame frame(2);
    hh::CoTask<bool> ins = list.insert_co(100, 2, 0);
    hh::CoTask<bool> other = list.remove_co(300, 0);
    ASSERT_TRUE(frame.submit(ins.handle()));
    ASSERT_TRUE(frame.submit(other.handle()));
    frame.drain();
    ASSERT_TRUE(ins.result());
    ASSERT_TRUE(other.result());
  }
  ASSERT_TRUE(list.read(100, v, 0));
  EXPECT_EQ(v, 2u);
  ASSERT_TRUE(list.read(100, v, 0));
  EXPECT_EQ(v, 2u);
}

// ---------------------------------------------------------------------------
// Integration: hybrid skiplist (both tiers)
// ---------------------------------------------------------------------------

hd::HybridSkipList::Config hsl_config(std::size_t cache_budget,
                                      double ratio = 0.5) {
  hd::HybridSkipList::Config cfg;
  cfg.total_height = 12;
  cfg.nmp_height = 6;
  cfg.partitions = 4;
  cfg.partition_width = 1024;
  cfg.max_threads = 4;
  cfg.slots_per_thread = 2;
  cfg.cache_budget_bytes = cache_budget;
  cfg.cache_value_ratio = ratio;
  return cfg;
}

TEST(CacheHybridSkipList, MixedChurnOracleExactBothTiersHit) {
  // Tiny value tier + roomy shortcut tier: round-robin reads over a set
  // larger than the value tier keep missing values and hitting shortcuts.
  hd::HybridSkipList list(hsl_config(8 * 1024, /*ratio=*/0.2));
  ASSERT_NE(list.hot_cache(), nullptr);
  std::map<Key, Value> oracle;
  hu::Xoshiro256 rng(23);
  for (Key k = 1; k <= 400; ++k) {
    const auto v = static_cast<Value>(rng.next()) | 1u;
    ASSERT_TRUE(list.insert(k, v, 0));
    oracle.emplace(k, v);
  }
  for (int round = 0; round < 6; ++round) {
    for (Key k = 1; k <= 400; ++k) {
      Value out = 0;
      auto it = oracle.find(k);
      ASSERT_EQ(list.read(k, out, 0), it != oracle.end()) << k;
      if (it != oracle.end()) { ASSERT_EQ(out, it->second) << k; }
      // An immediate re-read hits the value tier (the first read just
      // filled it) — round-robin over 400 keys alone would thrash a value
      // tier this small into zero hits.
      if ((k % 13) == 0) {
        Value again = 0;
        ASSERT_EQ(list.read(k, again, 0), it != oracle.end()) << k;
        if (it != oracle.end()) { ASSERT_EQ(again, it->second) << k; }
      }
      // Interleave writes so versions advance and invalidations flow.
      if ((k % 17) == static_cast<Key>(round)) {
        const auto v = static_cast<Value>(rng.next()) | 1u;
        if (oracle.count(k) != 0) {
          ASSERT_TRUE(list.update(k, v, 0));
          oracle[k] = v;
        }
      }
      if ((k % 29) == static_cast<Key>(round)) {
        ASSERT_EQ(list.remove(k, 0), oracle.erase(k) > 0) << k;
      }
    }
  }
  EXPECT_EQ(list.size(), oracle.size());
  EXPECT_TRUE(list.validate());
  const hc::HotCache::Stats s = list.hot_cache()->stats();
  EXPECT_GT(s.value_hits, 0u);
  EXPECT_GT(s.shortcut_hits, 0u) << "shortcut tier never served a descent";
  EXPECT_GT(s.invalidations, 0u);
}

TEST(CacheHybridSkipList, ShortcutsStayValidAcrossEbrReclaimCycles) {
  // Shortcut targets are begin-NMP candidates the structure never frees
  // individually; host-level churn retires towers through EBR. After full
  // reclaim cycles every cached read must still be oracle-exact — a freed
  // or recycled shortcut target would serve garbage here.
  hd::HybridSkipList list(hsl_config(16 * 1024, /*ratio=*/0.2));
  ASSERT_NE(list.hot_cache(), nullptr);
  std::map<Key, Value> oracle;
  for (Key k = 1; k <= 600; ++k) {
    ASSERT_TRUE(list.insert(k, k * 3, 0));
    oracle.emplace(k, k * 3);
  }
  // Warm the shortcut tier.
  Value v = 0;
  for (Key k = 1; k <= 600; ++k) ASSERT_TRUE(list.read(k, v, 0));

  // Heavy remove/re-insert churn retires host towers, then drain them.
  hu::Xoshiro256 rng(31);
  for (int i = 0; i < 4000; ++i) {
    const Key k = 1 + rng.next_below(600);
    if (oracle.count(k) != 0 && (rng.next() & 1)) {
      ASSERT_TRUE(list.remove(k, 0));
      oracle.erase(k);
    } else if (oracle.count(k) == 0) {
      ASSERT_TRUE(list.insert(k, k * 5, 0));
      oracle.emplace(k, k * 5);
    }
  }
  for (int i = 0; i < 8; ++i) list.host_reclaim();

  // Every read — cached-value, cached-shortcut, or cold — stays exact.
  for (Key k = 1; k <= 600; ++k) {
    auto it = oracle.find(k);
    ASSERT_EQ(list.read(k, v, 0), it != oracle.end()) << k;
    if (it != oracle.end()) { ASSERT_EQ(v, it->second) << k; }
  }
  EXPECT_TRUE(list.validate());
}

// ---------------------------------------------------------------------------
// Integration: hybrid B+ tree (both tiers + ticket fast path)
// ---------------------------------------------------------------------------

hd::HybridBTree::Config btree_config(std::size_t cache_budget, double ratio) {
  hd::HybridBTree::Config cfg;
  cfg.nmp_levels = 2;
  cfg.partitions = 4;
  cfg.max_threads = 4;
  cfg.slots_per_thread = 2;
  cfg.cache_budget_bytes = cache_budget;
  cfg.cache_value_ratio = ratio;
  return cfg;
}

void btree_load(std::vector<Key>& keys, std::vector<Value>& vals,
                std::map<Key, Value>& oracle) {
  for (std::uint32_t i = 1; i <= 1200; i += 2) {  // odd slots: even are
    keys.push_back(4 * i);                        // insertion targets
    vals.push_back(4 * i * 7 + 1);
    oracle.emplace(keys.back(), vals.back());
  }
}

TEST(CacheHybridBTree, MixedChurnOracleExact) {
  std::vector<Key> keys;
  std::vector<Value> vals;
  std::map<Key, Value> oracle;
  btree_load(keys, vals, oracle);
  hd::HybridBTree tree(btree_config(4 * 1024, 0.5), keys, vals);
  ASSERT_NE(tree.hot_cache(), nullptr);
  hu::Xoshiro256 rng(47);
  for (int i = 0; i < 20000; ++i) {
    // Skewed toward a hot prefix so cached reads actually repeat.
    const Key k = 4 * (1 + ((rng.next() & 1) ? rng.next_below(64)
                                             : rng.next_below(1200)));
    const auto v = static_cast<Value>(rng.next()) | 1u;
    switch (rng.next_below(10)) {
      case 0 ... 4: {
        Value out = 0;
        auto it = oracle.find(k);
        ASSERT_EQ(tree.read(k, out, 0), it != oracle.end()) << k;
        if (it != oracle.end()) { ASSERT_EQ(out, it->second) << k; }
        break;
      }
      case 5 ... 6:  // inserts land on even multiples too → splits flow
        ASSERT_EQ(tree.insert(k, v, 0), oracle.emplace(k, v).second) << k;
        break;
      case 7 ... 8: {
        const bool present = oracle.count(k) > 0;
        ASSERT_EQ(tree.update(k, v, 0), present) << k;
        if (present) oracle[k] = v;
        break;
      }
      default:
        ASSERT_EQ(tree.remove(k, 0), oracle.erase(k) > 0) << k;
        break;
    }
  }
  EXPECT_EQ(tree.size(), oracle.size());
  EXPECT_TRUE(tree.validate());
  const hc::HotCache::Stats s = tree.hot_cache()->stats();
  EXPECT_GT(s.value_hits, 0u);
  EXPECT_GT(s.invalidations, 0u);
  EXPECT_LE(tree.hot_cache()->capacity_bytes(), 4u * 1024u);
}

TEST(CacheHybridBTree, CoReadServesCachedValueWithoutRoundTrip) {
  std::vector<Key> keys;
  std::vector<Value> vals;
  std::map<Key, Value> oracle;
  btree_load(keys, vals, oracle);
  hd::HybridBTree tree(btree_config(16 * 1024, 0.8), keys, vals);
  ASSERT_NE(tree.hot_cache(), nullptr);
  const Key hot = 4 * 9;
  ASSERT_EQ(oracle.count(hot), 1u);
  Value v = 0;
  ASSERT_TRUE(tree.read(hot, v, 0));  // fills the value tier
  const std::uint64_t hits_before = tree.hot_cache()->stats().value_hits;
  tel::Counter& posted = tel::counter(tel::names::kCallAsync);
  const std::uint64_t posted_before = posted.value();

  // A hot read_co in a frame must be served from the cache on its first
  // resume: no publication slot posted, oracle value returned.
  hh::Frame frame(2);
  Value out = 0;
  hh::CoTask<bool> t = tree.read_co(hot, &out, 0);
  ASSERT_TRUE(frame.submit(t.handle()));
  ASSERT_TRUE(frame.step());
  ASSERT_TRUE(t.done());
  EXPECT_TRUE(frame.empty());
  ASSERT_TRUE(t.result());
  EXPECT_EQ(out, oracle[hot]);
  EXPECT_EQ(posted.value(), posted_before);
  EXPECT_GT(tree.hot_cache()->stats().value_hits, hits_before);

  // A write then makes the next read_co return the fresh value, not the
  // cache.
  ASSERT_TRUE(tree.update(hot, 4242, 0));
  Value out2 = 0;
  hh::CoTask<bool> t2 = tree.read_co(hot, &out2, 0);
  ASSERT_TRUE(frame.submit(t2.handle()));
  frame.drain();
  ASSERT_TRUE(t2.result());
  EXPECT_EQ(out2, 4242u);
}

// ---------------------------------------------------------------------------
// Chaos: 4 threads, disjoint stripes, seeded, cache tiny enough to evict
// constantly. Any stale cached value is an exact oracle divergence.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kChaosThreads = 4;
constexpr std::uint32_t kChaosKeysPerThread = 400;

template <typename Structure, typename KeyFn>
void run_cache_chaos(Structure& s, std::vector<std::map<Key, Value>>& oracles,
                     std::uint64_t seed, std::uint32_t ops_per_thread,
                     KeyFn key_of) {
  std::vector<std::thread> workers;
  workers.reserve(kChaosThreads);
  for (std::uint32_t t = 0; t < kChaosThreads; ++t) {
    workers.emplace_back([&, t] {
      hu::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + 0xCAC4E + t);
      std::map<Key, Value>& oracle = oracles[t];
      for (std::uint32_t i = 0; i < ops_per_thread; ++i) {
        // Skew within the stripe so the same keys are read repeatedly
        // (cache hits) while other threads churn their own stripes.
        const std::uint32_t r = rng.next_below(kChaosKeysPerThread);
        const Key key = key_of(rng.next_below(4) != 0 ? r / 8 : r, t);
        const auto val = static_cast<Value>(rng.next_below(1u << 30)) | 1u;
        switch (rng.next_below(100)) {
          case 0 ... 49: {  // read-heavy: the tier under test
            Value out = 0;
            const bool ok = s.read(key, out, t);
            const auto it = oracle.find(key);
            EXPECT_EQ(ok, it != oracle.end()) << "read presence, key " << key;
            if (ok && it != oracle.end()) {
              EXPECT_EQ(out, it->second) << "read value, key " << key;
            }
            break;
          }
          case 50 ... 69: {
            const bool ok = s.insert(key, val, t);
            EXPECT_EQ(ok, oracle.emplace(key, val).second)
                << "insert, key " << key;
            break;
          }
          case 70 ... 84: {
            const bool ok = s.remove(key, t);
            EXPECT_EQ(ok, oracle.erase(key) != 0) << "remove, key " << key;
            break;
          }
          default: {
            const bool ok = s.update(key, val, t);
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

TEST(CacheChaos, HybridSkipListThreeSeeds) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE(seed);
    hd::HybridSkipList list(hsl_config(2 * 1024, 0.5));
    ASSERT_NE(list.hot_cache(), nullptr);
    std::vector<std::map<Key, Value>> oracles(kChaosThreads);
    run_cache_chaos(list, oracles, seed, /*ops_per_thread=*/4000,
                    [](std::uint32_t r, std::uint32_t t) {
                      return static_cast<Key>(1 + kChaosThreads * r + t);
                    });
    std::size_t expected = 0;
    for (const auto& o : oracles) expected += o.size();
    EXPECT_EQ(list.size(), expected);
    EXPECT_TRUE(list.validate());
    const hc::HotCache::Stats s = list.hot_cache()->stats();
    EXPECT_GT(s.value_hits + s.shortcut_hits, 0u) << "chaos never hit cache";
    EXPECT_GT(s.invalidations, 0u);
  }
}

TEST(CacheChaos, HybridBTreeThreeSeeds) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE(seed);
    std::vector<Key> keys;
    std::vector<Value> vals;
    std::vector<std::map<Key, Value>> oracles(kChaosThreads);
    for (std::uint32_t j = 1; j <= kChaosKeysPerThread; j += 2) {
      for (std::uint32_t t = 0; t < kChaosThreads; ++t) {
        const Key k = 4 * j + t;
        keys.push_back(k);
        vals.push_back(k * 7 + 1);
        oracles[t].emplace(k, k * 7 + 1);
      }
    }
    hd::HybridBTree tree(btree_config(2 * 1024, 0.5), keys, vals);
    ASSERT_NE(tree.hot_cache(), nullptr);
    run_cache_chaos(tree, oracles, seed, /*ops_per_thread=*/3000,
                    [](std::uint32_t r, std::uint32_t t) {
                      return static_cast<Key>(4 * (1 + r) + t);
                    });
    std::size_t expected = 0;
    for (const auto& o : oracles) expected += o.size();
    EXPECT_EQ(tree.size(), expected);
    EXPECT_TRUE(tree.validate());
    const hc::HotCache::Stats s = tree.hot_cache()->stats();
    EXPECT_GT(s.value_hits + s.shortcut_hits, 0u) << "chaos never hit cache";
    EXPECT_GT(s.invalidations, 0u);
  }
}

#if defined(HYBRIDS_FAULTS)
// ---------------------------------------------------------------------------
// Failover: combiners are killed mid-run; the supervisor fences the lane and
// bounces in-flight slots; every bounced partition's cached entries must
// stop hitting (generation bump). Oracle exactness across the whole run IS
// the "no cached value survives a bounce" property — a surviving entry
// would serve a pre-failover value to the exact-match reads.
// ---------------------------------------------------------------------------

TEST(CacheChaos, FailoverBouncedPartitionDropsCachedValues) {
  namespace fault = hybrids::nmp::fault;
  static_assert(fault::kCompiledIn);
  fault::Config fc;
  fc.seed = 9;
  fc.enable(fault::Kind::kCombinerAbort, 0.004);

  hd::HybridSkipList::Config cfg = hsl_config(4 * 1024, 0.5);
  cfg.watchdog_interval_ms = 2;
  cfg.watchdog_misses_to_degrade = 2;
  cfg.watchdog_misses_to_recover = 2;
  cfg.retry_budget = 4;
  hd::HybridSkipList list(cfg);
  ASSERT_NE(list.hot_cache(), nullptr);

  std::vector<std::map<Key, Value>> oracles(kChaosThreads);
  {
    fault::FaultInjector::arm(fc);
    run_cache_chaos(list, oracles, fc.seed, /*ops_per_thread=*/4000,
                    [](std::uint32_t r, std::uint32_t t) {
                      return static_cast<Key>(1 + kChaosThreads * r + t);
                    });
    fault::FaultInjector::disarm();
  }

  hybrids::nmp::PartitionSet& set = list.partition_set();
  std::uint64_t kills = 0;
  for (std::uint32_t p = 0; p < set.partitions(); ++p) {
    kills += set.failovers(p);
  }
  EXPECT_GT(kills, 0u) << "run produced no failovers — bounce path untested";
  EXPECT_GT(list.hot_cache()->stats().invalidations, 0u);

  // After the storm: every key reads oracle-exact through whatever the
  // cache retained. (Failed-over reads bumped the generation, so nothing
  // filled before a bounce can hit now.)
  Value v = 0;
  for (std::uint32_t t = 0; t < kChaosThreads; ++t) {
    for (std::uint32_t r = 0; r < kChaosKeysPerThread; ++r) {
      const Key key = 1 + kChaosThreads * r + t;
      const auto it = oracles[t].find(key);
      ASSERT_EQ(list.read(key, v, 0), it != oracles[t].end()) << key;
      if (it != oracles[t].end()) { ASSERT_EQ(v, it->second) << key; }
    }
  }
  std::size_t expected = 0;
  for (const auto& o : oracles) expected += o.size();
  EXPECT_EQ(list.size(), expected);
  EXPECT_TRUE(list.validate());
}
#endif  // HYBRIDS_FAULTS

}  // namespace
