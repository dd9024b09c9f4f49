// Ablation — host-side hot-key value/shortcut cache (src/hybrids/cache/).
//
// Sweeps the cache byte budget (--budgets) against zipfian skew (--thetas)
// on the hybrid skiplist and hybrid B+ tree under 100% point reads over
// preloaded contents. Budget 0 is the cache-off baseline — the exact read
// paths every figure bench runs — and each budgeted arm serves hot keys
// from the value tier (no host descent, no partition round-trip) or the
// shortcut tier (descent skipped, offload posted directly).
//
// Default budgets are 1/64, 1/16, and 1/4 of the KEYSPACE FOOTPRINT
// (initial_keys x 8 bytes: 4-byte key + 4-byte value, the paper's record
// shape), so the headline arm caches far fewer entries than there are keys
// and earns its throughput purely from skew. Expected shape: at low theta
// the cache is ballast (hit rate ~budget/keys, speedup ~1x); as theta
// rises, the hit rate tracks the zipf head mass and the budgeted arms pull
// away — at theta 0.99 the 1/16-footprint arm must clear >= 1.3x on the
// skiplist (checked in EXPERIMENTS.md, not enforced here).
//
// Contents are static during the timed runs, so per-theta checksums must
// match EXACTLY across budgets: a cache serving a wrong/stale value exits 1
// rather than printing a fast number.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "hybrids/cache/hot_cache.hpp"
#include "hybrids/ds/hybrid_btree.hpp"
#include "hybrids/ds/hybrid_skiplist.hpp"
#include "hybrids/util/table.hpp"
#include "hybrids/workload/workload.hpp"
#include "hybrids/workload/zipf.hpp"

namespace hd = hybrids::ds;
namespace hw = hybrids::workload;
namespace hb = hybrids::bench;
namespace hc = hybrids::cache;

namespace {

constexpr std::size_t kLlcBytes = 1 << 20;  // §3.3 / §3.4 sizing target

using hybrids::bench::now_ns;

using hybrids::bench::scramble;

struct RunResult {
  double mops = 0;
  std::uint64_t checksum = 0;  // folded read results: cross-checks arms
  std::uint64_t hits = 0;      // value + shortcut hits during the timed run
  std::uint64_t lookups = 0;   // hits + misses (value-tier lookups)
};

/// One timed multi-threaded 100%-read run at the given theta. The hot-key
/// cache (if any) belongs to `ds`; warmup reads fill it before timing.
template <typename DS>
RunResult run_reads(DS& ds, const hw::KeyLayout& layout, double theta,
                    std::uint32_t threads, std::uint64_t warmup_per_thread,
                    std::uint64_t ops_per_thread) {
  std::atomic<std::uint64_t> checksum{0};
  std::atomic<std::uint32_t> ready{0};
  std::uint64_t t0 = 0;
  hc::HotCache::Stats before;
  if (ds.hot_cache() != nullptr) before = ds.hot_cache()->stats();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      hybrids::util::Xoshiro256 rng(0xCACE + t);
      hw::ZipfianGenerator zipf(layout.initial_keys(), theta);
      auto next_key = [&] {
        const std::uint64_t rank = zipf.next(rng);
        return layout.key_at(scramble(rank) % layout.initial_keys());
      };
      for (std::uint64_t i = 0; i < warmup_per_thread; ++i) {
        hybrids::Value v = 0;
        (void)ds.read(next_key(), v, t);
      }
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      if (t == 0) t0 = now_ns();
      std::uint64_t my_sum = 0;
      for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
        hybrids::Value v = 0;
        if (ds.read(next_key(), v, t)) my_sum += v;
      }
      checksum.fetch_add(my_sum, std::memory_order_relaxed);
    });
  }
  for (std::thread& w : workers) w.join();
  const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
  RunResult r;
  r.mops = static_cast<double>(threads) * static_cast<double>(ops_per_thread) /
           secs / 1e6;
  r.checksum = checksum.load();
  if (ds.hot_cache() != nullptr) {
    const hc::HotCache::Stats after = ds.hot_cache()->stats();
    r.hits = (after.value_hits - before.value_hits) +
             (after.shortcut_hits - before.shortcut_hits);
    r.lookups = r.hits + (after.misses - before.misses);
  }
  return r;
}

template <typename DS>
RunResult best_of(DS& ds, const hw::KeyLayout& layout, double theta,
                  std::uint32_t threads, std::uint64_t warmup,
                  std::uint64_t ops, int reps) {
  RunResult best;
  for (int r = 0; r < reps; ++r) {
    const RunResult run = run_reads(ds, layout, theta, threads, warmup, ops);
    if (run.mops > best.mops) best.mops = run.mops;
    best.checksum = run.checksum;
    best.hits += run.hits;
    best.lookups += run.lookups;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  hb::Options opt = hb::parse_options(argc, argv);
  hb::StatsSession stats(opt);

  const std::uint64_t keys =
      opt.keys ? opt.keys : (opt.full ? 1ull << 20 : 1ull << 16);
  const std::uint32_t threads = opt.threads.empty() ? 4 : opt.threads.front();
  const int reps = 3;
  const std::uint64_t footprint =
      keys * (sizeof(hybrids::Key) + sizeof(hybrids::Value));
  std::vector<std::uint64_t> budgets = opt.budgets;
  if (budgets.empty()) {
    budgets = {footprint / 64, footprint / 16, footprint / 4};
  }

  const std::uint32_t partitions = 8;
  hw::KeyLayout layout(keys, partitions);

  std::cout << "Ablation: hot-key cache budget x zipf theta (" << keys
            << " keys, footprint " << footprint / 1024 << " KiB, " << threads
            << " threads, " << opt.ops << " ops/thread, best of " << reps
            << ")\n\n";

  hybrids::util::Table table({"theta", "budget", "budget/footprint",
                              "sl Mops/s", "sl speedup", "sl hit rate",
                              "bt Mops/s", "bt speedup", "bt hit rate"});
  double headline = 0;  // theta-0.99 skiplist speedup at budget <= 1/16
  bool checksum_bug = false;

  for (const double theta : opt.thetas) {
    RunResult sl_base, bt_base;
    for (std::size_t bi = 0; bi < budgets.size() + 1; ++bi) {
      const std::uint64_t budget = bi == 0 ? 0 : budgets[bi - 1];

      RunResult sl;
      {
        hd::HybridSkipList::Config cfg;
        int total = 1;
        while ((1ull << total) < keys) ++total;
        cfg.nmp_height =
            hd::HybridSkipList::nmp_height_for_cache(keys, kLlcBytes);
        cfg.total_height = total > cfg.nmp_height ? total : cfg.nmp_height + 1;
        cfg.partitions = partitions;
        cfg.partition_width = layout.partition_width();
        cfg.max_threads = threads;
        cfg.cache_budget_bytes = budget;
        hd::HybridSkipList list(cfg);
        for (hybrids::Key k : layout.initial_key_set()) {
          (void)list.insert(k, k, 0);
        }
        sl = best_of(list, layout, theta, threads, opt.warmup, opt.ops, reps);
      }

      RunResult bt;
      {
        hd::HybridBTree::Config cfg;
        cfg.nmp_levels = hd::HybridBTree::nmp_levels_for_cache(keys, kLlcBytes);
        cfg.partitions = partitions;
        cfg.max_threads = threads;
        cfg.cache_budget_bytes = budget;
        const std::vector<hybrids::Key> ks = layout.initial_key_set();
        const std::vector<hybrids::Value> vs(ks.begin(), ks.end());
        hd::HybridBTree tree(cfg, ks, vs);
        bt = best_of(tree, layout, theta, threads, opt.warmup, opt.ops, reps);
      }

      if (bi == 0) {
        sl_base = sl;
        bt_base = bt;
      } else {
        // Static contents: a budgeted arm returning different read results
        // than cache-off means the cache served a wrong value.
        if (sl.checksum != sl_base.checksum || bt.checksum != bt_base.checksum) {
          std::cerr << "BUG: checksum differs from cache-off at theta " << theta
                    << " budget " << budget << " (skiplist "
                    << sl_base.checksum << " vs " << sl.checksum << ", btree "
                    << bt_base.checksum << " vs " << bt.checksum << ")\n";
          checksum_bug = true;
        }
        if (theta >= 0.99 && budget * 16 <= footprint) {
          const double sp = sl_base.mops > 0 ? sl.mops / sl_base.mops : 0;
          if (sp > headline) headline = sp;
        }
      }

      table.new_row()
          .add_cell(std::to_string(theta).substr(0, 4))
          .add_cell(budget == 0 ? "off" : std::to_string(budget / 1024) + " KiB")
          .add_cell(budget == 0
                        ? "-"
                        : "1/" + std::to_string(footprint / budget))
          .add_num(sl.mops, 3)
          .add_num(sl_base.mops > 0 ? sl.mops / sl_base.mops : 1.0, 3)
          .add_num(sl.lookups > 0 ? static_cast<double>(sl.hits) /
                                        static_cast<double>(sl.lookups)
                                  : 0.0,
                   3)
          .add_num(bt.mops, 3)
          .add_num(bt_base.mops > 0 ? bt.mops / bt_base.mops : 1.0, 3)
          .add_num(bt.lookups > 0 ? static_cast<double>(bt.hits) /
                                        static_cast<double>(bt.lookups)
                                  : 0.0,
                   3);
    }
  }

  if (opt.csv) table.print_csv(std::cout); else table.print(std::cout);
  if (checksum_bug) return 1;

  if (headline > 0) {
    std::cout << "\ntheta-0.99 skiplist speedup at budget <= 1/16 footprint: "
              << headline << "x\n";
  }
  std::cout << "\n(The value tier serves hot reads without touching the "
               "structure; the shortcut\ntier posts warm descents straight "
               "to the owning partition. Both live under one\nbyte budget — "
               "see docs/EXPERIMENTS.md#ablate_cache.)\n";
  return 0;
}
