// Ablation — coroutine-interleaved host traversals (host/interleave.hpp).
//
// Sweeps the per-thread frame depth k (--depths, default 1,2,4,8,16) on the
// hybrid skiplist under YCSB-C (100% zipfian point reads) and YCSB-E (95%
// stitched scans / 5% inserts), plus the hybrid B+tree under YCSB-C. Depth 1
// is the blocking baseline — the exact code paths every figure bench runs —
// and each k>1 arm drives k traversal coroutines per thread through a
// host::Frame, overlapping publication-slot round-trips (and, on machines
// with a real cache hierarchy, the prefetch-shadowed descents).
//
// Expected shape: throughput per thread grows monotonically from depth 1 to
// a knee (typically 4-8: once every combiner pass finds the thread's slots
// full, more depth only adds switch overhead), then flattens. On the zipfian
// read arms, checksums cross-check the depths: interleaving reorders ops in
// flight but must never change what a read returns against static contents.
//
// Every arm builds its structures fresh (same seeds, slots_per_thread pinned
// at the maximum frame depth) so placement and preload are identical; only
// the scheduling differs. docs/INTERLEAVING.md#depth-tuning reads the knee.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <optional>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "hybrids/ds/hybrid_btree.hpp"
#include "hybrids/ds/hybrid_skiplist.hpp"
#include "hybrids/host/interleave.hpp"
#include "hybrids/util/table.hpp"
#include "hybrids/workload/ycsb.hpp"

namespace hd = hybrids::ds;
namespace hw = hybrids::workload;
namespace hb = hybrids::bench;
namespace hh = hybrids::host;

namespace {

constexpr std::size_t kLlcBytes = 1 << 20;  // §3.3 / §3.4 sizing target

using hybrids::bench::now_ns;
using hybrids::bench::RunResult;

/// Pump loop: keep up to `depth` ops in flight through one Frame. Fills free
/// slots from the stream, steps the frame (one resume or one bounded futex
/// wait per call), and harvests completed tasks.
template <typename DS>
std::uint64_t pump(DS& ds, hw::OpStream& stream, std::uint32_t depth,
                   std::uint64_t total_ops, std::uint32_t scan_buf_len,
                   std::uint32_t t) {
  hh::Frame frame(depth);
  std::vector<std::optional<hh::CoTask<hb::OpOutcome>>> inflight(depth);
  std::vector<std::vector<hybrids::ScanEntry>> bufs(depth);
  for (auto& b : bufs) b.resize(scan_buf_len);
  std::uint64_t issued = 0, completed = 0, sum = 0;
  while (completed < total_ops) {
    for (std::uint32_t i = 0; i < depth && issued < total_ops; ++i) {
      if (inflight[i]) continue;
      inflight[i].emplace(
          hb::apply_op_co(ds, stream.next(), bufs[i].data(), t));
      if (!frame.submit(inflight[i]->handle())) {
        inflight[i].reset();  // frame full (impossible at depth slots)
        break;
      }
      ++issued;
    }
    frame.step();
    for (std::uint32_t i = 0; i < depth; ++i) {
      if (inflight[i] && inflight[i]->done()) {
        sum += inflight[i]->result().sum;
        inflight[i].reset();
        ++completed;
      }
    }
  }
  return sum;
}

/// One timed multi-threaded run at the given frame depth. Depth 1 runs the
/// blocking paths (the baseline); deeper arms run the coroutine pump.
template <typename DS>
RunResult run_threads(DS& ds, const hw::WorkloadSpec& spec,
                      std::uint32_t threads, std::uint32_t depth,
                      std::uint64_t warmup_per_thread,
                      std::uint64_t ops_per_thread) {
  std::atomic<std::uint64_t> checksum{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  std::uint64_t t0 = 0;
  std::atomic<std::uint32_t> ready{0};
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      hw::OpStream stream(spec, t);
      std::vector<hybrids::ScanEntry> buf(spec.max_scan_len);
      // Warmup is always blocking: it only exists to populate caches and
      // YCSB-E's insert frontier, and keeping it identical across arms keeps
      // the measured streams aligned.
      for (std::uint64_t i = 0; i < warmup_per_thread; ++i) {
        (void)hb::apply_op(ds, stream.next(), buf.data(), t);
      }
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      if (t == 0) t0 = now_ns();
      std::uint64_t my_sum = 0;
      if (depth <= 1) {
        for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
          my_sum += hb::apply_op(ds, stream.next(), buf.data(), t).sum;
        }
      } else {
        my_sum = pump(ds, stream, depth, ops_per_thread, spec.max_scan_len, t);
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
  return r;
}

template <typename DS>
RunResult best_of(DS& ds, const hw::WorkloadSpec& spec, std::uint32_t threads,
                  std::uint32_t depth, std::uint64_t warmup, std::uint64_t ops,
                  int reps) {
  RunResult best;
  for (int r = 0; r < reps; ++r) {
    const RunResult run = run_threads(ds, spec, threads, depth, warmup, ops);
    if (run.mops > best.mops) best.mops = run.mops;
    best.checksum = run.checksum;
  }
  return best;
}

struct Arm {
  RunResult sl_c;  // hybrid-skiplist YCSB-C
  RunResult sl_e;  // hybrid-skiplist YCSB-E
  RunResult bt_c;  // hybrid-btree   YCSB-C
};

}  // namespace

int main(int argc, char** argv) {
  hb::Options opt = hb::parse_options(argc, argv);
  hb::StatsSession stats(opt);

  const std::uint64_t keys =
      opt.keys ? opt.keys : (opt.full ? 1ull << 20 : 1ull << 16);
  const std::uint32_t threads = opt.threads.empty() ? 1 : opt.threads.front();
  const int reps = 3;
  std::uint32_t max_depth = 1;
  for (const std::uint32_t d : opt.depths) max_depth = std::max(max_depth, d);

  const hw::WorkloadSpec spec_c = hw::ycsb_c(keys);
  const hw::WorkloadSpec spec_e = hw::ycsb_e(keys, /*partitions=*/8,
                                             /*seed=*/42, opt.scan_max);
  hw::KeyLayout layout(spec_c.initial_keys, spec_c.partitions);

  std::cout << "Ablation: coroutine interleaving depth (" << keys << " keys, "
            << threads << " thread(s), " << opt.ops
            << " ops/thread, best of " << reps << ")\n\n";

  std::vector<Arm> arms;
  for (const std::uint32_t depth : opt.depths) {
    Arm arm;
    {
      hd::HybridSkipList::Config cfg;
      int total = 1;
      while ((1ull << total) < spec_c.initial_keys) ++total;
      cfg.nmp_height =
          hd::HybridSkipList::nmp_height_for_cache(spec_c.initial_keys,
                                                   kLlcBytes);
      cfg.total_height = total > cfg.nmp_height ? total : cfg.nmp_height + 1;
      cfg.partitions = spec_c.partitions;
      cfg.partition_width = layout.partition_width();
      cfg.max_threads = threads;
      cfg.slots_per_thread = max_depth;  // identical across arms
      hd::HybridSkipList list(cfg);
      for (hybrids::Key k : layout.initial_key_set()) {
        (void)list.insert(k, k, 0);
      }
      arm.sl_c = best_of(list, spec_c, threads, depth, opt.warmup, opt.ops,
                         reps);
      arm.sl_e = best_of(list, spec_e, threads, depth, opt.warmup, opt.ops,
                         reps);
    }
    {
      hd::HybridBTree::Config cfg;
      cfg.nmp_levels = hd::HybridBTree::nmp_levels_for_cache(
          spec_c.initial_keys, kLlcBytes);
      cfg.partitions = spec_c.partitions;
      cfg.max_threads = threads;
      cfg.slots_per_thread = max_depth;
      const std::vector<hybrids::Key> ks = layout.initial_key_set();
      const std::vector<hybrids::Value> vs(ks.begin(), ks.end());
      hd::HybridBTree tree(cfg, ks, vs);
      arm.bt_c = best_of(tree, spec_c, threads, depth, opt.warmup, opt.ops,
                         reps);
    }
    arms.push_back(arm);
  }

  // Zipfian reads against static contents: interleaving must not change
  // results, whatever order the frame completes them in.
  std::size_t base_idx = arms.size();
  for (std::size_t i = 0; i < arms.size(); ++i) {
    if (opt.depths[i] == 1) {
      base_idx = i;
      break;
    }
  }
  if (base_idx < arms.size()) {
    for (std::size_t i = 0; i < arms.size(); ++i) {
      if (arms[i].sl_c.checksum != arms[base_idx].sl_c.checksum ||
          arms[i].bt_c.checksum != arms[base_idx].bt_c.checksum) {
        std::cerr << "BUG: YCSB-C checksum differs between depth "
                  << opt.depths[base_idx] << " and depth " << opt.depths[i]
                  << "\n";
        return 1;
      }
    }
  }

  hybrids::util::Table table({"depth", "sl ycsb-c Mops/s", "c speedup",
                              "sl ycsb-e Mops/s", "e speedup",
                              "bt ycsb-c Mops/s", "bt speedup"});
  const Arm& base = base_idx < arms.size() ? arms[base_idx] : arms.front();
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const Arm& a = arms[i];
    table.new_row()
        .add_cell(std::to_string(opt.depths[i]))
        .add_num(a.sl_c.mops, 3)
        .add_num(base.sl_c.mops > 0 ? a.sl_c.mops / base.sl_c.mops : 0, 3)
        .add_num(a.sl_e.mops, 3)
        .add_num(base.sl_e.mops > 0 ? a.sl_e.mops / base.sl_e.mops : 0, 3)
        .add_num(a.bt_c.mops, 3)
        .add_num(base.bt_c.mops > 0 ? a.bt_c.mops / base.bt_c.mops : 0, 3);
  }
  if (opt.csv) table.print_csv(std::cout); else table.print(std::cout);

  if (base_idx < arms.size()) {
    for (std::size_t i = 0; i < arms.size(); ++i) {
      if (opt.depths[i] == 8) {
        std::cout << "\ndepth-8 zipfian-read speedup vs blocking: "
                  << arms[i].sl_c.mops / base.sl_c.mops << "x (skiplist), "
                  << arms[i].bt_c.mops / base.bt_c.mops << "x (btree)\n";
      }
    }
  }
  return 0;
}
