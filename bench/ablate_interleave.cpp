// Ablation — coroutine-interleaved non-blocking operations
// (host/interleave.hpp).
//
// Sweeps the per-thread frame depth k (--depths, default 1,2,4,8,16) on the
// hybrid skiplist under YCSB-C (100% zipfian point reads) and YCSB-E (95%
// stitched scans / 5% inserts), plus the hybrid B+tree under YCSB-C. Depth 1
// is the blocking baseline — the exact code paths every figure bench runs —
// and each k>1 arm drives k operation coroutines per thread through a
// host::Frame, overlapping their publication-slot round trips (the paper's
// non-blocking calls, §3.5; host descents run straight through).
//
// Expected shape: throughput per thread grows from depth 1 to a knee
// (typically 4-8: once every combiner pass finds the thread's slots full,
// more depth only adds switch overhead), then flattens. On the zipfian read
// arms, checksums cross-check the depths: interleaving reorders ops in
// flight but must never change what a read returns against static contents,
// so any rep of any arm that folds to a different sum exits 1.
//
// Every arm builds its structures once (same seeds, slots_per_thread pinned
// at the maximum frame depth) so placement and preload are identical; only
// the scheduling differs. The arms run kReps timed reps, interleaved
// rep-major so machine drift hits every arm equally, and the table reports
// each arm's median with its IQR. docs/INTERLEAVING.md#depth-tuning reads
// the knee.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
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

constexpr int kReps = 7;

/// One depth arm: its own structures, and every rep's throughput per
/// workload.
struct Arm {
  std::unique_ptr<hd::HybridSkipList> list;
  std::unique_ptr<hd::HybridBTree> tree;
  std::vector<double> sl_c;  // hybrid-skiplist YCSB-C, Mops/s per rep
  std::vector<double> sl_e;  // hybrid-skiplist YCSB-E
  std::vector<double> bt_c;  // hybrid-btree   YCSB-C
};

}  // namespace

int main(int argc, char** argv) {
  hb::Options opt = hb::parse_options(argc, argv);
  hb::StatsSession stats(opt);

  const std::uint64_t keys =
      opt.keys ? opt.keys : (opt.full ? 1ull << 20 : 1ull << 16);
  const std::uint32_t threads = opt.threads.empty() ? 1 : opt.threads.front();
  std::uint32_t max_depth = 1;
  for (const std::uint32_t d : opt.depths) max_depth = std::max(max_depth, d);

  const hw::WorkloadSpec spec_c = hw::ycsb_c(keys);
  const hw::WorkloadSpec spec_e = hw::ycsb_e(keys, /*partitions=*/8,
                                             /*seed=*/42, opt.scan_max);
  hw::KeyLayout layout(spec_c.initial_keys, spec_c.partitions);

  std::cout << "Ablation: coroutine interleaving depth (" << keys << " keys, "
            << threads << " thread(s), " << opt.ops
            << " ops/thread, median [IQR] of " << kReps << " reps)\n\n";

  std::vector<Arm> arms(opt.depths.size());
  for (Arm& arm : arms) {
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
      arm.list = std::make_unique<hd::HybridSkipList>(cfg);
      for (hybrids::Key k : layout.initial_key_set()) {
        (void)arm.list->insert(k, k, 0);
      }
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
      arm.tree = std::make_unique<hd::HybridBTree>(cfg, ks, vs);
    }
  }

  // Zipfian reads against static contents (YCSB-E only inserts keys the
  // YCSB-C streams never read): interleaving must not change results,
  // whatever order the frame completes them in, so every rep of every arm
  // must fold to the first run's sums.
  std::uint64_t sl_sum = 0;
  std::uint64_t bt_sum = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < arms.size(); ++i) {
      Arm& arm = arms[i];
      const std::uint32_t depth = opt.depths[i];
      const RunResult sl_c = run_threads(*arm.list, spec_c, threads, depth,
                                         opt.warmup, opt.ops);
      const RunResult sl_e = run_threads(*arm.list, spec_e, threads, depth,
                                         opt.warmup, opt.ops);
      const RunResult bt_c = run_threads(*arm.tree, spec_c, threads, depth,
                                         opt.warmup, opt.ops);
      if (rep == 0 && i == 0) {
        sl_sum = sl_c.checksum;
        bt_sum = bt_c.checksum;
      }
      if (sl_c.checksum != sl_sum || bt_c.checksum != bt_sum) {
        std::cerr << "BUG: YCSB-C checksum differs between depth "
                  << opt.depths.front() << " and depth " << depth << " (rep "
                  << rep << ")\n";
        return 1;
      }
      arm.sl_c.push_back(sl_c.mops);
      arm.sl_e.push_back(sl_e.mops);
      arm.bt_c.push_back(bt_c.mops);
    }
  }

  // Speedups are ratios of medians against the depth-1 arm (the first arm
  // when depth 1 was not swept).
  std::size_t base_idx = 0;
  for (std::size_t i = 0; i < arms.size(); ++i) {
    if (opt.depths[i] == 1) {
      base_idx = i;
      break;
    }
  }
  const hb::Spread base_c = hb::spread_of(arms[base_idx].sl_c);
  const hb::Spread base_e = hb::spread_of(arms[base_idx].sl_e);
  const hb::Spread base_b = hb::spread_of(arms[base_idx].bt_c);
  hybrids::util::Table table({"depth", "sl ycsb-c Mops/s", "c IQR",
                              "c speedup", "sl ycsb-e Mops/s", "e IQR",
                              "e speedup", "bt ycsb-c Mops/s", "bt IQR",
                              "bt speedup"});
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const hb::Spread c = hb::spread_of(arms[i].sl_c);
    const hb::Spread e = hb::spread_of(arms[i].sl_e);
    const hb::Spread b = hb::spread_of(arms[i].bt_c);
    table.new_row()
        .add_cell(std::to_string(opt.depths[i]))
        .add_num(c.median, 3)
        .add_num(c.iqr(), 3)
        .add_num(c.median / base_c.median, 3)
        .add_num(e.median, 3)
        .add_num(e.iqr(), 3)
        .add_num(e.median / base_e.median, 3)
        .add_num(b.median, 3)
        .add_num(b.iqr(), 3)
        .add_num(b.median / base_b.median, 3);
  }
  if (opt.csv) table.print_csv(std::cout); else table.print(std::cout);

  for (std::size_t i = 0; i < arms.size(); ++i) {
    if (opt.depths[i] == 8 && opt.depths[base_idx] == 1) {
      std::cout << "\ndepth-8 zipfian-read speedup vs blocking (medians): "
                << hb::spread_of(arms[i].sl_c).median / base_c.median
                << "x (skiplist), "
                << hb::spread_of(arms[i].bt_c).median / base_b.median << "x (btree)\n";
    }
  }
  return 0;
}
