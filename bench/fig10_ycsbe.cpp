// Figure 10 — range-scan evaluation with YCSB-E (95% scans / 5% inserts,
// zipfian scan lengths) against the real runtime (not the simulator, which
// does not model scans).
//
// Both hybrid structures run the same per-thread OpStream: scans start at a
// scrambled-zipfian loaded key and request a zipfian length in
// [1, --scan-max]; inserts draw uniform unloaded (odd) keys. Scans are
// stitched from kScan chunks by HybridSkipList::scan / HybridBTree::scan, so
// this bench exercises the continuation protocol, partition hopping, and
// stale-begin/seqnum retries under concurrent structural change.
//
// Reported per thread count: operation throughput, scan throughput, and
// returned entries/s (scan throughput x average scan length). With
// --stats-json the exported snapshot carries `served_scan`, `nmp.scan_len`,
// `host.scan_partition_hops`, and `host.scan_retry` for post-processing.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "hybrids/ds/hybrid_btree.hpp"
#include "hybrids/ds/hybrid_skiplist.hpp"
#include "hybrids/util/table.hpp"
#include "hybrids/workload/ycsb.hpp"

namespace hd = hybrids::ds;
namespace hw = hybrids::workload;
namespace hb = hybrids::bench;

namespace {

constexpr std::size_t kLlcBytes = 1 << 20;  // §3.3 / §3.4 sizing target

using hybrids::bench::now_ns;

struct RunResult {
  double mops = 0;        // all operations
  double scans_per_s = 0; // completed scan calls
  double entries_per_s = 0;
  double avg_scan_len = 0;
};

/// Drives `threads` OpStreams against `ds` (HybridSkipList or HybridBTree —
/// both expose the entry points hb::apply_op dispatches to). Warmup ops are
/// run first and not timed.
template <typename DS>
RunResult run_threads(DS& ds, const hw::WorkloadSpec& spec,
                      std::uint32_t threads, std::uint64_t warmup_per_thread,
                      std::uint64_t ops_per_thread) {
  std::atomic<std::uint64_t> scans{0};
  std::atomic<std::uint64_t> entries{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  std::uint64_t t0 = 0;
  std::atomic<std::uint32_t> ready{0};
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      hw::OpStream stream(spec, t);
      std::vector<hybrids::ScanEntry> buf(spec.max_scan_len);
      std::uint64_t my_scans = 0;
      std::uint64_t my_entries = 0;
      auto run_one = [&](bool measured) {
        const hw::Op op = stream.next();
        const hb::OpOutcome o = hb::apply_op(ds, op, buf.data(), t);
        if (measured && op.type == hw::OpType::kScan) {
          ++my_scans;
          my_entries += o.scanned;
        }
      };
      for (std::uint64_t i = 0; i < warmup_per_thread; ++i) run_one(false);
      // Rough start barrier: thread 0 stamps t0 once everyone finished warmup.
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      if (t == 0) t0 = now_ns();
      for (std::uint64_t i = 0; i < ops_per_thread; ++i) run_one(true);
      scans.fetch_add(my_scans);
      entries.fetch_add(my_entries);
    });
  }
  for (std::thread& w : workers) w.join();
  const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
  RunResult r;
  r.mops = static_cast<double>(threads) * static_cast<double>(ops_per_thread) /
           secs / 1e6;
  r.scans_per_s = static_cast<double>(scans.load()) / secs;
  r.entries_per_s = static_cast<double>(entries.load()) / secs;
  r.avg_scan_len = scans.load() > 0 ? static_cast<double>(entries.load()) /
                                          static_cast<double>(scans.load())
                                    : 0.0;
  return r;
}

RunResult run_skiplist(const hw::WorkloadSpec& spec, std::uint32_t threads,
                       std::uint64_t warmup, std::uint64_t ops) {
  hw::KeyLayout layout(spec.initial_keys, spec.partitions);
  hd::HybridSkipList::Config cfg;
  int total = 1;
  while ((1ull << total) < spec.initial_keys) ++total;
  cfg.nmp_height = hd::HybridSkipList::nmp_height_for_cache(spec.initial_keys,
                                                            kLlcBytes);
  cfg.total_height = total > cfg.nmp_height ? total : cfg.nmp_height + 1;
  cfg.partitions = spec.partitions;
  cfg.partition_width = layout.partition_width();
  cfg.max_threads = threads;
  hd::HybridSkipList list(cfg);
  for (hybrids::Key k : layout.initial_key_set()) (void)list.insert(k, k, 0);
  return run_threads(list, spec, threads, warmup, ops);
}

RunResult run_btree(const hw::WorkloadSpec& spec, std::uint32_t threads,
                    std::uint64_t warmup, std::uint64_t ops) {
  hw::KeyLayout layout(spec.initial_keys, spec.partitions);
  hd::HybridBTree::Config cfg;
  cfg.nmp_levels = hd::HybridBTree::nmp_levels_for_cache(spec.initial_keys,
                                                         kLlcBytes);
  cfg.partitions = spec.partitions;
  cfg.max_threads = threads;
  const std::vector<hybrids::Key> keys = layout.initial_key_set();
  const std::vector<hybrids::Value> vals(keys.begin(), keys.end());
  hd::HybridBTree tree(cfg, keys, vals);
  return run_threads(tree, spec, threads, warmup, ops);
}

}  // namespace

int main(int argc, char** argv) {
  hb::Options opt = hb::parse_options(argc, argv);
  hb::StatsSession stats(opt);
  const std::uint64_t keys =
      opt.keys ? opt.keys : (opt.full ? 1ull << 20 : 1ull << 16);
  if (opt.threads.empty()) opt.threads = {1, 2, 4, 8};

  hw::WorkloadSpec spec = hw::ycsb_e(keys, /*partitions=*/8, /*seed=*/42,
                                     opt.scan_max);

  std::cout << "Figure 10: range scans, YCSB-E (" << keys
            << " keys, 95% scans / 5% inserts, zipfian scan lengths <= "
            << opt.scan_max << ")\n\n";

  hybrids::util::Table table({"structure", "threads", "Mops/s", "scans/s",
                              "entries/s", "avg scan len"});
  for (std::uint32_t t : opt.threads) {
    const RunResult sl = run_skiplist(spec, t, opt.warmup, opt.ops);
    table.new_row()
        .add_cell("hybrid-skiplist")
        .add_int(t)
        .add_num(sl.mops, 3)
        .add_num(sl.scans_per_s, 0)
        .add_num(sl.entries_per_s, 0)
        .add_num(sl.avg_scan_len, 2);
    const RunResult bt = run_btree(spec, t, opt.warmup, opt.ops);
    table.new_row()
        .add_cell("hybrid-btree")
        .add_int(t)
        .add_num(bt.mops, 3)
        .add_num(bt.scans_per_s, 0)
        .add_num(bt.entries_per_s, 0)
        .add_num(bt.avg_scan_len, 2);
  }
  if (opt.csv) table.print_csv(std::cout); else table.print(std::cout);
  return 0;
}
