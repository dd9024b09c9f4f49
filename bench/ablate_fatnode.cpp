// Ablation — fat-node host index layout (fat nodes × software prefetch).
//
// The 2x2 sweep behind HybridSkipList's host index: the pointer-node
// LfSkipList (the paper's one-key-per-node lock-free baseline) against the
// fat-node B-link FatSkipList (the host portion HybridSkipList is built on),
// crossed with the memory layer's prefetch toggle. Each layout is built
// directly on its own type, preloaded with the identical (shuffled odd) key
// set, and replays identical pre-generated access streams:
//
//   reads  — zipfian point lookups (theta 0.99), all host threads hammering
//            the structure concurrently; the fat layout's claim is fewer,
//            fatter nodes per descent (one two-line node per level instead
//            of one line per key).
//   scans  — range scans of --scan-max entries from zipfian start keys; the
//            fat layout stitches 8-key sorted runs and prefetches the whole
//            run before touching the first value (memory-level parallelism),
//            the pointer layout chases one node per entry.
//
// Every arm runs kReps timed reps, interleaved rep-major so machine drift
// hits every arm equally; the table reports each arm's median with its IQR.
// A read rep replays each thread's probe stream a fixed number of passes,
// picked once by a calibration phase so that the fastest arm's rep lasts at
// least kMinReadRepSecs: a single pass is only tens of ms, too short to
// separate the arms from scheduler noise. The calibration runs for
// kCalibrationSecs and doubles as a warm-up: on a 4-vCPU VM the first
// second of reads after the build ran up to 3x slower than the rest.
//
// Checksums must agree bit-exactly across every arm and every rep (same
// residents, same streams) — a mismatch is a correctness bug and exits
// nonzero, so this bench doubles as an end-to-end cross-layout oracle. The
// summary lines name the fat-vs-pointer speedup of the medians at prefetch
// on — the numbers EXPERIMENTS.md records for the fat-node ablation.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <memory>
#include <random>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "hybrids/ds/fat_skiplist.hpp"
#include "hybrids/ds/lockfree_skiplist.hpp"
#include "hybrids/mem/memlayer.hpp"
#include "hybrids/util/table.hpp"

namespace hd = hybrids::ds;
namespace hb = hybrids::bench;
namespace hm = hybrids::mem;

namespace {

using hybrids::bench::now_ns;
using hybrids::bench::RunResult;

constexpr int kReps = 7;
constexpr double kMinReadRepSecs = 0.1;
constexpr double kCalibrationSecs = 2.0;

struct Arm {
  bool fat;
  bool prefetch;
};

const char* onoff(bool b) { return b ? "on" : "off"; }
const char* layout_name(bool fat) { return fat ? "fat" : "pointer"; }

hd::LfSkipList::Node* make_entry(hd::LfSkipList& idx, hybrids::Key k,
                                 int height) {
  return idx.make_node(k, k, height);
}
hd::FatSkipList::Entry* make_entry(hd::FatSkipList& idx, hybrids::Key k,
                                   int height) {
  return idx.make_entry(k, k, height);
}

/// Builds an `Index`, preloaded with `preload` odd keys (value == key) in
/// shuffled order — shuffled so fat leaves settle at realistic mid-occupancy
/// instead of the ascending-insert worst case, identically for both layouts.
template <class Index>
std::unique_ptr<Index> build_index(std::uint64_t preload) {
  constexpr bool kFat = std::is_same_v<Index, hd::FatSkipList>;
  std::vector<hybrids::Key> keys = hb::odd_preload_keys(preload);
  std::mt19937 shuffle_rng(0xF47);
  std::shuffle(keys.begin(), keys.end(), shuffle_rng);
  // Height: log2 for the pointer towers, log_{kFatKeys/2} + slack for the
  // B-link levels (splits leave nodes half full in the worst case).
  int height = 1;
  if constexpr (kFat) {
    while (std::uint64_t(1) << (2 * height) < preload) ++height;
    height += 2;
  } else {
    while (std::uint64_t(1) << height < preload) ++height;
  }
  auto idx = std::make_unique<Index>(height);
  hybrids::util::Xoshiro256 rng(7);
  for (hybrids::Key k : keys) {
    if (!idx->insert_node(
            make_entry(*idx, k, hd::random_height(rng, height)))) {
      std::cerr << "BUG: preload collision on key " << k << "\n";
      std::exit(1);
    }
  }
  return idx;
}

/// Timed multi-threaded point reads: thread t replays probes[t] `passes`
/// times; the found values fold into the checksum. Mops/s across all
/// threads.
template <class Index>
RunResult run_reads(Index& idx,
                    const std::vector<std::vector<hybrids::Key>>& probes,
                    std::uint64_t warmup_per_thread, std::uint32_t passes) {
  const std::uint32_t threads = static_cast<std::uint32_t>(probes.size());
  std::atomic<std::uint64_t> checksum{0};
  std::atomic<std::uint32_t> ready{0};
  std::uint64_t t0 = 0;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const std::vector<hybrids::Key>& mine = probes[t];
      const std::uint64_t warm = std::min<std::uint64_t>(
          warmup_per_thread, mine.size());
      std::uint64_t my_sum = 0;
      for (std::uint64_t i = 0; i < warm; ++i) {
        (void)idx.get_node(mine[i]);
      }
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      if (t == 0) t0 = now_ns();
      for (std::uint32_t pass = 0; pass < passes; ++pass) {
        for (const hybrids::Key k : mine) {
          const auto* n = idx.get_node(k);
          if (n != nullptr) my_sum += n->value_now();
        }
      }
      checksum.fetch_add(my_sum, std::memory_order_relaxed);
    });
  }
  for (std::thread& w : workers) w.join();
  const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
  RunResult r;
  std::uint64_t total = 0;
  for (const auto& p : probes) total += p.size();
  r.mops = static_cast<double>(total * passes) / secs / 1e6;
  r.checksum = checksum.load();
  return r;
}

/// Timed multi-threaded range scans of `scan_len` entries from each start
/// key; folded scan keys are the checksum. Throughput is million scanned
/// entries per second (the quantity the stitching serves).
template <class Index>
RunResult run_scans(Index& idx,
                    const std::vector<std::vector<hybrids::Key>>& starts,
                    std::uint32_t scan_len, std::uint64_t warmup_per_thread) {
  const std::uint32_t threads = static_cast<std::uint32_t>(starts.size());
  std::atomic<std::uint64_t> checksum{0};
  std::atomic<std::uint64_t> entries{0};
  std::atomic<std::uint32_t> ready{0};
  std::uint64_t t0 = 0;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const std::vector<hybrids::Key>& mine = starts[t];
      std::vector<hybrids::ScanEntry> buf(scan_len);
      const std::uint64_t warm = std::min<std::uint64_t>(
          warmup_per_thread, mine.size());
      for (std::uint64_t i = 0; i < warm; ++i) {
        (void)idx.scan(mine[i], scan_len, buf.data());
      }
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      if (t == 0) t0 = now_ns();
      std::uint64_t my_sum = 0;
      std::uint64_t my_entries = 0;
      for (const hybrids::Key k : mine) {
        const std::size_t n = idx.scan(k, scan_len, buf.data());
        my_entries += n;
        for (std::size_t j = 0; j < n; ++j) my_sum += buf[j].key;
      }
      checksum.fetch_add(my_sum, std::memory_order_relaxed);
      entries.fetch_add(my_entries, std::memory_order_relaxed);
    });
  }
  for (std::thread& w : workers) w.join();
  const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
  RunResult r;
  r.mops = static_cast<double>(entries.load()) / secs / 1e6;
  r.checksum = checksum.load();
  return r;
}

struct ArmSamples {
  std::vector<double> reads;
  std::vector<double> scans;
};

}  // namespace

int main(int argc, char** argv) {
  const hb::Options opt = hb::parse_options(argc, argv);
  hb::StatsSession stats(opt);

  const std::uint64_t keys = opt.keys != 0 ? opt.keys
                             : (opt.full ? (1ull << 22) : (1ull << 18));
  const std::uint64_t preload = keys / 2;  // every other key loaded
  // Default to the hardware, capped at 4: the sweep measures layout, not
  // scheduler time-slicing, so never oversubscribe the machine.
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t threads =
      opt.threads.empty() ? std::min(4u, hw) : opt.threads.back();
  const std::uint64_t reads_per_thread =
      std::max<std::uint64_t>(opt.ops * 16, 1ull << 17);
  const std::uint64_t scans_per_thread =
      std::max<std::uint64_t>(reads_per_thread / 64, 256);
  const std::uint64_t warmup = opt.warmup;

  // Pre-generated per-thread streams, shared by every arm.
  std::vector<std::vector<hybrids::Key>> probes(threads);
  std::vector<std::vector<hybrids::Key>> starts(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    probes[t] = hb::zipfian_probe_keys(reads_per_thread, 2 * preload,
                                       /*seed=*/0x5EED + t);
    starts[t] = hb::zipfian_probe_keys(scans_per_thread, 2 * preload,
                                       /*seed=*/0x5CA4 + t);
  }

  const Arm arms[] = {{false, false}, {false, true}, {true, false},
                      {true, true}};
  constexpr std::size_t kArms = std::size(arms);

  // One index per layout (prefetch is a per-site runtime toggle, so both
  // prefetch arms share it).
  const std::unique_ptr<hd::LfSkipList> pointer =
      build_index<hd::LfSkipList>(preload);
  const std::unique_ptr<hd::FatSkipList> fat =
      build_index<hd::FatSkipList>(preload);

  // Calibration: single-pass read runs of every arm, round after round, for
  // kCalibrationSecs; the fastest run sets the pass count that every arm
  // and every rep then uses, so the checksum gate below stays exact.
  double fastest_mops = 0;
  const std::uint64_t calibrate_until =
      now_ns() + static_cast<std::uint64_t>(kCalibrationSecs * 1e9);
  while (now_ns() < calibrate_until) {
    for (const Arm& arm : arms) {
      hm::set_prefetch_enabled(arm.prefetch);
      const RunResult r = arm.fat ? run_reads(*fat, probes, warmup, 1)
                                  : run_reads(*pointer, probes, warmup, 1);
      fastest_mops = std::max(fastest_mops, r.mops);
    }
  }
  const double pass_secs =
      static_cast<double>(reads_per_thread * threads) / (fastest_mops * 1e6);
  const auto read_passes = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(kMinReadRepSecs / pass_secs)));

  std::cout << "Ablation: fat-node host index (layout x prefetch)\n\n"
            << preload << " loaded keys, " << threads << " threads, "
            << reads_per_thread << " zipfian reads x " << read_passes
            << " passes + " << scans_per_thread << " scans of "
            << opt.scan_max << " per thread, median [IQR] of " << kReps
            << " reps\n\n";

  // Checksum parity: identical residents + identical streams, so every arm
  // and every rep must fold to the same sums as the first run.
  std::vector<ArmSamples> samples(kArms);
  std::uint64_t read_sum = 0;
  std::uint64_t scan_sum = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t a = 0; a < kArms; ++a) {
      hm::set_prefetch_enabled(arms[a].prefetch);
      const auto measure = [&](auto& idx) {
        const RunResult rr = run_reads(idx, probes, warmup, read_passes);
        const RunResult rs = run_scans(idx, starts, opt.scan_max, warmup);
        return std::pair{rr, rs};
      };
      const auto [rr, rs] = arms[a].fat ? measure(*fat) : measure(*pointer);
      if (rep == 0 && a == 0) {
        read_sum = rr.checksum;
        scan_sum = rs.checksum;
      }
      if (rr.checksum != read_sum || rs.checksum != scan_sum) {
        std::cerr << "BUG: checksum differs between arms (layout="
                  << layout_name(arms[a].fat)
                  << ", prefetch=" << onoff(arms[a].prefetch) << ", rep "
                  << rep << ")\n";
        return 1;
      }
      samples[a].reads.push_back(rr.mops);
      samples[a].scans.push_back(rs.mops);
    }
  }
  hm::set_prefetch_enabled(true);

  std::vector<hb::Spread> reads(kArms);
  std::vector<hb::Spread> scans(kArms);
  for (std::size_t a = 0; a < kArms; ++a) {
    reads[a] = hb::spread_of(samples[a].reads);
    scans[a] = hb::spread_of(samples[a].scans);
  }
  hybrids::util::Table table({"layout", "prefetch", "reads Mops/s",
                              "reads IQR", "scan Mentries/s", "scan IQR",
                              "read x", "scan x"});
  for (std::size_t a = 0; a < kArms; ++a) {
    // Baseline: the pointer arm at the same prefetch setting (arms[0|1]).
    const std::size_t b = arms[a].prefetch ? 1 : 0;
    table.new_row()
        .add_cell(layout_name(arms[a].fat))
        .add_cell(onoff(arms[a].prefetch))
        .add_num(reads[a].median)
        .add_num(reads[a].iqr())
        .add_num(scans[a].median)
        .add_num(scans[a].iqr())
        .add_num(reads[a].median / reads[b].median)
        .add_num(scans[a].median / scans[b].median);
  }
  if (opt.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  // arms[3] is fat/prefetch-on, arms[1] its pointer baseline.
  char line[128];
  std::snprintf(line, sizeof(line),
                "\nfat-node read speedup: %.2fx\n"
                "fat-node scan speedup: %.2fx\n",
                reads[3].median / reads[1].median,
                scans[3].median / scans[1].median);
  std::cout << line;
  return 0;
}
