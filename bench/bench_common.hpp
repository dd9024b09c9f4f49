// Shared command-line handling and run helpers for the figure/table benches.
//
// Every bench accepts:
//   --keys=N             initial key count (default: scaled-down from the paper)
//   --ops=N              measured operations per host thread
//   --warmup=N           warmup operations per host thread
//   --threads=CSV        host-thread counts to sweep (default per bench)
//   --full               paper-scale sizes (long running)
//   --csv                machine-readable output
//   --stats-json=FILE    write a telemetry snapshot (JSON) on exit
//   --stats-interval=MS  print a one-line telemetry summary to stderr
//                        every MS milliseconds while the bench runs
//   --stats-delta        make the periodic summary report per-interval
//                        deltas/rates instead of run-cumulative totals
//   --stats-series=FILE  append a telemetry snapshot to a timeline every
//                        interval (default 500 ms if --stats-interval is
//                        not given) and write it as CSV on exit, one block
//                        of rows per snapshot behind a t_ms column
//   --trace-json=FILE    write sampled operation traces as Chrome
//                        trace-event JSON on exit (chrome://tracing,
//                        ui.perfetto.dev) and print a per-phase latency
//                        breakdown to stderr (needs a build without
//                        -DHYBRIDS_NO_TRACE / -DHYBRIDS_NO_TELEMETRY)
//   --trace-sample=N     trace 1 in N operations (default 1 when
//                        --trace-json is given; 0 disables tracing)
//   --fault-seed=N       arm the fault injector with seed N (needs a build
//                        with -DHYBRIDS_FAULTS=ON; rejected otherwise)
//   --fault-rate=P       per-kind injection probability (default 0.01;
//                        only meaningful together with --fault-seed)
//   --scan-max=N         maximum requested range-scan length (scan benches)
//   --kill-every-ms=N    (ext_failover) force one combiner failover every
//                        N ms during the timed run
//   --duration-ms=N      (ext_failover) timed-run length per mode, in ms
//   --depths=CSV         (ablate_interleave) coroutine frame depths to
//                        sweep, each in [1, 16]; depth 1 is the blocking
//                        baseline (default 1,2,4,8,16)
//   --budgets=CSV        (ablate_cache) hot-key cache byte budgets to sweep
//                        (default: 1/64, 1/16, 1/4 of the keyspace
//                        footprint; a cache-off arm is always included)
//   --thetas=CSV         (ablate_cache) zipfian theta values to sweep,
//                        each in (0, 1) (default 0.5,0.8,0.99)
//
// micro_library_bench (google-benchmark, not parse_options) additionally
// accepts --pool=arena|malloc: `arena` (the default) backs structure nodes
// with the memory layer's partition arenas and sharded node pools, `malloc`
// flips mem::set_arena_enabled(false) before any structure is built so every
// node comes from plain aligned operator new/delete. The 2x2 arena/prefetch
// sweep lives in ablate_memlayer.
//
// Unknown options are a hard error (exit 2), so a typo like --trheads=8
// can't silently run the bench with defaults.
#pragma once

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "hybrids/host/interleave.hpp"
#include "hybrids/nmp/fault.hpp"
#include "hybrids/telemetry/export.hpp"
#include "hybrids/telemetry/timeline.hpp"
#include "hybrids/trace/export.hpp"
#include "hybrids/trace/trace.hpp"
#include "hybrids/types.hpp"
#include "hybrids/util/rng.hpp"
#include "hybrids/workload/workload.hpp"
#include "hybrids/workload/zipf.hpp"

namespace hybrids::bench {

struct Options {
  std::uint64_t keys = 0;  // 0: use the bench default
  std::uint64_t ops = 4000;
  std::uint64_t warmup = 2000;
  std::vector<std::uint32_t> threads;
  std::uint32_t scan_max = 100;  // max requested range-scan length (YCSB-E)
  std::uint32_t kill_every_ms = 500;  // ext_failover: kill cadence
  std::uint32_t duration_ms = 3000;   // ext_failover: timed-run length
  std::vector<std::uint32_t> depths = {1, 2, 4, 8, 16};  // ablate_interleave
  std::vector<std::uint64_t> budgets;                    // ablate_cache: bytes
  std::vector<double> thetas = {0.5, 0.8, 0.99};         // ablate_cache
  bool full = false;
  bool csv = false;
  std::string stats_json;               // empty: no JSON export
  std::uint32_t stats_interval_ms = 0;  // 0: no periodic reporter
  std::string stats_series;             // set: write timeline CSV on exit
  bool stats_delta = false;             // periodic summary shows deltas
  std::string trace_json;               // set: write Chrome trace JSON
  std::optional<std::uint32_t> trace_sample;  // 1-in-N; 0 disables tracing
  std::optional<std::uint64_t> fault_seed;  // set: arm the fault injector
  double fault_rate = 0.01;                 // per-kind probability
};

/// Parses "1,2,4" into `out`. Rejects empty lists, empty elements ("1,,2",
/// trailing comma), zero, and trailing garbage ("4x").
inline bool parse_thread_list(const char* v, std::vector<std::uint32_t>& out) {
  out.clear();
  const char* p = v;
  if (*p == '\0') return false;
  while (true) {
    if (!std::isdigit(static_cast<unsigned char>(*p))) return false;
    char* end = nullptr;
    const unsigned long n = std::strtoul(p, &end, 10);
    if (n == 0 || n > 0xFFFFFFFFul) return false;
    out.push_back(static_cast<std::uint32_t>(n));
    if (*end == '\0') return true;
    if (*end != ',') return false;
    p = end + 1;
  }
}

/// Parses "1024,65536" into `out` (64-bit, positive). Same rejection rules
/// as parse_thread_list.
inline bool parse_u64_list(const char* v, std::vector<std::uint64_t>& out) {
  out.clear();
  const char* p = v;
  if (*p == '\0') return false;
  while (true) {
    if (!std::isdigit(static_cast<unsigned char>(*p))) return false;
    char* end = nullptr;
    const unsigned long long n = std::strtoull(p, &end, 10);
    if (n == 0) return false;
    out.push_back(static_cast<std::uint64_t>(n));
    if (*end == '\0') return true;
    if (*end != ',') return false;
    p = end + 1;
  }
}

/// Parses "0.5,0.99" into `out`; every element must be a finite double in
/// (lo, hi).
inline bool parse_double_list(const char* v, double lo, double hi,
                              std::vector<double>& out) {
  out.clear();
  const char* p = v;
  if (*p == '\0') return false;
  while (true) {
    char* end = nullptr;
    const double d = std::strtod(p, &end);
    if (end == p || !(d > lo) || !(d < hi)) return false;
    out.push_back(d);
    if (*end == '\0') return true;
    if (*end != ',') return false;
    p = end + 1;
  }
}

inline Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value_of("--keys=")) {
      opt.keys = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--ops=")) {
      opt.ops = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--warmup=")) {
      opt.warmup = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--threads=")) {
      if (!parse_thread_list(v, opt.threads)) {
        std::cerr << "error: malformed --threads list '" << v
                  << "' (expected comma-separated positive integers, e.g. "
                     "--threads=1,2,4,8)\n";
        std::exit(2);
      }
    } else if (const char* v = value_of("--scan-max=")) {
      opt.scan_max = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
      if (opt.scan_max == 0) {
        std::cerr << "error: --scan-max must be a positive integer, got '" << v
                  << "'\n";
        std::exit(2);
      }
    } else if (const char* v = value_of("--kill-every-ms=")) {
      opt.kill_every_ms =
          static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
      if (opt.kill_every_ms == 0) {
        std::cerr << "error: --kill-every-ms must be a positive integer, got '"
                  << v << "'\n";
        std::exit(2);
      }
    } else if (const char* v = value_of("--duration-ms=")) {
      opt.duration_ms =
          static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
      if (opt.duration_ms == 0) {
        std::cerr << "error: --duration-ms must be a positive integer, got '"
                  << v << "'\n";
        std::exit(2);
      }
    } else if (const char* v = value_of("--depths=")) {
      if (!parse_thread_list(v, opt.depths)) {
        std::cerr << "error: malformed --depths list '" << v
                  << "' (expected comma-separated positive integers, e.g. "
                     "--depths=1,4,8)\n";
        std::exit(2);
      }
      for (const std::uint32_t d : opt.depths) {
        if (d > 16) {  // host::Frame::kMaxSlots
          std::cerr << "error: --depths entries must be in [1, 16], got " << d
                    << "\n";
          std::exit(2);
        }
      }
    } else if (const char* v = value_of("--budgets=")) {
      if (!parse_u64_list(v, opt.budgets)) {
        std::cerr << "error: malformed --budgets list '" << v
                  << "' (expected comma-separated positive byte counts, "
                     "e.g. --budgets=4096,65536)\n";
        std::exit(2);
      }
    } else if (const char* v = value_of("--thetas=")) {
      // theta = 1 is a pole of the zipfian formulas; stay inside (0, 1).
      if (!parse_double_list(v, 0.0, 1.0, opt.thetas)) {
        std::cerr << "error: malformed --thetas list '" << v
                  << "' (expected comma-separated values in (0, 1), e.g. "
                     "--thetas=0.5,0.99)\n";
        std::exit(2);
      }
    } else if (const char* v = value_of("--stats-json=")) {
      opt.stats_json = v;
    } else if (const char* v = value_of("--stats-interval=")) {
      opt.stats_interval_ms =
          static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--stats-series=")) {
      opt.stats_series = v;
    } else if (arg == "--stats-delta") {
      opt.stats_delta = true;
    } else if (const char* v = value_of("--trace-json=")) {
      if (!trace::kCompiledIn) {
        std::cerr << "error: --trace-json requires a build without "
                     "-DHYBRIDS_NO_TRACE / -DHYBRIDS_NO_TELEMETRY (the "
                     "tracing layer is compiled out of this binary)\n";
        std::exit(2);
      }
      opt.trace_json = v;
    } else if (const char* v = value_of("--trace-sample=")) {
      if (!trace::kCompiledIn) {
        std::cerr << "error: --trace-sample requires a build without "
                     "-DHYBRIDS_NO_TRACE / -DHYBRIDS_NO_TELEMETRY (the "
                     "tracing layer is compiled out of this binary)\n";
        std::exit(2);
      }
      opt.trace_sample =
          static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--fault-seed=")) {
      if (!nmp::fault::kCompiledIn) {
        std::cerr << "error: --fault-seed requires a build with "
                     "-DHYBRIDS_FAULTS=ON (the fault injector is compiled "
                     "out of this binary)\n";
        std::exit(2);
      }
      opt.fault_seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--fault-rate=")) {
      if (!nmp::fault::kCompiledIn) {
        std::cerr << "error: --fault-rate requires a build with "
                     "-DHYBRIDS_FAULTS=ON (the fault injector is compiled "
                     "out of this binary)\n";
        std::exit(2);
      }
      opt.fault_rate = std::strtod(v, nullptr);
      if (opt.fault_rate < 0.0 || opt.fault_rate > 1.0) {
        std::cerr << "error: --fault-rate must be in [0, 1], got '" << v
                  << "'\n";
        std::exit(2);
      }
    } else if (arg == "--full") {
      opt.full = true;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "options:\n"
                   "  --keys=N             initial key count\n"
                   "  --ops=N              measured ops per host thread\n"
                   "  --warmup=N           warmup ops per host thread\n"
                   "  --threads=1,2,4,8    host-thread counts to sweep\n"
                   "  --full               paper-scale sizes (long running)\n"
                   "  --csv                machine-readable output\n"
                   "  --stats-json=FILE    write telemetry snapshot (JSON) on "
                   "exit\n"
                   "  --stats-interval=MS  periodic one-line telemetry summary "
                   "on stderr\n"
                   "  --stats-delta        periodic summary shows per-interval "
                   "deltas/rates\n"
                   "  --stats-series=FILE  write the telemetry timeline as CSV "
                   "on exit\n"
                   "  --trace-json=FILE    write sampled op traces as Chrome "
                   "trace JSON on exit\n"
                   "  --trace-sample=N     trace 1 in N ops (default 1 with "
                   "--trace-json; 0 = off)\n"
                   "  --fault-seed=N       arm the fault injector with seed N "
                   "(HYBRIDS_FAULTS builds only)\n"
                   "  --scan-max=N         max range-scan length (scan "
                   "benches, default 100)\n"
                   "  --kill-every-ms=N    (ext_failover) kill cadence "
                   "(default 500)\n"
                   "  --duration-ms=N      (ext_failover) timed-run length "
                   "(default 3000)\n"
                   "  --depths=1,4,8       (ablate_interleave) frame depths "
                   "to sweep, each in [1, 16]\n"
                   "  --budgets=4096,65536 (ablate_cache) cache byte budgets "
                   "to sweep\n"
                   "  --thetas=0.5,0.99    (ablate_cache) zipfian thetas to "
                   "sweep, each in (0, 1)\n"
                   "  --fault-rate=P       per-kind injection probability "
                   "(default 0.01)\n";
      std::exit(0);
    } else {
      std::cerr << "error: unknown option '" << arg
                << "' (see --help for the supported flags)\n";
      std::exit(2);
    }
  }
  return opt;
}

// ---------------------------------------------------------------------------
// Shared measurement helpers. Every bench used to carry private copies of
// these; they live here so the arms of different ablations are timed and
// keyed identically.

/// Monotonic wall clock for throughput math (steady_clock, ns).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Scatters zipf ranks over a key set (the ScrambledZipfian idea, done
/// locally so theta stays a free parameter): rank r -> scramble(r) % space.
inline std::uint64_t scramble(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The odd keys {1, 3, 5, ...}: the standard structure-level preload. Leaves
/// the even keys free so probe misses and churn inserts land between
/// residents instead of past the tail.
inline std::vector<Key> odd_preload_keys(std::uint64_t count) {
  std::vector<Key> keys;
  keys.reserve(count);
  for (std::uint64_t k = 0; k < count; ++k) {
    keys.push_back(static_cast<Key>(2 * k + 1));
  }
  return keys;
}

/// A deterministic zipfian probe sequence over [1, key_space]: the shared
/// key-gen for structure-level read/scan sweeps, so every arm replays the
/// same skewed accesses.
inline std::vector<Key> zipfian_probe_keys(std::size_t count,
                                           std::uint64_t key_space,
                                           std::uint64_t seed = 0x5EED,
                                           double theta = 0.99) {
  util::Xoshiro256 rng(seed);
  workload::ZipfianGenerator zipf(key_space, theta);
  std::vector<Key> probes(count);
  for (Key& k : probes) k = 1 + static_cast<Key>(zipf.next(rng));
  return probes;
}

/// What one workload op returned, folded so arms can cross-check checksums.
struct OpOutcome {
  std::uint64_t sum = 0;    // read: value on a hit; writes: 1 on success;
                            // scan: sum of the returned keys
  std::size_t scanned = 0;  // kScan: entries written
};

inline void fold_scan(const ScanEntry* buf, std::size_t n, OpOutcome& o) {
  o.scanned = n;
  for (std::size_t j = 0; j < n; ++j) o.sum += buf[j].key;
}

/// The one dispatcher every op-mix bench sends stream ops through: each of
/// the five op types reaches its own blocking entry point of `ds`. `buf`
/// holds at least op.scan_len entries.
template <typename DS>
OpOutcome apply_op(DS& ds, const workload::Op& op, ScanEntry* buf,
                   std::uint32_t tid) {
  OpOutcome o;
  switch (op.type) {
    case workload::OpType::kRead: {
      Value v = 0;
      if (ds.read(op.key, v, tid)) o.sum = v;
      break;
    }
    case workload::OpType::kUpdate:
      o.sum = ds.update(op.key, op.value, tid);
      break;
    case workload::OpType::kInsert:
      o.sum = ds.insert(op.key, op.value, tid);
      break;
    case workload::OpType::kRemove:
      o.sum = ds.remove(op.key, tid);
      break;
    case workload::OpType::kScan:
      fold_scan(buf, ds.scan(op.key, op.scan_len, buf, tid), o);
      break;
  }
  return o;
}

/// apply_op through the `_co` entry points, for ops driven by a host::Frame.
/// `op` is taken by value (the coroutine outlives the caller's temporary);
/// interleaved scans on one thread need one `buf` per in-flight op.
template <typename DS>
host::CoTask<OpOutcome> apply_op_co(DS& ds, workload::Op op, ScanEntry* buf,
                                    std::uint32_t tid) {
  OpOutcome o;
  switch (op.type) {
    case workload::OpType::kRead: {
      Value v = 0;
      if (co_await ds.read_co(op.key, &v, tid)) o.sum = v;
      break;
    }
    case workload::OpType::kUpdate:
      o.sum = co_await ds.update_co(op.key, op.value, tid);
      break;
    case workload::OpType::kInsert:
      o.sum = co_await ds.insert_co(op.key, op.value, tid);
      break;
    case workload::OpType::kRemove:
      o.sum = co_await ds.remove_co(op.key, tid);
      break;
    case workload::OpType::kScan:
      fold_scan(buf, co_await ds.scan_co(op.key, op.scan_len, buf, tid), o);
      break;
  }
  co_return o;
}

/// Folded results of one timed run: throughput plus a checksum that
/// cross-checks the arms of an ablation and defeats dead-code elimination.
struct RunResult {
  double mops = 0;
  std::uint64_t checksum = 0;
};

/// Median and quartiles of repeated measurements of one arm (linear
/// interpolation between order statistics). Ablations report the median with
/// its IQR rather than best-of-N, so one lucky rep cannot carry an arm.
struct Spread {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  double iqr() const { return q3 - q1; }
};

inline Spread spread_of(std::vector<double> xs) {
  Spread s;
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  const auto at = [&xs](double q) {
    const double pos = q * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
  };
  s.median = at(0.5);
  s.q1 = at(0.25);
  s.q3 = at(0.75);
  return s;
}

/// One timed multi-threaded run of `spec` against `ds` (any structure with
/// the read/update/insert/remove/scan shape of the hybrid structures). Same
/// shape as the figure benches: per-thread deterministic OpStreams, warmup
/// untimed, rough start barrier, wall-clock Mops/s, results folded into the
/// checksum.
template <typename DS>
RunResult run_op_mix(DS& ds, const workload::WorkloadSpec& spec,
                     std::uint32_t threads, std::uint64_t warmup_per_thread,
                     std::uint64_t ops_per_thread) {
  std::atomic<std::uint64_t> checksum{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  std::uint64_t t0 = 0;
  std::atomic<std::uint32_t> ready{0};
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t, threads, warmup_per_thread, ops_per_thread] {
      workload::OpStream stream(spec, t);
      std::vector<ScanEntry> buf(spec.max_scan_len);
      std::uint64_t my_sum = 0;
      auto run_one = [&] {
        my_sum += apply_op(ds, stream.next(), buf.data(), t).sum;
      };
      for (std::uint64_t i = 0; i < warmup_per_thread; ++i) run_one();
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      if (t == 0) t0 = now_ns();
      for (std::uint64_t i = 0; i < ops_per_thread; ++i) run_one();
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

/// The machine's L1D line size as the OS reports it, or 0 when unknowable.
/// The node layouts hard-code 64-byte lines (see ds/fat_skiplist.hpp's
/// static_asserts); StatsSession logs a mismatch so a surprising perf result
/// on exotic hardware is explainable from the bench output alone.
inline std::size_t runtime_cache_line_bytes() {
#if defined(_SC_LEVEL1_DCACHE_LINESIZE)
  const long sc = sysconf(_SC_LEVEL1_DCACHE_LINESIZE);
  if (sc > 0) return static_cast<std::size_t>(sc);
#endif
#if defined(__linux__)
  std::ifstream f(
      "/sys/devices/system/cpu/cpu0/cache/index0/coherency_line_size");
  std::size_t v = 0;
  if (f && (f >> v) && v > 0) return v;
#endif
  return 0;
}

/// RAII wiring of the telemetry/tracing flags: constructs a periodic stderr
/// reporter if --stats-interval was given (per-interval deltas with
/// --stats-delta), accumulates a snapshot timeline for --stats-series,
/// arms operation tracing for --trace-json/--trace-sample, and on
/// destruction (i.e. after the bench body ran) exports --stats-json,
/// the series CSV, and the Chrome trace JSON + per-phase breakdown.
class StatsSession {
 public:
  explicit StatsSession(const Options& opt)
      : json_path_(opt.stats_json),
        series_path_(opt.stats_series),
        trace_path_(opt.trace_json) {
    // One line of layout provenance per run: the fat-node/B+tree layouts are
    // tuned to 64-byte lines, so flag hardware where that constant is wrong.
    if (const std::size_t line = runtime_cache_line_bytes(); line != 0) {
      std::cerr << "cache: L1D line " << line << " B (layouts assume 64 B"
                << (line == 64 ? ")" : " -- MISMATCH, node sizing is off)")
                << "\n";
    }
    if (trace::kCompiledIn &&
        (!opt.trace_json.empty() || opt.trace_sample.has_value())) {
      // --trace-json alone samples every op; an explicit --trace-sample=0
      // turns tracing off even when a JSON path was given.
      const std::uint32_t every = opt.trace_sample.value_or(1);
      trace::set_sample_every(every);
      tracing_ = every > 0;
      if (tracing_) {
        std::cerr << "trace: sampling 1 in " << every << " ops\n";
      }
    }
    const bool print = opt.stats_interval_ms > 0;
    if (print || !series_path_.empty()) {
      if (opt.stats_delta) prev_ = telemetry::snapshot();
      const std::uint32_t ms =
          print ? opt.stats_interval_ms : kDefaultSeriesIntervalMs;
      reporter_.emplace(
          std::chrono::milliseconds(ms),
          [this, print, delta = opt.stats_delta](
              const telemetry::Snapshot& snap) {
            if (print) {
              std::cerr << (delta
                                ? telemetry::one_line_delta_summary(prev_,
                                                                    snap)
                                : telemetry::one_line_summary(snap))
                        << "\n";
            }
            if (delta) prev_ = snap;
            if (!series_path_.empty()) timeline_.append(snap);
          });
    }
    if (opt.fault_seed) {
      // Duration faults only: spurious protocol responses would make the
      // measured op mix depend on the seed, whereas stalls/delays/lost
      // wakeups perturb timing while leaving every op's result intact.
      nmp::fault::Config fc;
      fc.seed = *opt.fault_seed;
      fc.enable(nmp::fault::Kind::kCombinerStall, opt.fault_rate)
          .enable(nmp::fault::Kind::kDelayedResponse, opt.fault_rate)
          .enable(nmp::fault::Kind::kLostWakeup, opt.fault_rate);
      nmp::fault::FaultInjector::arm(fc);
      armed_ = true;
      std::cerr << "faults: armed seed=" << *opt.fault_seed
                << " rate=" << opt.fault_rate << "\n";
    }
  }

  ~StatsSession() {
    if (armed_) nmp::fault::FaultInjector::disarm();
    if (reporter_) reporter_->stop();
    if (!series_path_.empty()) {
      if (telemetry::export_series_csv(timeline_.entries(), series_path_)) {
        std::cerr << "telemetry: wrote " << series_path_ << " ("
                  << timeline_.size() << " snapshots)\n";
      } else {
        std::cerr << "telemetry: failed to write " << series_path_ << "\n";
      }
    }
    if (!json_path_.empty()) {
      if (telemetry::export_json(json_path_)) {
        std::cerr << "telemetry: wrote " << json_path_ << "\n";
      } else {
        std::cerr << "telemetry: failed to write " << json_path_ << "\n";
      }
    }
    if (tracing_) {
      const trace::TraceData data = trace::drain();
      if (!trace_path_.empty()) {
        if (trace::write_chrome_json(trace_path_, data)) {
          std::cerr << "trace: wrote " << trace_path_ << " ("
                    << data.events.size() << " events, " << data.sampled_ops
                    << " sampled ops, " << data.dropped << " dropped)\n";
        } else {
          std::cerr << "trace: failed to write " << trace_path_ << "\n";
        }
      }
      std::cerr << trace::breakdown_table(trace::breakdown(data)) << "\n";
    }
  }

  StatsSession(const StatsSession&) = delete;
  StatsSession& operator=(const StatsSession&) = delete;

 private:
  static constexpr std::uint32_t kDefaultSeriesIntervalMs = 500;

  std::string json_path_;
  std::string series_path_;
  std::string trace_path_;
  telemetry::Timeline timeline_;
  telemetry::Snapshot prev_;  // delta baseline; touched only by the reporter
  std::optional<telemetry::PeriodicReporter> reporter_;
  bool tracing_ = false;
  bool armed_ = false;
};

}  // namespace hybrids::bench
