// Extension bench — partition failover availability under YCSB-C.
//
// Runs the hybrid skiplist under a read-only YCSB-C stream while a killer
// thread forces one combiner failover every --kill-every-ms (round-robin
// over the partitions), exercising the fence/bounce/respawn machinery a real
// combiner death would take — trigger_failover drives the identical path, so
// this works in default (no -DHYBRIDS_FAULTS) builds too.
//
// Two timed runs of --duration-ms each:
//   baseline   no kills (availability reference)
//   respawn    killer active: every kill fences, bounces and re-arms
//
// Reported per mode: throughput, read-latency p50/p99, kill count, mean
// detect latency (trigger -> degraded observed), mean and max time-to-recover
// (trigger -> degraded cleared under traffic), and the availability ratio
// vs. baseline. A per-interval ops/s + p99 timeline is printed for the killed
// runs so the dip-and-recover shape is visible; --stats-series additionally
// writes the full telemetry timeline (partition_failover, partition_recovered,
// failover_bounced_ops, served_total, ...) as CSV.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "hybrids/ds/hybrid_skiplist.hpp"
#include "hybrids/nmp/partition_set.hpp"
#include "hybrids/telemetry/registry.hpp"
#include "hybrids/util/histogram.hpp"
#include "hybrids/util/table.hpp"
#include "hybrids/workload/ycsb.hpp"

namespace hd = hybrids::ds;
namespace hn = hybrids::nmp;
namespace hw = hybrids::workload;
namespace hb = hybrids::bench;

namespace {

constexpr std::size_t kLlcBytes = 1 << 20;  // §3.3 sizing target
constexpr std::uint32_t kTimelineIntervalMs = 250;

using hybrids::bench::now_ns;

/// Per-thread latency sink. The histogram is single-writer; the mutex only
/// synchronizes the timeline sampler's periodic snapshot against the owner.
struct alignas(64) LatencySink {
  std::mutex mu;
  hybrids::util::Histogram hist;
  std::atomic<std::uint64_t> ops{0};
};

struct KillRecord {
  std::uint32_t partition = 0;
  double detect_ms = 0;   // trigger -> degraded(p) observed
  double recover_ms = 0;  // trigger -> degraded(p) cleared again
  bool recovered = false;
};

struct ModeResult {
  double mops = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::vector<KillRecord> kills;
  std::vector<std::string> timeline;
  std::uint64_t bounced = 0;
};

ModeResult run_mode(const hw::WorkloadSpec& spec, std::uint32_t threads,
                    bool kill, std::uint32_t duration_ms,
                    std::uint32_t kill_every_ms) {
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
  // Fast supervisor so each kill's outage window is milliseconds, keeping
  // many kill/recover cycles inside one timed run.
  cfg.watchdog_interval_ms = 2;
  cfg.watchdog_misses_to_degrade = 2;
  cfg.watchdog_misses_to_recover = 2;
  hd::HybridSkipList list(cfg);
  for (hybrids::Key k : layout.initial_key_set()) (void)list.insert(k, k, 0);
  hn::PartitionSet& set = list.partition_set();

  const std::uint64_t bounced_before =
      hybrids::telemetry::kEnabled
          ? hybrids::telemetry::snapshot().counter_total(
                hybrids::telemetry::names::kFailoverBouncedOps)
          : 0;

  std::atomic<bool> stop{false};
  std::vector<LatencySink> sinks(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      hw::OpStream stream(spec, t);
      LatencySink& sink = sinks[t];
      while (!stop.load(std::memory_order_relaxed)) {
        const hw::Op op = stream.next();
        hybrids::Value v = 0;
        const std::uint64_t t0 = now_ns();
        (void)list.read(op.key, v, t);
        const std::uint64_t t1 = now_ns();
        {
          std::lock_guard<std::mutex> lk(sink.mu);
          sink.hist.record(static_cast<double>(t1 - t0));
        }
        sink.ops.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  ModeResult res;
  std::thread killer;
  if (kill) {
    killer = std::thread([&] {
      std::uint32_t next = 0;
      // Let the workers settle before the first kill.
      std::this_thread::sleep_for(std::chrono::milliseconds(kill_every_ms));
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint32_t p = next++ % set.partitions();
        KillRecord rec;
        rec.partition = p;
        const std::uint64_t k0 = now_ns();
        set.trigger_failover(p);
        while (!set.degraded(p) && !stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        rec.detect_ms = static_cast<double>(now_ns() - k0) * 1e-6;
        // The worker read stream supplies the progressing intervals the
        // hysteresis gate needs; recovery is bounded by the next kill slot.
        while (set.degraded(p) && !stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        rec.recovered = !set.degraded(p);
        rec.recover_ms = static_cast<double>(now_ns() - k0) * 1e-6;
        res.kills.push_back(rec);
        const auto next_slot =
            std::chrono::milliseconds(kill_every_ms) -
            std::chrono::nanoseconds(now_ns() - k0);
        if (next_slot.count() > 0) std::this_thread::sleep_for(next_slot);
      }
    });
  }

  // Timeline sampler: per-interval ops/s and p99 across all threads.
  std::thread sampler([&] {
    std::uint64_t prev_ops = 0;
    hybrids::util::Histogram prev_hist;
    std::uint64_t prev_ns = now_ns();
    std::uint32_t elapsed = 0;
    while (!stop.load(std::memory_order_relaxed) && elapsed < duration_ms) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(kTimelineIntervalMs));
      // A slice that straddles the stop flag measures a draining run; skip it.
      if (stop.load(std::memory_order_relaxed)) break;
      elapsed += kTimelineIntervalMs;
      std::uint64_t ops = 0;
      hybrids::util::Histogram merged;
      for (LatencySink& s : sinks) {
        ops += s.ops.load(std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(s.mu);
        merged.merge(s.hist);
      }
      const std::uint64_t t = now_ns();
      const double secs = static_cast<double>(t - prev_ns) * 1e-9;
      const hybrids::util::Histogram delta = merged.delta_since(prev_hist);
      const double kops = static_cast<double>(ops - prev_ops) / secs / 1e3;
      char line[96];
      std::snprintf(line, sizeof(line), "  t=%5ums  %8.0f kops/s  p99 %6.1f us",
                    elapsed, kops, delta.quantile(0.99) / 1000.0);
      res.timeline.emplace_back(line);
      prev_ops = ops;
      prev_hist = merged;
      prev_ns = t;
    }
  });

  const std::uint64_t run0 = now_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true, std::memory_order_relaxed);
  sampler.join();
  if (killer.joinable()) killer.join();
  for (std::thread& w : workers) w.join();
  const double secs = static_cast<double>(now_ns() - run0) * 1e-9;

  std::uint64_t total_ops = 0;
  hybrids::util::Histogram merged;
  for (LatencySink& s : sinks) {
    total_ops += s.ops.load(std::memory_order_relaxed);
    merged.merge(s.hist);
  }
  res.mops = static_cast<double>(total_ops) / secs / 1e6;
  res.p50_us = merged.quantile(0.50) / 1000.0;
  res.p99_us = merged.quantile(0.99) / 1000.0;
  if (hybrids::telemetry::kEnabled) {
    res.bounced = hybrids::telemetry::snapshot().counter_total(
                      hybrids::telemetry::names::kFailoverBouncedOps) -
                  bounced_before;
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  hb::Options opt = hb::parse_options(argc, argv);
  hb::StatsSession stats(opt);
  const std::uint64_t keys = opt.keys ? opt.keys : 1ull << 16;
  const std::uint32_t threads = opt.threads.empty() ? 4 : opt.threads.front();

  const hw::WorkloadSpec spec = hw::ycsb_c(keys, /*partitions=*/8, /*seed=*/42);

  std::cout << "Extension: partition failover availability, YCSB-C (" << keys
            << " keys, " << threads << " threads, kill every "
            << opt.kill_every_ms << " ms, " << opt.duration_ms
            << " ms per mode)\n\n";

  struct Mode {
    const char* name;
    bool kill;
  };
  const Mode modes[] = {{"baseline", false}, {"respawn", true}};

  hybrids::util::Table table({"mode", "Mops/s", "p50 us", "p99 us", "avail",
                              "kills", "recovered", "detect ms", "recover ms",
                              "max rec ms", "bounced"});
  double baseline_mops = 0;
  for (const Mode& m : modes) {
    const ModeResult r =
        run_mode(spec, threads, m.kill, opt.duration_ms, opt.kill_every_ms);
    if (!m.kill) baseline_mops = r.mops;
    double detect = 0, recover = 0, max_recover = 0;
    std::uint32_t recovered = 0;
    for (const KillRecord& k : r.kills) {
      detect += k.detect_ms;
      recover += k.recover_ms;
      if (k.recover_ms > max_recover) max_recover = k.recover_ms;
      recovered += k.recovered ? 1 : 0;
    }
    const double n = r.kills.empty() ? 1.0 : static_cast<double>(r.kills.size());
    table.new_row()
        .add_cell(m.name)
        .add_num(r.mops, 3)
        .add_num(r.p50_us, 1)
        .add_num(r.p99_us, 1)
        .add_num(baseline_mops > 0 ? r.mops / baseline_mops : 1.0, 3)
        .add_int(static_cast<int>(r.kills.size()))
        .add_int(static_cast<int>(recovered))
        .add_num(detect / n, 2)
        .add_num(recover / n, 2)
        .add_num(max_recover, 2)
        .add_int(static_cast<int>(r.bounced));
    if (m.kill && !r.timeline.empty()) {
      std::cout << m.name << " timeline:\n";
      for (const std::string& line : r.timeline) std::cout << line << "\n";
      std::cout << "\n";
    }
  }
  if (opt.csv) table.print_csv(std::cout); else table.print(std::cout);

  std::cout << "\n(Every kill fences the lane, bounces in-flight ops with "
               "failed_over, and\nre-integrates after the hysteresis gate; "
               "time-to-recover is trigger-to-healthy\nunder live traffic.)\n";
  return 0;
}
