// Non-blocking pipeline scenario (§3.5): a single host thread keeps several
// NMP calls in flight against a hybrid B+ tree and overlaps their latency,
// exactly the pattern of Figure 4b. Compares wall-clock time of the same
// batch executed with blocking calls vs read_co coroutines on a host::Frame
// through the real (threaded) library. Exits 1 if either run misses a key.
//
//   $ ./examples/nonblocking_pipeline
#include <chrono>
#include <cstdio>
#include <vector>

#include "hybrids/ds/hybrid_btree.hpp"
#include "hybrids/host/interleave.hpp"
#include "hybrids/util/rng.hpp"

using hybrids::Key;
using hybrids::Value;
namespace hd = hybrids::ds;
namespace hh = hybrids::host;

namespace {

double run_blocking(hd::HybridBTree& tree, const std::vector<Key>& keys,
                    std::uint64_t& found) {
  const auto t0 = std::chrono::steady_clock::now();
  Value v = 0;
  found = 0;
  for (Key k : keys) found += tree.read(k, v, 0) ? 1 : 0;
  const auto t1 = std::chrono::steady_clock::now();
  std::printf("  blocking:     found %llu\n", static_cast<unsigned long long>(found));
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// Keeps up to `depth` read_co operations in flight on one Frame: each pass
// collects the finished ones, refills their places with the next keys, and
// lets the frame resume one operation (or wait on the NMP side when every
// one is parked on its partition).
double run_nonblocking(hd::HybridBTree& tree, const std::vector<Key>& keys,
                       std::uint32_t depth, std::uint64_t& found) {
  const auto t0 = std::chrono::steady_clock::now();
  hh::Frame frame(depth);
  std::vector<hh::CoTask<bool>> ops(depth);
  std::vector<Value> out(depth, 0);
  std::size_t next = 0;
  found = 0;
  do {
    for (std::uint32_t i = 0; i < depth; ++i) {
      if (ops[i].valid() && ops[i].done()) {
        found += ops[i].result() ? 1 : 0;
        ops[i] = {};
      }
      if (!ops[i].valid() && next < keys.size()) {
        ops[i] = tree.read_co(keys[next++], &out[i], 0);
        frame.submit(ops[i].handle());
      }
    }
  } while (frame.step());
  const auto t1 = std::chrono::steady_clock::now();
  std::printf("  non-blocking: found %llu\n", static_cast<unsigned long long>(found));
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main() {
  constexpr Key kKeys = 100000;
  std::vector<Key> ids;
  std::vector<Value> vals;
  for (Key i = 0; i < kKeys; ++i) {
    ids.push_back(i * 2);
    vals.push_back(i);
  }
  hd::HybridBTree::Config config;
  config.nmp_levels = 3;
  config.partitions = 4;
  config.max_threads = 1;
  config.slots_per_thread = 4;  // up to 4 calls in flight (paper's setting)
  hd::HybridBTree tree(config, ids, vals);

  hybrids::util::Xoshiro256 rng(7);
  std::vector<Key> lookups;
  for (int i = 0; i < 50000; ++i) {
    lookups.push_back(static_cast<Key>(rng.next_below(kKeys)) * 2);
  }

  std::printf("pipelining %zu lookups through 4 NMP partitions:\n",
              lookups.size());
  std::uint64_t found_blocking = 0;
  std::uint64_t found_nonblocking = 0;
  const double blocking_ms = run_blocking(tree, lookups, found_blocking);
  const double nonblocking_ms =
      run_nonblocking(tree, lookups, config.slots_per_thread, found_nonblocking);
  std::printf("  blocking:     %.1f ms\n", blocking_ms);
  std::printf("  non-blocking: %.1f ms\n", nonblocking_ms);
  std::printf(
      "\n(On this software runtime the win comes from overlapping combiner\n"
      "work; on real NMP hardware it additionally hides the offload round\n"
      "trip — see bench/table2_offload_delay and bench/ablate_inflight.)\n");
  // Every lookup key was bulk-loaded, so both runs must find all of them.
  return found_blocking == lookups.size() &&
                 found_nonblocking == lookups.size()
             ? 0
             : 1;
}
