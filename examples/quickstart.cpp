// Quickstart: create a hybrid skiplist, run the basic operations from a few
// threads, and keep several operations in flight on one thread with the
// non-blocking (coroutine) API. Exits 1 if any result is wrong.
//
//   $ ./examples/quickstart
//
// On real NMP hardware the "NMP cores" would be in-memory processors; in
// this software runtime each one is a partition served by exactly one
// combiner-pool thread at a time (same programming model, §3.2 of the
// paper).
#include <cstdio>
#include <thread>
#include <vector>

#include "hybrids/ds/hybrid_skiplist.hpp"
#include "hybrids/host/interleave.hpp"

using hybrids::Key;
using hybrids::Value;

int main() {
  // A hybrid skiplist with 16 levels: the top 8 managed by host threads
  // (lock-free), the bottom 8 by 4 NMP partitions (flat combining).
  hybrids::ds::HybridSkipList::Config config;
  config.total_height = 16;
  config.nmp_height = 8;
  config.partitions = 4;
  config.partition_width = 1u << 16;  // keys [p*2^16, (p+1)*2^16) -> partition p
  config.max_threads = 4;

  hybrids::ds::HybridSkipList index(config);

  // --- basic operations (thread id identifies the publication-list slot) ---
  const std::uint32_t tid = 0;
  bool ok = index.insert(/*key=*/42, /*value=*/4242, tid);
  Value v = 0;
  ok = ok && index.read(42, v, tid) && v == 4242;
  std::printf("key 42 -> %u\n", v);
  ok = ok && index.update(42, 999, tid) && index.read(42, v, tid) && v == 999;
  std::printf("key 42 updated -> %u\n", v);
  ok = ok && index.remove(42, tid);
  const bool present = index.read(42, v, tid);
  std::printf("key 42 present after remove? %s\n", present ? "yes" : "no");
  ok = ok && !present;

  // --- concurrent usage: each thread passes its own id ---
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&index, t] {
      for (Key k = 0; k < 1000; ++k) {
        index.insert(k * 4 + t, k, t);  // disjoint keys per thread
      }
    });
  }
  for (auto& th : threads) th.join();
  const bool valid = index.validate();
  std::printf("after concurrent inserts: %zu keys, valid=%s\n", index.size(),
              valid ? "true" : "false");
  ok = ok && valid && index.size() == 4000;

  // --- non-blocking NMP calls (§3.5): up to 4 operations in flight ---
  // Every operation is also a coroutine (read_co, insert_co, ...). A Frame
  // runs up to 4 of them on this thread: while one waits for its NMP
  // partition, the frame resumes another.
  constexpr Key kReads = 4000;
  hybrids::host::Frame frame(4);
  std::vector<hybrids::host::CoTask<bool>> reads;
  std::vector<Value> values(kReads, 0);
  reads.reserve(kReads);
  for (Key k = 0; k < kReads; ++k) {
    reads.push_back(index.read_co(k, &values[k], tid));
    while (!frame.submit(reads.back().handle())) frame.step();  // frame full
  }
  frame.drain();
  std::uint64_t hits = 0;
  for (Key k = 0; k < kReads; ++k) {
    if (reads[k].result() && values[k] == k / 4) ++hits;  // key k*4+t -> k
  }
  std::printf("non-blocking reads found %llu of %u keys\n",
              static_cast<unsigned long long>(hits), kReads);
  ok = ok && hits == kReads;
  return ok ? 0 : 1;
}
