// Quickstart: create a hybrid skiplist, run the basic operations from a few
// threads, and try the non-blocking call API.
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
  index.insert(/*key=*/42, /*value=*/4242, tid);
  Value v = 0;
  if (index.read(42, v, tid)) std::printf("key 42 -> %u\n", v);
  index.update(42, 999, tid);
  index.read(42, v, tid);
  std::printf("key 42 updated -> %u\n", v);
  index.remove(42, tid);
  std::printf("key 42 present after remove? %s\n",
              index.read(42, v, tid) ? "yes" : "no");

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
  std::printf("after concurrent inserts: %zu keys, valid=%s\n", index.size(),
              index.validate() ? "true" : "false");

  // --- non-blocking NMP calls (§3.5): up to 4 operations in flight ---
  std::vector<hybrids::ds::HybridSkipList::Ticket> pending;
  std::uint64_t hits = 0;
  for (Key k = 0; k < 4000; ++k) {
    auto ticket = index.read_async(k, tid);
    if (ticket.state == hybrids::ds::HybridSkipList::Ticket::State::kRejected) {
      hits += index.finish(pending.front(), &v) ? 1 : 0;  // drain the oldest
      pending.erase(pending.begin());
      ticket = index.read_async(k, tid);
    }
    if (ticket.state == hybrids::ds::HybridSkipList::Ticket::State::kImmediate) {
      hits += ticket.ok ? 1 : 0;  // served from the host-managed portion
    } else {
      pending.push_back(ticket);
    }
  }
  for (auto& t : pending) hits += index.finish(t, &v) ? 1 : 0;
  std::printf("non-blocking reads found %llu of 4000 keys\n",
              static_cast<unsigned long long>(hits));
  return 0;
}
