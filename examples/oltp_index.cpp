// OLTP index scenario: a hybrid B+ tree as the primary-key index of an
// in-memory table (the paper's motivating use case, §1).
//
// A small "orders" table is bulk-loaded in sorted order (as OLTP systems do
// when building an index over an existing table, §3.4), then serves a mix
// of point lookups, new-order inserts, and cancellations from multiple
// worker threads — the shape of an OLTP transaction workload. Exits 1 if a
// lookup misses or the final size or structure is wrong.
//
//   $ ./examples/oltp_index
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "hybrids/ds/hybrid_btree.hpp"
#include "hybrids/util/rng.hpp"

using hybrids::Key;
using hybrids::Value;

namespace {

// Order rows live in a plain table; the index maps order id -> row slot.
struct OrderRow {
  Key order_id;
  std::uint32_t customer;
  std::uint32_t amount_cents;
};

}  // namespace

int main() {
  constexpr std::uint32_t kWorkers = 4;
  constexpr Key kInitialOrders = 50000;

  // Bulk-load the table and build the index over it.
  std::vector<OrderRow> table;
  std::vector<Key> ids;
  std::vector<Value> slots;
  table.reserve(kInitialOrders);
  for (Key id = 0; id < kInitialOrders; ++id) {
    table.push_back({id * 2, id % 997, (id * 37) % 100000});
    ids.push_back(id * 2);
    slots.push_back(id);  // index value = row slot in the table
  }

  hybrids::ds::HybridBTree::Config config;
  config.nmp_levels = 3;   // leaves + 2 levels near memory
  config.partitions = 8;   // one NMP core per partition
  config.max_threads = kWorkers;
  hybrids::ds::HybridBTree index(config, ids, slots);
  std::printf("index built: %zu keys, height %d (top %d levels host-managed)\n",
              index.size(), index.height(),
              index.height() - index.last_host_level());

  // OLTP-style workload: 80% lookups, 10% new orders, 10% cancellations.
  std::atomic<std::uint64_t> lookups{0}, found{0}, inserts{0}, removes{0};
  std::vector<std::thread> workers;
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      hybrids::util::Xoshiro256 rng(1234 + w);
      for (int txn = 0; txn < 20000; ++txn) {
        const std::uint64_t dice = rng.next_below(10);
        if (dice < 8) {
          // Point lookup: order id -> row.
          const Key id = static_cast<Key>(rng.next_below(kInitialOrders)) * 2;
          Value slot = 0;
          lookups.fetch_add(1, std::memory_order_relaxed);
          if (index.read(id, slot, w)) {
            found.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (dice == 8) {
          // New order: odd ids are unused in the initial load.
          const Key id = static_cast<Key>(rng.next_below(kInitialOrders)) * 2 + 1;
          if (index.insert(id, id, w)) {
            inserts.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          // Cancellation.
          const Key id = static_cast<Key>(rng.next_below(kInitialOrders)) * 2 + 1;
          if (index.remove(id, w)) {
            removes.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : workers) t.join();

  std::printf("lookups: %llu (%llu found)\n",
              static_cast<unsigned long long>(lookups.load()),
              static_cast<unsigned long long>(found.load()));
  std::printf("new orders: %llu, cancellations: %llu\n",
              static_cast<unsigned long long>(inserts.load()),
              static_cast<unsigned long long>(removes.load()));
  const std::size_t expected = kInitialOrders + inserts.load() - removes.load();
  const bool valid = index.validate();
  std::printf("final index size: %zu (expected %zu), valid=%s\n", index.size(),
              expected, valid ? "true" : "false");
  // Lookups only touch bulk-loaded (even) ids, which nothing removes.
  return found.load() == lookups.load() && index.size() == expected && valid
             ? 0
             : 1;
}
