// The op-mix benches' dispatcher (bench/bench_common.hpp): one op of each
// workload type must reach its own entry point exactly once, through the
// blocking apply_op and through the coroutine apply_op_co alike — a
// dispatcher whose `default:` branch runs unlisted types as reads would
// silently turn an update mix into a read mix.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "bench_common.hpp"
#include "hybrids/host/interleave.hpp"

namespace hb = hybrids::bench;
namespace hh = hybrids::host;
namespace hw = hybrids::workload;
using hybrids::Key;
using hybrids::ScanEntry;
using hybrids::Value;

namespace {

constexpr std::size_t kTypes = 5;  // read, update, insert, remove, scan

std::size_t index_of(hw::OpType t) { return static_cast<std::size_t>(t); }

// Counts calls per entry point; blocking and _co entry points separately.
struct CountingDS {
  std::array<int, kTypes> blocking{};
  std::array<int, kTypes> co{};

  bool read(Key, Value& v, std::uint32_t) {
    ++blocking[index_of(hw::OpType::kRead)];
    v = 7;
    return true;
  }
  bool update(Key, Value, std::uint32_t) {
    ++blocking[index_of(hw::OpType::kUpdate)];
    return true;
  }
  bool insert(Key, Value, std::uint32_t) {
    ++blocking[index_of(hw::OpType::kInsert)];
    return true;
  }
  bool remove(Key, std::uint32_t) {
    ++blocking[index_of(hw::OpType::kRemove)];
    return true;
  }
  std::size_t scan(Key start, std::size_t n, ScanEntry* out, std::uint32_t) {
    ++blocking[index_of(hw::OpType::kScan)];
    for (std::size_t i = 0; i < n; ++i) out[i] = {start + static_cast<Key>(i), 0};
    return n;
  }

  hh::CoTask<bool> read_co(Key, Value* v, std::uint32_t) {
    ++co[index_of(hw::OpType::kRead)];
    *v = 7;
    co_return true;
  }
  hh::CoTask<bool> update_co(Key, Value, std::uint32_t) {
    ++co[index_of(hw::OpType::kUpdate)];
    co_return true;
  }
  hh::CoTask<bool> insert_co(Key, Value, std::uint32_t) {
    ++co[index_of(hw::OpType::kInsert)];
    co_return true;
  }
  hh::CoTask<bool> remove_co(Key, std::uint32_t) {
    ++co[index_of(hw::OpType::kRemove)];
    co_return true;
  }
  hh::CoTask<std::size_t> scan_co(Key start, std::size_t n, ScanEntry* out,
                                  std::uint32_t) {
    ++co[index_of(hw::OpType::kScan)];
    for (std::size_t i = 0; i < n; ++i) out[i] = {start + static_cast<Key>(i), 0};
    co_return n;
  }
};

std::vector<hw::Op> one_of_each() {
  std::vector<hw::Op> ops;
  for (hw::OpType t : {hw::OpType::kRead, hw::OpType::kUpdate,
                       hw::OpType::kInsert, hw::OpType::kRemove,
                       hw::OpType::kScan}) {
    ops.push_back(hw::Op{t, /*key=*/10, /*value=*/3, /*scan_len=*/4});
  }
  return ops;
}

}  // namespace

TEST(BenchDispatch, ApplyOpHitsEachEntryPointOnce) {
  CountingDS ds;
  std::vector<ScanEntry> buf(4);
  std::vector<hb::OpOutcome> out;
  for (const hw::Op& op : one_of_each()) {
    out.push_back(hb::apply_op(ds, op, buf.data(), 0));
  }
  for (std::size_t i = 0; i < kTypes; ++i) {
    EXPECT_EQ(ds.blocking[i], 1) << "op type " << i;
    EXPECT_EQ(ds.co[i], 0) << "op type " << i;
  }
  EXPECT_EQ(out[index_of(hw::OpType::kRead)].sum, 7u);
  EXPECT_EQ(out[index_of(hw::OpType::kUpdate)].sum, 1u);
  EXPECT_EQ(out[index_of(hw::OpType::kScan)].scanned, 4u);
  EXPECT_EQ(out[index_of(hw::OpType::kScan)].sum, 10u + 11 + 12 + 13);
}

TEST(BenchDispatch, ApplyOpCoHitsEachEntryPointOnce) {
  CountingDS ds;
  std::vector<ScanEntry> buf(4);
  std::vector<hb::OpOutcome> out;
  for (const hw::Op& op : one_of_each()) {
    out.push_back(hh::run_inline(hb::apply_op_co(ds, op, buf.data(), 0)));
  }
  for (std::size_t i = 0; i < kTypes; ++i) {
    EXPECT_EQ(ds.co[i], 1) << "op type " << i;
    EXPECT_EQ(ds.blocking[i], 0) << "op type " << i;
  }
  EXPECT_EQ(out[index_of(hw::OpType::kRead)].sum, 7u);
  EXPECT_EQ(out[index_of(hw::OpType::kUpdate)].sum, 1u);
  EXPECT_EQ(out[index_of(hw::OpType::kScan)].scanned, 4u);
  EXPECT_EQ(out[index_of(hw::OpType::kScan)].sum, 10u + 11 + 12 + 13);
}
