// Publication-list protocol between host threads and NMP cores (§3.2).
//
// A host thread offloads an operation by filling its assigned slot in the
// target NMP core's publication list (in hardware: an 8kB region of the NMP
// core's scratchpad memory-mapped into the host address space) and raising
// the valid flag. The NMP core — the flat-combining combiner for its
// partition — scans the list, applies requests one at a time against its
// exclusively-owned partition, writes the response back into the slot, and
// clears the valid flag.
//
// Request fields mirror the paper's slot layout: lookup key (4B), associated
// value (4B), begin-NMP-traversal node pointer, operation type, valid flag —
// plus an auxiliary word used by the hybrid structures (skiplist: tower
// height & host node pointer; B+ tree: offloaded parent sequence number).
// Response fields: retry flag, success flag, read value, created-node
// pointer, plus the B+ tree's LOCK_PATH escalation flag.
#pragma once

#include <atomic>
#include <cstdint>

#include "hybrids/nmp/fault.hpp"
#include "hybrids/telemetry/counters.hpp"
#include "hybrids/types.hpp"
#include "hybrids/util/cache_aligned.hpp"
#include "hybrids/util/futex.hpp"

namespace hybrids::nmp {

using hybrids::Key;
using hybrids::Value;

/// Operation codes carried in a publication slot. kRead..kRemove are the
/// data structure operations; kResumeInsert / kUnlockPath are the hybrid
/// B+ tree's second-phase control commands (§3.4); kScan is one chunk of a
/// host-stitched range scan (see the field mapping below); kNop lets tests
/// exercise the transport alone.
enum class OpCode : std::uint8_t {
  kRead,
  kUpdate,
  kInsert,
  kRemove,
  kResumeInsert,
  kUnlockPath,
  kPromote,  // adaptive extension (§7): raise a hot key into the host portion
  kScan,     // partition-local range-scan chunk (up to kScanChunk entries)
  kNop,
};

/// Number of opcodes. Sized from the enum so per-op telemetry arrays
/// (NmpCore::Metrics::served_op and the simulator's equivalent) can never
/// silently drop a newly added opcode.
inline constexpr std::size_t kOpCodeCount =
    static_cast<std::size_t>(OpCode::kNop) + 1;

/// Human-readable opcode name, used as the suffix of the per-op telemetry
/// counters (`served_<name>`) by both the real runtime and the simulator.
inline const char* op_code_name(OpCode op) noexcept {
  switch (op) {
    case OpCode::kRead: return "read";
    case OpCode::kUpdate: return "update";
    case OpCode::kInsert: return "insert";
    case OpCode::kRemove: return "remove";
    case OpCode::kResumeInsert: return "resume_insert";
    case OpCode::kUnlockPath: return "unlock_path";
    case OpCode::kPromote: return "promote";
    case OpCode::kScan: return "scan";
    case OpCode::kNop: return "nop";
  }
  return "unknown";
}

/// Maximum number of ScanEntry pairs one kScan slot round-trip returns (the
/// per-chunk cap, sized so a chunk stays within one publication-slot-sized
/// transfer of the NMP core's scratchpad). Longer scans continue from the
/// response's continuation key; scans that span partitions are stitched by
/// the host (see the hybrid structures' scan()).
inline constexpr std::size_t kScanChunk = 16;

/// kScan field mapping (one chunk of a stitched range scan):
///   Request:  key       = chunk start key (inclusive)
///             value     = entries requested (combiner clamps to kScanChunk)
///             node      = begin-NMP-traversal node, as for point ops
///             host_node = host-owned ScanEntry output buffer; the combiner
///                         plain-writes it before its kDone release store,
///                         which the host's acquire load synchronizes with
///             aux       = B+ tree: offloaded parent seqnum
///   Response: value     = entries written to the buffer
///             aux       = continuation key (first key NOT returned; valid
///                         only when has_more)
///             has_more  = more matching keys remain in this partition at
///                         keys >= the continuation key
struct Request {
  OpCode op = OpCode::kNop;
  Key key = 0;
  Value value = 0;           // kScan: requested entry count for this chunk
  void* node = nullptr;      // begin-NMP-traversal node (null: partition head)
  void* host_node = nullptr; // host-side counterpart (skiplist insert/update);
                             // kScan: host-owned ScanEntry output buffer
  std::uint64_t aux = 0;     // skiplist: tower height; B+ tree: parent seqnum
  std::uint64_t trace_id = 0;  // sampled-op id (trace/trace.hpp); 0: untraced.
                               // Rides the request so the combiner can
                               // attribute queue-wait/apply/reply phases and
                               // per-partition trace.* counters to the op.
};

struct Response {
  bool ok = false;         // operation return value (found/inserted/removed)
  bool retry = false;      // begin-NMP-traversal node went stale: retry op
  bool lock_path = false;  // B+ tree: host must lock its path, then resume
  bool promote_hint = false;  // adaptive skiplist: key crossed the hotness
                              // threshold; host should issue kPromote
  bool has_more = false;   // kScan: partition holds further keys >= aux
  bool failed_over = false;  // partition was fenced while this op was in
                             // flight (or posted against a fenced lane): the
                             // op was NOT applied; the host must re-route /
                             // retry. Set only by the failover supervisor and
                             // the fast-bounce path, never by a combiner.
  Value value = 0;         // read result; kScan: entries written
  void* node = nullptr;    // skiplist insert: node created in the partition;
                           // skiplist update: host_ptr of the updated node
  std::uint64_t aux = 0;   // skiplist update: value version for host mirror;
                           // kScan: continuation key
};

/// One entry of a key-sorted combiner batch (see NmpCore::BatchHandler): a
/// view into a publication slot mid-service. The slot stays kPending for the
/// whole batch apply — the combiner owns `*req` and `*resp` exclusively until
/// it later publishes kDone — so a batch handler may read requests and write
/// responses through these pointers with plain (non-atomic) accesses.
struct BatchOp {
  const Request* req = nullptr;
  Response* resp = nullptr;
};

/// One publication-list slot. Padded to a cache line so host threads never
/// false-share; `status` carries the valid-flag handshake.
///
/// Slot-state protocol (audited 2026-08; every transition is a release
/// store matched by the consumer's acquire load):
///
///   kEmpty --post(), host--> kPending --combiner--> kDone --take(), host--> kEmpty
///
///  1. Only the owning host thread moves kEmpty -> kPending, and only after
///     plain-writing `req`/`resp`/`posted_ns`. The release store of
///     kPending is the publication fence: a combiner that acquire-loads
///     kPending therefore sees the complete request.
///  2. Only the combiner moves kPending -> kDone, after plain-writing
///     `resp`. Its store (publish_done) publishes the response to the
///     host's acquire load in done()/wait_done(). With a batch handler
///     installed (NmpCore::set_batch_handler) the combiner may serve a whole
///     scan pass as one key-sorted batch: every collected slot's `resp` is
///     written during the batch apply, and only afterwards are the kDone
///     stores issued, one per slot in publication-list (slot-index) order.
///     The state machine is unchanged — each slot still goes kPending ->
///     kDone exactly once, via its own release store.
///  3. Only the owning host thread moves kDone -> kEmpty (take()). The
///     release store is what allows the *same* thread's next post() to
///     plain-write `req` without racing the combiner: the combiner never
///     touches a slot it has already marked kDone.
///
/// Failover exception to rule 2 (see partition_set.cpp's supervisor): when a
/// partition is *fenced*, the supervisor may move kPending -> kDone on the
/// dead combiner's behalf, writing a bounce response with `failed_over` set
/// ("not applied; retry elsewhere"). This is safe against the zombie only
/// because the supervisor first raises the fence epoch and then *seizes*
/// the partition's pass token (NmpCore::try_seize), which no pool thread
/// can hold at the same time — once seized there is exactly
/// one writer again. A combiner that outlived its fence (a false
/// positive: it was slow, not dead) detects the stale epoch in complete()
/// and switches from a blind kDone store to a kPending -> kDone CAS: ops it
/// already ran are still answered (dropping them would double-execute on
/// the host's retry — the CAS happens before the pass token is released, so
/// it cannot race the supervisor), while a reply to a slot some new owner has
/// already moved on is rejected. Thus every failed_over response a host
/// ever sees belongs to a request that was never picked up.
///
/// Wakeups are two Dekker handshakes, one per direction. Each side raises
/// its flag, issues a full fence (every access below is seq_cst), then
/// checks the other side; the futex syscall is made only when the other
/// side is parked, and at least one side always sees the other's write.
///
///  * Host -> combiner (the doorbell). NmpCore::post() stores kPending,
///    bumps the core's `pending_` counter, then loads the serving pool
///    thread's `parked` flag and rings its doorbell word only if the flag
///    is set. A pool thread that finds no work spins for a short budget,
///    then stores `parked`, snapshots its doorbell word, re-checks every
///    assigned partition's `pending_` against what it last scanned, and only
///    then parks on the word. Either the post sees `parked` and rings (the
///    word moved, so the futex wait returns at once or is woken), or the
///    re-check sees the bump and the thread does not park. The counter bump
///    is ordered after the kPending store, so a thread that sees the bump
///    finds the pending slot on its next scan (the scan re-checks each
///    slot's status with acquire, so even an unrelated wake-up is safe).
///  * Combiner -> host (the reply). A host in NmpCore::wait_done_for raises
///    this slot's `waiting` flag, re-loads `status`, and parks on the status
///    word only while it still reads kPending. Every kDone store — the
///    combiner's complete(), its fenced-CAS path, and the supervisor's
///    bounce sweep — goes through publish_done(), which loads `waiting`
///    after the store and issues FUTEX_WAKE only when it is set. (A
///    std::atomic::notify_all here would not do: libstdc++ 12 skips the
///    syscall unless a std::atomic::wait waiter shares the address's
///    waiter-pool bucket, so a host parked with a raw FUTEX_WAIT slept out
///    its whole wait window.)
struct alignas(util::kCacheLineSize) PubSlot {
  enum Status : std::uint32_t {
    kEmpty = 0,    // free for the owning host thread to fill
    kPending = 1,  // request valid, waiting for the NMP core
    kDone = 2,     // response valid, waiting for the host thread to consume
  };

  std::atomic<std::uint32_t> status{kEmpty};
  std::atomic<std::uint32_t> waiting{0};  // host parked (or parking) on status
  Request req;
  Response resp;
  std::uint64_t posted_ns = 0;  // telemetry: post() timestamp (queue wait)
  std::uint64_t done_ns = 0;    // trace: combiner completion timestamp,
                                // plain-written before the kDone release
                                // store (the host reads it after its acquire
                                // load, like `resp`); feeds the kWake phase

  /// Host side: publish a request (slot must be kEmpty and owned by caller).
  void post(const Request& r) noexcept {
    req = r;
    resp = Response{};
    posted_ns = telemetry::now_ns();
    // Fault hook: emulate a slow host->NMP interconnect by delaying the
    // publication (between the request write and the kPending store).
    fault::maybe_stall(fault::Kind::kDelayedResponse, fault::kHostStream);
    status.store(kPending, std::memory_order_release);
  }

  bool done() const noexcept {
    return status.load(std::memory_order_acquire) == kDone;
  }

  /// Combiner / supervisor side: publish the response (kPending -> kDone)
  /// and wake the owning host iff it is parked on the slot.
  void publish_done() noexcept {
    status.store(kDone, std::memory_order_seq_cst);
    wake_waiter();
  }

  /// As publish_done(), but only if the slot is still kPending (a fenced
  /// combiner's reply; see the failover exception above). Returns whether
  /// the reply was published.
  bool publish_done_if_pending() noexcept {
    std::uint32_t expected = kPending;
    if (!status.compare_exchange_strong(expected, kDone,
                                        std::memory_order_seq_cst)) {
      return false;
    }
    wake_waiter();
    return true;
  }

  /// Host side: consume the response and release the slot.
  Response take() noexcept {
    Response r = resp;
    status.store(kEmpty, std::memory_order_release);
    return r;
  }

 private:
  void wake_waiter() noexcept {
    if (waiting.load(std::memory_order_seq_cst) != 0) util::futex_wake(status);
  }
};

static_assert(sizeof(PubSlot) % util::kCacheLineSize == 0);

}  // namespace hybrids::nmp
