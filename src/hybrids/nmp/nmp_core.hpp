// Software emulation of an NMP core: a memory partition with exclusive,
// single-threaded service of its publication list.
//
// This is the UPMEM-style software realization of the paper's NMP core
// (in-order processor coupled to a memory vault). An NmpCore holds the
// partition's publication list and its combiner pass (scan_and_serve); the
// threads that run those passes belong to a CombinerPool
// (combiner_pool.hpp), which serves many partitions with a few threads, as
// a few server cores serve many clients. A pool thread takes the
// partition's pass token for the whole pass, and the failover supervisor
// takes it before it touches a fenced partition's slots, so exactly one
// thread ever touches partition-local nodes at a time and partition-local
// code is single-threaded by construction: the property the hybrid
// algorithms rely on (§3.2).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "hybrids/nmp/publication.hpp"
#include "hybrids/telemetry/registry.hpp"

namespace hybrids::nmp {

class CombinerPool;

/// A pool thread's doorbell: the futex word it parks on and the flag that
/// tells posters whether it is parked (see the handshake in publication.hpp).
struct alignas(util::kCacheLineSize) Doorbell {
  std::atomic<std::uint32_t> word{0};
  std::atomic<std::uint32_t> parked{0};

  /// Bumps the word and issues FUTEX_WAKE; counts one `wake_total`. The
  /// owner re-scans all its partitions after seeing the word move.
  void ring() noexcept;
};

/// A single emulated NMP core.
///
/// The `handler` is invoked by the partition's server for every pending
/// request, in slot order (flat combining). It must only touch
/// partition-local state plus the request/response structs; it runs with no
/// locks held.
///
/// With a batch handler additionally installed (set_batch_handler), a scan
/// pass that finds two or more pending requests is served as one key-sorted
/// batch instead: the combiner collects every kPending slot, sorts the
/// requests by key (stable, so equal keys keep slot order), and invokes the
/// batch handler once over the whole span. This lets partition-local
/// structures amortize traversal work across key-adjacent operations with a
/// finger (see NmpSkipList / NmpBTree) — the combiner loop is the throughput
/// ceiling of the hybrid design, so work saved here is end-to-end win.
/// Responses are then published (kDone + wake) in original slot order, so
/// hosts observe exactly the protocol of the one-at-a-time path. Passes with
/// a single pending request always use the plain handler; so do cores with
/// no batch handler registered.
class NmpCore {
 public:
  using Handler = std::function<void(const Request&, Response&)>;
  /// Invoked by the server with `count >= 2` operations sorted by
  /// ascending request key. Must write every `ops[i].resp` before returning;
  /// the core publishes them afterwards. Same restrictions as Handler.
  using BatchHandler = std::function<void(BatchOp* ops, std::size_t count)>;

  NmpCore(std::uint32_t id, std::uint32_t slot_count, Handler handler);

  NmpCore(const NmpCore&) = delete;
  NmpCore& operator=(const NmpCore&) = delete;

  /// Installs the optional batch handler. Must be called before a pool
  /// starts serving the core.
  void set_batch_handler(BatchHandler handler);

  std::uint32_t id() const { return id_; }
  std::uint32_t slot_count() const { return static_cast<std::uint32_t>(slots_.size()); }

  /// Direct slot access; slot ownership/assignment policy lives with the
  /// caller (see PartitionSet::thread_base).
  PubSlot& slot(std::uint32_t index) { return *slots_[index]; }

  /// Host side: publish `r` into slot `index` and ring the serving pool
  /// thread's doorbell if it is parked.
  void post(std::uint32_t index, const Request& r);

  /// Host side: block until slot `index` holds a response. Internally waits
  /// in bounded windows with lost-wakeup recovery (see wait_done_for), so it
  /// never hangs on a dropped futex notify.
  void wait_done(std::uint32_t index);

  /// Host side: bounded wait — spin, then yield, then raise the slot's
  /// `waiting` flag and park on a timed futex until slot `index` holds a
  /// response or `timeout` elapses. Returns true iff the response is
  /// available. After each expired wait window the server is kicked
  /// (lost-doorbell recovery: a pool thread whose doorbell was dropped
  /// re-scans) and `wait_timeout_total` is bumped.
  bool wait_done_for(std::uint32_t index, std::chrono::nanoseconds timeout);

  /// Rings the serving pool thread's doorbell, so it re-scans every
  /// partition it serves — parked or not (watchdog / lost-doorbell
  /// recovery). Safe from any thread.
  void kick();

  // --- Failover support (see the supervisor in partition_set.cpp) ---------
  //
  // A pool serves a core only while it is *armed* at the current fence
  // epoch. A *fence* (fence_raise) disarms it: pool threads skip it from
  // their next round on, and a pass already running completes under the
  // stale epoch, where complete() degrades from a blind kDone store to a
  // kPending -> kDone CAS (already-run ops are still answered, but a reply
  // to a slot some new owner has reclaimed is rejected). The supervisor
  // then seizes the pass token (try_seize), bounces still-kPending slots
  // with failed_over responses, and re-arms the core on the pool
  // (CombinerPool::rearm), which releases the token.

  /// Raises the fence epoch (disarming the core) and kicks its pool thread
  /// so a wedge it holds observes the fence. Safe from any thread; only the
  /// supervisor should call it.
  void fence_raise();

  /// Current fence epoch (tests / diagnostics).
  std::uint64_t fence_epoch() const {
    return fence_.load(std::memory_order_acquire);
  }

  /// True while a pool serves the core: it is armed at the current fence
  /// epoch. False once it is fenced, or its server died (kCombinerAbort).
  bool armed() const {
    return armed_.load(std::memory_order_acquire) ==
           fence_.load(std::memory_order_acquire);
  }

  /// True once the core is disarmed (fenced, or its server aborted) and no
  /// pass is in flight, so try_seize() would succeed.
  bool quiesced() const {
    return armed_.load(std::memory_order_acquire) !=
               fence_.load(std::memory_order_acquire) &&
           !busy_.load(std::memory_order_acquire);
  }

  /// Takes the pass token of a disarmed core. On success the caller is the
  /// partition's sole writer — no pool thread can run a pass — until it
  /// hands the core back through CombinerPool::rearm(). Fails while the
  /// core is armed or a pass is in flight.
  bool try_seize();

  /// Failover accounting: credit `n` supervisor-bounced slots as served so
  /// the watchdog's posted-vs-served progress check re-converges (bounced
  /// ops never reach complete()).
  void absorb_bounce(std::uint64_t n) {
    served_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Number of requests served so far (for tests / stats).
  std::uint64_t served() const { return served_.load(std::memory_order_relaxed); }
  /// Number of requests posted so far (watchdog progress accounting).
  std::uint64_t posted() const { return posts_.load(std::memory_order_relaxed); }

 private:
  friend class CombinerPool;

  /// armed_ value of a core no pool may serve (never a fence epoch).
  static constexpr std::uint64_t kDisarmed = ~std::uint64_t{0};

  /// Telemetry instruments, registered per partition id at construction.
  /// All hot-path mutations are relaxed-atomic increments; they compile to
  /// no-ops under HYBRIDS_NO_TELEMETRY.
  struct Metrics {
    telemetry::Counter* served_total;
    telemetry::Counter* served_op[kOpCodeCount];  // indexed by OpCode
    telemetry::Counter* wait_timeout;  // expired bounded-wait windows
    telemetry::Counter* posted;        // global host.offload_posted
    telemetry::LatencyRecorder* queue_wait;  // post -> pickup, ns
    telemetry::LatencyRecorder* service;     // handler execution, ns
    telemetry::LatencyRecorder* occupancy;   // pending slots at scan start
    telemetry::LatencyRecorder* batch;       // requests served per scan pass
    telemetry::LatencyRecorder* batch_size;  // ops per batch-handler call
    telemetry::Counter* trace_queue_wait;    // traced ops: queue-wait ns total
    telemetry::Counter* trace_service;       // traced ops: service ns total
  };

  /// One request picked up by a scan pass, with the metadata that must be
  /// captured before the kDone store (the owning host thread may take() and
  /// re-post the slot the instant it observes completion).
  struct Picked {
    PubSlot* slot;
    std::uint64_t pickup_ns;  // telemetry::now_ns() at collection
    std::uint64_t posted_ns;
    std::size_t op;           // OpCode as index, captured pre-completion
    std::uint64_t trace_id;   // sampled-op id (0: untraced), ditto
  };

  bool try_acquire_pass() {
    return !busy_.load(std::memory_order_relaxed) &&
           !busy_.exchange(true, std::memory_order_acquire);
  }
  void release_pass() { busy_.store(false, std::memory_order_release); }

  /// One scan-and-serve pass over the publication list: occupancy sample,
  /// collection, spurious-response fault hooks, batch or one-at-a-time
  /// apply. The caller holds the pass token. `epoch` is the fence epoch the
  /// pass runs under; see complete() for what happens to completions when
  /// it goes stale. Returns the number of requests served.
  std::uint32_t scan_and_serve(std::uint64_t epoch);
  /// Publishes one served slot: delayed-response fault hook, kDone store
  /// and reply handshake (PubSlot::publish_done), served accounting, per-op
  /// telemetry. When `epoch` no longer matches the fence the publish becomes
  /// a kPending -> kDone CAS — the already-run op is still answered, but a
  /// late reply to a slot a new owner has reclaimed is rejected.
  void complete(const Picked& picked, std::uint64_t service_ns,
                std::uint64_t epoch);

  // Grouped by writer so a post and a pass do not bounce one cache line
  // between the host and the server. Read-mostly once served:
  std::uint32_t id_;
  Handler handler_;
  BatchHandler batch_handler_;
  std::vector<util::CacheAligned<PubSlot>> slots_;
  Metrics metrics_;
  // Failover state; written only on fence, re-arm, pool start and stop.
  std::atomic<std::uint64_t> fence_{0};          // failover fence epoch
  std::atomic<std::uint64_t> armed_{kDisarmed};  // epoch the pool serves at
  std::atomic<Doorbell*> bell_{nullptr};  // serving pool thread's doorbell
  // Written by posting hosts.
  alignas(util::kCacheLineSize) std::atomic<std::uint64_t> pending_{0};
  // ^ bumped by every post (and by re-arming): what pool threads compare to
  //   decide a re-scan.
  std::atomic<std::uint64_t> posts_{0};  // requests posted
  // Written by the server: the pass token, its accounting and its scratch
  // (used only by the token holder).
  alignas(util::kCacheLineSize) std::atomic<bool> busy_{false};
  std::atomic<std::uint64_t> served_{0};
  std::vector<Picked> picked_;
  std::vector<BatchOp> batch_;
};

}  // namespace hybrids::nmp
