#include "hybrids/nmp/nmp_core.hpp"

#include <algorithm>
#include <cassert>

#include "hybrids/mem/memlayer.hpp"
#include "hybrids/nmp/fault.hpp"
#include "hybrids/trace/trace.hpp"
#include "hybrids/util/backoff.hpp"
#include "hybrids/util/futex.hpp"

namespace hybrids::nmp {

namespace {
// Bounded-wait window: how long a waiter parks before it kicks the server.
// Long enough that the fault-free path never expires in practice (a
// combiner pass is microseconds, and a completion wakes the parked host),
// short enough that recovery from a lost doorbell is prompt.
constexpr std::chrono::milliseconds kWaitWindow{2};
}  // namespace

void Doorbell::ring() noexcept {
  static telemetry::Counter& wakes =
      telemetry::counter(telemetry::names::kWakeTotal);
  word.fetch_add(1, std::memory_order_seq_cst);
  util::futex_wake(word, 1);
  wakes.inc();
}

NmpCore::NmpCore(std::uint32_t id, std::uint32_t slot_count, Handler handler)
    : id_(id), handler_(std::move(handler)) {
  assert(slot_count > 0);
  slots_ = std::vector<util::CacheAligned<PubSlot>>(slot_count);
  picked_.reserve(slot_count);
  batch_.reserve(slot_count);
  const auto p = static_cast<std::int32_t>(id_);
  namespace tn = telemetry::names;
  metrics_.served_total = &telemetry::counter(tn::kServedTotal, p);
  for (std::size_t op = 0; op < kOpCodeCount; ++op) {
    metrics_.served_op[op] = &telemetry::counter(
        std::string(tn::kServedPrefix) + op_code_name(static_cast<OpCode>(op)),
        p);
  }
  metrics_.wait_timeout = &telemetry::counter(tn::kWaitTimeoutTotal, p);
  metrics_.posted = &telemetry::counter(tn::kOffloadPosted);
  metrics_.queue_wait = &telemetry::latency(tn::kQueueWaitNs, p);
  metrics_.service = &telemetry::latency(tn::kServiceNs, p);
  metrics_.occupancy = &telemetry::latency(tn::kScanOccupancy, p);
  metrics_.batch = &telemetry::latency(tn::kCombinerBatch, p);
  metrics_.batch_size = &telemetry::latency(tn::kBatchSize, p);
  metrics_.trace_queue_wait = &telemetry::counter(tn::kTraceQueueWaitNs, p);
  metrics_.trace_service = &telemetry::counter(tn::kTraceServiceNs, p);
}

void NmpCore::set_batch_handler(BatchHandler handler) {
  batch_handler_ = std::move(handler);
}

void NmpCore::post(std::uint32_t index, const Request& r) {
  slots_[index]->post(r);
  // Doorbell handshake (publication.hpp): the seq_cst bump is ordered after
  // the slot's kPending store and before the load of the server's parked
  // flag, so either the server's pre-park re-check sees the bump or this
  // post sees it parked and rings.
  pending_.fetch_add(1, std::memory_order_seq_cst);
  posts_.fetch_add(1, std::memory_order_relaxed);
  Doorbell* bell = bell_.load(std::memory_order_acquire);
  if (bell != nullptr && bell->parked.load(std::memory_order_seq_cst) != 0) {
    // Fault hook: a lost wakeup drops the doorbell but not the counter
    // bump. The parked server stays parked until a bounded waiter or the
    // watchdog kicks it — exactly the recovery paths under test.
    if (!fault::FaultInjector::fire(fault::Kind::kLostWakeup, id_)) {
      bell->ring();
    }
  }
  metrics_.posted->inc();
}

void NmpCore::kick() {
  if (Doorbell* bell = bell_.load(std::memory_order_acquire)) bell->ring();
}

void NmpCore::fence_raise() {
  fence_.fetch_add(1, std::memory_order_seq_cst);
  kick();
}

bool NmpCore::try_seize() {
  if (armed_.load(std::memory_order_acquire) ==
      fence_.load(std::memory_order_acquire)) {
    return false;  // still armed: the pool owns it
  }
  return try_acquire_pass();
}

void NmpCore::wait_done(std::uint32_t index) {
  // Unbounded overall, but composed of bounded windows so a lost doorbell is
  // recovered instead of hanging the host thread forever.
  while (!wait_done_for(index, kWaitWindow)) {
  }
}

bool NmpCore::wait_done_for(std::uint32_t index,
                            std::chrono::nanoseconds timeout) {
  PubSlot& s = *slots_[index];
  util::Backoff backoff;
  for (int i = 0; i < 128; ++i) {
    if (s.done()) return true;
    backoff.spin();
  }
  // Reply handshake (publication.hpp): raise `waiting` before every status
  // re-load that may lead to a park, so a completion that this load misses
  // sees the flag and issues the FUTEX_WAKE.
  s.waiting.store(1, std::memory_order_seq_cst);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  bool done = false;
  while (true) {
    const std::uint32_t observed = s.status.load(std::memory_order_seq_cst);
    if (observed == PubSlot::kDone) {
      done = true;
      break;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      metrics_.wait_timeout->inc();
      kick();
      done = s.done();
      break;
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::nanoseconds>(deadline - now);
    const auto window = remaining < kWaitWindow
                            ? remaining
                            : std::chrono::nanoseconds(kWaitWindow);
    if (!util::timed_wait(s.status, observed, window)) {
      // Window expired with the slot still pending: recover a possibly lost
      // doorbell by kicking the server.
      metrics_.wait_timeout->inc();
      kick();
    }
  }
  s.waiting.store(0, std::memory_order_relaxed);
  return done;
}

void NmpCore::complete(const Picked& picked, std::uint64_t service_ns,
                       std::uint64_t epoch) {
  PubSlot& s = *picked.slot;
  // Fault hook: delayed response between handler and completion store.
  fault::maybe_stall(fault::Kind::kDelayedResponse, id_);
  // Fence check: this incarnation was fenced mid-pass, making it a zombie.
  // The op already ran, so the reply must still reach the host — dropping it
  // would turn the supervisor's failed_over bounce into a retry of an
  // already-applied op (double execution on a false-positive fence of a
  // live-but-slow combiner). Delivery is safe because the supervisor only
  // bounces after try_seize() takes the pass token this pass holds: a CAS
  // that wins here is ordered before any takeover. A lost CAS means the
  // slot was already bounced or reclaimed by its new owner — that late
  // reply is rejected (dropped) rather than overwriting protocol state that
  // is no longer ours. (Defense in depth: with the token gate the lost-CAS
  // arm is unreachable.)
  if (fence_.load(std::memory_order_acquire) != epoch) {
    if (s.publish_done_if_pending()) {
      served_.fetch_add(1, std::memory_order_relaxed);
      if constexpr (telemetry::kEnabled) metrics_.served_total->inc();
    }
    return;
  }
  std::uint64_t done = 0;
  if constexpr (trace::kCompiledIn) {
    if (picked.trace_id != 0) {
      // Plain-written before the kDone store so the host's acquire load may
      // read it (kWake phase), exactly like `resp`.
      done = telemetry::now_ns();
      s.done_ns = done;
    }
  }
  s.publish_done();
  served_.fetch_add(1, std::memory_order_relaxed);
  if constexpr (telemetry::kEnabled) {
    metrics_.queue_wait->record(
        static_cast<double>(picked.pickup_ns - picked.posted_ns));
    metrics_.service->record(static_cast<double>(service_ns));
    metrics_.served_total->inc();
    if (picked.op < kOpCodeCount) metrics_.served_op[picked.op]->inc();
  }
  if constexpr (trace::kCompiledIn) {
    if (picked.trace_id != 0) {
      // Combiner-side phases, recorded from captured values only (the host
      // may already have re-posted the slot). kQueueWait + kApply + kReply
      // tile [posted_ns, done] exactly; for a batched op the amortized
      // apply span starts at pickup, so the sort window overlaps it.
      const auto op = static_cast<std::uint8_t>(picked.op);
      const auto part = static_cast<std::int16_t>(id_);
      const std::uint32_t track = trace::kCombinerTrackBase + id_;
      trace::record_span(picked.trace_id, trace::Phase::kQueueWait,
                         picked.posted_ns, picked.pickup_ns, op, part, 0,
                         track);
      trace::record_span(picked.trace_id, trace::Phase::kApply,
                         picked.pickup_ns, picked.pickup_ns + service_ns, op,
                         part, 0, track);
      trace::record_span(picked.trace_id, trace::Phase::kReply,
                         picked.pickup_ns + service_ns, done, op, part, 0,
                         track);
      // Attribution feed for ext_adaptive_skew / the adaptive-split loop:
      // how much of the traced ops' offloaded time this partition spent
      // queueing vs. serving.
      metrics_.trace_queue_wait->add(picked.pickup_ns - picked.posted_ns);
      metrics_.trace_service->add(service_ns);
    }
  }
}

std::uint32_t NmpCore::scan_and_serve(std::uint64_t epoch) {
  std::vector<Picked>& picked = picked_;
  std::vector<BatchOp>& batch = batch_;
  if constexpr (telemetry::kEnabled) {
    // Publication-slot occupancy at scan time, observed before serving
    // (relaxed loads; the serving pass below re-checks with acquire).
    std::uint32_t occupied = 0;
    for (auto& wrapped : slots_) {
      occupied += wrapped->status.load(std::memory_order_relaxed) ==
                  PubSlot::kPending;
    }
    if (occupied > 0) metrics_.occupancy->record(occupied);
  }
  // Collection: pick up every kPending slot. Request metadata is captured
  // here, before any kDone store — once a slot is done its owning host
  // thread may take() and re-post, overwriting req/posted_ns concurrently.
  // A request stays exclusively combiner-owned from this acquire load
  // until its own completion store, so batch sorting and the batch handler
  // may read it with plain accesses.
  std::uint32_t served_this_pass = 0;
  picked.clear();
  for (std::size_t si = 0; si < slots_.size(); ++si) {
    PubSlot& s = *slots_[si];
    // Slots are cache-aligned and contiguous: pull the next slot's status
    // line in while this one's pending check (and possible pickup) runs.
    if (si + 1 < slots_.size()) {
      mem::prefetch_read(&slots_[si + 1]->status);
    }
    if (s.status.load(std::memory_order_acquire) != PubSlot::kPending) {
      continue;
    }
    const std::uint64_t t0 = telemetry::now_ns();
    Picked p{&s, t0, s.posted_ns, static_cast<std::size_t>(s.req.op),
             s.req.trace_id};
    // Fault hooks: spurious protocol responses are injected *instead of*
    // running the handler, so no partition state changes and the host's
    // mandated recovery (retry / LOCK_PATH fallback) re-executes the
    // operation from scratch — linearizability is preserved by
    // construction. Spurious lock_path is only meaningful for inserts
    // (the only op the host protocol answers with an escalation).
    // RESUME_INSERT / UNLOCK_PATH are exempt: they complete an escalation
    // whose NMP path is genuinely locked, so swallowing them would leave
    // the partition wedged forever rather than exercising a retry path.
    bool injected = false;
    const bool injectable = s.req.op != OpCode::kResumeInsert &&
                            s.req.op != OpCode::kUnlockPath;
    if (fault::kCompiledIn && injectable && fault::FaultInjector::armed()) {
      if (fault::FaultInjector::fire(fault::Kind::kSpuriousRetry, id_)) {
        s.resp.retry = true;
        injected = true;
      } else if (s.req.op == OpCode::kInsert &&
                 fault::FaultInjector::fire(fault::Kind::kSpuriousLockPath,
                                            id_)) {
        s.resp.lock_path = true;
        s.resp.node = nullptr;
        injected = true;
      }
    }
    if (injected) {
      // Injected responses complete immediately (no handler ran).
      complete(p, 0, epoch);
      ++served_this_pass;
    } else {
      picked.push_back(p);
    }
  }
  if (batch_handler_ && picked.size() > 1) {
    // Batch apply: sort the collected requests by key (stable, so equal
    // keys keep publication-list order), hand the whole span to the batch
    // handler, then publish completions in original slot order. Hosts see
    // exactly the one-at-a-time protocol; only the apply order inside the
    // pass changes, which is a valid linearization of concurrent ops.
    batch.clear();
    std::uint64_t traced_id = 0;
    for (const Picked& p : picked) {
      batch.push_back(BatchOp{&p.slot->req, &p.slot->resp});
      if (traced_id == 0) traced_id = p.trace_id;
    }
    // Sort window for the trace: attributed to the batch's first traced
    // op (the sort serves the whole batch; one span stands in for it).
    const std::uint64_t sort0 = traced_id ? telemetry::now_ns() : 0;
    // Equal keys tiebreak on the request address: ops were collected in
    // slot-index order and slots live in one array, so pointer order IS
    // publication-list order. This keeps the sort stable without
    // std::stable_sort's per-call temp-buffer allocation (combiner passes
    // are often only a handful of ops).
    std::sort(batch.begin(), batch.end(),
              [](const BatchOp& a, const BatchOp& b) {
                return a.req->key != b.req->key ? a.req->key < b.req->key
                                                : a.req < b.req;
              });
    const std::uint64_t apply0 = telemetry::now_ns();
    trace::record_span(traced_id, trace::Phase::kBatchSort, sort0, apply0,
                       0, static_cast<std::int16_t>(id_), 0,
                       trace::kCombinerTrackBase + id_);
    batch_handler_(batch.data(), batch.size());
    // Per-op service time is the batch apply amortized over its size —
    // the quantity the finger is meant to shrink.
    const std::uint64_t per_op =
        (telemetry::now_ns() - apply0) / picked.size();
    if constexpr (telemetry::kEnabled) {
      metrics_.batch_size->record(static_cast<double>(picked.size()));
    }
    for (const Picked& p : picked) complete(p, per_op, epoch);
    served_this_pass += static_cast<std::uint32_t>(picked.size());
  } else {
    for (const Picked& p : picked) {
      const std::uint64_t h0 = telemetry::now_ns();
      handler_(p.slot->req, p.slot->resp);
      complete(p, telemetry::now_ns() - h0, epoch);
      ++served_this_pass;
    }
  }
  if constexpr (telemetry::kEnabled) {
    if (served_this_pass > 0) metrics_.batch->record(served_this_pass);
  }
  return served_this_pass;
}

}  // namespace hybrids::nmp
