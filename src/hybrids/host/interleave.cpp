// Scheduler TU for the coroutine-interleaved non-blocking operations
// (host/interleave.hpp). Kept out of the header so the round-robin policy,
// the futex-fallback path, and the telemetry registrations have exactly one
// home.
#include "hybrids/host/interleave.hpp"

#include <chrono>

#include "hybrids/telemetry/registry.hpp"

namespace hybrids::host {

namespace {

namespace tn = telemetry::names;

telemetry::LatencyRecorder& depth_recorder() {
  static telemetry::LatencyRecorder& r = telemetry::latency(tn::kInterleaveDepth);
  return r;
}

telemetry::Counter& parks_counter() {
  static telemetry::Counter& c = telemetry::counter(tn::kInterleaveYields);
  return c;
}

telemetry::Counter& fallback_counter() {
  static telemetry::Counter& c =
      telemetry::counter(tn::kInterleaveFallbackWaits);
  return c;
}

// Window for the drained-frame futex fallback. The combiner answers in
// microseconds when healthy; the bound only matters when it is parked, dead,
// or fenced mid-wait — wait_done_for re-kicks and re-checks on expiry
// (lost-wakeup recovery), and step() re-polls every parked slot afterwards
// so a completion on a *different* slot is picked up at most one window
// late.
constexpr std::chrono::nanoseconds kFallbackWaitWindow =
    std::chrono::milliseconds(1);

}  // namespace

Frame::Frame(std::uint32_t slots)
    : capacity_(slots == 0 ? 1 : (slots > kMaxSlots ? kMaxSlots : slots)) {}

Frame::~Frame() {
  // Slots do not own their coroutines (the caller's CoTask objects do), so
  // an abandoned frame leaks nothing — but abandoning in-flight NMP ops
  // would orphan publication slots, so flag it in debug builds.
  assert(inflight_ == 0 && "Frame destroyed with operations in flight");
}

bool Frame::submit(std::coroutine_handle<> top) {
  if (!top || inflight_ >= capacity_) return false;
  for (std::uint32_t i = 0; i < capacity_; ++i) {
    Slot& s = slots_[i];
    if (s.state != SlotState::kEmpty) continue;
    s.top = top;
    s.resume = top;
    s.state = SlotState::kReady;
    ++inflight_;
    depth_recorder().record(static_cast<double>(inflight_));
    return true;
  }
  return false;
}

void Frame::note_wait(std::coroutine_handle<> h, nmp::PartitionSet* set,
                      nmp::OpHandle handle) {
  Slot& s = slots_[detail::active_frame().slot];
  s.resume = h;
  s.state = SlotState::kWaiting;
  s.set = set;
  s.wait = handle;
  parks_counter().inc();
}

void Frame::resume_slot(std::uint32_t i) {
  Slot& s = slots_[i];
  std::coroutine_handle<> h = s.resume;
  s.resume = {};
  s.state = SlotState::kReady;  // the awaiter overwrites on suspension
  s.set = nullptr;

  detail::ActiveFrame& active = detail::active_frame();
  const detail::ActiveFrame prev = active;
  active = {this, i};
  h.resume();
  active = prev;

  if (s.top.done()) {
    s = Slot{};
    --inflight_;
  }
}

bool Frame::step() {
  if (inflight_ == 0) return false;

  // One round-robin pass: resume the first slot that is ready to run or
  // whose publication slot completed while it was parked.
  for (std::uint32_t k = 0; k < capacity_; ++k) {
    const std::uint32_t i = (cursor_ + k) % capacity_;
    Slot& s = slots_[i];
    if (s.state == SlotState::kReady ||
        (s.state == SlotState::kWaiting && s.set->poll(s.wait))) {
      cursor_ = (i + 1) % capacity_;
      resume_slot(i);
      return true;
    }
  }

  // Frame drained: every in-flight op is parked on a publication slot. Fall
  // back to the runtime's bounded futex wait on the next parked slot in
  // round-robin order, then let the caller's next step() re-poll them all.
  for (std::uint32_t k = 0; k < capacity_; ++k) {
    const std::uint32_t i = (cursor_ + k) % capacity_;
    Slot& s = slots_[i];
    if (s.state != SlotState::kWaiting) continue;
    fallback_counter().inc();
    s.set->core(s.wait.partition).wait_done_for(s.wait.slot,
                                                kFallbackWaitWindow);
    return true;
  }

  // inflight_ > 0 implies at least one kReady/kWaiting slot above.
  assert(false && "Frame::step: in-flight count out of sync with slots");
  return false;
}

}  // namespace hybrids::host
