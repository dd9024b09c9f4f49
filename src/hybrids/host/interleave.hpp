// Non-blocking NMP calls as coroutines (§3.5; docs/INTERLEAVING.md).
//
// The paper lets a host thread keep up to k operation IDs in flight so that
// it is not idle while a partition's combiner serves its request. Here every
// data-structure operation is one C++20 coroutine (`_co`), and a per-thread
// `Frame` multiplexes up to k of them on one stack. An operation suspends in
// exactly one place:
//
//   * `offload(set, p, tid, req)` — the publication round-trip of every
//     hybrid operation: posts async and parks the op on its slot
//     (`suspend_until_done`) so the frame resumes another in-flight op
//     meanwhile, falling back to the runtime's bounded futex wait
//     (NmpCore::wait_done_for) when every slot is parked.
//
// Host descents (FatSkipList::find, HybridBTree::traverse) are plain calls:
// the host levels are sized to fit the LLC (§3.3/§3.4), so there is no miss
// latency worth a context switch there; their prefetch hints stay.
//
// The scheduler is deliberately tiny: a `Frame` of up to kMaxSlots lazily
// started `CoTask` coroutines, resumed round-robin, with no cross-thread
// hand-off — a coroutine is created, resumed, and destroyed on one thread,
// so thread-local state (EBR pins, trace rings, RNGs) behaves exactly as in
// a plain call.
//
// Each data-structure operation has exactly one body, its `_co` coroutine.
// The blocking entry points run that body through `run_inline`, which
// clears the thread's active frame for the duration: with no frame
// `offload` is the plain blocking PartitionSet::call, so one resume() runs
// the whole operation.
//
// EBR interaction (mem/ebr.hpp): the data-structure `_co` ops close their
// guards before posting, so a coroutine parked in `suspend_until_done` never
// holds a pin, and the futex fallback (the only state that blocks) runs with
// no guard live. See docs/INTERLEAVING.md.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <utility>

#include "hybrids/nmp/partition_set.hpp"

namespace hybrids::host {

namespace detail {

/// Promise plumbing shared by CoTask<T> and CoTask<void>. Same shape as the
/// simulator's sim::Task (sim/core/task.hpp) — lazy start, symmetric
/// transfer to the stored continuation on completion — except that
/// exceptions are captured and rethrown at the awaiter/collection point
/// instead of terminating: a host operation that throws must unwind its
/// frame slot, not the process (the sim has no exceptions to propagate).
struct CoPromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      std::coroutine_handle<> cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

/// A lazily-started host coroutine. Move-only owner of the coroutine frame;
/// awaitable from another CoTask (symmetric transfer, no scheduler round
/// trip for nested calls like host::offload inside HybridSkipList::read_co). The top-level owner submits `handle()` to a
/// Frame and reads `result()` once `done()`.
template <typename T = void>
class [[nodiscard]] CoTask {
 public:
  struct promise_type : detail::CoPromiseBase {
    T value{};
    CoTask get_return_object() {
      return CoTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) { value = std::move(v); }
  };

  CoTask() = default;
  CoTask(CoTask&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  CoTask& operator=(CoTask&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  ~CoTask() { destroy(); }

  CoTask(const CoTask&) = delete;
  CoTask& operator=(const CoTask&) = delete;

  bool valid() const noexcept { return h_ != nullptr; }
  bool done() const noexcept { return !h_ || h_.done(); }
  std::coroutine_handle<> handle() const noexcept { return h_; }

  /// Result after completion (Frame::drain or done()==true). Rethrows any
  /// exception the coroutine body escaped with.
  T result() {
    assert(h_ && h_.done());
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
    return std::move(h_.promise().value);
  }

  // Awaitable-from-a-CoTask: start the child inline, resume the parent when
  // it completes (FinalAwaiter), rethrow into the parent on failure.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    h_.promise().continuation = cont;
    return h_;
  }
  T await_resume() {
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
    return std::move(h_.promise().value);
  }

 private:
  explicit CoTask(std::coroutine_handle<promise_type> h) : h_(h) {}
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> h_;
};

template <>
class [[nodiscard]] CoTask<void> {
 public:
  struct promise_type : detail::CoPromiseBase {
    CoTask get_return_object() {
      return CoTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() noexcept {}
  };

  CoTask() = default;
  CoTask(CoTask&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  CoTask& operator=(CoTask&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  ~CoTask() { destroy(); }

  CoTask(const CoTask&) = delete;
  CoTask& operator=(const CoTask&) = delete;

  bool valid() const noexcept { return h_ != nullptr; }
  bool done() const noexcept { return !h_ || h_.done(); }
  std::coroutine_handle<> handle() const noexcept { return h_; }

  void result() {
    assert(h_ && h_.done());
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    h_.promise().continuation = cont;
    return h_;
  }
  void await_resume() {
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
  }

 private:
  explicit CoTask(std::coroutine_handle<promise_type> h) : h_(h) {}
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> h_;
};

/// Per-thread scheduler for up to kMaxSlots in-flight operations. The Frame
/// does NOT own the coroutine frames — the caller keeps the CoTask objects
/// (for results and destruction) and submits raw handles; a slot empties
/// when its top-level coroutine runs to completion (including by
/// exception). Not thread-safe: one Frame per thread, like the publication
/// slots themselves.
class Frame {
 public:
  static constexpr std::uint32_t kMaxSlots = 16;

  /// `slots` is clamped to [1, kMaxSlots].
  explicit Frame(std::uint32_t slots);
  ~Frame();

  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

  std::uint32_t capacity() const noexcept { return capacity_; }
  std::uint32_t inflight() const noexcept { return inflight_; }
  bool has_capacity() const noexcept { return inflight_ < capacity_; }
  bool empty() const noexcept { return inflight_ == 0; }

  /// Adopt a lazily-started coroutine into a free slot. Returns false when
  /// the frame is full (or `top` is null). The coroutine is first resumed
  /// by the next step()/drain().
  bool submit(std::coroutine_handle<> top);

  /// Make one scheduling decision: resume the next runnable slot
  /// (round-robin), or — when every in-flight op is parked on a publication
  /// slot — fall back to the runtime's bounded futex wait on one of them,
  /// then re-poll. Returns false only when the frame is empty.
  bool step();

  /// step() until every submitted coroutine has completed.
  void drain() {
    while (step()) {
    }
  }

  // -- awaiter hook (called with this frame active on this thread) --
  void note_wait(std::coroutine_handle<> h, nmp::PartitionSet* set,
                 nmp::OpHandle handle);

 private:
  enum class SlotState : std::uint8_t { kEmpty, kReady, kWaiting };

  struct Slot {
    std::coroutine_handle<> top{};     // for done() detection; not owned
    std::coroutine_handle<> resume{};  // innermost suspended coroutine
    SlotState state = SlotState::kEmpty;
    nmp::PartitionSet* set = nullptr;  // valid while state == kWaiting
    nmp::OpHandle wait{};
  };

  void resume_slot(std::uint32_t i);

  Slot slots_[kMaxSlots];
  std::uint32_t capacity_;
  std::uint32_t inflight_ = 0;
  std::uint32_t cursor_ = 0;
};

namespace detail {

/// The frame currently driving this thread plus the slot being resumed.
/// Set around every Frame::resume_slot so the awaiters need no arguments
/// threaded through the data-structure coroutines.
struct ActiveFrame {
  Frame* frame = nullptr;
  std::uint32_t slot = 0;
};

inline ActiveFrame& active_frame() noexcept {
  static thread_local ActiveFrame active;
  return active;
}

}  // namespace detail

/// Awaitable: park this operation until the async publication slot behind
/// `handle` reaches kDone, resuming sibling operations meanwhile. Degrades
/// to a no-op (the caller's subsequent PartitionSet::retrieve blocks on the
/// existing futex path) when no Frame is active, the op is the frame's only
/// in-flight one, or the slot is already done.
struct SuspendUntilDone {
  nmp::PartitionSet* set;
  nmp::OpHandle handle;

  bool await_ready() const noexcept {
    const detail::ActiveFrame& a = detail::active_frame();
    return a.frame == nullptr || a.frame->inflight() <= 1 ||
           set->poll(handle);
  }
  void await_suspend(std::coroutine_handle<> h) noexcept {
    detail::active_frame().frame->note_wait(h, set, handle);
  }
  void await_resume() const noexcept {}
};

inline SuspendUntilDone suspend_until_done(nmp::PartitionSet& set,
                                           const nmp::OpHandle& h) noexcept {
  return {&set, h};
}

/// The publication round-trip of every hybrid operation. With no Frame
/// driving this thread (a blocking call through run_inline) it is the plain
/// blocking PartitionSet::call. Under a Frame it posts async and parks on
/// the slot, falling back to call() when no async slot is free or the lane
/// is fenced (call() owns the bounce). kPublish/kWake
/// spans are recorded by call_async/retrieve exactly as by call().
inline CoTask<nmp::Response> offload(nmp::PartitionSet& set, std::uint32_t p,
                                     std::uint32_t tid, nmp::Request req) {
  if (detail::active_frame().frame == nullptr) co_return set.call(p, tid, req);
  const nmp::OpHandle h = set.call_async(p, tid, req);
  if (!h.valid) co_return set.call(p, tid, req);
  co_await suspend_until_done(set, h);
  co_return set.retrieve(h);
}

/// Runs `task` to completion on the calling thread and returns its result;
/// every blocking data-structure entry point is `run_inline(op_co(...))`.
/// The thread's active frame is cleared for the duration, so every awaiter
/// short-circuits and nested CoTasks hand control back and forth by
/// symmetric transfer: one resume() runs the whole operation. Clearing it
/// also keeps a blocking op called from inside a frame-driven coroutine
/// from suspending into that outer frame's slot.
template <typename T>
T run_inline(CoTask<T> task) {
  detail::ActiveFrame& active = detail::active_frame();
  const detail::ActiveFrame saved = active;
  active = {};
  task.handle().resume();
  active = saved;
  assert(task.done() && "run_inline: task suspended with no active frame");
  return task.result();
}

}  // namespace hybrids::host
