// Synchronization and communication primitives for simulated processes:
//
//   Event     — latched broadcast condition (set / reset / wait)
//   Semaphore — counting semaphore with FIFO handoff
//   Gate      — arrive/wait completion barrier ("join N processes")
//   Mailbox<T>— unbounded FIFO with push and blocking recv (direct handoff)
//   ParkedPump— parking spot of an owner-lifetime pump resumed inline
//
// All wakeups are direct handoffs: a released permit or delivered item is
// assigned to the specific waiter before its resume event is scheduled, so
// there are no spurious wakeups and FIFO fairness is exact.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace hpcvorx::sim {

/// Latched broadcast condition.  wait() completes immediately once set()
/// has been called; reset() re-arms it.
class Event {
 public:
  explicit Event(Simulator& sim) : sim_(sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  // Note: destroying a primitive with suspended waiters deliberately leaks
  // those coroutine frames.  Deadlocked applications (which the cdb tool
  // exists to examine) end their simulations with blocked processes; their
  // frames are simply never resumed.

  /// Latches the event and wakes every current waiter.
  void set() {
    set_ = true;
    for (auto h : waiters_) resume_later(sim_, h);
    waiters_.clear();
  }

  /// Un-latches the event.  Already-scheduled wakeups still fire (they saw
  /// the edge).
  void reset() { set_ = false; }

  [[nodiscard]] bool is_set() const { return set_; }

  struct Awaiter {
    Event& ev;
    bool await_ready() const noexcept { return ev.set_; }
    void await_suspend(std::coroutine_handle<> h) { ev.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Awaiter wait() { return Awaiter{*this}; }

 private:
  Simulator& sim_;
  bool set_ = false;
  // vorx-lint: allow(R8) waiter list, each resumed exactly once by set()
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Counting semaphore with strict FIFO handoff of permits.
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::int64_t initial) : sim_(sim), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  /// Releases `n` permits, handing them to waiters in FIFO order first.
  void release(std::int64_t n = 1) {
    while (n > 0 && !waiters_.empty()) {
      resume_later(sim_, waiters_.front());
      waiters_.pop_front();
      --n;
    }
    count_ += n;
  }

  /// Non-blocking acquire; fails if no free permit (or waiters queued).
  [[nodiscard]] bool try_acquire() {
    if (count_ > 0 && waiters_.empty()) {
      --count_;
      return true;
    }
    return false;
  }

  [[nodiscard]] std::int64_t available() const { return count_; }
  [[nodiscard]] std::size_t waiting() const { return waiters_.size(); }

  struct Awaiter {
    Semaphore& s;
    bool await_ready() noexcept {
      if (s.count_ > 0 && s.waiters_.empty()) {
        --s.count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { s.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };
  /// Blocks until a permit is available (FIFO order among acquirers).
  [[nodiscard]] Awaiter acquire() { return Awaiter{*this}; }

 private:
  Simulator& sim_;
  std::int64_t count_;
  // vorx-lint: allow(R8) waiter list, each resumed exactly once by release()
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Completion barrier: `target` arrivals release all waiters.  Used to join
/// a set of worker processes from a coordinator.
class Gate {
 public:
  Gate(Simulator& sim, std::size_t target) : ev_(sim), target_(target) {
    if (target_ == 0) ev_.set();
  }

  /// Records one arrival; the final arrival opens the gate.
  void arrive() {
    assert(arrived_ < target_);
    if (++arrived_ == target_) ev_.set();
  }

  [[nodiscard]] auto wait() { return ev_.wait(); }

 private:
  Event ev_;
  std::size_t target_;
  std::size_t arrived_ = 0;
};

/// Unbounded FIFO channel between simulated processes.  push() never
/// blocks; recv() blocks while the mailbox is empty.  Items and blocked
/// receivers are both served in strict FIFO order.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Simulator& sim) : sim_(sim) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }

  struct RecvAwaiter {
    Mailbox& mb;
    std::optional<T> slot;
    bool await_ready() {
      slot = mb.try_recv();
      return slot.has_value();
    }
    void await_suspend(std::coroutine_handle<> h) {
      mb.recv_waiters_.push_back(this);
      handle = h;
    }
    T await_resume() {
      assert(slot.has_value());
      return std::move(*slot);
    }
    std::coroutine_handle<> handle;
  };

  /// Hands `value` to the first waiting receiver, or queues it.  Invariant:
  /// a waiting receiver implies an empty queue, so handoff order stays FIFO.
  void push(T value) {
    if (!recv_waiters_.empty()) {
      assert(items_.empty());
      RecvAwaiter* w = recv_waiters_.front();
      recv_waiters_.pop_front();
      w->slot = std::move(value);
      resume_later(sim_, w->handle);
      return;
    }
    items_.push_back(std::move(value));
  }

  /// Blocking receive.
  [[nodiscard]] RecvAwaiter recv() { return RecvAwaiter{*this, std::nullopt, {}}; }

  /// Non-blocking receive.
  [[nodiscard]] std::optional<T> try_recv() {
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

 private:
  Simulator& sim_;
  std::deque<T> items_;
  std::deque<RecvAwaiter*> recv_waiters_;
};

/// The parking spot of a persistent pump: one coroutine that lives as long
/// as its owner, drains the owner's arrivals, parks while there are none
/// and is resumed inline by the next one (DESIGN.md §13.2).  The owner
/// keeps only its readiness test and its drain loop:
///
///   sim::Proc Owner::pump() {
///     for (;;) {
///       co_await pump_.park(has_work());
///       while (has_work()) { ... }
///     }
///   }
///
/// and its arrival interrupt calls pump_.kick([this] { pump(); }).
class ParkedPump {
 public:
  ParkedPump() = default;
  ParkedPump(const ParkedPump&) = delete;
  ParkedPump& operator=(const ParkedPump&) = delete;

  /// Awaited by the pump: parks it unless `ready` (work is already staged),
  /// so the pump never suspends with work pending.
  struct Park;
  [[nodiscard]] Park park(bool ready);

  /// Runs the pump inline, within the delivering event: the first kick
  /// starts it with `start()` — on the delivering thread, so its frame
  /// registers with that shard's registry — and later kicks resume it if
  /// it is parked.  False, with nothing run, while the pump is awake: the
  /// arrival stays staged until the drain loop reaches it.
  template <typename Start>
  bool kick(Start&& start) {
    if (!started_) {
      started_ = true;
      start();
      return true;
    }
    if (parked_ == nullptr) return false;
    std::exchange(parked_, std::coroutine_handle<>{}).resume();
    return true;
  }

 private:
  // Null while the pump is awake.  Safe by construction: the pump is a
  // self-owning Proc that never completes while its owner (and the owner's
  // arrival callback) exists, and the handle is nulled before every resume.
  // vorx-lint: allow(R8) parking spot for an owner-lifetime pump Proc
  std::coroutine_handle<> parked_;
  bool started_ = false;
};

// Defined out of line: an awaiter body nested in ParkedPump would make
// vorx-lint exempt the whole class from R8, and its stored handle should
// answer to the allow above.
struct ParkedPump::Park {
  ParkedPump& pump;
  bool ready;
  [[nodiscard]] bool await_ready() const noexcept { return ready; }
  void await_suspend(std::coroutine_handle<> h) noexcept { pump.parked_ = h; }
  void await_resume() const noexcept {}
};

inline ParkedPump::Park ParkedPump::park(bool ready) {
  return Park{*this, ready};
}

}  // namespace hpcvorx::sim
