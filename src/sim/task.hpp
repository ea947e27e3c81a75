// Coroutine "processes" for the simulator.
//
// A simulated thread of execution (a kernel path, a subprocess, a host
// program) is a C++20 coroutine returning Proc.  Processes are
// fire-and-forget: they start eagerly, run until their first suspension,
// and their frame destroys itself when they finish.  All suspensions go
// through simulator-scheduled events, so execution is single-threaded and
// deterministic.
//
// To wait for a process, have it fulfil a Promise (promise.hpp) or signal a
// Gate (awaitables.hpp) at its end.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <utility>

#include "sim/proc_registry.hpp"
#include "sim/simulator.hpp"
#include "sim/small_pool.hpp"
#include "sim/time.hpp"

namespace hpcvorx::sim {

/// Return type for simulated-process coroutines.
struct Proc {
  struct promise_type {
    // Frames recycle through the simulator's small-block pool: processes
    // are spawned per message on the hot path (delivery, retransmission),
    // and the pool makes the steady state allocation-free.  The sized
    // overload is the only delete, so every frame returns to its bucket.
    static void* operator new(std::size_t n) {
      return SmallBlockPool::allocate(n);
    }
    static void operator delete(void* p, std::size_t n) noexcept {
      SmallBlockPool::deallocate(p, n);
    }

    // The frame registers with the creating thread's shard context (the
    // bound Simulator's registry) and remembers which registry that was:
    // removal at destruction must target the same one, whichever thread or
    // registry drain triggers it.
    promise_type() : registry_(&ProcRegistry::current()) {
      registry_->add(std::coroutine_handle<promise_type>::from_promise(*this),
                     &registry_slot);
    }
    ~promise_type() { registry_->remove(registry_slot); }
    promise_type(const promise_type&) = delete;
    promise_type& operator=(const promise_type&) = delete;

    Proc get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    [[noreturn]] void unhandled_exception() noexcept {
      std::fputs("hpcvorx: unhandled exception escaped a sim::Proc\n", stderr);
      std::terminate();
    }

    ProcRegistry* registry_;
    std::size_t registry_slot = 0;
  };
};

/// Awaitable that suspends the current process for `d` of virtual time.
/// A zero-duration delay still yields through the event queue, which gives
/// other ready processes a chance to run (useful as a cooperative yield).
class DelayAwaiter {
 public:
  DelayAwaiter(Simulator& sim, Duration d) : sim_(sim), d_(d) {}
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    sim_.post_after(d_, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Simulator& sim_;
  Duration d_;
};

/// `co_await delay(sim, usec(5))` — suspend for 5 microseconds.
[[nodiscard]] inline DelayAwaiter delay(Simulator& sim, Duration d) {
  return DelayAwaiter{sim, d};
}

/// `co_await yield(sim)` — let other ready processes run at this instant.
[[nodiscard]] inline DelayAwaiter yield(Simulator& sim) {
  return DelayAwaiter{sim, 0};
}

/// Schedules `h` to resume as its own event at the current instant.
/// Shared helper for every synchronization primitive: resuming through the
/// event queue keeps the C++ call stack flat and ordering deterministic.
inline void resume_later(Simulator& sim, std::coroutine_handle<> h) {
  sim.post_after(0, [h] { h.resume(); });
}

// ---------------------------------------------------------------------------
// Task<T>: a lazy, single-awaiter coroutine returning a value.
//
// Operating-system operations (channel write, open, system call, ...) are
// Task coroutines: they start when awaited, may suspend any number of
// times on simulator primitives, and hand their value straight back to the
// awaiting coroutine by symmetric transfer (no virtual time passes at the
// handoff).  A Task must be awaited exactly once; an unawaited Task never
// runs and releases its frame on destruction.
// ---------------------------------------------------------------------------

namespace detail {

/// What every Task promise shares.  Task frames are per-operation (one per
/// write/read/syscall) and recycle through the simulator's small-block
/// pool; see Proc.  A Task starts only when awaited and, when done, hands
/// control straight back to its awaiter by symmetric transfer.
struct TaskPromiseBase {
  static void* operator new(std::size_t n) {
    return SmallBlockPool::allocate(n);
  }
  static void operator delete(void* p, std::size_t n) noexcept {
    SmallBlockPool::deallocate(p, n);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }
  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }
  [[noreturn]] void unhandled_exception() noexcept {
    std::fputs("hpcvorx: unhandled exception escaped a sim::Task\n", stderr);
    std::terminate();
  }
  std::coroutine_handle<> continuation;
};

/// The value half of a Task promise: how the coroutine returns and what
/// the awaiter receives.
template <typename T>
struct TaskResult : TaskPromiseBase {
  void return_value(T v) { value.emplace(std::move(v)); }
  T await_resume() {
    assert(value.has_value());
    return std::move(*value);
  }
  std::optional<T> value;
};

template <>
struct TaskResult<void> : TaskPromiseBase {
  void return_void() noexcept {}
  void await_resume() noexcept {}
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::TaskResult<T> {
    Task get_return_object() noexcept {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
  };

  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  struct Awaiter {
    std::coroutine_handle<promise_type> h;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
      h.promise().continuation = cont;
      return h;  // start the child coroutine now
    }
    T await_resume() { return h.promise().await_resume(); }
  };
  [[nodiscard]] Awaiter operator co_await() {
    assert(h_ && "Task awaited twice or after move");
    return Awaiter{h_};
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

}  // namespace hpcvorx::sim
