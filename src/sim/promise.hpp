// One-shot Future/Promise pair for simulated processes.
//
// A Promise is fulfilled exactly once; any number of processes may await
// the matching Future, before or after fulfilment.  Futures are cheap
// handles onto shared state and may outlive the Promise.
#pragma once

#include <cassert>
#include <coroutine>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace hpcvorx::sim {

/// Placeholder value for futures that carry no payload.
struct Unit {};

namespace detail {
template <typename T>
struct FutureState {
  explicit FutureState(Simulator& s) : sim(&s) {}
  Simulator* sim;
  std::optional<T> value;
  // Coroutine-machinery waiter list: handles are parked here only while
  // suspended on get() and resumed exactly once by set().
  // vorx-lint: allow(R8) waiter list, resumed exactly once
  std::vector<std::coroutine_handle<>> waiters;
};
}  // namespace detail

template <typename T>
class Future {
 public:
  Future() = default;

  [[nodiscard]] bool ready() const { return state_ && state_->value.has_value(); }

  /// The fulfilled value.  Precondition: ready().
  [[nodiscard]] const T& get() const {
    assert(ready());
    return *state_->value;
  }

  struct Awaiter {
    std::shared_ptr<detail::FutureState<T>> st;
    bool await_ready() const noexcept { return st->value.has_value(); }
    void await_suspend(std::coroutine_handle<> h) { st->waiters.push_back(h); }
    const T& await_resume() const {
      assert(st->value.has_value());
      return *st->value;
    }
  };
  [[nodiscard]] Awaiter operator co_await() const {
    assert(state_ && "awaiting a default-constructed Future");
    return Awaiter{state_};
  }

 private:
  template <typename>
  friend class Promise;
  explicit Future(std::shared_ptr<detail::FutureState<T>> s) : state_(std::move(s)) {}
  std::shared_ptr<detail::FutureState<T>> state_;
};

template <typename T = Unit>
class Promise {
 public:
  explicit Promise(Simulator& sim)
      : state_(std::make_shared<detail::FutureState<T>>(sim)) {}

  [[nodiscard]] Future<T> future() const { return Future<T>{state_}; }

  /// Fulfils the promise and wakes all waiters.  Must be called at most once.
  void set_value(T v = T{}) {
    assert(!state_->value.has_value() && "Promise fulfilled twice");
    state_->value = std::move(v);
    for (auto h : state_->waiters) resume_later(*state_->sim, h);
    state_->waiters.clear();
  }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

}  // namespace hpcvorx::sim
