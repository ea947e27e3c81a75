// Reference model shared by the randomized event-queue differentials.
//
// The event queue has no cancellation.  A caller that wants to retract an
// event stamps it instead, as sim::Cpu does with its slice end: the event
// captures a generation and fires as a no-op once the generation has moved
// on.  The differentials model "cancel" the same way, so a stale event
// still pops at its (time, seq) slot and the reference expects a no-op
// fire there.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace hpcvorx::sim::testutil {

class StampedReference {
 public:
  using Key = std::pair<SimTime, std::uint64_t>;  // (time, insertion seq)

  /// Registers the next event at `at` — its seq is the number registered
  /// so far, which must match the queue's insertion order — and returns
  /// its key with the callable to schedule for it.  The callable records
  /// its key into fired() only while its stamp is current.
  std::pair<Key, InlineFn> add(SimTime at) {
    const Key k{at, gen_.size()};
    gen_.push_back(0);
    pending_.emplace(k, true);
    return {k, [this, k, gen = gen_.back()] {
              if (gen_[k.second] == gen) fired_.push_back(k);
            }};
  }

  /// Bumps the stamp of event `k`.  If it has not fired yet, it now fires
  /// as a no-op; if it has, nothing changes.
  void stale(const Key& k) {
    ++gen_[k.second];
    const auto it = pending_.find(k);
    if (it != pending_.end()) it->second = false;
  }

  /// Checks the one event fired since the last call against the reference
  /// minimum and retires that minimum: the queue fired it at `at`, and it
  /// recorded itself if and only if its stamp was still current.
  [[nodiscard]] ::testing::AssertionResult popped(SimTime at) {
    if (pending_.empty()) {
      return ::testing::AssertionFailure() << "fired past the reference";
    }
    const auto [want, live] = *pending_.begin();
    pending_.erase(pending_.begin());
    const std::size_t expect = checked_ + (live ? 1 : 0);
    if (fired_.size() != expect) {
      return ::testing::AssertionFailure()
             << (live ? "live" : "stale") << " event (" << want.first << ", "
             << want.second << ") left " << fired_.size() - checked_
             << " records";
    }
    checked_ = expect;
    if (at != want.first || (live && fired_.back() != want)) {
      return ::testing::AssertionFailure()
             << "fired at " << at << ", want (" << want.first << ", "
             << want.second << ")";
    }
    return ::testing::AssertionSuccess();
  }

  /// True once every registered event has been retired by popped().
  [[nodiscard]] bool empty() const { return pending_.empty(); }
  [[nodiscard]] const std::vector<Key>& fired() const { return fired_; }

 private:
  std::vector<std::uint64_t> gen_;  // current stamp, per seq
  std::map<Key, bool> pending_;     // not yet fired -> still live
  std::vector<Key> fired_;          // live fires, in firing order
  std::size_t checked_ = 0;         // fired_ entries popped() has seen
};

}  // namespace hpcvorx::sim::testutil
