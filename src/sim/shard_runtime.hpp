// Conservative-lookahead parallel execution of N Simulators ("shards").
//
// The machine is partitioned (by cluster — see hw::Fabric::make_sharded)
// into N shards, each owning a full Simulator: its own event queue, clock,
// counters, and proc registry.  Shards run in lockstep windows:
//
//   round:  barrier A; every shard drains the cross-shard traffic queued
//           for it during the last window and publishes its next-event
//           time and whether its last window ended in stop()
//           barrier B; every shard folds the published values into
//           LBTS = min over shards of next-event time
//           window = [LBTS, LBTS + lookahead - 1]     (empty => done)
//           every shard runs run_until(window end), in parallel; repeat
//
// Safety argument (DESIGN.md §12): `lookahead` is the minimum latency of
// any cross-shard hw::Link.  An event executing at local time t can only
// influence another shard at a time >= t + lookahead (a frame arrives one
// link latency after serialization starts; a flow-control credit takes
// effect one link latency after the buffer slot frees).  Every event in a
// window has t <= LBTS + lookahead - 1, so its cross-shard effects land at
// >= t + lookahead > LBTS + lookahead - 1 — strictly beyond the window.
// Traffic drained at a barrier was therefore generated in *completed*
// windows and is always scheduled in the destination's future.  Progress:
// the shard holding the LBTS event always executes it, so LBTS strictly
// advances.
//
// Determinism: each shard's intra-window execution is ordinary sequential
// simulation; at a barrier, each shard drains its exchanges in fixed
// registration order, and each exchange preserves its producer's push
// order.  The merged event order is thus a pure function of the topology
// and the event timeline — never of thread scheduling — which is what lets
// N-shard runs pin their own goldens.  Every shard decides the next window
// (or termination) from the same published values, so all shards agree
// without a coordinator.
//
// This translation unit is the shard runtime the DESIGN.md §11 R3
// contract carves out: real threads, barriers and atomics live here so
// they can live nowhere else.
// vorx-lint-file: allow(R3) the shard runtime is the one sanctioned concurrency surface (DESIGN.md §11/§12)
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace hpcvorx::sim {

/// The round barrier every shard meets at twice per round.  The last
/// arriver bumps a phase word and wakes the parked waiters; a waiter spins
/// on the phase for a short constant budget (only when every party has a
/// hardware thread of its own, and not while recent spins kept running
/// out), then yields a bounded number of times, then parks in
/// std::atomic::wait.  DESIGN.md §12.3 gives the budgets' rationale.
class ShardBarrier {
 public:
  explicit ShardBarrier(int parties);
  ShardBarrier(const ShardBarrier&) = delete;
  ShardBarrier& operator=(const ShardBarrier&) = delete;

  /// Returns once all parties have arrived at this phase.  Every write a
  /// party made before arriving happens-before every party's return.
  void arrive_and_wait();

 private:
  const int parties_;
  const bool spin_;
  alignas(64) std::atomic<int> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> phase_{0};
  // Spin back-off: waiters skip the spin before phase `spin_from_`; each
  // phase whose spin runs out doubles the skip (`backoff_` phases), and a
  // spin that succeeds resets it.
  alignas(64) std::atomic<std::uint32_t> spin_from_{0};
  std::atomic<std::uint32_t> backoff_{1};
};

/// A shard's inbound channel from one peer.  The implementation belongs to
/// the receiving end — each half of a split hw::Link owns the exchange for
/// its own inbound traffic (frames into an RX half, credits into a TX
/// half).  It buffers whatever the producer shard emitted during a window;
/// at the round barrier the runtime calls drain_into() on the destination
/// shard's thread to schedule the buffered messages as ordinary events.
class ShardExchange {
 public:
  virtual ~ShardExchange() = default;
  /// Schedules every buffered message into `dst` and empties the buffer.
  /// Called between the round's two barrier phases, while no producer
  /// runs; every message must be strictly later than dst.now() (the
  /// lookahead guarantee).
  virtual void drain_into(Simulator& dst) = 0;
};

class ShardRuntime {
 public:
  /// "No pending event" sentinel for LBTS reductions.
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  /// Throws std::invalid_argument unless shards >= 1.
  explicit ShardRuntime(int shards);
  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  [[nodiscard]] int num_shards() const { return static_cast<int>(sims_.size()); }
  [[nodiscard]] Simulator& shard(int i) { return *sims_.at(static_cast<std::size_t>(i)); }
  /// Every shard's simulator, in shard order.
  [[nodiscard]] std::vector<Simulator*> shards() const;

  /// Folds one cross-shard link latency into the lookahead window (the
  /// window is the minimum over all registered links).  Zero-latency links
  /// may not cross shards — the window would be empty — so a latency below
  /// one tick throws std::invalid_argument.
  void note_cross_shard_latency(Duration latency);
  [[nodiscard]] Duration lookahead() const { return lookahead_; }

  /// Registers `ex` to be drained into shard `dst_shard` at every round
  /// barrier.  Registration order is part of the determinism contract: it
  /// fixes the merge order of same-timestamp cross-shard events, so it must
  /// itself be deterministic (topology construction order — it is).
  void register_exchange(int dst_shard, ShardExchange* ex);

  /// Runs every shard until all event queues drain (or a shard's
  /// Simulator::stop() is called).  With one shard this is exactly
  /// Simulator::run() — byte-identical to the single-threaded engine.
  void run() { run_until(kNever); }

  /// Runs events with time <= deadline on every shard; afterwards every
  /// shard clock reads `deadline` (unless stopped early).  A multi-shard
  /// run with no cross-shard link noted throws std::invalid_argument.
  void run_until(SimTime deadline);

  /// Synchronization rounds executed by the last run (diagnostics/bench).
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

  /// Where one shard's wall time went during the last multi-shard run,
  /// split at the round boundaries (all zero after a 1-shard run).
  struct ShardTimes {
    std::uint64_t run_ns = 0;    // executing its windows
    std::uint64_t drain_ns = 0;  // draining its inbound exchanges
    std::uint64_t wait_ns = 0;   // waiting at the round barrier
  };
  /// Per-shard wall-time split of the last run, in shard order.
  [[nodiscard]] const std::vector<ShardTimes>& round_profile() const {
    return profile_;
  }

  /// Sum of events executed across all shards (bench: events/s numerator).
  [[nodiscard]] std::uint64_t total_events_executed() const;

 private:
  // One shard's published round state, padded so neighbouring shards'
  // stores never share a cache line.  Written by its shard between barrier
  // phases A and B; read by every shard after phase B.
  struct alignas(64) Published {
    SimTime next = kNever;  // next-event time after the drain
    bool stop = false;      // its last window ended in Simulator::stop()
  };

  void worker(int s, ShardBarrier& barrier);
  [[nodiscard]] SimTime window_end(SimTime lbts) const;

  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<std::vector<ShardExchange*>> inboxes_;  // per dest shard
  Duration lookahead_ = 0;  // 0 => no cross-shard links registered yet
  SimTime deadline_ = kNever;
  std::uint64_t rounds_ = 0;  // counted by shard 0
  std::vector<Published> published_;
  std::vector<ShardTimes> profile_;  // each shard writes its own entry
};

}  // namespace hpcvorx::sim
