// Conservative-lookahead parallel execution of N Simulators ("shards").
//
// The machine is partitioned (by cluster — see hw::Fabric::make_sharded)
// into N shards, each owning a full Simulator: its own event queue, clock,
// counters, and proc registry.  Shards run in lockstep windows:
//
//   round:  LBTS = min over shards of next-event time
//           window = [LBTS, LBTS + lookahead - 1]     (empty => done)
//           every shard runs run_until(window end), in parallel
//           barrier; cross-shard traffic queued during the window is
//           drained into the destination shards' event queues; repeat
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
// simulation; at a barrier, exchanges are drained by one thread in fixed
// registration order, and each exchange preserves its producer's push
// order.  The merged event order is thus a pure function of the topology
// and the event timeline — never of thread scheduling — which is what lets
// N-shard runs pin their own goldens.
//
// This translation unit (with spsc_queue.hpp) is the shard runtime the
// DESIGN.md §11 R3 contract carves out: real threads, barriers and atomics
// live here so they can live nowhere else.
// vorx-lint-file: allow(R3) the shard runtime is the one sanctioned concurrency surface (DESIGN.md §11/§12)
#pragma once

#include <barrier>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace hpcvorx::sim {

/// A cross-shard message channel.  Implementations (hw::ShardLinkBridge)
/// buffer whatever their producer shard emitted during a window; at the
/// round barrier the runtime calls drain_into() on the destination shard's
/// thread to schedule the buffered messages as ordinary events.
class ShardExchange {
 public:
  virtual ~ShardExchange() = default;
  /// Pops every buffered message and schedules it into `dst`.  Called with
  /// all producers parked at a barrier; every message must be strictly
  /// later than dst.now() (the lookahead guarantee).
  virtual void drain_into(Simulator& dst) = 0;
};

class ShardRuntime {
 public:
  /// "No pending event" sentinel for LBTS reductions.
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  explicit ShardRuntime(int shards);
  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  [[nodiscard]] int num_shards() const { return static_cast<int>(sims_.size()); }
  [[nodiscard]] Simulator& shard(int i) { return *sims_.at(static_cast<std::size_t>(i)); }
  /// Every shard's simulator, in shard order.
  [[nodiscard]] std::vector<Simulator*> shards() const;

  /// Folds one cross-shard link latency into the lookahead window (the
  /// window is the minimum over all registered links).  Zero-latency links
  /// may not cross shards: the window would be empty.
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
  /// shard clock reads `deadline` (unless stopped early).
  void run_until(SimTime deadline);

  /// Synchronization rounds executed by the last run (diagnostics/bench).
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

  /// Sum of events executed across all shards (bench: events/s numerator).
  [[nodiscard]] std::uint64_t total_events_executed() const;

 private:
  struct Reduce {
    ShardRuntime* rt;
    void operator()() const noexcept { rt->reduce(); }
  };
  // One shard's published next-event time, padded so neighbouring shards'
  // stores never share a cache line.
  struct alignas(64) LocalMin {
    SimTime v = kNever;
  };

  void worker(int s);
  void reduce() noexcept;

  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<std::vector<ShardExchange*>> inboxes_;  // per dest shard
  Duration lookahead_ = 0;  // 0 => no cross-shard links registered yet
  std::uint64_t rounds_ = 0;

  // Round state.  `mins_` is written per-shard between the barriers;
  // everything else is written only by the reduce completion (which the
  // barrier orders against all shard threads).
  std::vector<LocalMin> mins_;
  SimTime deadline_ = kNever;
  SimTime window_end_ = 0;
  bool done_ = false;
  std::atomic<bool> stop_flag_{false};
  std::barrier<>* start_ = nullptr;       // phase A: previous window finished
  std::barrier<Reduce>* plan_ = nullptr;  // phase B: LBTS/window computed
};

}  // namespace hpcvorx::sim
