// The discrete-event simulation kernel.
//
// A Simulator owns the virtual clock and the pending-event queue.  All
// hardware and operating-system models in this repository are driven from
// it; nothing uses wall-clock time, threads, or nondeterministic ordering.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/proc_registry.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace hpcvorx::sim {

class Simulator {
 public:
  /// Claims the thread's ambient-simulator slot if it is free, so Proc
  /// frames created on this thread register here (see proc_registry.hpp).
  /// Single-simulator programs — every test and example before the shard
  /// runtime — get the old process-wide-registry behavior for free.
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Reclaims every still-suspended sim::Proc frame registered with this
  /// simulator (see proc_registry.hpp).  Processes parked forever —
  /// deadlocked readers, starved senders — have no other owner, and their
  /// frames transitively own the Task frames and captured state they are
  /// awaiting on.  Also drains the thread's fallback registry, preserving
  /// the old global guarantee that teardown leaks nothing.
  ~Simulator();

  /// The simulator bound to the calling thread (nullptr if none): the
  /// shard context that ambient Proc creation resolves against.
  [[nodiscard]] static Simulator* current();

  /// Binds `s` as the calling thread's current simulator for the scope's
  /// lifetime, restoring the previous binding on exit.  ShardRuntime binds
  /// each shard on its worker thread; Node::spawn_process binds the node's
  /// simulator around main-thread setup spawns.
  class ScopedBind {
   public:
    explicit ScopedBind(Simulator& s);
    ~ScopedBind();
    ScopedBind(const ScopedBind&) = delete;
    ScopedBind& operator=(const ScopedBind&) = delete;

   private:
    Simulator* prev_;
  };

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute virtual time `at` (clamped to now()).
  /// Every scheduled event fires; there is no cancellation.  A caller that
  /// may want to retract an event captures a generation stamp and turns
  /// the fire into a no-op instead (see Cpu's slice end).  The callable
  /// binds by rvalue reference so it relocates exactly once, from the call
  /// site into queue storage.  Inline so a posting call site compiles
  /// straight through EventQueue::post's inline insert chain (no opaque
  /// boundary between the lambda's construction and its landing in the
  /// slab).
  void post_at(SimTime at, InlineFn&& fn) {
    queue_.post(std::max(at, now_), std::move(fn));
  }
  /// Schedules `fn` to run `d` after the current time (d clamped to >= 0).
  void post_after(Duration d, InlineFn&& fn) {
    post_at(now_ + std::max<Duration>(d, 0), std::move(fn));
  }

  /// Reserves a queue position now for an event posted later: the ticket
  /// fires exactly where an eager post_at() made at this moment would have
  /// fired.  A stream that keeps only its head event queued (a lazy feed)
  /// reserves one ticket per item up front, so same-instant ties with
  /// other events still break in the eager order.
  [[nodiscard]] EventTicket reserve() { return queue_.reserve(); }
  /// Reserves `n` consecutive positions at once (EventQueue::reserve(n)):
  /// a stream that knows its item count but generates the items later
  /// hands out `first.seq + i` as the i-th item's ticket.
  [[nodiscard]] EventTicket reserve(std::uint64_t n) {
    return queue_.reserve(n);
  }
  /// Schedules `fn` at `at` in the slot `ticket` reserved.  Unlike the
  /// eager overload this does not clamp: `at` must not be in the past.
  void post_at(SimTime at, EventTicket ticket, InlineFn&& fn) {
    assert(at >= now_ && "a ticketed post cannot fire in the past");
    queue_.post(at, ticket, std::move(fn));
  }

  /// Runs one pending event.  Returns false if none remain.
  bool step();

  /// Runs until the event queue drains or stop() is called.  Dispatch is
  /// bucket-at-a-time: the queue hands over a whole level-1 frontier
  /// bucket (EventQueue::drain_bucket) and the loop fires the batch
  /// straight-line, paying the head comparison and window bookkeeping once
  /// per bucket instead of once per event.  Firing order, insert routing,
  /// and counter samples are byte-identical to event-at-a-time dispatch
  /// (DESIGN.md §13).
  void run();

  /// Runs events with time <= `deadline`; afterwards now() == deadline
  /// unless the queue drained earlier or stop() was called.  The batch
  /// drain is clipped at `deadline`, so a bucket span straddling the
  /// deadline never overshoots: events past it stay queued for the next
  /// window (the shard runtime's LBTS contract).
  void run_until(SimTime deadline);

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  /// True if stop() was called during the last run()/run_until() (both
  /// clear the flag on entry).  The shard runtime reads this after each
  /// window to propagate an application stop across shards.
  [[nodiscard]] bool stop_requested() const { return stopped_; }

  /// Number of pending events, including drained-but-unfired batch
  /// entries: a run_until() deadline can split a bucket, leaving the tail
  /// of the batch pending for the next window.
  [[nodiscard]] std::size_t pending_events() const {
    return queue_.size() + batch_.remaining();
  }

  /// Timestamp of the earliest pending event, or `if_empty` when the queue
  /// has drained.  The shard runtime's LBTS reduction reads this between
  /// windows, so drained-but-unfired batch entries count (they are still
  /// pending work).
  [[nodiscard]] SimTime next_event_time(SimTime if_empty);

  /// Cumulative events executed by step() (bench: events/s numerator).
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }

  /// Registry of this simulator's still-suspended Proc frames.
  [[nodiscard]] ProcRegistry& proc_registry() { return registry_; }

  /// Structure-traffic counters of the underlying event queue: which
  /// wheel level (or the heap spill) inserts landed in, and how many
  /// level-1 events were promoted.  Benches and tests use this
  /// to hold the "slice-end events never spill" property.
  [[nodiscard]] const EventQueue::Stats& queue_stats() const {
    return queue_.stats();
  }

  /// Counter timeline for the trace exporter (disabled by default).
  /// Hardware and OS components sample into it when it is enabled.
  [[nodiscard]] CounterTimeline& counters() { return counters_; }
  [[nodiscard]] const CounterTimeline& counters() const { return counters_; }

  /// Mints an id unique within this simulator (1, 2, 3, ...).  The OS layer
  /// draws owner ids, session ids, and client keys from here instead of
  /// process-wide statics, so ids depend only on allocation order inside
  /// this scheduler — never on other simulators in the process (R6,
  /// shard-readiness).  Ids are only ever compared for equality; 0 and
  /// negative values (e.g. cpu.hpp's kBorrowedContext) stay reserved.
  [[nodiscard]] std::int64_t allocate_id() { return ++next_id_; }

 private:
  void sample_queue_stats();
  /// Fires the earliest pending event with time <= `limit`.  Returns false
  /// when none qualifies.  The hot path walks the current DrainBatch;
  /// refills via EventQueue::drain_bucket when the batch is exhausted, and
  /// falls back to EventQueue::pop() for heap-resident heads and for
  /// queue events that order before the batch head (see
  /// EventQueue::earlier_than).
  bool step_limit(SimTime limit);
  /// The pop()-path half of step_limit, shared by the fallback cases.
  void pop_and_fire();

  SimTime now_ = 0;
  std::int64_t next_id_ = 0;
  std::uint64_t events_executed_ = 0;
  bool stopped_ = false;
  bool claimed_thread_slot_ = false;  // ctor claimed the ambient binding
  EventQueue queue_;
  EventQueue::DrainBatch batch_;  // live frontier bucket, firing cursor inside
  CounterTimeline counters_;
  EventQueue::Stats sampled_stats_;  // last queue_stats() snapshot sampled
  ProcRegistry registry_;
};

}  // namespace hpcvorx::sim
