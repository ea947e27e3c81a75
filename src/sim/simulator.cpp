#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "sim/proc_registry.hpp"

namespace hpcvorx::sim {

namespace {
// The thread's ambient simulator: the shard context that Proc-frame
// registration (ProcRegistry::current) resolves against.  Per-thread by
// construction — each shard worker binds its own simulator — so there is
// no shared mutable state here, just thread-local context.
// vorx-lint: allow(R6) per-thread current-simulator binding is the shard context itself (DESIGN.md §12)
thread_local Simulator* tl_current_sim = nullptr;
}  // namespace

Simulator::Simulator() {
  if (tl_current_sim == nullptr) {
    tl_current_sim = this;
    claimed_thread_slot_ = true;
  }
}

Simulator::~Simulator() {
  registry_.destroy_all();
  // Owner of last resort: frames created on this thread with no bound
  // simulator land in the per-thread fallback; drain it here so simulator
  // teardown still reclaims every parked frame (the pre-shard guarantee).
  ProcRegistry::thread_fallback().destroy_all();
  if (claimed_thread_slot_ && tl_current_sim == this) {
    tl_current_sim = nullptr;
  }
}

Simulator* Simulator::current() { return tl_current_sim; }

Simulator::ScopedBind::ScopedBind(Simulator& s) : prev_(tl_current_sim) {
  tl_current_sim = &s;
}

Simulator::ScopedBind::~ScopedBind() { tl_current_sim = prev_; }

ProcRegistry& ProcRegistry::current() {
  if (Simulator* s = Simulator::current()) return s->proc_registry();
  return thread_fallback();
}

ProcRegistry& ProcRegistry::thread_fallback() {
  // Per-thread owner of last resort; reachable until thread exit, so
  // LeakSanitizer sees parked frames as live even if no simulator drains
  // them first.
  // vorx-lint: allow(R6) per-thread fallback registry, drained by every ~Simulator on the thread
  static thread_local ProcRegistry r;
  return r;
}

bool Simulator::step() {
  return step_limit(std::numeric_limits<SimTime>::max());
}

void Simulator::pop_and_fire() {
  auto [at, fn] = queue_.pop();
  now_ = at;
  ++events_executed_;
  fn();
  if (counters_.enabled()) sample_queue_stats();
}

// The batched dispatch loop.  One iteration fires exactly one event (or
// returns false); the batch makes the *bookkeeping* per event cheaper, not
// the semantics different — order, insert routing, counters and samples
// are byte-identical to the old pop()-per-event loop (DESIGN.md §13).
bool Simulator::step_limit(SimTime limit) {
  if (batch_.exhausted() && queue_.drain_bucket(batch_, limit) == 0) {
    // Nothing drained: queue empty, head past the limit, or the head
    // lives in the spill heap — classic single-event path.
    if (queue_.empty() || queue_.next_time() > limit) return false;
    pop_and_fire();
    return true;
  }
  const SimTime bt = batch_.head_time();
  // A stale batch tail from an earlier, wider run_until() window: the
  // entries stay pending (next_event_time / pending_events count them)
  // until a window admits their times.
  if (bt > limit) return false;
  // An event fired earlier in this bucket may have scheduled something
  // ahead of the rest of the batch (a 0-delay wakeup lands in the current
  // tick), or an in-span spill entry may carry a smaller sequence number
  // — interleave those through pop().  Ties go to the batch: drained
  // entries always hold the smaller sequence numbers.
  if (queue_.earlier_than(bt, batch_.head_seq())) {
    pop_and_fire();
    return true;
  }
  batch_.prefetch_next();
  queue_.advance_frontier(bt);
  now_ = bt;
  ++events_executed_;
  batch_.fire_head();
  if (counters_.enabled()) sample_queue_stats();
  return true;
}

SimTime Simulator::next_event_time(SimTime if_empty) {
  SimTime t = if_empty;
  if (!batch_.exhausted()) t = batch_.head_time();
  if (!queue_.empty()) t = std::min(t, queue_.next_time());
  return t;
}

// Samples the event queue's structure-traffic counters onto the "engine"
// track, but only when something structurally interesting happened since
// the last sample: an L0-only event cadence would otherwise flood the
// timeline with one sample per event.  L1 inserts, promotions and spill
// are the rare transitions §6.2-style waveforms want to see;
// l0_inserts and heap occupancy piggy-back on those samples.
void Simulator::sample_queue_stats() {
  const EventQueue::Stats& s = queue_.stats();
  if (s.l1_inserts == sampled_stats_.l1_inserts &&
      s.heap_inserts == sampled_stats_.heap_inserts &&
      s.l1_promoted == sampled_stats_.l1_promoted) {
    return;
  }
  sampled_stats_ = s;
  counters_.sample("engine", "wheel_l0_inserts", now_,
                   static_cast<double>(s.l0_inserts));
  counters_.sample("engine", "wheel_l1_inserts", now_,
                   static_cast<double>(s.l1_inserts));
  counters_.sample("engine", "wheel_spill_events", now_,
                   static_cast<double>(s.heap_inserts));
  counters_.sample("engine", "wheel_l1_promoted", now_,
                   static_cast<double>(s.l1_promoted));
  counters_.sample("engine", "heap_size", now_,
                   static_cast<double>(queue_.heap_size()));
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step_limit(std::numeric_limits<SimTime>::max())) {
  }
}

void Simulator::run_until(SimTime deadline) {
  stopped_ = false;
  while (!stopped_ && step_limit(deadline)) {
  }
  if (!stopped_) now_ = std::max(now_, deadline);
}

}  // namespace hpcvorx::sim
