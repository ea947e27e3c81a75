// vorx-lint-file: allow(R3) the shard runtime is the one sanctioned concurrency surface (DESIGN.md §11/§12)
#include "sim/shard_runtime.hpp"

#include <algorithm>
#include <cassert>
#include <thread>

namespace hpcvorx::sim {

ShardRuntime::ShardRuntime(int shards) {
  assert(shards >= 1);
  sims_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) sims_.push_back(std::make_unique<Simulator>());
  inboxes_.resize(static_cast<std::size_t>(shards));
  mins_.resize(static_cast<std::size_t>(shards));
}

std::vector<Simulator*> ShardRuntime::shards() const {
  std::vector<Simulator*> out;
  out.reserve(sims_.size());
  for (const std::unique_ptr<Simulator>& s : sims_) out.push_back(s.get());
  return out;
}

void ShardRuntime::note_cross_shard_latency(Duration latency) {
  assert(latency >= 1 &&
         "a zero-latency link may not cross shards: the lookahead window "
         "would be empty");
  lookahead_ = lookahead_ == 0 ? latency : std::min(lookahead_, latency);
}

void ShardRuntime::register_exchange(int dst_shard, ShardExchange* ex) {
  assert(num_shards() > 1 && "exchanges only exist between distinct shards");
  inboxes_.at(static_cast<std::size_t>(dst_shard)).push_back(ex);
}

std::uint64_t ShardRuntime::total_events_executed() const {
  std::uint64_t n = 0;
  for (const auto& s : sims_) n += s->events_executed();
  return n;
}

// Barrier-phase completion: runs on exactly one thread, with every shard
// parked, after all mins_ are published.  The barrier's phase transition
// orders these writes before every shard's next read of window_end_/done_.
void ShardRuntime::reduce() noexcept {
  ++rounds_;
  SimTime lbts = kNever;
  for (const LocalMin& m : mins_) lbts = std::min(lbts, m.v);
  if (lbts == kNever || lbts > deadline_ ||
      stop_flag_.load(std::memory_order_relaxed)) {
    done_ = true;
    return;
  }
  // Strictly-bounded window: events at t <= LBTS + L - 1 emit cross-shard
  // effects at >= t + L > window end (the §12 safety argument).  The shard
  // holding the LBTS event always runs it, so LBTS strictly advances.
  const SimTime cap = kNever - lookahead_;  // overflow guard
  window_end_ = lbts > cap ? kNever - 1 : lbts + lookahead_ - 1;
  window_end_ = std::min(window_end_, deadline_);
}

void ShardRuntime::worker(int s) {
  Simulator& sim = *sims_[static_cast<std::size_t>(s)];
  // Ambient shard context: Proc frames spawned while this window executes
  // register with this shard's registry (see proc_registry.hpp).
  Simulator::ScopedBind bind(sim);
  for (;;) {
    start_->arrive_and_wait();  // A: every producer finished its window
    for (ShardExchange* ex : inboxes_[static_cast<std::size_t>(s)]) {
      ex->drain_into(sim);
    }
    mins_[static_cast<std::size_t>(s)].v = sim.next_event_time(kNever);
    plan_->arrive_and_wait();  // B: reduce() computed window_end_/done_
    if (done_) break;
    sim.run_until(window_end_);
    if (sim.stop_requested()) {
      stop_flag_.store(true, std::memory_order_relaxed);
    }
  }
  // All events <= deadline ran (LBTS passed it); bring the clock to the
  // deadline like Simulator::run_until does, unless a stop() cut the run
  // short (run_until leaves the clock at the stopping event too).
  if (deadline_ != kNever && !stop_flag_.load(std::memory_order_relaxed)) {
    sim.run_until(deadline_);
  }
}

void ShardRuntime::run_until(SimTime deadline) {
  rounds_ = 0;
  if (num_shards() == 1) {
    // The byte-identical path: one shard is the single-threaded engine.
    Simulator& sim = *sims_[0];
    Simulator::ScopedBind bind(sim);
    if (deadline == kNever) {
      sim.run();
    } else {
      sim.run_until(deadline);
    }
    return;
  }
  assert(lookahead_ >= 1 &&
         "multi-shard run with no cross-shard links registered: lookahead "
         "is unset (did fabric construction skip note_cross_shard_latency?)");
  deadline_ = deadline;
  done_ = false;
  stop_flag_.store(false, std::memory_order_relaxed);
  const auto n = static_cast<std::ptrdiff_t>(num_shards());
  std::barrier<> start(n);
  std::barrier<Reduce> plan(n, Reduce{this});
  start_ = &start;
  plan_ = &plan;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_shards() - 1));
  for (int s = 1; s < num_shards(); ++s) {
    threads.emplace_back([this, s] { worker(s); });
  }
  worker(0);
  for (std::thread& t : threads) t.join();
  start_ = nullptr;
  plan_ = nullptr;
}

}  // namespace hpcvorx::sim
