// vorx-lint-file: allow(R3) the shard runtime is the one sanctioned concurrency surface (DESIGN.md §11/§12)
// vorx-lint-file: allow(R1) round_profile() prices the runtime's own rounds in wall time; no clock reading reaches virtual time
#include "sim/shard_runtime.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

namespace hpcvorx::sim {

namespace {

// A waiter's budget before it parks (DESIGN.md §12.3): a few microseconds
// of pause-spinning, then a few scheduler yields.  A spin that runs out
// means the last arriver is not running beside the waiter — most often it
// shares the waiter's core, and the spin only delays it — so spinning then
// backs off for up to kMaxBackoff phases while the yields hand the core
// over.
constexpr int kSpinPauses = 500;
constexpr int kYields = 50;
constexpr std::uint32_t kMaxBackoff = 512;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

ShardBarrier::ShardBarrier(int parties)
    : parties_(parties),
      // Spinning on a phase whose last arriver has no core of its own only
      // delays that arriver.
      spin_(static_cast<unsigned>(parties) <=
            std::thread::hardware_concurrency()) {}

void ShardBarrier::arrive_and_wait() {
  // The phase cannot move before this party arrives, so this load reads
  // the phase being completed.
  const std::uint32_t phase = phase_.load(std::memory_order_relaxed);
  // acq_rel: the last arriver's RMW acquires every earlier arrival's
  // writes; its store of the phase hands them to every waiter.
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) == parties_ - 1) {
    arrived_.store(0, std::memory_order_relaxed);
    // seq_cst, not just release: libstdc++'s notify_all skips the futex
    // wake when its waiter count reads zero, and that read must not be
    // ordered before this store, or a waiter that registers in between
    // sleeps through the phase change (seen as a hang under stress).
    phase_.store(phase + 1, std::memory_order_seq_cst);
    phase_.notify_all();
    return;
  }
  const auto passed = [this, phase] {
    return phase_.load(std::memory_order_acquire) != phase;
  };
  const auto reached = [phase](std::uint32_t from) {
    return static_cast<std::int32_t>(phase - from) >= 0;  // wraps safely
  };
  if (spin_ && reached(spin_from_.load(std::memory_order_relaxed))) {
    for (int i = 0; i < kSpinPauses; ++i) {
      if (passed()) {
        if (backoff_.load(std::memory_order_relaxed) != 1) {
          backoff_.store(1, std::memory_order_relaxed);
        }
        return;
      }
      cpu_relax();
    }
    // The first waiter whose spin runs out in this phase backs off.  These
    // fields only steer how a waiter waits, so relaxed races are harmless.
    if (reached(spin_from_.load(std::memory_order_relaxed))) {
      const std::uint32_t b = backoff_.load(std::memory_order_relaxed);
      backoff_.store(std::min(2 * b, kMaxBackoff), std::memory_order_relaxed);
      spin_from_.store(phase + 1 + b, std::memory_order_relaxed);
    }
  }
  for (int i = 0; i < kYields; ++i) {
    if (passed()) return;
    std::this_thread::yield();
  }
  phase_.wait(phase, std::memory_order_acquire);
}

ShardRuntime::ShardRuntime(int shards) {
  if (shards < 1) {
    throw std::invalid_argument(
        "sim::ShardRuntime: need at least one shard (got " +
        std::to_string(shards) + "); pass 1 for the sequential engine");
  }
  sims_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) sims_.push_back(std::make_unique<Simulator>());
  inboxes_.resize(static_cast<std::size_t>(shards));
  published_.resize(static_cast<std::size_t>(shards));
  profile_.resize(static_cast<std::size_t>(shards));
}

std::vector<Simulator*> ShardRuntime::shards() const {
  std::vector<Simulator*> out;
  out.reserve(sims_.size());
  for (const std::unique_ptr<Simulator>& s : sims_) out.push_back(s.get());
  return out;
}

void ShardRuntime::note_cross_shard_latency(Duration latency) {
  if (latency < 1) {
    throw std::invalid_argument(
        "sim::ShardRuntime::note_cross_shard_latency: a link crossing shards "
        "needs a latency of at least 1 tick (got " +
        std::to_string(latency) +
        "), or the lookahead window is empty and the run never advances; "
        "give inter-cluster links a positive latency "
        "(FabricParams::cluster_link) or run with one shard");
  }
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

// Strictly-bounded window: events at t <= LBTS + L - 1 emit cross-shard
// effects at >= t + L > window end (the §12 safety argument).  The shard
// holding the LBTS event always runs it, so LBTS strictly advances.
SimTime ShardRuntime::window_end(SimTime lbts) const {
  const SimTime cap = kNever - lookahead_;  // overflow guard
  const SimTime end = lbts > cap ? kNever - 1 : lbts + lookahead_ - 1;
  return std::min(end, deadline_);
}

void ShardRuntime::worker(int s, ShardBarrier& barrier) {
  using Clock = std::chrono::steady_clock;
  const auto i = static_cast<std::size_t>(s);
  Simulator& sim = *sims_[i];
  Published& mine = published_[i];
  ShardTimes times;
  Clock::time_point mark = Clock::now();
  const auto lap = [&mark](std::uint64_t& total) {
    const Clock::time_point now = Clock::now();
    total += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark)
            .count());
    mark = now;
  };
  // Ambient shard context: Proc frames spawned while this window executes
  // register with this shard's registry (see proc_registry.hpp).
  Simulator::ScopedBind bind(sim);
  bool stopped = false;  // this shard's last window ended in stop()
  bool any_stopped = false;
  for (;;) {
    barrier.arrive_and_wait();  // A: every producer finished its window
    lap(times.wait_ns);
    for (ShardExchange* ex : inboxes_[i]) ex->drain_into(sim);
    mine.next = sim.next_event_time(kNever);
    mine.stop = stopped;
    lap(times.drain_ns);
    barrier.arrive_and_wait();  // B: every shard published
    lap(times.wait_ns);
    // Every shard folds the same published values, so every shard reaches
    // the same decision.  Nothing read here is written again before the
    // next phase A, which no shard passes until all have folded.
    SimTime lbts = kNever;
    for (const Published& p : published_) {
      lbts = std::min(lbts, p.next);
      any_stopped = any_stopped || p.stop;
    }
    if (s == 0) ++rounds_;
    if (lbts == kNever || lbts > deadline_ || any_stopped) break;
    sim.run_until(window_end(lbts));
    stopped = sim.stop_requested();
    lap(times.run_ns);
  }
  // All events <= deadline ran (LBTS passed it); bring the clock to the
  // deadline like Simulator::run_until does, unless a stop() cut the run
  // short (run_until leaves the clock at the stopping event too).
  if (deadline_ != kNever && !any_stopped) sim.run_until(deadline_);
  profile_[i] = times;
}

void ShardRuntime::run_until(SimTime deadline) {
  rounds_ = 0;
  std::fill(profile_.begin(), profile_.end(), ShardTimes{});
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
  if (lookahead_ == 0) {
    throw std::invalid_argument(
        "sim::ShardRuntime::run_until: a " + std::to_string(num_shards()) +
        "-shard run with no cross-shard link registered has no lookahead "
        "window; build the machine on this runtime (hw::Fabric / "
        "vorx::System split every cross-shard link and note its latency) "
        "or run with one shard");
  }
  deadline_ = deadline;
  ShardBarrier barrier(num_shards());
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_shards() - 1));
  for (int s = 1; s < num_shards(); ++s) {
    threads.emplace_back([this, s, &barrier] { worker(s, barrier); });
  }
  worker(0, barrier);
  for (std::thread& t : threads) t.join();
}

}  // namespace hpcvorx::sim
