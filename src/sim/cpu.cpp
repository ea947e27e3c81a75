#include "sim/cpu.hpp"

#include <utility>

namespace hpcvorx::sim {

Cpu::Cpu(Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)), idle_start_(sim.now()) {
  idle_cat_ = Category::kIdleOther;
}

Cpu::~Cpu() = default;

Cpu::RunAwaiter Cpu::run(int prio, Duration cost, Category cat,
                         std::int64_t owner, Duration switch_in_cost) {
  assert(cost >= 0);
  Job job{prio, 0, cost, cat, owner, switch_in_cost, {}, next_seq_++};
  return RunAwaiter{*this, job};
}

void Cpu::set_idle_classifier(std::function<Category()> f) {
  idle_classifier_ = std::move(f);
  if (idle_open_ && idle_classifier_) idle_cat_ = idle_classifier_();
}

void Cpu::note_idle_reason_changed() {
  if (!idle_open_) return;
  const SimTime now = sim_.now();
  ledger_.add(idle_start_, now, idle_cat_);
  idle_start_ = now;
  idle_cat_ = idle_classifier_ ? idle_classifier_() : Category::kIdleOther;
}

void Cpu::finalize_accounting() {
  const SimTime now = sim_.now();
  if (idle_open_) {
    ledger_.add(idle_start_, now, idle_cat_);
    idle_start_ = now;
  } else if (running_ != nullptr) {
    // Attribute the partially-executed slice so totals cover [0, now].
    account_progress(running_, slice_start_, now);
    slice_start_ = now;
  }
}

void Cpu::enqueue(Job* job) {
  if (running_ == nullptr) {
    end_idle();
    ready_[job->prio].push_back(job);
    dispatch();
    return;
  }
  if (job->prio > running_->prio) {
    preempt_running();
    ready_[job->prio].push_back(job);
    dispatch();
    return;
  }
  ready_[job->prio].push_back(job);
}

void Cpu::dispatch() {
  assert(running_ == nullptr);
  // Emptied per-priority queues stay in the map: erasing them freed the
  // map node and the deque's spine on every slice (three malloc/free
  // pairs — the dominant allocation in the Table 1/2 profile), only for
  // the next enqueue at that priority to rebuild it all.  A CPU touches a
  // handful of distinct priorities, so skipping empties is cheaper.
  for (auto& [prio, queue] : ready_) {
    if (queue.empty()) continue;
    Job* job = queue.front();
    queue.pop_front();
    start_slice(job);
    return;
  }
  begin_idle();
}

void Cpu::start_slice(Job* job) {
  running_ = job;
  slice_start_ = sim_.now();
  if (job->owner == kBorrowedContext) {
    job->switch_left = job->switch_in_cost;  // ISR entry cost, no ctx change
  } else if (job->owner != last_owner_) {
    job->switch_left = job->switch_in_cost;
    last_owner_ = job->owner;
    ++ctx_switches_;
    sim_.counters().sample(name_, "ctxsw", sim_.now(),
                           static_cast<double>(ctx_switches_));
  }
  const Duration total = job->switch_left + job->work_left;
  sim_.post_after(total, [this, gen = slice_gen_] {
    if (gen == slice_gen_) on_slice_complete();
  });
}

void Cpu::account_progress(Job* job, SimTime from, SimTime to) {
  Duration elapsed = to - from;
  if (elapsed <= 0) return;
  const Duration sw = std::min(elapsed, job->switch_left);
  if (sw > 0) {
    ledger_.add(from, from + sw, Category::kContextSwitch);
    job->switch_left -= sw;
    elapsed -= sw;
    from += sw;
  }
  if (elapsed > 0) {
    ledger_.add(from, from + elapsed, job->cat);
    job->work_left -= elapsed;
    assert(job->work_left >= 0);
  }
}

void Cpu::preempt_running() {
  assert(running_ != nullptr);
  ++slice_gen_;  // the queued slice end fires as a no-op
  ++preemptions_;
  account_progress(running_, slice_start_, sim_.now());
  // A preempted job resumes ahead of queued peers at its priority.
  ready_[running_->prio].push_front(running_);
  running_ = nullptr;
}

void Cpu::on_slice_complete() {
  assert(running_ != nullptr);
  Job* job = running_;
  account_progress(job, slice_start_, sim_.now());
  assert(job->switch_left == 0 && job->work_left == 0);
  running_ = nullptr;
  dispatch();
  // Resume after dispatching so a follow-on run() from this coroutine
  // queues behind (or legitimately preempts) the next job.
  job->handle.resume();
}

void Cpu::begin_idle() {
  if (idle_open_) return;
  idle_open_ = true;
  idle_start_ = sim_.now();
  idle_cat_ = idle_classifier_ ? idle_classifier_() : Category::kIdleOther;
}

void Cpu::end_idle() {
  if (!idle_open_) return;
  ledger_.add(idle_start_, sim_.now(), idle_cat_);
  idle_open_ = false;
}

}  // namespace hpcvorx::sim
