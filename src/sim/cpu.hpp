// A simulated processor with preemptive priority scheduling and exact
// time accounting.
//
// Every piece of simulated software "runs" by awaiting Cpu::run(priority,
// cost, category):  the awaiting coroutine resumes once the CPU has spent
// `cost` of virtual time on it, which may take longer than `cost` of
// elapsed time if higher-priority work (interrupt service, a
// higher-priority subprocess) preempts it.
//
// Context switches are modelled per §5 of the paper: each job carries an
// *owner* identity and a switch-in cost; whenever the CPU dispatches a job
// whose owner differs from the previously-running owner, the switch-in
// cost is charged first (80 µs for a full 68020+68882 register save in the
// paper's subprocess scheduler, much less for coroutines or interrupt
// service).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace hpcvorx::sim {

/// Well-known priority levels.  Higher numbers run first.
namespace prio {
inline constexpr int kInterrupt = 1000;  // hardware interrupt service
inline constexpr int kKernel = 500;      // kernel syscall / protocol work
inline constexpr int kUserDefault = 100; // default subprocess priority
}  // namespace prio

/// Special owner id for jobs that "borrow" the interrupted context — e.g.
/// interrupt service routines, which run on the current kernel stack
/// without a register-file save.  Such a job always pays its own (small)
/// switch-in cost but does not change the CPU's notion of the last-running
/// owner, so the preempted subprocess resumes without re-paying the full
/// context-switch cost.
inline constexpr std::int64_t kBorrowedContext = -2;

class Cpu {
 public:
  Cpu(Simulator& sim, std::string name);
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;
  ~Cpu();

  class RunAwaiter;

  /// Consumes `cost` of CPU time at `prio`, accounted to `cat`.
  /// `owner` identifies the executing context for context-switch
  /// accounting; `switch_in_cost` is charged (as Category::kContextSwitch)
  /// whenever the CPU dispatches this job after running a different owner.
  [[nodiscard]] RunAwaiter run(int prio, Duration cost, Category cat,
                               std::int64_t owner = 0,
                               Duration switch_in_cost = 0);

  /// Classifier consulted to label idle time; installed by the OS layer,
  /// which knows what its blocked threads are waiting for.
  void set_idle_classifier(std::function<Category()> f);

  /// The OS calls this when the reason for idleness changes (e.g. a thread
  /// just blocked on output while another was already blocked on input),
  /// so the current idle span is split and labelled correctly.
  void note_idle_reason_changed();

  [[nodiscard]] bool busy() const { return running_ != nullptr; }
  [[nodiscard]] const TimeLedger& ledger() const { return ledger_; }
  [[nodiscard]] TimeLedger& ledger() { return ledger_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Simulator& simulator() { return sim_; }

  /// Number of context switches dispatched (owner changed and the full
  /// switch-in cost was charged; borrowed-context ISR entries don't count,
  /// matching §5's definition of "a context switch").
  [[nodiscard]] std::uint64_t ctx_switches() const { return ctx_switches_; }

  /// Number of preemptions (a higher-priority arrival took the CPU from a
  /// running slice).  A preemption only bumps the slice generation, so the
  /// preempted slice's end event stays queued and later fires as a no-op:
  /// once the simulation has run past every slice end, the number of such
  /// stale fires equals this count.
  [[nodiscard]] std::uint64_t preemptions() const { return preemptions_; }

  /// Closes the open idle/busy span so ledger totals cover [0, now].
  /// Call once at the end of an experiment before reading the ledger.
  void finalize_accounting();

 private:
  struct Job {
    int prio;
    Duration switch_left;   // remaining context-switch charge
    Duration work_left;     // remaining job cost
    Category cat;
    std::int64_t owner;
    Duration switch_in_cost;
    // vorx-lint: allow(R8) suspended runner, resumed once when the job ends
    std::coroutine_handle<> handle;
    std::uint64_t seq;
  };

  void enqueue(Job* job);
  void dispatch();
  void start_slice(Job* job);
  void preempt_running();
  void account_progress(Job* job, SimTime from, SimTime to);
  void on_slice_complete();
  void begin_idle();
  void end_idle();

  Simulator& sim_;
  std::string name_;
  TimeLedger ledger_;
  std::function<Category()> idle_classifier_;

  // Ready jobs by priority (descending), FIFO within a priority.
  std::map<int, std::deque<Job*>, std::greater<int>> ready_;
  Job* running_ = nullptr;
  SimTime slice_start_ = 0;
  // Generation of the running slice.  Each slice-end event captures the
  // value current when it was posted and fires as a no-op if a
  // preemption has bumped it since.
  std::uint64_t slice_gen_ = 0;
  std::int64_t last_owner_ = -1;
  std::uint64_t next_seq_ = 0;
  std::uint64_t ctx_switches_ = 0;
  std::uint64_t preemptions_ = 0;

  bool idle_open_ = true;      // an idle span is open from time 0
  SimTime idle_start_ = 0;
  Category idle_cat_ = Category::kIdleOther;

 public:
  class RunAwaiter {
   public:
    RunAwaiter(Cpu& cpu, Job job) : cpu_(cpu), job_(std::move(job)) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      job_.handle = h;
      cpu_.enqueue(&job_);
    }
    void await_resume() const noexcept {}

   private:
    Cpu& cpu_;
    Job job_;
  };
};

}  // namespace hpcvorx::sim
