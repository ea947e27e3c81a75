// Tests for the preemptive-priority CPU model and its time accounting.
#include <gtest/gtest.h>

#include <vector>

#include "sim/awaitables.hpp"
#include "sim/cpu.hpp"
#include "sim/task.hpp"

namespace hpcvorx::sim {
namespace {

Proc run_job(Cpu& cpu, int prio, Duration cost, Category cat,
             std::vector<std::pair<int, SimTime>>& done, int id,
             std::int64_t owner = 0, Duration sw = 0) {
  co_await cpu.run(prio, cost, cat, owner, sw);
  done.emplace_back(id, cpu.simulator().now());
}

Proc delayed_job(Simulator& sim, Cpu& cpu, Duration start, int prio,
                 Duration cost, std::vector<std::pair<int, SimTime>>& done,
                 int id) {
  co_await delay(sim, start);
  co_await cpu.run(prio, cost, Category::kUser);
  done.emplace_back(id, sim.now());
}

TEST(Cpu, SingleJobTakesItsCost) {
  Simulator sim;
  Cpu cpu(sim, "n0");
  std::vector<std::pair<int, SimTime>> done;
  run_job(cpu, 100, usec(50), Category::kUser, done, 1);
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].second, usec(50));
  EXPECT_EQ(cpu.ledger().total(Category::kUser), usec(50));
}

TEST(Cpu, EqualPrioritiesRunFifo) {
  Simulator sim;
  Cpu cpu(sim, "n0");
  std::vector<std::pair<int, SimTime>> done;
  run_job(cpu, 100, usec(10), Category::kUser, done, 1);
  run_job(cpu, 100, usec(10), Category::kUser, done, 2);
  run_job(cpu, 100, usec(10), Category::kUser, done, 3);
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], (std::pair<int, SimTime>{1, usec(10)}));
  EXPECT_EQ(done[1], (std::pair<int, SimTime>{2, usec(20)}));
  EXPECT_EQ(done[2], (std::pair<int, SimTime>{3, usec(30)}));
}

TEST(Cpu, HigherPriorityPreempts) {
  Simulator sim;
  Cpu cpu(sim, "n0");
  std::vector<std::pair<int, SimTime>> done;
  // Low-priority job starts at 0 and needs 100us of CPU.
  run_job(cpu, 10, usec(100), Category::kUser, done, 1);
  // High-priority job arrives at 30us and needs 20us.
  delayed_job(sim, cpu, usec(30), 500, usec(20), done, 2);
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], (std::pair<int, SimTime>{2, usec(50)}));
  // Job 1 executed 30us before the preemption, then its remaining 70us.
  EXPECT_EQ(done[1], (std::pair<int, SimTime>{1, usec(120)}));
}

// A preemption only bumps the slice generation; the preempted slice's end
// event stays queued and fires as a no-op.  Here a zero-cost preemptor
// hands the CPU straight back, so the resumed slice ends at exactly the
// stale event's instant (100us), with the stale event first in seq order.
// The stale fire must not complete A a second time or early.
TEST(Cpu, StaleSliceEndAtTheLiveSliceEndInstantIsANoOp) {
  Simulator sim;
  Cpu cpu(sim, "n0");
  std::vector<std::pair<int, SimTime>> done;
  run_job(cpu, 100, usec(100), Category::kUser, done, 1);
  delayed_job(sim, cpu, usec(30), 500, 0, done, 2);
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], (std::pair<int, SimTime>{2, usec(30)}));
  EXPECT_EQ(done[1], (std::pair<int, SimTime>{1, usec(100)}));
  EXPECT_EQ(cpu.preemptions(), 1u);
  EXPECT_EQ(sim.now(), usec(100));
  cpu.finalize_accounting();
  EXPECT_EQ(cpu.ledger().grand_total(), usec(100));
  EXPECT_EQ(cpu.ledger().busy_total(), usec(100));
  EXPECT_EQ(cpu.ledger().total(Category::kUser), usec(100));
}

TEST(Cpu, EqualPriorityDoesNotPreempt) {
  Simulator sim;
  Cpu cpu(sim, "n0");
  std::vector<std::pair<int, SimTime>> done;
  run_job(cpu, 100, usec(100), Category::kUser, done, 1);
  delayed_job(sim, cpu, usec(30), 100, usec(20), done, 2);
  sim.run();
  EXPECT_EQ(done[0].first, 1);
  EXPECT_EQ(done[0].second, usec(100));
  EXPECT_EQ(done[1].second, usec(120));
}

TEST(Cpu, ContextSwitchChargedOnOwnerChange) {
  Simulator sim;
  Cpu cpu(sim, "n0");
  std::vector<std::pair<int, SimTime>> done;
  // Two "subprocesses" (owners 1 and 2) with the paper's 80us switch cost.
  run_job(cpu, 100, usec(50), Category::kUser, done, 1, /*owner=*/1, usec(80));
  run_job(cpu, 100, usec(50), Category::kUser, done, 2, /*owner=*/2, usec(80));
  run_job(cpu, 100, usec(50), Category::kUser, done, 3, /*owner=*/2, usec(80));
  sim.run();
  // Job1: 80 (switch from idle/none) + 50; Job2: 80 + 50; Job3: 0 + 50.
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].second, usec(130));
  EXPECT_EQ(done[1].second, usec(260));
  EXPECT_EQ(done[2].second, usec(310));
  EXPECT_EQ(cpu.ledger().total(Category::kContextSwitch), usec(160));
  EXPECT_EQ(cpu.ledger().total(Category::kUser), usec(150));
}

TEST(Cpu, LedgerCoversAllElapsedTime) {
  Simulator sim;
  Cpu cpu(sim, "n0");
  std::vector<std::pair<int, SimTime>> done;
  delayed_job(sim, cpu, usec(10), 100, usec(25), done, 1);
  delayed_job(sim, cpu, usec(70), 200, usec(5), done, 2);
  sim.run();
  cpu.finalize_accounting();
  EXPECT_EQ(cpu.ledger().grand_total(), sim.now());
  EXPECT_EQ(cpu.ledger().busy_total(), usec(30));
}

TEST(Cpu, PreemptedJobResumesBeforeQueuedPeers) {
  Simulator sim;
  Cpu cpu(sim, "n0");
  std::vector<std::pair<int, SimTime>> done;
  run_job(cpu, 10, usec(100), Category::kUser, done, 1);  // running
  run_job(cpu, 10, usec(10), Category::kUser, done, 2);   // queued peer
  delayed_job(sim, cpu, usec(30), 500, usec(20), done, 3);  // preemptor
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].first, 3);  // finishes at 50
  EXPECT_EQ(done[1].first, 1);  // resumes its remaining 70 -> 120
  EXPECT_EQ(done[1].second, usec(120));
  EXPECT_EQ(done[2].first, 2);  // then the queued peer -> 130
  EXPECT_EQ(done[2].second, usec(130));
}

TEST(Cpu, IdleClassifierLabelsIdleSpans) {
  Simulator sim;
  Cpu cpu(sim, "n0");
  Category reason = Category::kIdleOther;
  cpu.set_idle_classifier([&] { return reason; });
  std::vector<std::pair<int, SimTime>> done;
  // idle [0,10) as other; then kernel changes the reason at 10us.
  sim.post_at(usec(10), [&] {
    reason = Category::kIdleInput;
    cpu.note_idle_reason_changed();
  });
  delayed_job(sim, cpu, usec(25), 100, usec(5), done, 1);
  sim.run();
  cpu.finalize_accounting();
  EXPECT_EQ(cpu.ledger().total(Category::kIdleOther), usec(10));
  EXPECT_EQ(cpu.ledger().total(Category::kIdleInput), usec(15));
  EXPECT_EQ(cpu.ledger().total(Category::kUser), usec(5));
}

TEST(Cpu, IntervalRecordingProducesContiguousTimeline) {
  Simulator sim;
  Cpu cpu(sim, "n0");
  cpu.ledger().enable_recording(true);
  std::vector<std::pair<int, SimTime>> done;
  delayed_job(sim, cpu, usec(10), 100, usec(20), done, 1);
  delayed_job(sim, cpu, usec(15), 500, usec(5), done, 2);
  sim.run();
  cpu.finalize_accounting();
  const auto& iv = cpu.ledger().intervals();
  ASSERT_FALSE(iv.empty());
  EXPECT_EQ(iv.front().start, 0);
  for (std::size_t i = 1; i < iv.size(); ++i) {
    EXPECT_EQ(iv[i].start, iv[i - 1].end) << "gap at interval " << i;
  }
  EXPECT_EQ(iv.back().end, sim.now());
}

TEST(Cpu, ZeroCostJobCompletesAtCurrentInstant) {
  Simulator sim;
  Cpu cpu(sim, "n0");
  std::vector<std::pair<int, SimTime>> done;
  run_job(cpu, 100, 0, Category::kSystem, done, 1);
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].second, 0);
}

TEST(Cpu, InterruptPriorityPreemptsKernelAndUser) {
  Simulator sim;
  Cpu cpu(sim, "n0");
  std::vector<std::pair<int, SimTime>> done;
  run_job(cpu, prio::kUserDefault, usec(100), Category::kUser, done, 1);
  delayed_job(sim, cpu, usec(10), prio::kInterrupt, usec(3), done, 2);
  delayed_job(sim, cpu, usec(10), prio::kKernel, usec(7), done, 3);
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].first, 2);
  EXPECT_EQ(done[0].second, usec(13));
  EXPECT_EQ(done[1].first, 3);
  EXPECT_EQ(done[1].second, usec(20));
  EXPECT_EQ(done[2].first, 1);
  EXPECT_EQ(done[2].second, usec(110));
}

}  // namespace
}  // namespace hpcvorx::sim
