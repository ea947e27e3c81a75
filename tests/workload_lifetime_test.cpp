// Storm state that must follow the live sessions (DESIGN.md §14.1): a
// host's stubs die with their slots and with the host, and the latency
// samples kept in whole microseconds, or counted, give exactly the
// nanosecond nearest-rank percentiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/fault_plan.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "vorx/node.hpp"
#include "vorx/system.hpp"
#include "vorx/workload.hpp"

namespace hpcvorx::vorx {
namespace {

// The overloaded run of tests/check_workload_report.cmake: 20000 users over
// 200 ms, seed 7, on storm_machine(64, 1).
WorkloadConfig storm_workload() {
  WorkloadConfig wcfg;
  wcfg.users = 20'000;
  wcfg.horizon = sim::msec(200);
  return wcfg;
}

constexpr std::uint64_t kSeed = 7;

TEST(StubLifetime, EachHostHoldsOneStubPerSlot) {
  sim::Simulator sim;
  System sys(sim, storm_machine(64, 1));
  WorkloadGen gen(sys, storm_workload(), kSeed);
  Node& host = sys.host(0);

  // Mid-run, at the busy hour: the slots held are exactly the stubs alive.
  sys.run_until(storm_workload().horizon / 2);
  EXPECT_GT(gen.slots_held(0), 0u);
  EXPECT_EQ(host.stub_count(), gen.slots_held(0));

  gen.run();
  const WorkloadReport r = gen.report();
  ASSERT_TRUE(r.all_accounted());
  // Far more stubs were granted than any instant held: freed ones are gone.
  EXPECT_GT(r.stubs_granted, host.stub_count());
  EXPECT_EQ(host.stub_count(), gen.slots_held(0));
}

TEST(StubLifetime, CrashedHostHoldsNoStubs) {
  sim::Simulator sim;
  System sys(sim, storm_machine(64, 1));
  WorkloadGen gen(sys, storm_workload(), kSeed);
  FaultInjector inj(sys, &gen);
  const sim::FaultPlan plan = sim::FaultPlan::named(
      "stub_crash", gen.machine_shape(), kSeed, storm_workload().horizon);
  inj.install(plan);
  const auto crash = std::find_if(
      plan.events().begin(), plan.events().end(), [](const sim::FaultEvent& e) {
        return e.kind == sim::FaultKind::kHostCrash;
      });
  ASSERT_NE(crash, plan.events().end());
  Node& host = sys.host(0);

  sys.run_until(crash->at - 1);
  EXPECT_GT(host.stub_count(), 0u) << "nothing to kill: the test is vacuous";
  sys.run_until(crash->at);
  EXPECT_EQ(host.stub_count(), 0u);
  EXPECT_EQ(gen.slots_held(0), 0u);

  gen.run();
  const WorkloadReport r = gen.report();
  ASSERT_TRUE(r.all_accounted());
  EXPECT_GT(r.stubs_killed, 0u);
  EXPECT_EQ(host.stub_count(), gen.slots_held(0));
}

TEST(StubLifetime, FreeingAnIdleStubUnregistersIt) {
  sim::Simulator sim;
  System sys(sim, SystemConfig{});
  Node& host = sys.host(0);
  const std::uint64_t a = host.make_stub().id();
  const std::uint64_t b = host.make_stub().id();
  ASSERT_EQ(host.stub_count(), 2u);
  host.free_stub(a);
  EXPECT_EQ(host.stub_count(), 1u);
  host.free_stub(b);
  EXPECT_EQ(host.stub_count(), 0u);
}

TEST(StubLifetimeDeathTest, FreeingAStubBlockedOnTheKeyboardAsserts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  System sys(sim, SystemConfig{});
  Node& host = sys.host(0);
  Stub& stub = host.make_stub();
  Process& p = sys.node(0).spawn_process(
      "typist", [](Subprocess& sp) -> sim::Task<void> {
        (void)co_await sp.sys_keyboard();
      });
  p.bind_syscalls(std::make_unique<SyscallClient>(
      sys.node(0), sys.host_station(0), stub.id()));
  // The keyboard read takes 50 ms: at 10 ms the stub is still blocked in it.
  sim.run_until(sim::msec(10));
  ASSERT_TRUE(stub.busy());
  EXPECT_DEATH(host.free_stub(stub.id()), "serving");
  sim.run();
  EXPECT_FALSE(stub.busy());
  EXPECT_EQ(stub.calls_served(), 1u);
}

// The report's selection over whole-microsecond samples, and the same
// samples kept as LatencyCounts, against the nanosecond reference: sort,
// sim::nearest_rank, divide by 1000.
void expect_matches_ns_reference(const std::vector<sim::Duration>& ns,
                                 const std::string& what) {
  std::vector<sim::Duration> sorted = ns;
  std::sort(sorted.begin(), sorted.end());
  for (const int pct : {50, 99}) {
    std::vector<std::uint32_t> us;
    us.reserve(ns.size());
    LatencyCounts counts;
    for (const sim::Duration d : ns) {
      us.push_back(latency_us(d));
      counts.add(latency_us(d));
    }
    const std::int64_t want = sim::nearest_rank(sorted, pct) / 1000;
    EXPECT_EQ(percentile_us(us, pct), want)
        << what << " n=" << ns.size() << " p" << pct;
    EXPECT_EQ(counts.percentile(pct), want)
        << what << " (counts) n=" << ns.size() << " p" << pct;
  }
}

TEST(LatencySamples, MicrosecondSelectionMatchesNanosecondNearestRank) {
  sim::Rng rng(1990);
  // n = 100 and 200 make n*p/100 whole for p50 and p99; the rest are
  // odd, even and tiny counts.
  for (const std::size_t n : {1u, 2u, 3u, 4u, 99u, 100u, 101u, 200u, 1000u,
                              1357u}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<sim::Duration> ns(n);
      // Narrow ranges force ties in ns and, after truncation, in us;
      // the wide one spans the storm's real latencies.
      const std::uint64_t span = trial % 3 == 0   ? 5
                                 : trial % 3 == 1 ? 4'000
                                                  : 300'000'000;
      for (sim::Duration& d : ns) {
        d = static_cast<sim::Duration>(rng.below(span));
      }
      expect_matches_ns_reference(ns, "trial " + std::to_string(trial));
    }
  }
  // Samples straddling a microsecond boundary by one nanosecond.
  expect_matches_ns_reference({999, 1000, 1001, 1999, 2000, 999, 1000, 2001},
                              "boundaries");
}

TEST(LatencySamples, EmptySampleReportsMinusOne) {
  std::vector<std::uint32_t> none;
  EXPECT_EQ(percentile_us(none, 50), -1);
  EXPECT_EQ(percentile_us(none, 99), -1);
  const LatencyCounts empty;
  EXPECT_EQ(empty.percentile(50), -1);
  EXPECT_EQ(empty.percentile(99), -1);
}

// LatencyCounts against sim::nearest_rank over the raw samples, split over
// several count sets the way report() sums one set per simulator.  The
// samples straddle LatencyCounts::kDense, where the dense counters end and
// the raw overflow list begins.
void expect_counts_match_samples(const std::vector<std::uint32_t>& samples,
                                 std::size_t parts, const std::string& what) {
  std::vector<LatencyCounts> sets(parts);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    sets[i % parts].add(samples[i]);
  }
  std::vector<const LatencyCounts*> views;
  std::size_t total = 0;
  for (const LatencyCounts& c : sets) {
    views.push_back(&c);
    total += c.size();
  }
  ASSERT_EQ(total, samples.size());
  std::vector<sim::Duration> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  for (const int pct : {0, 1, 50, 90, 99, 100}) {
    const std::int64_t want =
        sorted.empty() ? -1 : sim::nearest_rank(sorted, pct);
    EXPECT_EQ(LatencyCounts::percentile(views, pct), want)
        << what << " n=" << samples.size() << " parts=" << parts << " p"
        << pct;
  }
}

TEST(LatencyCounts, NearestRankMatchesTheRawSamples) {
  constexpr std::uint32_t kDense = LatencyCounts::kDense;
  sim::Rng rng(1990);
  for (const std::size_t n : {1u, 2u, 3u, 99u, 100u, 101u, 200u, 1357u}) {
    for (int trial = 0; trial < 12; ++trial) {
      std::vector<std::uint32_t> samples(n);
      for (std::uint32_t& us : samples) {
        switch (trial % 4) {
          case 0:  // all dense, many ties
            us = static_cast<std::uint32_t>(rng.below(8));
            break;
          case 1:  // around the dense edge
            us = kDense - 4 + static_cast<std::uint32_t>(rng.below(8));
            break;
          case 2:  // all overflow
            us = kDense + static_cast<std::uint32_t>(rng.below(400'000));
            break;
          default:  // the storm's spread: mostly dense, a tail above
            us = static_cast<std::uint32_t>(rng.below(kDense + kDense / 8));
            break;
        }
      }
      for (const std::size_t parts : {1u, 4u}) {
        expect_counts_match_samples(samples, parts,
                                    "trial " + std::to_string(trial));
      }
    }
  }
}

TEST(LatencyCounts, EmptyAndSingleSamples) {
  expect_counts_match_samples({}, 1, "empty");
  expect_counts_match_samples({}, 3, "empty");
  for (const std::uint32_t us :
       {0u, 1u, LatencyCounts::kDense - 1, LatencyCounts::kDense,
        std::numeric_limits<std::uint32_t>::max()}) {
    expect_counts_match_samples({us}, 1, "single " + std::to_string(us));
    expect_counts_match_samples({us}, 2, "single " + std::to_string(us));
  }
}

TEST(LatencySamples, HorizonTooLongForMicrosecondSamplesIsRejected) {
  sim::Simulator sim;
  System sys(sim, SystemConfig{});
  WorkloadConfig wcfg;
  wcfg.users = 10;
  // 2^32 us is 71.6 min; a 72-minute day overflows before its watchdogs.
  wcfg.horizon = sim::sec(72 * 60);
  try {
    WorkloadGen gen(sys, wcfg, kSeed);
    ADD_FAILURE() << "a 72-minute horizon was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("WorkloadConfig::horizon"),
              std::string::npos)
        << e.what();
  }
  // An hour fits.
  wcfg.horizon = sim::sec(60 * 60);
  EXPECT_NO_THROW(WorkloadGen(sys, wcfg, kSeed));
}

}  // namespace
}  // namespace hpcvorx::vorx
