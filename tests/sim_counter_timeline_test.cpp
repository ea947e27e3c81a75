// CounterTimeline retention policies: unbounded growth and decimation.
#include <gtest/gtest.h>

#include <cstddef>

#include "sim/trace.hpp"

namespace hpcvorx::sim {
namespace {

void feed(CounterTimeline& tl, int n, int start = 0) {
  for (int i = start; i < start + n; ++i) {
    tl.sample("node0", "depth", static_cast<SimTime>(i),
              static_cast<double>(i));
  }
}

TEST(CounterTimeline, UnboundedKeepsEverything) {
  CounterTimeline tl;
  tl.enable(true);
  feed(tl, 1000);
  EXPECT_EQ(tl.samples().size(), 1000u);
  EXPECT_EQ(tl.samples_dropped(), 0u);
}

TEST(CounterTimeline, DisabledRecordsNothing) {
  CounterTimeline tl;
  feed(tl, 10);
  EXPECT_TRUE(tl.samples().empty());
}

TEST(CounterTimeline, DecimateSpansTheWholeRun) {
  CounterTimeline tl;
  tl.enable(true);
  tl.set_retention(CounterTimeline::Retention::kDecimate, 100);
  feed(tl, 1000);
  const auto& s = tl.samples();
  EXPECT_LE(s.size(), 100u);
  EXPECT_EQ(tl.samples_dropped() + s.size(), 1000u);
  // Coverage: the retained set spans the run — the very first sample is
  // kept, the last is within one stride of the newest, and timestamps
  // stay strictly increasing and roughly uniformly spaced.
  EXPECT_EQ(s.front().t, 0);
  EXPECT_GE(s.back().t, 999 - 32);
  for (std::size_t i = 1; i < s.size(); ++i) {
    EXPECT_LT(s[i - 1].t, s[i].t);
  }
}

TEST(CounterTimeline, SetRetentionCompactsExistingSamples) {
  CounterTimeline tl;
  tl.enable(true);
  feed(tl, 500);
  tl.set_retention(CounterTimeline::Retention::kDecimate, 50);
  const auto& s = tl.samples();
  EXPECT_LE(s.size(), 50u);
  EXPECT_EQ(tl.samples_dropped() + s.size(), 500u);
  // The compacted set still spans the samples recorded before the cap.
  EXPECT_EQ(s.front().t, 0);
  EXPECT_GE(s.back().t, 499 - 32);
}

TEST(CounterTimeline, ClearResetsDropCounter) {
  CounterTimeline tl;
  tl.enable(true);
  tl.set_retention(CounterTimeline::Retention::kDecimate, 10);
  feed(tl, 100);
  EXPECT_GT(tl.samples_dropped(), 0u);
  tl.clear();
  EXPECT_EQ(tl.samples_dropped(), 0u);
  EXPECT_TRUE(tl.samples().empty());
}

}  // namespace
}  // namespace hpcvorx::sim
