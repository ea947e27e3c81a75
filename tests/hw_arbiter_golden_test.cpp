// Randomized golden for the cluster arbiter, wired by hand (no Fabric).
//
// The switch's forwarding order is the contract every virtual-time result
// rests on, so this pins it exactly: which input each output serves, in
// which order, at which instant.  One hand-wired cluster per port count
// (4, 12, 16, 70 — the last spans two mask words) is driven through every
// path the arbiter has:
//
//   * an occupancy-dependent route function (least-queued ready candidate,
//     an escape port when none is ready) with rip-up of blocked heads on;
//   * loopback ports whose relay re-injects a frame into the cluster and,
//     by taking it off the egress link, re-enters arbitration
//     synchronously from inside the cluster's own input takes;
//   * hardware-multicast groups, one reprogrammed mid-run;
//   * unroutable (-1) destinations, some only while a route epoch is
//     active (flipped with on_routes_changed());
//   * a restart() mid-run.
//
// Every frame leaving the switch is logged as (delivery time, take time,
// input port, output port, seq, hops); the golden holds the log's FNV-1a
// digest plus the cluster's counters, one line per (ports, seed).
//
// Regenerating (only legitimate after an intentional semantic change):
//   HPCVORX_WRITE_GOLDENS=1 ./build/tests/hw_tests
//       --gtest_filter='ArbiterGolden.*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fake_link_consumer.hpp"
#include "hw/cluster.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace hpcvorx::hw {
namespace {

constexpr int kDestinations = 40;
constexpr int kFramesPerInput = 40;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

class Harness {
 public:
  Harness(sim::Simulator& sim, int ports, std::uint64_t seed)
      : sim_(sim), cluster_(sim, "c0", ports), rng_(seed) {
    const Link::Params lp{
        .ns_per_byte = 10, .latency = 100, .buffer_frames = 2};
    for (int p = 0; p < ports; ++p) {
      const std::string id = std::to_string(p);
      ins_.push_back(std::make_unique<Link>(sim, "in" + id, lp));
      outs_.push_back(std::make_unique<Link>(sim, "out" + id, lp));
      cluster_.attach_in(p, ins_.back().get());
      cluster_.attach_out(p, outs_.back().get());
      (p % 4 == 1 ? loops_ : sinks_).push_back(p);
    }
    delivered_at_.resize(static_cast<std::size_t>(ports));
    relaying_.assign(static_cast<std::size_t>(ports), 0);
    next_.assign(static_cast<std::size_t>(ports), 0);
    armed_.assign(static_cast<std::size_t>(ports), 0);
    schedule_.resize(static_cast<std::size_t>(ports));
    // The harness is the receiver of every output link and the sender of
    // every input link; the port says which.
    ends_.delivered = [this](int p) {
      delivered_at_[static_cast<std::size_t>(p)].push_back(sim_.now());
      if (p % 4 == 1) {
        relay(p);
      } else {
        sim_.post_after(static_cast<sim::Duration>(rng_.below(3000)),
                        [this, p] { drain(p); });
      }
    };
    ends_.ready = [this](int p) {
      if (p % 4 == 1) {
        relay(p);  // a loop port
      } else {
        feed(p);   // a sink port
      }
    };
    for (int p = 0; p < ports; ++p) {
      outs_[static_cast<std::size_t>(p)]->set_receiver(&ends_, p);
      ins_[static_cast<std::size_t>(p)]->set_sender(&ends_, p);
    }
    cluster_.set_route_fn([this](const Frame& f) { return route(f); });
    cluster_.set_reroute_blocked_heads(true);
    cluster_.set_multicast_route(1, {sinks_.front(), sinks_.back()});
    cluster_.set_multicast_route(2, {loops_.front(), sinks_[1]});
    std::vector<int> every_third;
    for (std::size_t i = 0; i < sinks_.size(); i += 3) {
      every_third.push_back(sinks_[i]);
    }
    cluster_.set_multicast_route(3, every_third);
    // Seeded injection schedules for the external inputs.
    for (int p : sinks_) {
      sim::SimTime t = 0;
      for (int i = 0; i < kFramesPerInput; ++i) {
        t += static_cast<sim::Duration>(rng_.below(1500));
        Inject in;
        in.at = t;
        in.dst = static_cast<int>(rng_.below(kDestinations));
        in.group = rng_.below(8) == 0 ? 1 + rng_.below(3) : 0;
        in.bytes = static_cast<std::uint32_t>(16 + rng_.below(240));
        schedule_[static_cast<std::size_t>(p)].push_back(in);
      }
    }
  }

  std::string run() {
    for (int p : sinks_) {
      sim_.post_at(schedule_[static_cast<std::size_t>(p)][0].at,
                   [this, p] { feed(p); });
    }
    sim_.post_at(sim::usec(8), [this] {
      dead_epoch_ = true;
      cluster_.on_routes_changed();
    });
    sim_.post_at(sim::usec(12), [this] {
      cluster_.set_multicast_route(2, {sinks_.back(), loops_.back()});
    });
    sim_.post_at(sim::usec(18), [this] { cluster_.restart(); });
    sim_.post_at(sim::usec(24), [this] {
      dead_epoch_ = false;
      cluster_.on_routes_changed();
    });
    sim_.run();
    std::size_t parked = 0;
    for (const auto& l : ins_) parked += l->buffered();
    std::ostringstream out;
    out << "ports=" << cluster_.num_ports() << " records=" << records_
        << " forwarded=" << cluster_.frames_forwarded()
        << " dropped=" << cluster_.frames_dropped()
        << " mcast=" << cluster_.multicast_copies_total()
        << " hol_ns=" << cluster_.head_of_line_blocked()
        << " parked=" << parked << " end=" << sim_.now() << " fnv=" << std::hex
        << fnv1a(log_) << "\n";
    return out.str();
  }

 private:
  struct Inject {
    sim::SimTime at = 0;
    int dst = 0;
    std::uint64_t group = 0;
    std::uint32_t bytes = 0;
  };

  // Least-queued ready candidate; ties go to the escape port, then to the
  // lowest port.  When none is ready the head parks on the escape port.
  Cluster::Route pick(const std::vector<int>& candidates, int escape) const {
    Cluster::Route r{-1, 0, escape};
    std::size_t best_depth = 0;
    for (int q : candidates) {
      r.candidates |= q < 64 ? std::uint64_t{1} << q : Cluster::kAnyPort;
      const Link* out = cluster_.out_link(q);
      if (!out->ready()) continue;
      const std::size_t depth = out->queue_depth();
      if (r.port < 0 || depth < best_depth ||
          (depth == best_depth && q == escape && r.port != escape)) {
        r.port = q;
        best_depth = depth;
      }
    }
    if (r.port < 0) r.port = escape;
    return r;
  }

  Cluster::Route route(const Frame& f) const {
    if (f.dst == kDestinations - 1) return {-1};
    if (dead_epoch_ && f.dst % 7 == 0) return {-1};
    const auto d = static_cast<std::size_t>(f.dst);
    // Two of three fresh frames take one lap through a loopback port
    // first; frames that have lapped go to the sinks, so the loop never
    // waits on itself.
    if (f.hops == 0 && f.seq % 3 != 0) {
      return pick(loops_, loops_[d % loops_.size()]);
    }
    const int e0 = sinks_[d % sinks_.size()];
    const int e1 = sinks_[(d * 7 + 3) % sinks_.size()];
    return pick(e0 < e1 ? std::vector<int>{e0, e1} : std::vector<int>{e1, e0},
                e0);
  }

  void record(int out, const Frame& f, sim::SimTime delivered) {
    ++records_;
    log_ += std::to_string(delivered) + ' ' + std::to_string(sim_.now()) +
            ' ' + std::to_string(f.src) + ' ' + std::to_string(out) + ' ' +
            std::to_string(f.seq) + ' ' + std::to_string(f.hops) + '\n';
  }

  Frame take_out(int p) {
    Frame f = *outs_[static_cast<std::size_t>(p)]->take();
    auto& times = delivered_at_[static_cast<std::size_t>(p)];
    record(p, f, times.front());
    times.pop_front();
    return f;
  }

  void drain(int p) { (void)take_out(p); }

  // Loopback: the frame leaving port p re-enters input p.  Taking it off
  // the egress link frees the cluster's slot, so the arbiter runs nested
  // inside this call — and, through input p's ready callback, inside the
  // cluster's own take of input p.
  void relay(int p) {
    const auto i = static_cast<std::size_t>(p);
    if (relaying_[i] != 0) return;
    relaying_[i] = 1;
    while (ins_[i]->ready() && outs_[i]->peek() != nullptr) {
      Frame f = take_out(p);
      f.src = p;
      if (f.group != 0) {
        f.group = 0;
        f.dst = static_cast<int>(f.seq % kDestinations);
      }
      ins_[i]->send(std::move(f));
    }
    relaying_[i] = 0;
  }

  void feed(int p) {
    const auto i = static_cast<std::size_t>(p);
    const auto& sched = schedule_[i];
    while (next_[i] < sched.size() && ins_[i]->ready()) {
      const Inject& in = sched[next_[i]];
      if (sim_.now() < in.at) {
        if (armed_[i] == 0) {
          armed_[i] = 1;
          sim_.post_at(in.at, [this, p] {
            armed_[static_cast<std::size_t>(p)] = 0;
            feed(p);
          });
        }
        return;
      }
      Frame f;
      f.src = p;
      f.dst = in.group != 0 ? -1 : in.dst;
      f.group = in.group;
      f.seq = ++seq_;
      f.payload_bytes = in.bytes;
      ins_[i]->send(std::move(f));
      ++next_[i];
    }
  }

  sim::Simulator& sim_;
  Cluster cluster_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Link>> ins_;
  std::vector<std::unique_ptr<Link>> outs_;
  FakeLinkConsumer ends_;
  std::vector<int> loops_;
  std::vector<int> sinks_;
  std::vector<std::deque<sim::SimTime>> delivered_at_;
  std::vector<char> relaying_;
  std::vector<std::size_t> next_;
  std::vector<char> armed_;
  std::vector<std::vector<Inject>> schedule_;
  bool dead_epoch_ = false;
  std::uint64_t seq_ = 0;
  std::uint64_t records_ = 0;
  std::string log_;
};

std::string run_arbiter(int ports, std::uint64_t seed) {
  sim::Simulator sim;
  Harness h(sim, ports, seed);
  return h.run();
}

TEST(ArbiterGolden, ForwardOrderIsPinned) {
  std::string got;
  for (const int ports : {4, 12, 16, 70}) {
    for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{2}}) {
      got += run_arbiter(ports, seed);
    }
  }
  EXPECT_EQ(got, run_arbiter(4, 1) + run_arbiter(4, 2) + run_arbiter(12, 1) +
                     run_arbiter(12, 2) + run_arbiter(16, 1) +
                     run_arbiter(16, 2) + run_arbiter(70, 1) +
                     run_arbiter(70, 2));
  const std::string path =
      std::string(GOLDEN_DIR) + "/arbiter_order.golden.txt";
  if (std::getenv("HPCVORX_WRITE_GOLDENS") != nullptr) {
    std::ofstream(path, std::ios::binary) << got;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str());
}

}  // namespace
}  // namespace hpcvorx::hw
