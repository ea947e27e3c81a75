// Raw-fabric traffic: plays one send list per station into a Fabric and
// records what every station receives.
//
// This is the paper's transmit loop (§2) with no OS layer above it: a
// station injects frames until the hardware refuses one, then resumes on
// the "interrupt when room becomes available" (the endpoint's tx-ready
// callback).  Every bench and test that drives the bare fabric uses this
// one driver.  Its contract (DESIGN.md §15.4): start() pumps the stations
// in order; every pump call that finds its head send early posts one more
// event at the send's time, pending or not; records are per station, so a
// sharded fabric needs no shared counter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hw/fabric.hpp"
#include "hw/frame.hpp"
#include "sim/time.hpp"

namespace hpcvorx::hw {

/// One frame a station injects, no earlier than `at`.
struct Send {
  sim::SimTime at = 0;
  Frame frame;
};

/// `sends[s]` is station s's list, in injection order.
using Schedule = std::vector<std::vector<Send>>;

/// What a receiving station recorded about one frame (no payload).
struct Delivery {
  StationId src = -1;
  int hops = 0;
  std::uint64_t seq = 0;
  std::uint64_t group = 0;
  sim::SimTime injected_at = 0;
  sim::SimTime delivered_at = 0;

  [[nodiscard]] sim::Duration latency() const {
    return delivered_at - injected_at;
  }
};

class FabricTraffic {
 public:
  /// Installs every station's rx drain and tx-ready pump; the endpoints'
  /// callbacks and the pump's events point at this driver, so it must
  /// live while `fab`'s simulators run.  Stations past the end of `sends`
  /// send nothing.
  FabricTraffic(Fabric& fab, Schedule sends);
  FabricTraffic(const FabricTraffic&) = delete;
  FabricTraffic& operator=(const FabricTraffic&) = delete;

  /// Pumps every station once, in station order: a due send goes out at
  /// once, an early one posts one event at its `at`.
  void start();

  /// Station `s`'s deliveries in arrival order.
  [[nodiscard]] const std::vector<Delivery>& received(StationId s) const {
    return stations_.at(static_cast<std::size_t>(s)).got;
  }
  /// Frames injected / delivered over all stations; read after the run.
  [[nodiscard]] std::uint64_t sent() const;
  [[nodiscard]] std::uint64_t delivered() const;

 private:
  struct Station {
    std::vector<Send> sends;
    std::size_t next = 0;
    std::vector<Delivery> got;
  };
  void pump(StationId s);
  void drain(StationId s);

  Fabric& fab_;
  std::vector<Station> stations_;
};

/// The paper-scale sweep's traffic: each station sends
/// `frames_per_station` 256-byte frames, `gap_base_us +
/// below(gap_span_us)` µs apart.  Even-numbered frames go to the station's
/// bit-reversal partner (or across the machine when it is its own
/// partner), odd-numbered ones to a uniform-random other station.
/// Requires stations >= 2.
[[nodiscard]] Schedule bit_reversal_uniform(int stations,
                                            int frames_per_station,
                                            std::uint64_t seed,
                                            std::uint64_t gap_base_us,
                                            std::uint64_t gap_span_us);

}  // namespace hpcvorx::hw
