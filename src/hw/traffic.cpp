#include "hw/traffic.hpp"

#include <stdexcept>
#include <utility>

#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace hpcvorx::hw {

FabricTraffic::FabricTraffic(Fabric& fab, Schedule sends)
    : fab_(fab), stations_(static_cast<std::size_t>(fab.num_stations())) {
  if (sends.size() > stations_.size()) {
    throw std::invalid_argument("FabricTraffic: more send lists than stations");
  }
  for (StationId s = 0; s < fab.num_stations(); ++s) {
    const auto i = static_cast<std::size_t>(s);
    if (i < sends.size()) stations_[i].sends = std::move(sends[i]);
    fab.endpoint(s).set_rx_cb([this, s] { drain(s); });
    fab.endpoint(s).set_tx_ready_cb([this, s] { pump(s); });
  }
}

void FabricTraffic::start() {
  for (StationId s = 0; s < fab_.num_stations(); ++s) pump(s);
}

void FabricTraffic::pump(StationId s) {
  Station& st = stations_[static_cast<std::size_t>(s)];
  Endpoint& ep = fab_.endpoint(s);
  sim::Simulator& sim = fab_.station_sim(s);
  while (st.next < st.sends.size() && ep.tx_ready()) {
    Send& head = st.sends[st.next];
    if (sim.now() < head.at) {
      // vorx-lint: allow(R8) this driver outlives the run it posts into
      sim.post_at(head.at, [this, s] { pump(s); });
      return;
    }
    ep.transmit(std::move(head.frame));
    ++st.next;
  }
}

void FabricTraffic::drain(StationId s) {
  Endpoint& ep = fab_.endpoint(s);
  const sim::SimTime now = fab_.station_sim(s).now();
  std::vector<Delivery>& got = stations_[static_cast<std::size_t>(s)].got;
  while (auto f = ep.rx_take()) {
    got.push_back({f->src, f->hops, f->seq, f->group, f->injected_at, now});
  }
}

std::uint64_t FabricTraffic::sent() const {
  std::uint64_t n = 0;
  for (const Station& st : stations_) n += st.next;
  return n;
}

std::uint64_t FabricTraffic::delivered() const {
  std::uint64_t n = 0;
  for (const Station& st : stations_) n += st.got.size();
  return n;
}

Schedule bit_reversal_uniform(int stations, int frames_per_station,
                              std::uint64_t seed, std::uint64_t gap_base_us,
                              std::uint64_t gap_span_us) {
  if (stations < 2) {
    throw std::invalid_argument("bit_reversal_uniform: needs 2+ stations");
  }
  int bits = 0;
  while ((1 << bits) < stations) ++bits;
  Schedule sends(static_cast<std::size_t>(stations));
  sim::Rng rng(seed);
  for (int s = 0; s < stations; ++s) {
    int partner = 0;
    for (int b = 0; b < bits; ++b) partner |= ((s >> b) & 1) << (bits - 1 - b);
    partner %= stations;
    if (partner == s) partner = (s + stations / 2) % stations;
    sim::SimTime t = 0;
    for (int i = 0; i < frames_per_station; ++i) {
      t += sim::usec(static_cast<double>(gap_base_us + rng.below(gap_span_us)));
      Send send{t, Frame{}};
      send.frame.dst = partner;
      if (i % 2 == 1) {
        send.frame.dst = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(stations - 1)));
        if (send.frame.dst >= s) ++send.frame.dst;
      }
      send.frame.payload_bytes = 256;
      sends[static_cast<std::size_t>(s)].push_back(std::move(send));
    }
  }
  return sends;
}

}  // namespace hpcvorx::hw
