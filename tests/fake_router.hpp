// A lambda-backed hw::Router for tests that wire a cluster by hand.
//
// A Cluster asks its router where each unicast head goes (a Fabric in a
// built machine).  A test attaches one of these with set_router and says
// what each decision is in `decide`.  The router must outlive the
// cluster's events.
#pragma once

#include <functional>

#include "hw/cluster.hpp"

namespace hpcvorx::hw {

struct FakeRouter final : Router {
  std::function<Cluster::Route(const Frame& head)> decide;

  Cluster::Route route(int /*cluster*/, const Frame& head) override {
    return decide(head);
  }
};

}  // namespace hpcvorx::hw
