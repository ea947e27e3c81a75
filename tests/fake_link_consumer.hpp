// A lambda-backed hw::LinkConsumer for tests that wire links by hand.
//
// A Link calls the consumer at each of its ends (a Cluster or an Endpoint
// in a built Fabric).  A test attaches one of these instead and says what
// each call does: `ready` on the sender side, `delivered` on the receiver
// side.  Either may stay empty.  The consumer must outlive the link's
// events, so declare it before running the simulator.
#pragma once

#include <functional>

#include "hw/link.hpp"

namespace hpcvorx::hw {

struct FakeLinkConsumer final : LinkConsumer {
  std::function<void(int port)> ready;
  std::function<void(int port)> delivered;

  void link_ready(int port) override {
    if (ready) ready(port);
  }
  void link_delivered(int port) override {
    if (delivered) delivered(port);
  }
};

}  // namespace hpcvorx::hw
