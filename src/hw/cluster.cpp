#include "hw/cluster.hpp"

#include <bit>

namespace hpcvorx::hw {

namespace {

void set_bit(std::uint64_t* set, int i) {
  set[static_cast<std::size_t>(i) / 64] |= std::uint64_t{1} << (i % 64);
}

void clear_bit(std::uint64_t* set, int i) {
  set[static_cast<std::size_t>(i) / 64] &= ~(std::uint64_t{1} << (i % 64));
}

// First set bit of `set` in [lo, hi), or -1.
int first_set(const std::uint64_t* set, int lo, int hi) {
  if (lo >= hi) return -1;
  auto w = static_cast<std::size_t>(lo) / 64;
  const auto last = static_cast<std::size_t>(hi - 1) / 64;
  std::uint64_t bits = set[w] & (~std::uint64_t{0} << (lo % 64));
  for (;;) {
    if (w == last) {
      const int keep = hi - static_cast<int>(last * 64);
      if (keep < 64) bits &= (std::uint64_t{1} << keep) - 1;
    }
    if (bits != 0) return static_cast<int>(w * 64) + std::countr_zero(bits);
    if (w == last) return -1;
    bits = set[++w];
  }
}

}  // namespace

Cluster::Cluster(sim::Simulator& sim, std::string name, int num_ports)
    : sim_(sim),
      name_(std::move(name)),
      ins_(static_cast<std::size_t>(num_ports)),
      outs_(static_cast<std::size_t>(num_ports)),
      words_((static_cast<std::size_t>(num_ports) + 63) / 64),
      masks_(static_cast<std::size_t>(num_ports + 4) * words_, 0) {}

// Consumes the head of `in_port`, closing its head-of-line wait span and
// opening one for the next frame (if any).  All cluster forwarding paths
// must take input frames through here so the blocked-time counter is exact
// and the head's cached route decision is retired with it.
Frame Cluster::take_input(int in_port) {
  Input& in = ins_[static_cast<std::size_t>(in_port)];
  if (in.hol_since >= 0) {
    hol_blocked_ += sim_.now() - in.hol_since;
    in.hol_since = -1;
  }
  unregister(in_port);
  in.route_ok = false;
  // The take notifies upstream synchronously, and that cascade can come
  // back into this switch before the take returns.  The nested arbiters
  // must see the next head exactly as a full scan would — and resolve it
  // there and then — so it is pending from the moment it is exposed.
  if (in.link->buffered() > 1) {
    set_bit(pending(), in_port);
  } else {
    clear_bit(pending(), in_port);
  }
  Frame f = *in.link->take();
  if (const Frame* next = in.link->peek()) {
    in.hol_since = sim_.now();
    if (next->group != 0) (void)mcast_ports(in_port, *next);
  }
  return f;
}

// Samples the cumulative forwarding counters after a forward completed.
void Cluster::sample_forwarded() {
  sim::CounterTimeline& ct = sim_.counters();
  if (!ct.enabled()) return;
  ct.sample(name_, "kbytes_forwarded", sim_.now(),
            static_cast<double>(bytes_fwd_) / 1e3);
  ct.sample(name_, "hol_blocked_us", sim_.now(), sim::to_usec(hol_blocked_));
}

// Samples the in-switch replica count for one group after a replication.
void Cluster::sample_mcast_copies(std::uint64_t gid) {
  sim::CounterTimeline& ct = sim_.counters();
  if (!ct.enabled()) return;
  ct.sample(name_, "mcast_copies.g" + std::to_string(gid), sim_.now(),
            static_cast<double>(mcast_copies_[gid]));
}

void Cluster::attach_in(int port, Link* in) {
  assert(port >= 0 && port < num_ports() &&
         ins_[static_cast<std::size_t>(port)].link == nullptr);
  ins_[static_cast<std::size_t>(port)].link = in;
  in->set_receiver(this, port);
}

void Cluster::attach_out(int port, Link* out) {
  assert(port >= 0 && port < num_ports() &&
         outs_[static_cast<std::size_t>(port)].link == nullptr);
  outs_[static_cast<std::size_t>(port)].link = out;
  set_port_ready(port, out->ready());
  out->set_sender(this, port);
}

void Cluster::set_multicast_route(std::uint64_t gid,
                                  std::vector<int> out_ports) {
  std::vector<int>& ports = mcast_routes_[gid];
  // Heads of the group already waiting sit in the old set's rows.
  std::vector<int> waiting;
  for (int p = 0; p < num_ports(); ++p) {
    if (ins_[static_cast<std::size_t>(p)].mcast == &ports) {
      unregister(p);
      waiting.push_back(p);
    }
  }
  ports = std::move(out_ports);
  for (const int p : waiting) {
    (void)mcast_ports(p, *ins_[static_cast<std::size_t>(p)].link->peek());
  }
}

const std::vector<int>& Cluster::mcast_ports(int in_port, const Frame& head) {
  Input& in = ins_[static_cast<std::size_t>(in_port)];
  if (in.mcast == nullptr) {
    const auto it = mcast_routes_.find(head.group);
    assert(it != mcast_routes_.end() &&
           "group frame at a cluster with no multicast route");
    in.mcast = &it->second;
    for (const int q : it->second) set_bit(row(q), in_port);
    clear_bit(pending(), in_port);
  }
  return *in.mcast;
}

void Cluster::unregister(int in_port) {
  Input& in = ins_[static_cast<std::size_t>(in_port)];
  if (in.row >= 0) {
    clear_bit(row(in.row), in_port);
    in.row = -1;
  }
  if (in.mcast != nullptr) {
    for (const int q : *in.mcast) clear_bit(row(q), in_port);
    in.mcast = nullptr;
  }
  clear_bit(movable(), in_port);
}

int Cluster::head_route(int in_port) {
  Input& in = ins_[static_cast<std::size_t>(in_port)];
  if (!in.route_ok) {
    const Frame* head = in.link->peek();
    assert(head != nullptr && "head_route with an empty input fifo");
    assert(route_fn_ && "cluster forwarding before set_route_fn");
    assert(head->dst >= 0);
    unregister(in_port);
    in.route = route_fn_(*head);
    in.route_ok = true;
    if (in.route.port >= 0) {
      in.row = in.route.port;
      set_bit(row(in.row), in_port);
      clear_bit(pending(), in_port);
      if (reroute_blocked_ && in.route.candidates != 0) {
        set_bit(movable(), in_port);
      }
    } else {
      set_bit(pending(), in_port);  // visited until dropped
    }
  }
  return in.route.port;
}

void Cluster::set_port_ready(int port, bool ready) {
  if (ready) {
    set_bit(ready_mask(), port);
  } else {
    clear_bit(ready_mask(), port);
  }
}

void Cluster::resync_ready() {
  for (int q = 0; q < num_ports(); ++q) {
    const Link* out = outs_[static_cast<std::size_t>(q)].link;
    set_port_ready(q, out != nullptr && out->ready());
  }
}

// Consumes the head of `in_port` as a routing-fault loss: unreachable
// destination after rerouting, or a restart() wiping the fifo.
void Cluster::drop_head(int in_port) {
  (void)take_input(in_port);
  ++frames_dropped_;
}

void Cluster::drop_unroutable(int in_port) {
  const Link* in = ins_[static_cast<std::size_t>(in_port)].link;
  while (const Frame* head = in->peek()) {
    if (head->group != 0 || head_route(in_port) >= 0) return;
    drop_head(in_port);
  }
}

void Cluster::restart() {
  for (int p = 0; p < num_ports(); ++p) {
    Input& in = ins_[static_cast<std::size_t>(p)];
    if (in.link == nullptr) continue;
    // Draining through take() (not take_input) keeps the upstream
    // flow-control exact — freed slots notify the sender / credit the peer
    // shard — while the head-of-line clocks simply reset.  A take can
    // cascade back into this switch; the nested arbiters visit the input
    // (pending) and see the cached decision of the wiped head, exactly as
    // a full scan would.
    while (in.link->peek() != nullptr) {
      unregister(p);
      set_bit(pending(), p);
      (void)in.link->take();
      ++frames_dropped_;
    }
    in.hol_since = -1;
    in.route_ok = false;
    unregister(p);
    clear_bit(pending(), p);
  }
  for (Output& o : outs_) o.rr_next = 0;
}

void Cluster::routes_changing() {
  resync_ready();
  for (int p = 0; p < num_ports(); ++p) {
    const Link* in = ins_[static_cast<std::size_t>(p)].link;
    if (in != nullptr && in->peek() != nullptr) set_bit(pending(), p);
  }
}

void Cluster::on_routes_changed() {
  resync_ready();
  // Every cached head decision may reference a dead route: retire them all
  // so the next touch re-resolves against the post-fault tables.
  for (int p = 0; p < num_ports(); ++p) {
    Input& in = ins_[static_cast<std::size_t>(p)];
    in.route_ok = false;
    unregister(p);
    const Frame* head = in.link == nullptr ? nullptr : in.link->peek();
    if (head == nullptr) {
      clear_bit(pending(), p);
    } else if (head->group != 0) {
      (void)mcast_ports(p, *head);
    } else {
      set_bit(pending(), p);
    }
  }
  for (int p = 0; p < num_ports(); ++p) {
    if (ins_[static_cast<std::size_t>(p)].link != nullptr) drop_unroutable(p);
  }
  for (int p = 0; p < num_ports(); ++p) {
    if (outs_[static_cast<std::size_t>(p)].link != nullptr) try_output(p);
  }
}

void Cluster::on_input(int in_port) {
  Input& in = ins_[static_cast<std::size_t>(in_port)];
  const Frame* head = in.link->peek();
  if (head == nullptr) return;  // already forwarded by a nested callback
  // Open the head-of-line wait span now; take_input closes it (a frame
  // forwarded within this event cascade accrues zero, as time stands still).
  if (in.hol_since < 0) in.hol_since = sim_.now();
  serve_head(in_port);
}

void Cluster::serve_head(int in_port, int skip_out) {
  const Frame* head = ins_[static_cast<std::size_t>(in_port)].link->peek();
  if (head == nullptr) return;
  if (head->group != 0) {
    forward_head(in_port);
    return;
  }
  const int r = head_route(in_port);
  if (r < 0) {
    drop_unroutable(in_port);
  } else if (r != skip_out) {
    try_output(r);
  }
}

// Attempts to replicate the multicast head frame of `in_port`.  Returns
// true if the head was consumed.
bool Cluster::forward_head(int in_port) {
  const Link* in = ins_[static_cast<std::size_t>(in_port)].link;
  const Frame* head = in->peek();
  assert(head != nullptr && head->group != 0);
  // Hardware multicast: the frame is replicated to every port in the
  // group's replication set, and may proceed only when *all* of them can
  // accept a whole frame (replication cannot be half-done).  A claimed
  // port counts as busy: a forward further up the stack has checked its
  // free slot and sends on it once its input take returns.
  const std::vector<int>& ports = mcast_ports(in_port, *head);
  for (const int p : ports) {
    if (outs_[static_cast<std::size_t>(p)].claim != 0 || !port_ready(p)) {
      return false;
    }
  }
  // Hold every replication port across the take: its upstream-notify
  // cascade must not re-enter their arbiters and steal a checked slot.
  for (const int p : ports) {
    ++outs_[static_cast<std::size_t>(p)].hold;
    ++outs_[static_cast<std::size_t>(p)].claim;
  }
  Frame f = take_input(in_port);
  ++f.hops;
  for (const int p : ports) {
    Link* out = outs_[static_cast<std::size_t>(p)].link;
    ++forwarded_;
    bytes_fwd_ += f.wire_bytes();
    out->send(f);
    set_port_ready(p, out->ready());
  }
  for (const int p : ports) {
    --outs_[static_cast<std::size_t>(p)].hold;
    --outs_[static_cast<std::size_t>(p)].claim;
  }
  // Replica accounting: k output ports -> k counted above, and the same k
  // attributed to the frame's group (see the invariant in cluster.hpp).
  const auto copies = static_cast<std::uint64_t>(ports.size());
  mcast_copies_[f.group] += copies;
  mcast_copies_total_ += copies;
  sample_forwarded();
  sample_mcast_copies(f.group);
  // The next head may be unicast or multicast; give it a chance now.
  serve_head(in_port);
  return true;
}

void Cluster::collect_candidates(int out_port) {
  std::uint64_t* cand = walk();
  const std::uint64_t* wants = row(out_port);
  const std::uint64_t* pend = pending();
  for (std::size_t w = 0; w < words_; ++w) cand[w] = wants[w] | pend[w];
  // Blocked heads elsewhere: a rip-up re-resolves them, and is a no-op —
  // so the visit can be skipped — exactly when the decision is fixed, or
  // already on its escape port while none of its candidates is ready
  // (the route function then returns the escape port again).
  const std::uint64_t* mov = movable();
  const std::uint64_t ready_low = ready_mask()[0];
  for (std::size_t w = 0; w < words_; ++w) {
    for (std::uint64_t bits = mov[w] & ~cand[w]; bits != 0; bits &= bits - 1) {
      const int p = static_cast<int>(w * 64) + std::countr_zero(bits);
      const Route& r = ins_[static_cast<std::size_t>(p)].route;
      if (port_ready(r.port)) continue;
      if (r.candidates == kAnyPort || (r.candidates & ready_low) != 0 ||
          r.port != r.escape) {
        set_bit(cand, p);
      }
    }
  }
}

int Cluster::next_candidate(int start, int from) {
  // Offsets [0, n - start) are ports [start, n); the rest wrap to [0, start).
  const int n = num_ports();
  const std::uint64_t* cand = walk();
  if (from < n - start) {
    const int p = first_set(cand, start + from, n);
    if (p >= 0) return p - start;
    from = n - start;
  }
  const int p = first_set(cand, from - (n - start), start);
  return p >= 0 ? p + (n - start) : n;
}

void Cluster::try_output(int out_port) {
  Output& o = outs_[static_cast<std::size_t>(out_port)];
  Link* out = o.link;
  if (out == nullptr) return;
  // Ready-mask sync point: an output link turns ready only through this
  // callback, and turns busy only on our own send (or a fault, which
  // reroutes and resyncs).
  set_port_ready(out_port, out->ready());
  // A held port is mid-forward further up the call stack (see
  // Output::hold): bail out rather than race it for the slot; the holder
  // rescans.
  if (o.hold != 0) return;
  ++o.hold;
  const struct Release {
    int* hold;
    ~Release() { --*hold; }
  } release{&o.hold};
  // Keep forwarding while the output link can accept frames and some input
  // port's head-of-line frame routes here.  The walk starts at the
  // round-robin cursor so all inputs get fair service under contention,
  // and visits, in that order, exactly the inputs whose visit can change
  // something: heads that want this port, pending heads, and blocked heads
  // a rip-up can move.  Calls that can cascade (a replication, a drop)
  // may change any of that, so the candidate set is rebuilt after them.
  const int n = num_ports();
  while (out->ready()) {
    const int start = o.rr_next;
    collect_candidates(out_port);
    int chosen = -1;
    int i = next_candidate(start, 0);
    while (i < n) {
      const int p = start + i < n ? start + i : start + i - n;
      Input& in = ins_[static_cast<std::size_t>(p)];
      const Frame* head = in.link == nullptr ? nullptr : in.link->peek();
      if (head == nullptr) {
        clear_bit(pending(), p);
        i = next_candidate(start, i + 1);
        continue;
      }
      if (head->group != 0) {
        // A multicast head whose replication set includes this port may
        // now be able to go (this port just became ready).
        (void)mcast_ports(p, *head);
        if (test(row(out_port), p) && forward_head(p)) {
          if (!out->ready()) return;
          collect_candidates(out_port);
        }
        i = next_candidate(start, i + 1);
        continue;
      }
      int r = head_route(p);
      if (r >= 0 && r != out_port && reroute_blocked_ && !port_ready(r)) {
        // Rip-up: the head committed to a port that cannot accept it now
        // while this one can — re-resolve against current occupancy (see
        // set_reroute_blocked_heads).
        in.route_ok = false;
        r = head_route(p);
      }
      if (r < 0) {
        // Destination became unreachable while the frame queued: drop it
        // and re-examine this input's new head.
        drop_unroutable(p);
        collect_candidates(out_port);
        i = next_candidate(start, i);
        continue;
      }
      if (r == out_port) {
        chosen = p;
        break;
      }
      i = next_candidate(start, i + 1);
    }
    if (chosen < 0) return;
    // A replication nested in the walk (only unicast arbitration is held
    // off) may have used this port's slot; the holder's next ready
    // callback rescans.
    if (!out->ready()) return;
    o.rr_next = chosen + 1 == n ? 0 : chosen + 1;
    ++o.claim;
    Frame f = take_input(chosen);  // frees the input slot upstream
    --o.claim;
    ++f.hops;
    ++forwarded_;
    bytes_fwd_ += f.wire_bytes();
    out->send(std::move(f));
    set_port_ready(out_port, out->ready());
    sample_forwarded();
    // Head-of-line unblocking: the frame now at the head of this input may
    // route to a *different* output that has been idle all along (so its
    // ready callback will never fire).  Kick that output's arbiter.
    serve_head(chosen, out_port);
  }
}

}  // namespace hpcvorx::hw
