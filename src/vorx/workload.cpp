#include "vorx/workload.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "vorx/node.hpp"
#include "vorx/stub.hpp"

namespace hpcvorx::vorx {

namespace {

// ---- deterministic transcendentals ---------------------------------------
//
// The samplers below need ln and exp.  libm's versions are not specified
// bit-for-bit across platforms, and <cmath> is off-limits in src/ anyway
// (vorx-lint R1's spirit: no environment-dependent numerics in the
// deterministic core).  These use only +,-,*,/ — exactly rounded under
// IEEE 754 — so the same inputs give the same doubles everywhere.

// Natural log of u in (0, 1]: range-reduce to m in [1,2) by halving the
// exponent, then the atanh series ln(m) = 2*(z + z^3/3 + ...) with
// z = (m-1)/(m+1), |z| < 1/3 (15 terms are plenty for these samplers).
double det_ln(double u) {
  assert(u > 0.0 && u <= 1.0);
  int e = 0;
  while (u < 1.0) {
    u *= 2.0;
    --e;
  }
  if (u >= 2.0) {  // u == 1.0 before scaling
    u *= 0.5;
    ++e;
  }
  const double z = (u - 1.0) / (u + 1.0);
  const double z2 = z * z;
  double term = z;
  double sum = 0.0;
  for (int k = 1; k <= 29; k += 2) {
    sum += term / k;
    term *= z2;
  }
  constexpr double kLn2 = 0.6931471805599453;
  return 2.0 * sum + static_cast<double>(e) * kLn2;
}

// e^x for x >= 0 (bounded ~60 here): integer part by repeated
// multiplication, fractional part by the Taylor series.
double det_exp(double x) {
  assert(x >= 0.0);
  int n = static_cast<int>(x);
  const double f = x - static_cast<double>(n);
  double num = 1.0;
  double sum = 1.0;
  for (int k = 1; k <= 17; ++k) {
    num = num * f / static_cast<double>(k);
    sum += num;
  }
  constexpr double kE = 2.718281828459045;
  double en = 1.0;
  for (; n > 0; --n) en *= kE;
  return en * sum;
}

// Uniform (0, 1]: never returns 0, so ln is always defined.
double unit_open(sim::Rng& rng) {
  const double u = rng.uniform();
  return u > 0.0 ? u : 0x1.0p-53;
}

// Exponential with the given mean, in integer ns, clamped to [1, cap].
sim::Duration sample_exp(sim::Rng& rng, sim::Duration mean,
                         sim::Duration cap) {
  const double v = -det_ln(unit_open(rng)) * static_cast<double>(mean);
  auto d = static_cast<sim::Duration>(v + 0.5);
  if (d < 1) d = 1;
  if (d > cap) d = cap;
  return d;
}

// Pareto(xm, alpha) in integer ns, truncated at cap: xm * U^(-1/alpha)
// computed as xm * exp(-ln(U)/alpha).
sim::Duration sample_pareto(sim::Rng& rng, sim::Duration xm, double alpha,
                            sim::Duration cap) {
  const double e = -det_ln(unit_open(rng)) / alpha;
  const double v = static_cast<double>(xm) * det_exp(e);
  if (v >= static_cast<double>(cap)) return cap;
  auto d = static_cast<sim::Duration>(v + 0.5);
  if (d < xm) d = xm;
  return d;
}

// ---- the fixed traffic shape (DESIGN.md §14.1) ----------------------------
//
// Only the user count and the horizon vary between runs (WorkloadConfig);
// everything else about a conference day is fixed here.

// Offered load.
constexpr double kSessionsPerUser = 1.0;  // mean sessions each user originates
constexpr int kMinMembers = 2;            // conference size drawn uniform in
constexpr int kMaxMembers = 6;            //   [kMinMembers, kMaxMembers] nodes
// Diurnal modulation: arrival rate ramps linearly from (1 - swing) of the
// mean at the horizon's edges to (1 + swing) at its midpoint — a
// triangle-wave "busy hour" (integer arithmetic; no libm in the path).
constexpr double kDiurnalSwing = 0.4;

// Talk spurts (heavy-tailed: Pareto, the classic voice model).
constexpr int kMinSpurts = 1;  // spurts per session, uniform
constexpr int kMaxSpurts = 5;
constexpr sim::Duration kSpurtGap = sim::msec(20);  // mean silence between
constexpr sim::Duration kGapCap = 20 * kSpurtGap;   // gaps truncated here
constexpr sim::Duration kSpurtXm = sim::msec(40);   // Pareto scale (minimum)
constexpr double kSpurtAlpha = 1.6;  // Pareto shape (infinite variance < 2)
constexpr sim::Duration kSpurtCap = sim::sec(2);        // truncation
constexpr sim::Duration kFrameInterval = sim::msec(40);  // media frame spacing
constexpr std::uint32_t kFrameBytes = 160;  // per media frame (timing only;
                                            // no payload carried)

// Membership churn: P(a non-root member leaves mid-session).
constexpr double kChurnProb = 0.15;

// Control-plane budget (the recovery contracts, DESIGN.md §14).  Budgets
// must cover the worst-case control RTT on the biggest machine (a ~2^7
// cube at 50 us per cable, plus convergecast queueing at the hosts) —
// too-tight timeouts turn a load spike into a retry spiral.
constexpr sim::Duration kAllocTimeout = sim::msec(15);  // per-attempt reply
constexpr int kAllocAttempts = 3;  // hosts tried before the join fails
constexpr sim::Duration kInviteTimeout = sim::msec(15);  // per-round accepts
constexpr int kInviteRounds = 2;   // rounds before non-responders are pruned
constexpr int kHostSlots = 4096;   // session slots per host workstation
// Watchdog: a session not done by start + ttl is LOST (a bug).
constexpr sim::Duration kSessionTtl = sim::sec(3);

// The watchdog must never fire on a healthy session, so its delay is at
// least the longest possible life, bounded from the control-plane budgets
// and the spurt caps.
constexpr sim::Duration kTtlEff = std::max(
    kSessionTtl, kAllocAttempts * kAllocTimeout +
                     kInviteRounds * kInviteTimeout +
                     static_cast<sim::Duration>(kMaxSpurts) *
                         (kGapCap + kSpurtCap + kFrameInterval) +
                     sim::msec(50));

// Virtual time at which a run over `horizon` stops: every watchdog has
// fired by then.
constexpr sim::SimTime run_end(sim::Duration horizon) {
  return horizon + kTtlEff + sim::msec(10);
}

// No latency sample exceeds the run's end time, so a horizon whose run
// ends by here keeps every sample within 32-bit microseconds.
constexpr sim::SimTime kMaxRunEnd =
    static_cast<sim::SimTime>(std::numeric_limits<std::uint32_t>::max()) *
        sim::kMicrosecond +
    (sim::kMicrosecond - 1);

// `cfg` when its latencies fit the samples' 32-bit microseconds; throws
// std::invalid_argument naming the longest horizon that fits otherwise.
WorkloadConfig checked(WorkloadConfig cfg) {
  if (cfg.horizon > kMaxRunEnd - run_end(0)) {
    throw std::invalid_argument(
        "vorx::WorkloadGen: horizon " +
        std::to_string(cfg.horizon / sim::kMillisecond) +
        " ms would let latencies overflow the 32-bit microsecond samples "
        "(about 71 min of virtual time); set WorkloadConfig::horizon to at "
        "most " +
        std::to_string((kMaxRunEnd - run_end(0)) / sim::kMillisecond) +
        " ms");
  }
  return cfg;
}

}  // namespace

std::uint32_t latency_us(sim::Duration ns) {
  assert(ns >= 0 && ns <= kMaxRunEnd);
  return static_cast<std::uint32_t>(ns / sim::kMicrosecond);
}

std::int64_t percentile_us(std::span<std::uint32_t> samples, int pct) {
  if (samples.empty()) return -1;
  const auto k =
      samples.begin() + static_cast<std::ptrdiff_t>(
                            sim::nearest_rank_index(samples.size(), pct));
  std::nth_element(samples.begin(), k, samples.end());
  return *k;
}

// ---- pre-generated session descriptors -----------------------------------

namespace {

struct SpurtDesc {
  sim::Duration gap = 0;  // silence before the spurt
  int frames = 1;         // media frames in the spurt
};

// A list of at most N entries, stored in place.  Every per-session list is
// bounded by the fixed traffic shape (kMaxMembers - 1 members, kMaxSpurts
// spurts), so a heap block per list — one per session and list, live for
// the whole run — would cost more than the entries themselves.
template <typename T, std::size_t N>
class InlineList {
 public:
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] T* begin() { return items_.data(); }
  [[nodiscard]] T* end() { return items_.data() + n_; }
  [[nodiscard]] const T* begin() const { return items_.data(); }
  [[nodiscard]] const T* end() const { return items_.data() + n_; }
  [[nodiscard]] T& operator[](std::size_t i) {
    assert(i < n_);
    return items_[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < n_);
    return items_[i];
  }

  void push_back(const T& v) {
    assert(n_ < N && "InlineList is full");
    items_[n_++] = v;
  }
  /// Replaces the contents with `n` copies of `v`.
  void assign(std::size_t n, const T& v) {
    assert(n <= N);
    std::fill_n(items_.begin(), n, v);
    n_ = static_cast<std::uint8_t>(n);
  }
  /// Removes the entry at `pos`, keeping the others' order.
  void erase(const T* pos) {
    T* at = begin() + (pos - begin());
    std::move(at + 1, end(), at);
    --n_;
  }
  void clear() { n_ = 0; }

 private:
  static_assert(N <= 255, "the count is one byte");
  std::array<T, N> items_{};
  std::uint8_t n_ = 0;
};

constexpr std::size_t kMaxOthers = kMaxMembers - 1;  // members besides root

// Session state lives in dense per-node tables: every session owns one
// root-table slot on its root node and one member-table slot on each member
// node, numbered at generation time.  Invite, data and bye frames carry the
// member's slot in Frame::seq (unused by session frames otherwise), so the
// member side indexes its table directly.
struct SessionDesc {
  std::uint64_t id = 0;
  sim::SimTime start = 0;
  int root = 0;                   // root node index
  std::uint32_t root_slot = 0;    // slot in the root node's root table
  // Other member node indices (unique), and parallel to them each
  // member's slot in that node's member table.
  InlineList<int, kMaxOthers> members;
  InlineList<std::uint32_t, kMaxOthers> member_slot;
  InlineList<SpurtDesc, kMaxSpurts> spurts;
  // Churn: (position in members, leave offset from session activation).
  InlineList<std::pair<std::size_t, sim::Duration>, kMaxOthers> leaves;
};

// Root-side session phases.  kDone/kFailed/kLost are terminal; the slot is
// cleared once counted, so the watchdog treats "slot still live" as
// not-yet-resolved.
enum Phase : int { kAllocating = 0, kInviting = 1, kActive = 2 };

// A member still in an active conference: where to send its frames.
struct LiveMember {
  int node = 0;            // member node index
  std::uint32_t slot = 0;  // its slot in that node's member table
};

struct RootSession {
  const SessionDesc* desc = nullptr;  // null: not started, or resolved
  int phase = kAllocating;
  std::uint32_t epoch = 0;  // invalidates outstanding control timers
  int attempt = 0;          // allocation attempts made
  hw::StationId host = -1;  // granted host station (-1 = none)
  int round = 0;            // invite rounds completed
  InlineList<char, kMaxOthers> accepted;    // parallel to desc->members
  InlineList<LiveMember, kMaxOthers> live;  // members still in the call
  std::size_t spurt = 0;
  int frames_left = 0;
};

// One item of a lazy feed (see Impl::Feed): a pre-computed event with the
// queue position it reserved.
enum class FeedKind : std::uint8_t { kStart, kWatchdog, kLeave, kMemberGc };

struct FeedItem {
  sim::SimTime at = 0;
  sim::EventTicket ticket;
  std::uint64_t sid = 0;
  int node = 0;            // agent the item acts on
  std::uint32_t slot = 0;  // member-table slot (kLeave, kMemberGc)
  FeedKind kind = FeedKind::kStart;
};

}  // namespace

// ---- agents ---------------------------------------------------------------

struct WorkloadGen::Impl {
  // A lazy event stream: items in (time, seq) order, of which only the head
  // is in the event queue, posted on the ticket the item reserved when the
  // stream was fed.  Each fire posts the next head before acting, so every
  // item fires exactly where an eager post at reservation time would have
  // — same-instant ties included — while the queue holds one entry per
  // stream instead of one per item.
  struct Feed {
    Feed() = default;
    Feed(const Feed&) = delete;  // the queued head's callback holds `this`
    Feed& operator=(const Feed&) = delete;

    Impl* impl = nullptr;
    sim::Simulator* sim = nullptr;
    std::deque<FeedItem> items;

    // Appends an item that orders after every one already fed.
    void append(const FeedItem& it) {
      items.push_back(it);
      if (items.size() == 1) post_head();
    }
    // Orders items fed out of order straight into `items`, then queues
    // the head.
    void start() {
      std::sort(items.begin(), items.end(),
                [](const FeedItem& a, const FeedItem& b) {
                  return a.at != b.at ? a.at < b.at
                                      : a.ticket.seq < b.ticket.seq;
                });
      if (!items.empty()) post_head();
    }
    void post_head() {
      sim->post_at(items.front().at, items.front().ticket, [this] {
        const FeedItem it = items.front();
        items.pop_front();
        if (!items.empty()) post_head();
        impl->fire(it);
      });
    }
  };

  struct NodeAgent {
    Node* node = nullptr;
    int index = 0;
    std::vector<RootSession> roots;  // by SessionDesc::root_slot
    std::vector<char> member_in;     // by member slot: 1 while a member
    Feed member_gc_feed;             // member-side GC deadlines
    Feed* arrivals = nullptr;        // this node's simulator's arrival feed
    std::vector<std::uint32_t> join_lat;   // latency_us samples
    std::vector<std::uint32_t> deliv_lat;
    // (time, +1/-1) activation log for the concurrent-sessions peak.
    std::vector<std::pair<sim::SimTime, int>> active_log;
    std::uint64_t completed = 0;
    std::uint64_t failed_joins = 0;
    std::uint64_t lost = 0;
    std::uint64_t alloc_attempts = 0;
    std::uint64_t alloc_denied = 0;
    std::uint64_t alloc_timeouts = 0;
    std::uint64_t late_grants_freed = 0;
    std::uint64_t invites_sent = 0;
    std::uint64_t reinvite_rounds = 0;
    std::uint64_t members_joined = 0;
    std::uint64_t members_pruned = 0;
    std::uint64_t churn_leaves = 0;
    std::uint64_t member_gc = 0;
    std::uint64_t data_sent = 0;
    std::uint64_t data_delivered = 0;
  };

  struct HostAgent {
    Node* node = nullptr;
    int index = 0;
    bool crashed = false;
    // sid -> stub, ordered so a crash kills stubs in ascending sid order.
    std::map<std::uint64_t, std::uint64_t> slots;
    std::uint64_t granted = 0;
    std::uint64_t killed = 0;
  };

  Impl(System& sys, WorkloadConfig cfg, std::uint64_t seed);

  void install();
  void generate(std::uint64_t seed);
  void schedule();
  void fire(const FeedItem& it);

  // Root-side state machine.
  void start_session(NodeAgent& ag, std::uint64_t sid);
  void send_alloc(NodeAgent& ag, RootSession& rs);
  void on_alloc_reply(NodeAgent& ag, const hw::Frame& f);
  void start_invites(NodeAgent& ag, RootSession& rs, bool resend_only);
  void on_accept(NodeAgent& ag, const hw::Frame& f);
  void invite_timeout(NodeAgent& ag, std::uint64_t sid, std::uint32_t epoch);
  void activate(NodeAgent& ag, RootSession& rs);
  void spurt_step(NodeAgent& ag, std::uint64_t sid, std::uint32_t epoch);
  void on_leave(NodeAgent& ag, const hw::Frame& f);
  void finish(NodeAgent& ag, std::uint64_t sid);
  void fail_join(NodeAgent& ag, std::uint64_t sid);
  void watchdog(NodeAgent& ag, std::uint64_t sid);

  // Member side.
  void on_invite(NodeAgent& ag, const hw::Frame& f);
  void on_data(NodeAgent& ag, const hw::Frame& f);
  void on_bye(NodeAgent& ag, const hw::Frame& f);
  void member_leave(NodeAgent& ag, std::uint32_t slot, std::uint64_t sid);

  // Host side.
  void on_alloc_req(HostAgent& h, const hw::Frame& f);
  void on_alloc_free(HostAgent& h, const hw::Frame& f);
  void set_host_crashed(int host, bool crashed);

  void send_free(NodeAgent& ag, hw::StationId host, std::uint64_t sid);

  // The root-table slot of session `sid` on its root node `ag`, or null
  // when the session has not started or is already resolved.
  [[nodiscard]] RootSession* live_root(NodeAgent& ag, std::uint64_t sid) {
    const SessionDesc& d = descs[sid - 1];
    assert(d.root == ag.index);
    RootSession& rs = ag.roots[d.root_slot];
    return rs.desc != nullptr ? &rs : nullptr;
  }
  // Clears a resolved session's root slot (and frees its vectors).
  static void resolve(RootSession& rs) { rs = RootSession{}; }

  [[nodiscard]] sim::SimTime end_time() const { return run_end(cfg.horizon); }

  System& sys;
  WorkloadConfig cfg;
  std::vector<SessionDesc> descs;
  std::vector<std::unique_ptr<NodeAgent>> node_agents;
  std::vector<std::unique_ptr<HostAgent>> host_agents;
  std::vector<std::unique_ptr<Feed>> arrival_feeds;  // one per simulator
};

WorkloadGen::Impl::Impl(System& s, WorkloadConfig c, std::uint64_t seed)
    : sys(s), cfg(std::move(c)) {
  install();
  generate(seed);
  schedule();
}

// Pre-generates every session descriptor from one linear Rng stream.  The
// result depends only on (cfg, seed) — never on shard count or on anything
// the machine does — so the offered load is identical across engines.
// Also numbers each session's root and member slots and sizes the agents'
// session tables to match.
void WorkloadGen::Impl::generate(std::uint64_t seed) {
  sim::Rng rng(seed);
  const int nodes = sys.num_nodes();
  std::vector<std::uint32_t> root_slots(static_cast<std::size_t>(nodes), 0);
  std::vector<std::uint32_t> member_slots(static_cast<std::size_t>(nodes), 0);
  const double mean_members =
      (static_cast<double>(kMinMembers) + kMaxMembers) / 2.0;
  const double expected =
      static_cast<double>(cfg.users) * kSessionsPerUser / mean_members;
  if (expected <= 0.0 || cfg.horizon <= 0) return;
  const double horizon_ns = static_cast<double>(cfg.horizon);
  const double rate_mean = expected / horizon_ns;       // arrivals per ns
  const double rate_max = rate_mean * (1.0 + kDiurnalSwing);

  double t = 0.0;
  std::uint64_t next_id = 1;
  while (true) {
    // Homogeneous candidates at rate_max, thinned to the diurnal curve.
    t += -det_ln(unit_open(rng)) / rate_max;
    if (t >= horizon_ns) break;
    // Triangle wave: 0 at the edges of the horizon, 1 at its midpoint.
    const double x = t / horizon_ns;
    const double tri = 1.0 - (x < 0.5 ? 1.0 - 2.0 * x : 2.0 * x - 1.0);
    const double accept =
        (1.0 - kDiurnalSwing + 2.0 * kDiurnalSwing * tri) /
        (1.0 + kDiurnalSwing);
    if (!rng.chance(accept)) continue;

    SessionDesc d;
    d.id = next_id++;
    d.start = static_cast<sim::SimTime>(t);
    d.root = static_cast<int>(rng.below(static_cast<std::uint64_t>(nodes)));
    d.root_slot = root_slots[static_cast<std::size_t>(d.root)]++;
    const int want = static_cast<int>(
        rng.range(kMinMembers, kMaxMembers));
    const int size = std::min(want, nodes);  // distinct nodes available
    while (static_cast<int>(d.members.size()) < size - 1) {
      const int m =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(nodes)));
      if (m == d.root) continue;
      if (std::find(d.members.begin(), d.members.end(), m) !=
          d.members.end()) {
        continue;
      }
      d.members.push_back(m);
      d.member_slot.push_back(member_slots[static_cast<std::size_t>(m)]++);
    }
    const int nspurts =
        static_cast<int>(rng.range(kMinSpurts, kMaxSpurts));
    sim::Duration nominal = 0;
    for (int i = 0; i < nspurts; ++i) {
      SpurtDesc sp;
      sp.gap = sample_exp(rng, kSpurtGap, kGapCap);
      const sim::Duration len =
          sample_pareto(rng, kSpurtXm, kSpurtAlpha, kSpurtCap);
      sp.frames = 1 + static_cast<int>(len / kFrameInterval);
      nominal += sp.gap + static_cast<sim::Duration>(sp.frames) *
                              kFrameInterval;
      d.spurts.push_back(sp);
    }
    for (std::size_t i = 0; i < d.members.size(); ++i) {
      if (rng.chance(kChurnProb) && nominal > 0) {
        d.leaves.push_back(
            {i, static_cast<sim::Duration>(
                    rng.below(static_cast<std::uint64_t>(nominal)))});
      }
    }
    descs.push_back(std::move(d));
  }
  for (std::size_t i = 0; i < node_agents.size(); ++i) {
    node_agents[i]->roots.resize(root_slots[i]);
    node_agents[i]->member_in.assign(member_slots[i], 0);
  }
}

void WorkloadGen::Impl::install() {
  node_agents.reserve(static_cast<std::size_t>(sys.num_nodes()));
  for (int i = 0; i < sys.num_nodes(); ++i) {
    auto ag = std::make_unique<NodeAgent>();
    ag->node = &sys.node(i);
    ag->index = i;
    sim::Simulator* sim = &ag->node->simulator();
    ag->member_gc_feed.impl = this;
    ag->member_gc_feed.sim = sim;
    // One arrival feed per simulator, shared by every node it runs.
    for (const std::unique_ptr<Feed>& f : arrival_feeds) {
      if (f->sim == sim) ag->arrivals = f.get();
    }
    if (ag->arrivals == nullptr) {
      arrival_feeds.push_back(std::make_unique<Feed>());
      ag->arrivals = arrival_feeds.back().get();
      ag->arrivals->impl = this;
      ag->arrivals->sim = sim;
    }
    NodeAgent* a = ag.get();
    Kernel& k = a->node->kernel();
    k.register_handler(msg::kAllocReply,
                       [this, a](hw::Frame f) { on_alloc_reply(*a, f); });
    k.register_handler(msg::kSessInvite,
                       [this, a](hw::Frame f) { on_invite(*a, f); });
    k.register_handler(msg::kSessAccept,
                       [this, a](hw::Frame f) { on_accept(*a, f); });
    k.register_handler(msg::kSessData,
                       [this, a](hw::Frame f) { on_data(*a, f); });
    k.register_handler(msg::kSessLeave,
                       [this, a](hw::Frame f) { on_leave(*a, f); });
    k.register_handler(msg::kSessBye,
                       [this, a](hw::Frame f) { on_bye(*a, f); });
    node_agents.push_back(std::move(ag));
  }
  host_agents.reserve(static_cast<std::size_t>(sys.num_hosts()));
  for (int j = 0; j < sys.num_hosts(); ++j) {
    auto hg = std::make_unique<HostAgent>();
    hg->node = &sys.host(j);
    hg->index = j;
    HostAgent* h = hg.get();
    Kernel& k = h->node->kernel();
    k.register_handler(msg::kAllocReq,
                       [this, h](hw::Frame f) { on_alloc_req(*h, f); });
    k.register_handler(msg::kAllocFree,
                       [this, h](hw::Frame f) { on_alloc_free(*h, f); });
    host_agents.push_back(std::move(hg));
  }
}

// Feeds every session start, root watchdog, and churn departure to the
// arrival feed of the owning node's own simulator — the only
// cross-shard-safe way to seed work (R7: cross-shard effects travel only in
// link frames).  Tickets are reserved in the order the events would have
// been posted eagerly, so each fires in its eager (time, seq) slot while
// the queue holds one arrival per simulator.
void WorkloadGen::Impl::schedule() {
  for (const SessionDesc& d : descs) {
    NodeAgent& root = *node_agents[static_cast<std::size_t>(d.root)];
    sim::Simulator& rsim = root.node->simulator();
    root.arrivals->items.push_back(
        {d.start, rsim.reserve(), d.id, d.root, 0, FeedKind::kStart});
    root.arrivals->items.push_back({d.start + kTtlEff, rsim.reserve(), d.id,
                                    d.root, 0, FeedKind::kWatchdog});
    for (const auto& [i, offset] : d.leaves) {
      NodeAgent& mem = *node_agents[static_cast<std::size_t>(d.members[i])];
      // Earliest the member could be active; if the invite never arrived
      // (faults) the leave finds no local session and is a no-op.
      const sim::SimTime leave_at =
          d.start + kAllocTimeout + kInviteTimeout + offset;
      mem.arrivals->items.push_back({leave_at, mem.node->simulator().reserve(),
                                     d.id, mem.index, d.member_slot[i],
                                     FeedKind::kLeave});
    }
  }
  for (const std::unique_ptr<Feed>& f : arrival_feeds) f->start();
}

void WorkloadGen::Impl::fire(const FeedItem& it) {
  NodeAgent& ag = *node_agents[static_cast<std::size_t>(it.node)];
  switch (it.kind) {
    case FeedKind::kStart:
      start_session(ag, it.sid);
      break;
    case FeedKind::kWatchdog:
      watchdog(ag, it.sid);
      break;
    case FeedKind::kLeave:
      member_leave(ag, it.slot, it.sid);
      break;
    case FeedKind::kMemberGc:
      // Member-side GC: reclaim the slot if the bye never came.
      if (ag.member_in[it.slot] != 0) {
        ag.member_in[it.slot] = 0;
        ++ag.member_gc;
      }
      break;
  }
}

// ---- root-side state machine ----------------------------------------------

void WorkloadGen::Impl::start_session(NodeAgent& ag, std::uint64_t sid) {
  RootSession& rs = ag.roots[descs[sid - 1].root_slot];
  rs.desc = &descs[sid - 1];
  rs.accepted.assign(rs.desc->members.size(), 0);
  send_alloc(ag, rs);
}

void WorkloadGen::Impl::send_alloc(NodeAgent& ag, RootSession& rs) {
  if (rs.attempt >= kAllocAttempts) {
    fail_join(ag, rs.desc->id);
    return;
  }
  const std::uint64_t sid = rs.desc->id;
  const int host_ix = static_cast<int>(
      (sid + static_cast<std::uint64_t>(rs.attempt)) %
      static_cast<std::uint64_t>(sys.num_hosts()));
  ++ag.alloc_attempts;
  hw::Frame f;
  f.kind = msg::kAllocReq;
  f.dst = sys.host_station(host_ix);
  f.obj = sid;
  f.seq = static_cast<std::uint64_t>(rs.attempt);
  ag.node->kernel().send(std::move(f));
  const std::uint32_t e = ++rs.epoch;
  // vorx-lint: allow(R8) ag lives in Impl's per-node table for the whole run
  ag.node->simulator().post_after(kAllocTimeout, [this, &ag, sid, e] {
    RootSession* r = live_root(ag, sid);
    if (r == nullptr || r->phase != kAllocating || r->epoch != e) return;
    ++ag.alloc_timeouts;
    ++r->attempt;
    send_alloc(ag, *r);
  });
}

void WorkloadGen::Impl::on_alloc_reply(NodeAgent& ag, const hw::Frame& f) {
  const std::uint64_t sid = f.obj;
  const bool grant = f.aux == 1;
  RootSession* r = live_root(ag, sid);
  if (r == nullptr || r->phase != kAllocating ||
      f.seq != static_cast<std::uint64_t>(r->attempt)) {
    // Late or duplicate reply.  A late *grant* holds a slot nobody will
    // ever use — release it (the §3.1 explicit-free contract).
    if (grant && (r == nullptr || r->host != f.src)) {
      ++ag.late_grants_freed;
      send_free(ag, f.src, sid);
    }
    return;
  }
  RootSession& rs = *r;
  ++rs.epoch;  // cancel the attempt timer
  if (!grant) {
    ++ag.alloc_denied;
    ++rs.attempt;
    send_alloc(ag, rs);
    return;
  }
  rs.host = f.src;
  rs.phase = kInviting;
  if (rs.desc->members.empty()) {
    activate(ag, rs);
    return;
  }
  start_invites(ag, rs, /*resend_only=*/false);
}

void WorkloadGen::Impl::start_invites(NodeAgent& ag, RootSession& rs,
                                      bool resend_only) {
  const std::uint64_t sid = rs.desc->id;
  for (std::size_t i = 0; i < rs.desc->members.size(); ++i) {
    if (resend_only && rs.accepted[i]) continue;
    hw::Frame f;
    f.kind = msg::kSessInvite;
    f.dst = sys.node_station(rs.desc->members[i]);
    f.obj = sid;
    f.seq = rs.desc->member_slot[i];
    ag.node->kernel().send(std::move(f));
    ++ag.invites_sent;
  }
  const std::uint32_t e = ++rs.epoch;
  ag.node->simulator().post_after(
      kInviteTimeout,
      // vorx-lint: allow(R8) ag lives in Impl's per-node table for the run
      [this, &ag, sid, e] { invite_timeout(ag, sid, e); });
}

void WorkloadGen::Impl::on_accept(NodeAgent& ag, const hw::Frame& f) {
  RootSession* r = live_root(ag, f.obj);
  if (r == nullptr || r->phase != kInviting) return;
  RootSession& rs = *r;
  const auto pos = std::find(rs.desc->members.begin(),
                             rs.desc->members.end(), static_cast<int>(f.src));
  if (pos == rs.desc->members.end()) return;
  rs.accepted[static_cast<std::size_t>(pos - rs.desc->members.begin())] = 1;
  if (std::find(rs.accepted.begin(), rs.accepted.end(), 0) ==
      rs.accepted.end()) {
    ++rs.epoch;  // cancel the round timer
    activate(ag, rs);
  }
}

void WorkloadGen::Impl::invite_timeout(NodeAgent& ag, std::uint64_t sid,
                                       std::uint32_t epoch) {
  RootSession* r = live_root(ag, sid);
  if (r == nullptr || r->phase != kInviting || r->epoch != epoch) return;
  RootSession& rs = *r;
  ++rs.round;
  if (rs.round < kInviteRounds) {
    ++ag.reinvite_rounds;
    start_invites(ag, rs, /*resend_only=*/true);
    return;
  }
  // Out of rounds: prune the silent members (the group-repair contract —
  // the conference proceeds without them) or give up if nobody answered.
  const std::size_t pruned = static_cast<std::size_t>(
      std::count(rs.accepted.begin(), rs.accepted.end(), 0));
  ag.members_pruned += pruned;
  if (pruned == rs.accepted.size()) {
    fail_join(ag, sid);
    return;
  }
  ++rs.epoch;
  activate(ag, rs);
}

void WorkloadGen::Impl::activate(NodeAgent& ag, RootSession& rs) {
  rs.phase = kActive;
  rs.live.clear();
  for (std::size_t i = 0; i < rs.desc->members.size(); ++i) {
    if (rs.accepted[i]) {
      rs.live.push_back({rs.desc->members[i], rs.desc->member_slot[i]});
    }
  }
  ag.members_joined += rs.live.size();
  const sim::SimTime now = ag.node->simulator().now();
  ag.join_lat.push_back(latency_us(now - rs.desc->start));
  ag.active_log.emplace_back(now, +1);
  if (rs.desc->spurts.empty()) {
    finish(ag, rs.desc->id);
    return;
  }
  rs.spurt = 0;
  rs.frames_left = 0;
  const std::uint64_t sid = rs.desc->id;
  const std::uint32_t e = rs.epoch;
  ag.node->simulator().post_after(
      rs.desc->spurts[0].gap,
      // vorx-lint: allow(R8) ag lives in Impl's per-node table for the run
      [this, &ag, sid, e] { spurt_step(ag, sid, e); });
}

// One step of the talk-spurt chain: send the next media frame to every
// live member, then self-schedule the next frame or the next spurt's gap.
void WorkloadGen::Impl::spurt_step(NodeAgent& ag, std::uint64_t sid,
                                   std::uint32_t epoch) {
  RootSession* r = live_root(ag, sid);
  if (r == nullptr || r->phase != kActive || r->epoch != epoch) return;
  RootSession& rs = *r;
  if (rs.frames_left == 0) {
    rs.frames_left = rs.desc->spurts[rs.spurt].frames;
  }
  const sim::SimTime now = ag.node->simulator().now();
  for (const LiveMember& m : rs.live) {
    hw::Frame f;
    f.kind = msg::kSessData;
    f.dst = sys.node_station(m.node);
    f.obj = sid;
    f.seq = m.slot;
    f.aux = static_cast<std::uint64_t>(now);  // end-to-end latency origin
    f.payload_bytes = kFrameBytes;        // timing-only media frame
    ag.node->kernel().send(std::move(f));
    ++ag.data_sent;
  }
  --rs.frames_left;
  if (rs.frames_left > 0) {
    ag.node->simulator().post_after(
        kFrameInterval,
        // vorx-lint: allow(R8) ag lives in Impl's per-node table for the run
        [this, &ag, sid, epoch] { spurt_step(ag, sid, epoch); });
    return;
  }
  ++rs.spurt;
  if (rs.spurt >= rs.desc->spurts.size()) {
    finish(ag, sid);
    return;
  }
  ag.node->simulator().post_after(
      rs.desc->spurts[rs.spurt].gap,
      // vorx-lint: allow(R8) ag lives in Impl's per-node table for the run
      [this, &ag, sid, epoch] { spurt_step(ag, sid, epoch); });
}

void WorkloadGen::Impl::on_leave(NodeAgent& ag, const hw::Frame& f) {
  RootSession* r = live_root(ag, f.obj);
  if (r == nullptr || r->phase != kActive) return;
  RootSession& rs = *r;
  const auto pos =
      std::find_if(rs.live.begin(), rs.live.end(), [&f](const LiveMember& m) {
        return m.node == static_cast<int>(f.src);
      });
  if (pos == rs.live.end()) return;
  rs.live.erase(pos);
  ++ag.churn_leaves;
}

void WorkloadGen::Impl::finish(NodeAgent& ag, std::uint64_t sid) {
  RootSession* r = live_root(ag, sid);
  assert(r != nullptr);
  RootSession& rs = *r;
  for (const LiveMember& m : rs.live) {
    hw::Frame f;
    f.kind = msg::kSessBye;
    f.dst = sys.node_station(m.node);
    f.obj = sid;
    f.seq = m.slot;
    ag.node->kernel().send(std::move(f));
  }
  if (rs.host >= 0) send_free(ag, rs.host, sid);
  ag.active_log.emplace_back(ag.node->simulator().now(), -1);
  ++ag.completed;
  resolve(rs);
}

void WorkloadGen::Impl::fail_join(NodeAgent& ag, std::uint64_t sid) {
  RootSession* r = live_root(ag, sid);
  assert(r != nullptr);
  if (r->host >= 0) send_free(ag, r->host, sid);
  ++ag.failed_joins;
  resolve(*r);
}

// The last line of accounting: any session still unresolved ttl after its
// start is LOST.  This must stay zero — every recovery path above is
// supposed to drive the session to completed or failed on its own.
void WorkloadGen::Impl::watchdog(NodeAgent& ag, std::uint64_t sid) {
  RootSession* r = live_root(ag, sid);
  if (r == nullptr) return;  // resolved long ago
  if (r->host >= 0) send_free(ag, r->host, sid);
  if (r->phase == kActive) {
    ag.active_log.emplace_back(ag.node->simulator().now(), -1);
  }
  ++ag.lost;
  resolve(*r);
}

void WorkloadGen::Impl::send_free(NodeAgent& ag, hw::StationId host,
                                  std::uint64_t sid) {
  hw::Frame f;
  f.kind = msg::kAllocFree;
  f.dst = host;
  f.obj = sid;
  ag.node->kernel().send(std::move(f));
}

// ---- member side -----------------------------------------------------------

void WorkloadGen::Impl::on_invite(NodeAgent& ag, const hw::Frame& f) {
  assert(f.seq < ag.member_in.size());
  const std::uint32_t slot = static_cast<std::uint32_t>(f.seq);
  const bool fresh = ag.member_in[slot] == 0;
  ag.member_in[slot] = 1;
  hw::Frame a;
  a.kind = msg::kSessAccept;
  a.dst = f.src;
  a.obj = f.obj;
  ag.node->kernel().send(std::move(a));
  if (fresh) {
    // Member-side GC: if the bye is lost to a fault, reclaim the slot once
    // the session cannot possibly still be live.  Deadlines arrive in
    // order, so the node's GC feed needs no sort.
    sim::Simulator& s = ag.node->simulator();
    ag.member_gc_feed.append({s.now() + kTtlEff, s.reserve(), f.obj,
                              ag.index, slot, FeedKind::kMemberGc});
  }
}

void WorkloadGen::Impl::on_data(NodeAgent& ag, const hw::Frame& f) {
  assert(f.seq < ag.member_in.size());
  if (ag.member_in[f.seq] == 0) return;  // left / stale
  const sim::SimTime now = ag.node->simulator().now();
  ag.deliv_lat.push_back(latency_us(now - static_cast<sim::SimTime>(f.aux)));
  ++ag.data_delivered;
}

void WorkloadGen::Impl::on_bye(NodeAgent& ag, const hw::Frame& f) {
  assert(f.seq < ag.member_in.size());
  ag.member_in[f.seq] = 0;
}

void WorkloadGen::Impl::member_leave(NodeAgent& ag, std::uint32_t slot,
                                     std::uint64_t sid) {
  if (ag.member_in[slot] == 0) return;  // never joined, or already over
  hw::Frame f;
  f.kind = msg::kSessLeave;
  f.dst = sys.node_station(descs[sid - 1].root);
  f.obj = sid;
  ag.node->kernel().send(std::move(f));
  ag.member_in[slot] = 0;
}

// ---- host side -------------------------------------------------------------

void WorkloadGen::Impl::on_alloc_req(HostAgent& h, const hw::Frame& f) {
  if (h.crashed) return;  // dead stubs answer nothing: the timeout path
  const std::uint64_t sid = f.obj;
  hw::Frame r;
  r.kind = msg::kAllocReply;
  r.dst = f.src;
  r.obj = sid;
  r.seq = f.seq;
  // One descent finds a duplicate or the grant's insertion point.
  auto it = h.slots.lower_bound(sid);
  if (it != h.slots.end() && it->first == sid) {
    r.aux = 1;  // duplicate request: same slot, idempotent grant
  } else if (h.slots.size() >=
             static_cast<std::size_t>(kHostSlots)) {
    r.aux = 0;  // full: deny, the root retries elsewhere
  } else {
    // Grant: the session's host-side presence is a real VORX stub process
    // (§3.3) tied to the slot until the explicit free.
    Stub& st = h.node->make_stub();
    h.slots.emplace_hint(it, sid, st.id());
    ++h.granted;
    r.aux = 1;
  }
  h.node->kernel().send(std::move(r));
}

void WorkloadGen::Impl::on_alloc_free(HostAgent& h, const hw::Frame& f) {
  auto it = h.slots.find(f.obj);
  if (it == h.slots.end()) return;  // crashed host came back empty, or dup
  h.node->free_stub(it->second);
  h.slots.erase(it);
}

void WorkloadGen::Impl::set_host_crashed(int host, bool crashed) {
  HostAgent& h = *host_agents.at(static_cast<std::size_t>(host));
  if (crashed == h.crashed) return;
  h.crashed = crashed;
  if (!crashed) return;  // restart: back with empty tables (already empty)
  // Crash: every stub dies with the host; slots are gone.  Roots holding
  // these slots never notice (media flows node-to-node) — their eventual
  // kAllocFree just finds nothing, which is exactly the dead-stub story.
  for (const auto& slot : h.slots) h.node->free_stub(slot.second);
  h.killed += h.slots.size();
  h.slots.clear();
}

// ---- WorkloadGen public surface -------------------------------------------

WorkloadGen::WorkloadGen(System& sys, WorkloadConfig cfg, std::uint64_t seed)
    : sys_(sys), cfg_(checked(cfg)),
      impl_(std::make_unique<Impl>(sys, cfg_, seed)) {}

WorkloadGen::~WorkloadGen() = default;

void WorkloadGen::run() { sys_.run_until(impl_->end_time()); }

std::uint64_t WorkloadGen::sessions_generated() const {
  return impl_->descs.size();
}

std::size_t WorkloadGen::slots_held(int host) const {
  return impl_->host_agents.at(static_cast<std::size_t>(host))->slots.size();
}

sim::MachineShape WorkloadGen::machine_shape() {
  sim::MachineShape shape;
  shape.clusters = sys_.fabric().num_clusters();
  shape.hosts = sys_.num_hosts();
  shape.cube_edges = sys_.fabric().cube_edge_pairs();
  return shape;
}

WorkloadReport WorkloadGen::report() {
  WorkloadReport r;
  r.sessions_total = impl_->descs.size();
  r.horizon_us = cfg_.horizon / 1000;
  // Merge in node-index order: deterministic whatever the shard layout.
  // Each merged vector is sized exactly before it fills.
  std::size_t njoin = 0, ndeliv = 0, nlog = 0;
  for (const auto& ag : impl_->node_agents) {
    njoin += ag->join_lat.size();
    ndeliv += ag->deliv_lat.size();
    nlog += ag->active_log.size();
  }
  std::vector<std::uint32_t> join, deliv;
  std::vector<std::pair<sim::SimTime, int>> log;
  join.reserve(njoin);
  deliv.reserve(ndeliv);
  log.reserve(nlog);
  for (const auto& ag : impl_->node_agents) {
    r.completed += ag->completed;
    r.failed_joins += ag->failed_joins;
    r.lost += ag->lost;
    r.alloc_attempts += ag->alloc_attempts;
    r.alloc_denied += ag->alloc_denied;
    r.alloc_timeouts += ag->alloc_timeouts;
    r.late_grants_freed += ag->late_grants_freed;
    r.invites_sent += ag->invites_sent;
    r.reinvite_rounds += ag->reinvite_rounds;
    r.members_joined += ag->members_joined;
    r.members_pruned += ag->members_pruned;
    r.churn_leaves += ag->churn_leaves;
    r.member_gc += ag->member_gc;
    r.data_frames_sent += ag->data_sent;
    r.data_frames_delivered += ag->data_delivered;
    join.insert(join.end(), ag->join_lat.begin(), ag->join_lat.end());
    deliv.insert(deliv.end(), ag->deliv_lat.begin(), ag->deliv_lat.end());
    log.insert(log.end(), ag->active_log.begin(), ag->active_log.end());
  }
  for (const auto& h : impl_->host_agents) {
    r.stubs_granted += h->granted;
    r.stubs_killed += h->killed;
  }
  r.fabric_frames_dropped = sys_.fabric().frames_dropped();
  r.join_p50_us = percentile_us(join, 50);
  r.join_p99_us = percentile_us(join, 99);
  r.delivery_p50_us = percentile_us(deliv, 50);
  r.delivery_p99_us = percentile_us(deliv, 99);
  // Concurrency peak: sweep the merged (time, ±1) log; -1 sorts before +1
  // at equal times (instantaneous handovers do not count as overlap).
  std::sort(log.begin(), log.end());
  std::int64_t cur = 0, peak = 0;
  for (const auto& [t, d] : log) {
    cur += d;
    if (cur > peak) peak = cur;
  }
  r.sessions_active_peak = static_cast<std::uint64_t>(peak);
  if (cfg_.horizon > 0) {
    r.failed_joins_per_s_milli = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(r.failed_joins) * 1'000'000'000'000ULL /
        static_cast<std::uint64_t>(cfg_.horizon));
  }
  return r;
}

std::string WorkloadReport::to_text() const {
  std::ostringstream os;
  os << "sessions_total " << sessions_total << '\n'
     << "completed " << completed << '\n'
     << "failed_joins " << failed_joins << '\n'
     << "lost " << lost << '\n'
     << "alloc_attempts " << alloc_attempts << '\n'
     << "alloc_denied " << alloc_denied << '\n'
     << "alloc_timeouts " << alloc_timeouts << '\n'
     << "late_grants_freed " << late_grants_freed << '\n'
     << "invites_sent " << invites_sent << '\n'
     << "reinvite_rounds " << reinvite_rounds << '\n'
     << "members_joined " << members_joined << '\n'
     << "members_pruned " << members_pruned << '\n'
     << "churn_leaves " << churn_leaves << '\n'
     << "member_gc " << member_gc << '\n'
     << "stubs_granted " << stubs_granted << '\n'
     << "stubs_killed " << stubs_killed << '\n'
     << "data_frames_sent " << data_frames_sent << '\n'
     << "data_frames_delivered " << data_frames_delivered << '\n'
     << "fabric_frames_dropped " << fabric_frames_dropped << '\n'
     << "slo.join_p50_us " << join_p50_us << '\n'
     << "slo.join_p99_us " << join_p99_us << '\n'
     << "slo.delivery_p50_us " << delivery_p50_us << '\n'
     << "slo.delivery_p99_us " << delivery_p99_us << '\n'
     << "slo.sessions_active_peak " << sessions_active_peak << '\n'
     << "slo.failed_joins_per_s_milli " << failed_joins_per_s_milli << '\n'
     << "horizon_us " << horizon_us << '\n';
  return os.str();
}

// ---- FaultInjector ---------------------------------------------------------

FaultInjector::FaultInjector(System& sys, WorkloadGen* gen)
    : sys_(sys), gen_(gen) {}

void FaultInjector::install(const sim::FaultPlan& plan) {
  hw::Fabric& fab = sys_.fabric();
  const std::vector<sim::Simulator*>& sims = sys_.simulators();
  const int domains = static_cast<int>(sims.size());
  auto sim_of = [&](int s) -> sim::Simulator& {
    return *sims[static_cast<std::size_t>(s)];
  };
  for (const sim::FaultEvent& ev : plan.events()) {
    switch (ev.kind) {
      case sim::FaultKind::kLinkDown:
      case sim::FaultKind::kLinkUp: {
        // Every shard owns one direction of the cable and its own route
        // tables, so the fault is applied on ALL shards at the same
        // virtual instant (hw::Fabric::apply_cube_fault's contract).
        const bool up = ev.kind == sim::FaultKind::kLinkUp;
        ++link_faults_;
        for (int s = 0; s < domains; ++s) {
          // vorx-lint: allow(R8) fab is owned by System, outlives the run
          sim_of(s).post_at(ev.at, [&fab, s, a = ev.a, b = ev.b, up] {
            fab.apply_cube_fault(s, a, b, up);
          });
        }
        break;
      }
      case sim::FaultKind::kClusterRestart: {
        const int s = fab.shard_of_cluster(ev.a);
        ++cluster_restarts_;
        // vorx-lint: allow(R8) fab is owned by System, outlives the run
        sim_of(s).post_at(ev.at, [&fab, s, c = ev.a] {
          fab.apply_cluster_restart(s, c);
        });
        break;
      }
      case sim::FaultKind::kHostCrash:
      case sim::FaultKind::kHostRestart: {
        if (gen_ == nullptr || sys_.num_hosts() == 0) break;
        const bool crash = ev.kind == sim::FaultKind::kHostCrash;
        const int j = ev.a % sys_.num_hosts();
        ++host_faults_;
        sys_.host(j).simulator().post_at(ev.at, [g = gen_, j, crash] {
          g->impl_->set_host_crashed(j, crash);
        });
        break;
      }
    }
  }
}

}  // namespace hpcvorx::vorx
