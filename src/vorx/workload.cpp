#include "vorx/workload.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <queue>
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

// Longer than any session can live, bounded from the control-plane budgets
// and the spurt caps: every control and spurt timer is self-posted within
// them, so a healthy session has resolved kTtlEff after its start.
constexpr sim::Duration kTtlEff =
    kAllocAttempts * kAllocTimeout + kInviteRounds * kInviteTimeout +
    static_cast<sim::Duration>(kMaxSpurts) *
        (kGapCap + kSpurtCap + kFrameInterval) +
    sim::msec(50);

// Virtual time at which a run over `horizon` stops: every session started
// by the horizon has resolved by then, unless it is lost.
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

void LatencyCounts::add(std::uint32_t us) {
  ++n_;
  if (us >= kDense) {
    over_.push_back(us);
    return;
  }
  if (dense_.empty()) dense_.resize(kDense);
  assert(dense_[us] < std::numeric_limits<std::uint32_t>::max());
  ++dense_[us];
}

std::int64_t LatencyCounts::percentile(
    std::span<const LatencyCounts* const> parts, int pct) {
  std::size_t n = 0;
  for (const LatencyCounts* p : parts) n += p->n_;
  if (n == 0) return -1;
  // The rank-th smallest sample, counting from 0, over all the parts.
  std::size_t rank = sim::nearest_rank_index(n, pct);
  for (std::uint32_t us = 0; us < kDense; ++us) {
    std::size_t here = 0;
    for (const LatencyCounts* p : parts) {
      if (!p->dense_.empty()) here += p->dense_[us];
    }
    if (rank < here) return us;
    rank -= here;
  }
  std::vector<std::uint32_t> over;
  for (const LatencyCounts* p : parts) {
    over.insert(over.end(), p->over_.begin(), p->over_.end());
  }
  const auto k = over.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(over.begin(), k, over.end());
  return *k;
}

std::int64_t LatencyCounts::percentile(int pct) const {
  const LatencyCounts* self = this;
  return percentile(std::span(&self, 1), pct);
}

// ---- the session stream ----------------------------------------------------

namespace {

struct SpurtDesc {
  std::uint32_t gap = 0;     // ns of silence before the spurt
  std::uint32_t frames = 1;  // media frames in the spurt
};
static_assert(kGapCap <= std::numeric_limits<std::uint32_t>::max(),
              "a spurt gap fits SpurtDesc::gap");

// A list of at most N entries, stored in place.  Every per-session list is
// bounded by the fixed traffic shape (kMaxMembers - 1 members, kMaxSpurts
// spurts), so a heap block per list would cost more than the entries.
template <typename T, std::size_t N>
class InlineList {
 public:
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] const T* begin() const { return items_.data(); }
  [[nodiscard]] const T* end() const { return items_.data() + n_; }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < n_);
    return items_[i];
  }

  void push_back(const T& v) {
    assert(n_ < N && "InlineList is full");
    items_[n_++] = v;
  }

 private:
  static_assert(N <= 255, "the count is one byte");
  std::array<T, N> items_{};
  std::uint8_t n_ = 0;
};

constexpr std::size_t kMaxOthers = kMaxMembers - 1;  // members besides root

// One session as the stream draws it.  Its root copies it into a root
// slot when the session starts and keeps it there until it resolves.
// Invite, data and bye frames carry the member's slot in that member
// node's member table in Frame::seq, so the member side indexes its table
// directly.
struct SessionDesc {
  std::uint64_t id = 0;  // 0 only in a free root slot
  sim::SimTime start = 0;
  int root = 0;  // root node index
  // Other member node indices (unique), and parallel to them each
  // member's slot in that node's member table.
  InlineList<int, kMaxOthers> members;
  InlineList<std::uint32_t, kMaxOthers> member_slot;
  InlineList<SpurtDesc, kMaxSpurts> spurts;
};

// A churn departure: member `member` (a position in SessionDesc::members)
// leaves `offset` after the session's earliest possible activation.
struct Leave {
  std::size_t member = 0;
  sim::Duration offset = 0;
};
using Leaves = InlineList<Leave, kMaxOthers>;

// Every session of the run, in generation order, drawn from one linear Rng
// stream.  The sessions depend only on (cfg, seed, nodes) — never on shard
// count or on anything the machine does — so the offered load is identical
// across engines, and any number of streams built alike draw the same
// sessions.
class SessionStream {
 public:
  SessionStream(const WorkloadConfig& cfg, std::uint64_t seed, int nodes)
      : rng_(seed),
        nodes_(nodes),
        horizon_ns_(static_cast<double>(cfg.horizon)) {
    const double mean_members =
        (static_cast<double>(kMinMembers) + kMaxMembers) / 2.0;
    const double expected =
        static_cast<double>(cfg.users) * kSessionsPerUser / mean_members;
    done_ = expected <= 0.0 || cfg.horizon <= 0;
    if (done_) return;
    const double rate_mean = expected / horizon_ns_;  // arrivals per ns
    rate_max_ = rate_mean * (1.0 + kDiurnalSwing);
  }

  // Draws the next session into `d` and its churn into `leaves`, numbering
  // member slots from `member_slots` (per node) when it is not null.
  // False once the horizon is past.
  bool next(SessionDesc& d, Leaves& leaves, std::uint32_t* member_slots) {
    while (!done_) {
      // Homogeneous candidates at rate_max, thinned to the diurnal curve.
      t_ += -det_ln(unit_open(rng_)) / rate_max_;
      if (t_ >= horizon_ns_) break;
      // Triangle wave: 0 at the edges of the horizon, 1 at its midpoint.
      const double x = t_ / horizon_ns_;
      const double tri = 1.0 - (x < 0.5 ? 1.0 - 2.0 * x : 2.0 * x - 1.0);
      const double accept =
          (1.0 - kDiurnalSwing + 2.0 * kDiurnalSwing * tri) /
          (1.0 + kDiurnalSwing);
      if (!rng_.chance(accept)) continue;
      draw(d, leaves, member_slots);
      return true;
    }
    done_ = true;
    return false;
  }

 private:
  void draw(SessionDesc& d, Leaves& leaves, std::uint32_t* member_slots) {
    d = SessionDesc{};
    leaves = Leaves{};
    d.id = next_id_++;
    d.start = static_cast<sim::SimTime>(t_);
    const auto nodes = static_cast<std::uint64_t>(nodes_);
    d.root = static_cast<int>(rng_.below(nodes));
    const int want = static_cast<int>(rng_.range(kMinMembers, kMaxMembers));
    const int size = std::min(want, nodes_);  // distinct nodes available
    while (static_cast<int>(d.members.size()) < size - 1) {
      const int m = static_cast<int>(rng_.below(nodes));
      if (m == d.root) continue;
      if (std::find(d.members.begin(), d.members.end(), m) !=
          d.members.end()) {
        continue;
      }
      d.members.push_back(m);
      d.member_slot.push_back(member_slots != nullptr ? member_slots[m]++ : 0);
    }
    const int nspurts = static_cast<int>(rng_.range(kMinSpurts, kMaxSpurts));
    sim::Duration nominal = 0;
    for (int i = 0; i < nspurts; ++i) {
      const sim::Duration gap = sample_exp(rng_, kSpurtGap, kGapCap);
      const sim::Duration len =
          sample_pareto(rng_, kSpurtXm, kSpurtAlpha, kSpurtCap);
      const int frames = 1 + static_cast<int>(len / kFrameInterval);
      nominal += gap + static_cast<sim::Duration>(frames) * kFrameInterval;
      d.spurts.push_back({static_cast<std::uint32_t>(gap),
                          static_cast<std::uint32_t>(frames)});
    }
    for (std::size_t i = 0; i < d.members.size(); ++i) {
      if (rng_.chance(kChurnProb) && nominal > 0) {
        leaves.push_back({i, static_cast<sim::Duration>(rng_.below(
                                 static_cast<std::uint64_t>(nominal)))});
      }
    }
  }

  sim::Rng rng_;
  int nodes_;
  double horizon_ns_;
  double rate_max_ = 0.0;
  double t_ = 0.0;
  std::uint64_t next_id_ = 1;
  bool done_ = false;
};

// Root-side session phases.  A session that completes or fails frees its
// slot, so "the slot still holds the sid" means not yet resolved, and a
// slot still held when the run ends is a lost session.
enum Phase : std::uint8_t { kAllocating = 0, kInviting = 1, kActive = 2 };

// One slot of a node's root table: a live session rooted there.  The
// member sets are bit masks over desc.members (bit i: members[i]).
struct RootSession {
  SessionDesc desc;         // desc.id == 0: the slot is free
  hw::StationId host = -1;  // granted host station (-1 = none)
  std::uint32_t epoch = 0;  // invalidates outstanding control timers
  int frames_left = 0;
  std::uint8_t phase = kAllocating;
  std::uint8_t attempt = 0;   // allocation attempts made
  std::uint8_t round = 0;     // invite rounds completed
  std::uint8_t spurt = 0;
  std::uint8_t accepted = 0;  // members that accepted the invite
  std::uint8_t live = 0;      // members still in the call
};

static_assert(kMaxOthers <= 8, "member sets are one-byte bit masks");

// An allocation request carries the root slot above the attempt number in
// Frame::seq; the host echoes seq in its reply.
constexpr int kAttemptBits = 8;
static_assert(kAllocAttempts < (1 << kAttemptBits));

// A churn leave waiting on a member node's simulator.
struct LeaveItem {
  sim::SimTime at = 0;
  std::uint64_t seq = 0;   // its ticket in the simulator's block
  std::uint64_t sid = 0;
  int root = 0;            // the session's root node
  int node = 0;            // the leaving member's node
  std::uint32_t slot = 0;  // its member-table slot
};

// Orders a min-heap of leaves on (at, seq).
struct LeavesAfter {
  bool operator()(const LeaveItem& a, const LeaveItem& b) const {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
};

// A member-side GC deadline (see on_invite).
struct GcItem {
  sim::SimTime at = 0;
  sim::EventTicket ticket;
  std::uint32_t slot = 0;  // member-table slot to reclaim
};

}  // namespace

// ---- agents ---------------------------------------------------------------

struct WorkloadGen::Impl {
  // One simulator's arrival feed (DESIGN.md §14.1): the session starts and
  // churn leaves of the nodes the simulator runs, in (time, seq) order.
  // Only the head is in the event queue, posted on its ticket; each fire
  // posts the next head before acting.  The items come from two sources:
  // the next start, where the feed's walk of the session stream stopped,
  // and the churn leaves the walk has passed, in a min-heap.  No leave
  // precedes its session's start, so when the walk stops at the next
  // start every earlier item is already in a source.
  struct ArrivalFeed {
    ArrivalFeed(sim::Simulator* s, const SessionStream& st, int nodes)
        : sim(s),
          stream(st),
          member_slots(static_cast<std::size_t>(nodes), 0) {}
    ArrivalFeed(const ArrivalFeed&) = delete;  // the queued head holds `this`
    ArrivalFeed& operator=(const ArrivalFeed&) = delete;

    sim::Simulator* sim;
    std::uint64_t items = 0;  // items in the run, from the counting pass
    sim::EventTicket base;    // the first ticket of their block
    SessionStream stream;     // the walk, stopped after `next`
    std::uint64_t index = 0;  // items numbered so far
    SessionDesc next;         // the next session rooted here
    std::uint64_t next_seq = 0;  // ticket seq of next's start
    bool live = false;           // false once the stream is exhausted
    std::vector<std::uint32_t> member_slots;  // per node, numbered so far
    std::priority_queue<LeaveItem, std::vector<LeaveItem>, LeavesAfter> leaves;
    LatencyCounts deliveries;  // delivery latencies at the nodes it runs
  };

  struct NodeAgent {
    Node* node = nullptr;
    int index = 0;
    ArrivalFeed* feed = nullptr;      // this node's simulator's feed
    std::vector<RootSession> roots;   // live sessions rooted here, by slot
    std::vector<std::uint32_t> free_roots;  // slots of resolved sessions
    std::vector<char> member_in;      // by member slot: 1 while a member
    std::deque<GcItem> gc;            // member-side GC deadlines, in order
    std::vector<std::uint32_t> join_lat;  // latency_us samples
    // (time, +1/-1) activation log for the concurrent-sessions peak.
    std::vector<std::pair<sim::SimTime, int>> active_log;
    std::uint64_t completed = 0;
    std::uint64_t failed_joins = 0;
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

  void install(const SessionStream& stream);
  void advance(ArrivalFeed& f);
  [[nodiscard]] static bool start_is_head(const ArrivalFeed& f);
  void post_head(ArrivalFeed& f);
  void fire_head(ArrivalFeed& f);
  void post_gc_head(NodeAgent& ag);

  // Root-side state machine.  `slot` is the session's root-table slot.
  void start_session(NodeAgent& ag, const SessionDesc& d);
  void send_alloc(NodeAgent& ag, std::uint32_t slot);
  void on_alloc_reply(NodeAgent& ag, const hw::Frame& f);
  void start_invites(NodeAgent& ag, std::uint32_t slot, bool resend_only);
  void on_accept(NodeAgent& ag, const hw::Frame& f);
  void invite_timeout(NodeAgent& ag, std::uint32_t slot, std::uint64_t sid,
                      std::uint32_t epoch);
  void activate(NodeAgent& ag, std::uint32_t slot);
  void spurt_step(NodeAgent& ag, std::uint32_t slot, std::uint64_t sid,
                  std::uint32_t epoch);
  void on_leave(NodeAgent& ag, const hw::Frame& f);
  void finish(NodeAgent& ag, std::uint32_t slot);
  void fail_join(NodeAgent& ag, std::uint32_t slot);

  // Member side.
  void on_invite(NodeAgent& ag, const hw::Frame& f);
  void on_data(NodeAgent& ag, const hw::Frame& f);
  void on_bye(NodeAgent& ag, const hw::Frame& f);
  void member_leave(NodeAgent& ag, const LeaveItem& it);

  // Host side.
  void on_alloc_req(HostAgent& h, const hw::Frame& f);
  void on_alloc_free(HostAgent& h, const hw::Frame& f);
  void set_host_crashed(int host, bool crashed);

  void send_free(NodeAgent& ag, hw::StationId host, std::uint64_t sid);

  // Root slot `slot` on `ag` when it still holds session `sid`; null once
  // the session has resolved, even if a later session reuses the slot.
  [[nodiscard]] static RootSession* live_root(NodeAgent& ag,
                                              std::uint64_t slot,
                                              std::uint64_t sid) {
    assert(slot < ag.roots.size());
    RootSession& rs = ag.roots[slot];
    return rs.desc.id == sid ? &rs : nullptr;
  }
  // The root slot of live session `sid`, by a scan of the table (bounded by
  // the node's peak live sessions), for the one caller that does not know
  // the slot: a member's leave.
  [[nodiscard]] static RootSession* find_root(NodeAgent& ag,
                                              std::uint64_t sid) {
    if (ag.free_roots.size() == ag.roots.size()) return nullptr;  // none live
    for (RootSession& rs : ag.roots) {
      if (rs.desc.id == sid) return &rs;
    }
    return nullptr;
  }
  // Frees a resolved session's root slot for the next session to start.
  static void resolve(NodeAgent& ag, std::uint32_t slot) {
    ag.roots[slot] = RootSession{};
    ag.free_roots.push_back(slot);
  }
  [[nodiscard]] static std::uint32_t slot_of(const NodeAgent& ag,
                                             const RootSession& rs) {
    return static_cast<std::uint32_t>(&rs - ag.roots.data());
  }
  [[nodiscard]] NodeAgent& agent(int node) {
    return *node_agents[static_cast<std::size_t>(node)];
  }

  [[nodiscard]] sim::SimTime end_time() const { return run_end(cfg.horizon); }

  System& sys;
  WorkloadConfig cfg;
  std::uint64_t sessions_total = 0;
  std::vector<std::unique_ptr<NodeAgent>> node_agents;
  std::vector<std::unique_ptr<HostAgent>> host_agents;
  std::vector<std::unique_ptr<ArrivalFeed>> feeds;  // one per simulator
};

// The counting pass walks the whole stream once and stores nothing: it
// counts the sessions and each simulator's feed items, so every simulator
// reserves its items' tickets as one block.  The block sits exactly where
// the items' one-by-one reservations used to, and the walks hand out
// base + index in the order those reservations were made: per session,
// its start, then each churn leave, each on its owning simulator.
WorkloadGen::Impl::Impl(System& s, WorkloadConfig c, std::uint64_t seed)
    : sys(s), cfg(std::move(c)) {
  const SessionStream stream(cfg, seed, sys.num_nodes());
  install(stream);
  SessionStream all = stream;
  SessionDesc d;
  Leaves leaves;
  while (all.next(d, leaves, nullptr)) {
    ++sessions_total;
    ++agent(d.root).feed->items;
    for (const Leave& l : leaves) ++agent(d.members[l.member]).feed->items;
  }
  for (const std::unique_ptr<ArrivalFeed>& f : feeds) {
    f->base = f->sim->reserve(f->items);
    advance(*f);
    post_head(*f);
  }
}

void WorkloadGen::Impl::install(const SessionStream& stream) {
  node_agents.reserve(static_cast<std::size_t>(sys.num_nodes()));
  for (int i = 0; i < sys.num_nodes(); ++i) {
    auto ag = std::make_unique<NodeAgent>();
    ag->node = &sys.node(i);
    ag->index = i;
    sim::Simulator* sim = &ag->node->simulator();
    // One arrival feed per simulator, shared by every node it runs.
    for (const std::unique_ptr<ArrivalFeed>& f : feeds) {
      if (f->sim == sim) ag->feed = f.get();
    }
    if (ag->feed == nullptr) {
      feeds.push_back(
          std::make_unique<ArrivalFeed>(sim, stream, sys.num_nodes()));
      ag->feed = feeds.back().get();
    }
    NodeAgent* a = ag.get();
    Kernel& k = a->node->kernel();
    k.register_handler(msg::kAllocReply, [this, a](const hw::Frame& f) {
      on_alloc_reply(*a, f);
    });
    k.register_handler(msg::kSessInvite,
                       [this, a](const hw::Frame& f) { on_invite(*a, f); });
    k.register_handler(msg::kSessAccept,
                       [this, a](const hw::Frame& f) { on_accept(*a, f); });
    k.register_handler(msg::kSessData,
                       [this, a](const hw::Frame& f) { on_data(*a, f); });
    k.register_handler(msg::kSessLeave,
                       [this, a](const hw::Frame& f) { on_leave(*a, f); });
    k.register_handler(msg::kSessBye,
                       [this, a](const hw::Frame& f) { on_bye(*a, f); });
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
                       [this, h](const hw::Frame& f) { on_alloc_req(*h, f); });
    k.register_handler(msg::kAllocFree,
                       [this, h](const hw::Frame& f) { on_alloc_free(*h, f); });
    host_agents.push_back(std::move(hg));
  }
}

// Draws sessions until one is rooted on `f`'s simulator, numbering member
// slots and every item the drawn sessions put there and keeping their
// leaves.  Every shard walks the whole stream and keeps only its own items,
// so nothing but frames crosses shards (R7).  Clears `f.live` once the
// stream is exhausted.
void WorkloadGen::Impl::advance(ArrivalFeed& f) {
  Leaves leaves;
  while (f.stream.next(f.next, leaves, f.member_slots.data())) {
    const bool here = agent(f.next.root).feed == &f;
    if (here) f.next_seq = f.base.seq + f.index++;
    for (const Leave& l : leaves) {
      const int m = f.next.members[l.member];
      if (agent(m).feed != &f) continue;
      // Earliest the member could be active; if the invite never arrived
      // (faults) the leave finds no local session and is a no-op.
      f.leaves.push({f.next.start + kAllocTimeout + kInviteTimeout + l.offset,
                     f.base.seq + f.index++, f.next.id, f.next.root, m,
                     f.next.member_slot[l.member]});
    }
    if (here) {
      f.live = true;
      return;
    }
  }
  f.live = false;
}

// True when the feed's earliest item is its next start rather than its
// earliest leave.  Tickets are unique, so (time, seq) never ties.
bool WorkloadGen::Impl::start_is_head(const ArrivalFeed& f) {
  if (!f.live) return false;
  if (f.leaves.empty()) return true;
  const LeaveItem& l = f.leaves.top();
  return f.next.start != l.at ? f.next.start < l.at : f.next_seq < l.seq;
}

// Queues the earliest item of the feed's two sources on its ticket.
void WorkloadGen::Impl::post_head(ArrivalFeed& f) {
  sim::SimTime at = 0;
  std::uint64_t seq = 0;
  if (start_is_head(f)) {
    at = f.next.start;
    seq = f.next_seq;
  } else if (!f.leaves.empty()) {
    at = f.leaves.top().at;
    seq = f.leaves.top().seq;
  } else {
    return;
  }
  // vorx-lint: allow(R8) f is owned by Impl's feed table for the whole run
  f.sim->post_at(at, sim::EventTicket{seq}, [this, &f] { fire_head(f); });
}

void WorkloadGen::Impl::fire_head(ArrivalFeed& f) {
  if (start_is_head(f)) {
    const SessionDesc d = f.next;
    advance(f);
    post_head(f);
    start_session(agent(d.root), d);
    return;
  }
  const LeaveItem it = f.leaves.top();
  f.leaves.pop();
  post_head(f);
  member_leave(agent(it.node), it);
}

// The member-side GC feed: one per node, fed in deadline order by
// on_invite, with only its head in the event queue.
void WorkloadGen::Impl::post_gc_head(NodeAgent& ag) {
  const GcItem& head = ag.gc.front();
  // vorx-lint: allow(R8) ag lives in Impl's per-node table for the whole run
  ag.node->simulator().post_at(head.at, head.ticket, [this, &ag] {
    const std::uint32_t slot = ag.gc.front().slot;
    ag.gc.pop_front();
    if (!ag.gc.empty()) post_gc_head(ag);
    // Reclaim the slot if the bye never came.
    if (ag.member_in[slot] != 0) {
      ag.member_in[slot] = 0;
      ++ag.member_gc;
    }
  });
}

// ---- root-side state machine ----------------------------------------------

void WorkloadGen::Impl::start_session(NodeAgent& ag, const SessionDesc& d) {
  std::uint32_t slot = 0;
  if (ag.free_roots.empty()) {
    slot = static_cast<std::uint32_t>(ag.roots.size());
    ag.roots.emplace_back();
  } else {
    slot = ag.free_roots.back();
    ag.free_roots.pop_back();
  }
  ag.roots[slot].desc = d;
  send_alloc(ag, slot);
}

void WorkloadGen::Impl::send_alloc(NodeAgent& ag, std::uint32_t slot) {
  RootSession& rs = ag.roots[slot];
  if (rs.attempt >= kAllocAttempts) {
    fail_join(ag, slot);
    return;
  }
  const std::uint64_t sid = rs.desc.id;
  const int host_ix = static_cast<int>(
      (sid + rs.attempt) % static_cast<std::uint64_t>(sys.num_hosts()));
  ++ag.alloc_attempts;
  hw::Frame f;
  f.kind = msg::kAllocReq;
  f.dst = sys.host_station(host_ix);
  f.obj = sid;
  f.seq = std::uint64_t{slot} << kAttemptBits | rs.attempt;
  ag.node->kernel().send(std::move(f));
  const std::uint32_t e = ++rs.epoch;
  // vorx-lint: allow(R8) ag lives in Impl's per-node table for the whole run
  ag.node->simulator().post_after(kAllocTimeout, [this, &ag, slot, sid, e] {
    RootSession* r = live_root(ag, slot, sid);
    if (r == nullptr || r->phase != kAllocating || r->epoch != e) return;
    ++ag.alloc_timeouts;
    ++r->attempt;
    send_alloc(ag, slot);
  });
}

void WorkloadGen::Impl::on_alloc_reply(NodeAgent& ag, const hw::Frame& f) {
  const std::uint64_t sid = f.obj;
  const bool grant = f.aux == 1;
  const auto slot = static_cast<std::uint32_t>(f.seq >> kAttemptBits);
  const std::uint64_t attempt = f.seq & ((1u << kAttemptBits) - 1);
  RootSession* r = live_root(ag, slot, sid);
  if (r == nullptr || r->phase != kAllocating || attempt != r->attempt) {
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
    send_alloc(ag, slot);
    return;
  }
  rs.host = f.src;
  rs.phase = kInviting;
  if (rs.desc.members.empty()) {
    activate(ag, slot);
    return;
  }
  start_invites(ag, slot, /*resend_only=*/false);
}

// Invites carry the root slot in Frame::aux; the accept echoes it.
void WorkloadGen::Impl::start_invites(NodeAgent& ag, std::uint32_t slot,
                                      bool resend_only) {
  RootSession& rs = ag.roots[slot];
  const std::uint64_t sid = rs.desc.id;
  for (std::size_t i = 0; i < rs.desc.members.size(); ++i) {
    if (resend_only && (rs.accepted >> i & 1u) != 0) continue;
    hw::Frame f;
    f.kind = msg::kSessInvite;
    f.dst = sys.node_station(rs.desc.members[i]);
    f.obj = sid;
    f.seq = rs.desc.member_slot[i];
    f.aux = slot;
    ag.node->kernel().send(std::move(f));
    ++ag.invites_sent;
  }
  const std::uint32_t e = ++rs.epoch;
  ag.node->simulator().post_after(
      kInviteTimeout,
      // vorx-lint: allow(R8) ag lives in Impl's per-node table for the run
      [this, &ag, slot, sid, e] { invite_timeout(ag, slot, sid, e); });
}

void WorkloadGen::Impl::on_accept(NodeAgent& ag, const hw::Frame& f) {
  RootSession* r = live_root(ag, f.aux, f.obj);
  if (r == nullptr || r->phase != kInviting) return;
  RootSession& rs = *r;
  const auto pos = std::find(rs.desc.members.begin(), rs.desc.members.end(),
                             static_cast<int>(f.src));
  if (pos == rs.desc.members.end()) return;
  rs.accepted |=
      static_cast<std::uint8_t>(1u << (pos - rs.desc.members.begin()));
  if (rs.accepted == (1u << rs.desc.members.size()) - 1) {
    ++rs.epoch;  // cancel the round timer
    activate(ag, slot_of(ag, rs));
  }
}

void WorkloadGen::Impl::invite_timeout(NodeAgent& ag, std::uint32_t slot,
                                       std::uint64_t sid,
                                       std::uint32_t epoch) {
  RootSession* r = live_root(ag, slot, sid);
  if (r == nullptr || r->phase != kInviting || r->epoch != epoch) return;
  RootSession& rs = *r;
  ++rs.round;
  if (rs.round < kInviteRounds) {
    ++ag.reinvite_rounds;
    start_invites(ag, slot, /*resend_only=*/true);
    return;
  }
  // Out of rounds: prune the silent members (the group-repair contract —
  // the conference proceeds without them) or give up if nobody answered.
  const auto pruned = rs.desc.members.size() -
                      static_cast<std::size_t>(std::popcount(rs.accepted));
  ag.members_pruned += pruned;
  if (pruned == rs.desc.members.size()) {
    fail_join(ag, slot);
    return;
  }
  ++rs.epoch;
  activate(ag, slot);
}

void WorkloadGen::Impl::activate(NodeAgent& ag, std::uint32_t slot) {
  RootSession& rs = ag.roots[slot];
  rs.phase = kActive;
  rs.live = rs.accepted;
  ag.members_joined += static_cast<std::uint64_t>(std::popcount(rs.live));
  const sim::SimTime now = ag.node->simulator().now();
  ag.join_lat.push_back(latency_us(now - rs.desc.start));
  ag.active_log.emplace_back(now, +1);
  if (rs.desc.spurts.empty()) {
    finish(ag, slot);
    return;
  }
  rs.spurt = 0;
  rs.frames_left = 0;
  const std::uint64_t sid = rs.desc.id;
  const std::uint32_t e = rs.epoch;
  ag.node->simulator().post_after(
      rs.desc.spurts[0].gap,
      // vorx-lint: allow(R8) ag lives in Impl's per-node table for the run
      [this, &ag, slot, sid, e] { spurt_step(ag, slot, sid, e); });
}

// One step of the talk-spurt chain: send the next media frame to every
// live member, then self-schedule the next frame or the next spurt's gap.
void WorkloadGen::Impl::spurt_step(NodeAgent& ag, std::uint32_t slot,
                                   std::uint64_t sid, std::uint32_t epoch) {
  RootSession* r = live_root(ag, slot, sid);
  if (r == nullptr || r->phase != kActive || r->epoch != epoch) return;
  RootSession& rs = *r;
  if (rs.frames_left == 0) {
    rs.frames_left = static_cast<int>(rs.desc.spurts[rs.spurt].frames);
  }
  const sim::SimTime now = ag.node->simulator().now();
  for (std::size_t i = 0; i < rs.desc.members.size(); ++i) {
    if ((rs.live >> i & 1u) == 0) continue;
    hw::Frame f;
    f.kind = msg::kSessData;
    f.dst = sys.node_station(rs.desc.members[i]);
    f.obj = sid;
    f.seq = rs.desc.member_slot[i];
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
        [this, &ag, slot, sid, epoch] { spurt_step(ag, slot, sid, epoch); });
    return;
  }
  ++rs.spurt;
  if (rs.spurt >= rs.desc.spurts.size()) {
    finish(ag, slot);
    return;
  }
  ag.node->simulator().post_after(
      rs.desc.spurts[rs.spurt].gap,
      // vorx-lint: allow(R8) ag lives in Impl's per-node table for the run
      [this, &ag, slot, sid, epoch] { spurt_step(ag, slot, sid, epoch); });
}

void WorkloadGen::Impl::on_leave(NodeAgent& ag, const hw::Frame& f) {
  RootSession* r = find_root(ag, f.obj);
  if (r == nullptr || r->phase != kActive) return;
  RootSession& rs = *r;
  const auto pos = std::find(rs.desc.members.begin(), rs.desc.members.end(),
                             static_cast<int>(f.src));
  if (pos == rs.desc.members.end()) return;
  const auto bit =
      static_cast<std::uint8_t>(1u << (pos - rs.desc.members.begin()));
  if ((rs.live & bit) == 0) return;
  rs.live &= static_cast<std::uint8_t>(~bit);
  ++ag.churn_leaves;
}

void WorkloadGen::Impl::finish(NodeAgent& ag, std::uint32_t slot) {
  RootSession& rs = ag.roots[slot];
  for (std::size_t i = 0; i < rs.desc.members.size(); ++i) {
    if ((rs.live >> i & 1u) == 0) continue;
    hw::Frame f;
    f.kind = msg::kSessBye;
    f.dst = sys.node_station(rs.desc.members[i]);
    f.obj = rs.desc.id;
    f.seq = rs.desc.member_slot[i];
    ag.node->kernel().send(std::move(f));
  }
  if (rs.host >= 0) send_free(ag, rs.host, rs.desc.id);
  ag.active_log.emplace_back(ag.node->simulator().now(), -1);
  ++ag.completed;
  resolve(ag, slot);
}

void WorkloadGen::Impl::fail_join(NodeAgent& ag, std::uint32_t slot) {
  RootSession& rs = ag.roots[slot];
  if (rs.host >= 0) send_free(ag, rs.host, rs.desc.id);
  ++ag.failed_joins;
  resolve(ag, slot);
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

// The member table grows as invites arrive, not as the stream numbers the
// slots, so it holds only the memberships invited so far.
void WorkloadGen::Impl::on_invite(NodeAgent& ag, const hw::Frame& f) {
  const auto slot = static_cast<std::uint32_t>(f.seq);
  if (slot >= ag.member_in.size()) ag.member_in.resize(slot + 1, 0);
  const bool fresh = ag.member_in[slot] == 0;
  ag.member_in[slot] = 1;
  hw::Frame a;
  a.kind = msg::kSessAccept;
  a.dst = f.src;
  a.obj = f.obj;
  a.aux = f.aux;  // the root slot
  ag.node->kernel().send(std::move(a));
  if (fresh) {
    // Member-side GC: if the bye is lost to a fault, reclaim the slot once
    // the session cannot possibly still be live.  Deadlines arrive in
    // order, so the node's GC feed needs no sort.
    sim::Simulator& s = ag.node->simulator();
    ag.gc.push_back({s.now() + kTtlEff, s.reserve(), slot});
    if (ag.gc.size() == 1) post_gc_head(ag);
  }
}

void WorkloadGen::Impl::on_data(NodeAgent& ag, const hw::Frame& f) {
  assert(f.seq < ag.member_in.size());
  if (ag.member_in[f.seq] == 0) return;  // left / stale
  const sim::SimTime now = ag.node->simulator().now();
  ag.feed->deliveries.add(latency_us(now - static_cast<sim::SimTime>(f.aux)));
  ++ag.data_delivered;
}

void WorkloadGen::Impl::on_bye(NodeAgent& ag, const hw::Frame& f) {
  assert(f.seq < ag.member_in.size());
  ag.member_in[f.seq] = 0;
}

void WorkloadGen::Impl::member_leave(NodeAgent& ag, const LeaveItem& it) {
  // Never invited, never joined, or already over.
  if (it.slot >= ag.member_in.size() || ag.member_in[it.slot] == 0) return;
  hw::Frame f;
  f.kind = msg::kSessLeave;
  f.dst = sys.node_station(it.root);
  f.obj = it.sid;
  ag.node->kernel().send(std::move(f));
  ag.member_in[it.slot] = 0;
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
  return impl_->sessions_total;
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
  r.sessions_total = impl_->sessions_total;
  r.horizon_us = cfg_.horizon / 1000;
  // Merge in node-index order: deterministic whatever the shard layout.
  // Each merged vector is sized exactly before it fills.
  std::size_t njoin = 0, nlog = 0;
  for (const auto& ag : impl_->node_agents) {
    njoin += ag->join_lat.size();
    nlog += ag->active_log.size();
  }
  std::vector<std::uint32_t> join;
  std::vector<std::pair<sim::SimTime, int>> log;
  join.reserve(njoin);
  log.reserve(nlog);
  for (const auto& ag : impl_->node_agents) {
    r.completed += ag->completed;
    r.failed_joins += ag->failed_joins;
    // The last line of accounting: a session still in its root slot at the
    // run's end outlived kTtlEff, so it is LOST.  This must stay zero —
    // every recovery path above drives a session to completed or failed.
    r.lost += ag->roots.size() - ag->free_roots.size();
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
    log.insert(log.end(), ag->active_log.begin(), ag->active_log.end());
  }
  for (const auto& h : impl_->host_agents) {
    r.stubs_granted += h->granted;
    r.stubs_killed += h->killed;
  }
  r.fabric_frames_dropped = sys_.fabric().frames_dropped();
  r.join_p50_us = percentile_us(join, 50);
  r.join_p99_us = percentile_us(join, 99);
  // Delivery latencies are counted per simulator; summing the counts is
  // the merge.
  std::vector<const LatencyCounts*> deliv;
  for (const auto& f : impl_->feeds) deliv.push_back(&f->deliveries);
  r.delivery_p50_us = LatencyCounts::percentile(deliv, 50);
  r.delivery_p99_us = LatencyCounts::percentile(deliv, 99);
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
