// perfbench: one repetition of one repository-benchmark workload, timed per
// layer from outside.
//
//   perfbench --workload storm|storm_sharded|fabric4096 --seed N
//             [--ports P] [--trace-out FILE]
//
// It builds the machine, generates and installs the seeded inputs,
// runs the simulation, asks for the report and checks it — each step one
// call through a public header (vorx/system.hpp, vorx/workload.hpp,
// hw/fabric.hpp, sim/simulator.hpp, sim/shard_runtime.hpp), wrapped in a
// host-time span.  Afterwards it reads the layers' public counters.  It
// prints one JSON object on stdout: the end-to-end values, the per-layer
// values, and a digest of the virtual-time outputs (equal digests <=> equal
// reports).  run.py repeats this binary in fresh processes and aggregates.
//
// --trace-out also writes the spans (name, start, end, parent, run id) and
// counter samples taken at every span boundary to FILE, and — for storm* —
// records the simulator's counter timeline and exports it through
// tools::TraceExporter to FILE.counters.json.
//
// --ports overrides the cluster port count (for probing configurations);
// an infeasible machine is reported as a usage error with exit code 2.
// Exit 1 means an output check failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hw/fabric.hpp"
#include "sim/shard_runtime.hpp"
#include "sim/simulator.hpp"
#include "tools/trace_export.hpp"
#include "vorx/system.hpp"
#include "vorx/workload.hpp"

using namespace hpcvorx;

namespace {

using Clock = std::chrono::steady_clock;
using Values = std::vector<std::pair<std::string, double>>;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int ports = 0;  // 0: the workload's own cluster size
  std::string trace_out;
};

// Host-time spans around each public call, plus counter samples taken when
// a span closes.  Kept in memory; written out once the run has ended.
class Tracer {
 public:
  explicit Tracer(bool sample) : sample_(sample) {}

  int open(const char* name, int parent) {
    spans_.push_back({name, parent, now(), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = now();
    if (sample_ && counters_) {
      samples_.push_back({id, spans_[static_cast<std::size_t>(id)].end_s,
                          counters_()});
    }
  }

  // The counters to sample at span boundaries (once the machine exists).
  void set_counters(std::function<Values()> fn) { counters_ = std::move(fn); }

  [[nodiscard]] double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end_s - s.start_s;
  }
  [[nodiscard]] double between(int first, int last) const {
    return spans_[static_cast<std::size_t>(last)].end_s -
           spans_[static_cast<std::size_t>(first)].start_s;
  }

  bool write(const std::string& path, const std::string& run_id) const;

 private:
  struct Span {
    std::string name;
    int parent;
    double start_s;
    double end_s;
  };
  struct Sample {
    int span;
    double t_s;
    Values counters;
  };

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  bool sample_;
  std::function<Values()> counters_;
  std::vector<Span> spans_;
  std::vector<Sample> samples_;
};

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_values(const Values& vals) {
  std::string out = "{";
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + vals[i].first + "\": " + num(vals[i].second);
  }
  return out + "}";
}

bool Tracer::write(const std::string& path, const std::string& run_id) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"run_id\": \"%s\",\n \"spans\": [", run_id.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n  {\"id\": %zu, \"name\": \"%s\", \"parent\": %s, "
                    "\"start_s\": %s, \"end_s\": %s}",
                 i == 0 ? "" : ",", i, s.name.c_str(),
                 s.parent < 0 ? "null" : std::to_string(s.parent).c_str(),
                 num(s.start_s).c_str(), num(s.end_s).c_str());
  }
  std::fprintf(f, "],\n \"samples\": [");
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const Sample& s = samples_[i];
    std::fprintf(f, "%s\n  {\"span\": %d, \"t_s\": %s, \"counters\": %s}",
                 i == 0 ? "" : ",", s.span, num(s.t_s).c_str(),
                 json_values(s.counters).c_str());
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// FNV-1a over bytes: the digest of a run's virtual-time outputs.
class Digest {
 public:
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(&v, sizeof v); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Result {
  bool ok = true;
  std::string error;
  std::uint64_t digest = 0;
  Values end_to_end;  // virtual-time end-to-end values
  Values layers;      // per-layer values
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double cpu_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

// Host CPU seconds (user, system) the process spent inside `fn`.
std::pair<double, double> cpu_around(const std::function<void()>& fn) {
  rusage before{};
  rusage after{};
  getrusage(RUSAGE_SELF, &before);
  fn();
  getrusage(RUSAGE_SELF, &after);
  return {cpu_seconds(after.ru_utime) - cpu_seconds(before.ru_utime),
          cpu_seconds(after.ru_stime) - cpu_seconds(before.ru_stime)};
}

// Fabric-layer counters shared by every workload.
void add_fabric_counters(hw::Fabric& fab, Values& out) {
  double forwarded = 0;
  double hol_ns = 0;
  for (int c = 0; c < fab.num_clusters(); ++c) {
    forwarded += static_cast<double>(fab.cluster(c).frames_forwarded());
    hol_ns += static_cast<double>(fab.cluster(c).head_of_line_blocked());
  }
  // Each shard has its own payload pool; stations reach theirs.
  std::set<hw::FramePool*> pools;
  for (int s = 0; s < fab.num_stations(); ++s) {
    pools.insert(&fab.endpoint(s).frame_pool());
  }
  pools.insert(&fab.frame_pool());
  double peak_live = 0;
  double created = 0;
  double recycled = 0;
  for (hw::FramePool* p : pools) {
    peak_live += static_cast<double>(p->peak_payloads_live());
    created += static_cast<double>(p->buffers_created());
    recycled += static_cast<double>(p->buffers_recycled());
  }
  out.emplace_back("hw.frames_forwarded", forwarded);
  out.emplace_back("hw.hol_blocked_ms", hol_ns / 1e6);
  out.emplace_back("hw.frames_dropped", static_cast<double>(fab.frames_dropped()));
  out.emplace_back("hw.route_kb",
                   static_cast<double>(fab.routing_state_bytes()) / 1024.0);
  out.emplace_back("hw.pool.peak_payloads_live", peak_live);
  out.emplace_back("hw.pool.recycle_ratio", ratio(recycled, created + recycled));
}

void add_queue_counters(const std::vector<sim::Simulator*>& sims, Values& out) {
  sim::EventQueue::Stats sum;
  double events = 0;
  for (const sim::Simulator* s : sims) {
    const sim::EventQueue::Stats& q = s->queue_stats();
    sum.heap_inserts += q.heap_inserts;
    sum.l1_inserts += q.l1_inserts;
    sum.bucket_drains += q.bucket_drains;
    sum.drained_events += q.drained_events;
    events += static_cast<double>(s->events_executed());
  }
  out.emplace_back("sim.events", events);
  out.emplace_back("sim.queue.heap_inserts", static_cast<double>(sum.heap_inserts));
  out.emplace_back("sim.queue.l1_inserts", static_cast<double>(sum.l1_inserts));
  out.emplace_back("sim.queue.events_per_drain",
                   ratio(static_cast<double>(sum.drained_events),
                         static_cast<double>(sum.bucket_drains)));
}

double value_of(const Values& vals, const std::string& key) {
  for (const auto& [k, v] : vals) {
    if (k == key) return v;
  }
  return 0.0;
}

// The workload-independent host-time layer metrics, from the spans.
void add_run_timing(const Tracer& tr, int run, std::pair<double, double> cpu,
                    double rounds, Values& out) {
  const double run_s = tr.seconds(run);
  const double events = value_of(out, "sim.events");
  out.emplace_back("sim.run_s", run_s);
  out.emplace_back("sim.ns_per_event", ratio(run_s * 1e9, events));
  out.emplace_back("sim.shard.rounds", rounds);
  out.emplace_back("sim.shard.us_per_round", ratio(run_s * 1e6, rounds));
  out.emplace_back("sim.shard.events_per_round", ratio(events, rounds));
  out.emplace_back("sim.shard.cpu_s", cpu.first + cpu.second);
  out.emplace_back("sim.shard.sys_s", cpu.second);
  out.emplace_back("hw.ns_per_forward",
                   ratio(run_s * 1e9, value_of(out, "hw.frames_forwarded")));
}

// ---------------------------------------------------------------------------
// storm / storm_sharded: the examples/storm configuration at 10^5 users.

Result run_storm(const Options& opt, Tracer& tr, int shards) {
  vorx::SystemConfig scfg;
  scfg.nodes = 256;
  scfg.hosts = 4;
  scfg.stations_per_cluster = 4;
  scfg.fabric.cluster_link = scfg.fabric.link;
  scfg.fabric.cluster_link->latency = sim::usec(50);
  scfg.fabric.cluster_link->buffer_frames = 64;
  if (opt.ports > 0) scfg.fabric.ports_per_cluster = opt.ports;
  scfg.record_counters = !opt.trace_out.empty();

  vorx::WorkloadConfig wcfg;
  wcfg.users = 100'000;
  wcfg.horizon = sim::msec(500);

  const int root = tr.open("workload", -1);
  const int build = tr.open("build", root);
  std::unique_ptr<sim::Simulator> seq;
  std::unique_ptr<sim::ShardRuntime> rt;
  std::unique_ptr<vorx::System> sys;
  std::vector<sim::Simulator*> sims;
  if (shards == 0) {
    seq = std::make_unique<sim::Simulator>();
    sys = std::make_unique<vorx::System>(*seq, scfg);
    sims.push_back(seq.get());
  } else {
    rt = std::make_unique<sim::ShardRuntime>(shards);
    sys = std::make_unique<vorx::System>(*rt, scfg);
    for (int i = 0; i < shards; ++i) sims.push_back(&rt->shard(i));
  }
  if (scfg.record_counters) {
    // Bound the counter timeline: a 10^5-user run samples millions of
    // changes; decimation keeps a uniform subset in bounded memory.
    for (sim::Simulator* s : sims) {
      s->counters().set_retention(sim::CounterTimeline::Retention::kDecimate,
                                  std::size_t{1} << 17);
    }
  }

  const int stations = sys->num_nodes() + sys->num_hosts();
  auto counters = [&] {
    Values v;
    add_queue_counters(sims, v);
    double ctx = 0;
    double sent = 0;
    double irqs = 0;
    double resumes = 0;
    double blocked_ns = 0;
    double peak_txq = 0;
    for (int s = 0; s < stations; ++s) {
      vorx::Node& n = sys->station(s);
      ctx += static_cast<double>(n.cpu().ctx_switches());
      sent += static_cast<double>(n.kernel().frames_sent());
      irqs += static_cast<double>(n.kernel().rx_interrupts());
      resumes += static_cast<double>(n.kernel().rx_resumes());
      blocked_ns += static_cast<double>(n.kernel().tx_blocked());
      peak_txq = std::max(
          peak_txq, static_cast<double>(n.kernel().peak_tx_queue_depth()));
    }
    v.emplace_back("sim.cpu.ctx_switches", ctx);
    add_fabric_counters(sys->fabric(), v);
    v.emplace_back("vorx.kernel.frames_sent", sent);
    v.emplace_back("vorx.kernel.rx_interrupts", irqs);
    v.emplace_back("vorx.kernel.coalesce_ratio", ratio(resumes, irqs));
    v.emplace_back("vorx.kernel.tx_blocked_ms", blocked_ns / 1e6);
    v.emplace_back("vorx.kernel.peak_txq", peak_txq);
    return v;
  };
  tr.set_counters(counters);
  tr.close(build);

  const int generate = tr.open("generate", root);
  vorx::WorkloadGen gen(*sys, wcfg, opt.seed);
  tr.close(generate);
  const int install = tr.open("install", root);
  vorx::FaultInjector inj(*sys, &gen);
  inj.install(sim::FaultPlan::named("none", gen.machine_shape(), opt.seed,
                                    wcfg.horizon));
  tr.close(install);

  int run = -1;
  const auto cpu = cpu_around([&] {
    run = tr.open("run", root);
    gen.run();
    tr.close(run);
  });

  const int report = tr.open("report", root);
  const vorx::WorkloadReport r = gen.report();
  tr.close(report);

  const int verify = tr.open("verify", root);
  Result res;
  const std::string text = r.to_text();
  Digest d;
  d.add(text.data(), text.size());
  res.digest = d.value();
  if (!r.all_accounted()) {
    res.ok = false;
    res.error = "sessions not accounted for: lost=" + std::to_string(r.lost) +
                ", completed+failed=" +
                std::to_string(r.completed + r.failed_joins) + " of " +
                std::to_string(r.sessions_total);
  }
  tr.close(verify);
  tr.close(root);

  res.end_to_end = {
      {"wall_s", tr.seconds(root)},
      {"setup_s", tr.between(build, install)},
      {"failed_ratio",
       ratio(static_cast<double>(r.failed_joins + r.lost),
             static_cast<double>(r.sessions_total))},
      {"sim_p50_us", static_cast<double>(r.delivery_p50_us)},
      {"sim_p99_us", static_cast<double>(r.delivery_p99_us)},
      {"sim_join_p99_us", static_cast<double>(r.join_p99_us)},
  };
  res.layers = counters();
  add_run_timing(tr, run, cpu, rt ? static_cast<double>(rt->rounds()) : 0.0,
                 res.layers);
  res.layers.emplace_back("hw.build_s", tr.seconds(build));
  res.layers.emplace_back("vorx.workload.gen_s", tr.seconds(generate));
  res.layers.emplace_back("vorx.workload.report_s", tr.seconds(report));
  res.layers.emplace_back("vorx.workload.alloc_timeouts",
                          static_cast<double>(r.alloc_timeouts));
  // Known conservation gap (frames to departed members, frames in flight
  // at the horizon): reported as a count, not a failure.
  res.layers.emplace_back(
      "vorx.workload.frames_unaccounted",
      static_cast<double>(r.data_frames_sent) -
          static_cast<double>(r.data_frames_delivered) -
          static_cast<double>(r.fabric_frames_dropped));
  res.layers.emplace_back("bench.verify_s", tr.seconds(verify));

  if (scfg.record_counters) {
    tools::TraceExporter exp = tools::TraceExporter::from_system(*sys);
    for (std::size_t i = 1; i < sims.size(); ++i) {
      exp.add_counters(sims[i]->counters());
    }
    if (!exp.write_file(opt.trace_out + ".counters.json")) {
      res.ok = false;
      res.error = "cannot write " + opt.trace_out + ".counters.json";
    }
  }
  return res;
}

// ---------------------------------------------------------------------------
// fabric4096: the raw 4096-station hypercube under bit-reversal + uniform
// traffic, no OS or workload layer.

constexpr int kFabricStations = 4096;
constexpr int kFramesPerStation = 48;
constexpr std::uint32_t kFramePayload = 256;

// splitmix64: the benchmark's own input generator, so the inputs depend
// only on the seed and never on the program's RNG.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : x_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (x_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }

 private:
  std::uint64_t x_;
};

struct Inject {
  sim::SimTime at;
  int dst;
};

int bit_reverse(int v, int bits) {
  int out = 0;
  for (int b = 0; b < bits; ++b) {
    if ((v >> b) & 1) out |= 1 << (bits - 1 - b);
  }
  return out;
}

// Per station: frames at seeded 3-32 us gaps, alternating between the
// station's bit-reversal partner and a uniform-random other station.
std::vector<std::vector<Inject>> fabric_schedule(std::uint64_t seed) {
  int bits = 0;
  while ((1 << bits) < kFabricStations) ++bits;
  InputRng rng(seed);
  std::vector<std::vector<Inject>> sched(kFabricStations);
  for (int s = 0; s < kFabricStations; ++s) {
    sim::SimTime t = 0;
    auto& q = sched[static_cast<std::size_t>(s)];
    q.reserve(kFramesPerStation);
    for (int i = 0; i < kFramesPerStation; ++i) {
      t += sim::usec(3 + rng.below(30));
      int dst = 0;
      if (i % 2 == 0) {
        dst = bit_reverse(s, bits) % kFabricStations;
        if (dst == s) dst = (s + kFabricStations / 2) % kFabricStations;
      } else {
        dst = rng.below(kFabricStations - 1);
        if (dst >= s) ++dst;
      }
      q.push_back({t, dst});
    }
  }
  return sched;
}

// Injects each station's schedule as transmit space allows and records
// injection-to-delivery latency for every frame received.
class TrafficPump {
 public:
  TrafficPump(sim::Simulator& sim, hw::Fabric& fab,
                std::vector<std::vector<Inject>> sched)
      : sim_(sim), fab_(fab), sched_(std::move(sched)),
        next_(sched_.size(), 0), armed_(sched_.size(), 0) {
    latencies_.reserve(static_cast<std::size_t>(kFabricStations) *
                       kFramesPerStation);
  }
  TrafficPump(const TrafficPump&) = delete;
  TrafficPump& operator=(const TrafficPump&) = delete;

  void install() {
    for (int s = 0; s < fab_.num_stations(); ++s) {
      hw::Endpoint& ep = fab_.endpoint(s);
      ep.set_rx_cb([this, &ep] {
        while (auto f = ep.rx_take()) {
          latencies_.push_back(sim_.now() - f->injected_at);
        }
      });
      ep.set_tx_ready_cb([this, s] { pump(s); });
      arm(s);
    }
  }

  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::vector<sim::Duration>& latencies() { return latencies_; }

 private:
  void arm(int s) {
    const auto i = static_cast<std::size_t>(s);
    if (armed_[i] || next_[i] >= sched_[i].size()) return;
    armed_[i] = 1;
    sim_.post_at(sched_[i][next_[i]].at, [this, s] {
      armed_[static_cast<std::size_t>(s)] = 0;
      pump(s);
    });
  }

  void pump(int s) {
    const auto i = static_cast<std::size_t>(s);
    hw::Endpoint& ep = fab_.endpoint(s);
    while (next_[i] < sched_[i].size() && ep.tx_ready()) {
      const Inject& in = sched_[i][next_[i]];
      if (sim_.now() < in.at) {
        arm(s);
        return;
      }
      hw::Frame f;
      f.dst = in.dst;
      f.payload_bytes = kFramePayload;
      ep.transmit(std::move(f));
      ++sent_;
      ++next_[i];
    }
  }

  sim::Simulator& sim_;
  hw::Fabric& fab_;
  std::vector<std::vector<Inject>> sched_;
  std::vector<std::size_t> next_;
  std::vector<char> armed_;
  std::vector<sim::Duration> latencies_;
  std::uint64_t sent_ = 0;
};

double percentile_us(const std::vector<sim::Duration>& sorted, int pct) {
  if (sorted.empty()) return -1;
  const std::size_t idx =
      std::min(sorted.size() - 1, sorted.size() * static_cast<std::size_t>(pct) / 100);
  return sim::to_usec(sorted[idx]);
}

Result run_fabric(const Options& opt, Tracer& tr) {
  hw::FabricParams params;
  params.ports_per_cluster = opt.ports > 0 ? opt.ports : 16;
  params.routing = hw::RoutingMode::kAdaptive;

  const int root = tr.open("workload", -1);
  const int build = tr.open("build", root);
  sim::Simulator sim;
  std::unique_ptr<hw::Fabric> fab =
      hw::Fabric::hypercube(sim, kFabricStations, 4, params);
  auto counters = [&] {
    Values v;
    add_queue_counters({&sim}, v);
    add_fabric_counters(*fab, v);
    return v;
  };
  tr.set_counters(counters);
  tr.close(build);

  const int generate = tr.open("generate", root);
  TrafficPump traffic(sim, *fab, fabric_schedule(opt.seed));
  tr.close(generate);
  const int install = tr.open("install", root);
  traffic.install();
  tr.close(install);

  int run = -1;
  const auto cpu = cpu_around([&] {
    run = tr.open("run", root);
    sim.run();
    tr.close(run);
  });

  const int report = tr.open("report", root);
  std::vector<sim::Duration>& lat = traffic.latencies();
  std::sort(lat.begin(), lat.end());
  const double p50 = percentile_us(lat, 50);
  const double p99 = percentile_us(lat, 99);
  tr.close(report);

  const int verify = tr.open("verify", root);
  Result res;
  const std::uint64_t offered =
      static_cast<std::uint64_t>(kFabricStations) * kFramesPerStation;
  Digest d;
  d.add(static_cast<std::int64_t>(offered));
  for (const sim::Duration l : lat) d.add(l);
  res.digest = d.value();
  if (traffic.sent() != offered || lat.size() != offered ||
      fab->frames_dropped() != 0) {
    res.ok = false;
    res.error = "fabric lost frames: offered " + std::to_string(offered) +
                ", sent " + std::to_string(traffic.sent()) + ", delivered " +
                std::to_string(lat.size()) + ", dropped " +
                std::to_string(fab->frames_dropped());
  }
  tr.close(verify);
  tr.close(root);

  res.end_to_end = {
      {"wall_s", tr.seconds(root)},
      {"setup_s", tr.between(build, install)},
      {"failed_ratio", ratio(static_cast<double>(offered - lat.size()),
                             static_cast<double>(offered))},
      {"sim_p50_us", p50},
      {"sim_p99_us", p99},
      {"sim_join_p99_us", 0.0},
  };
  res.layers = counters();
  add_run_timing(tr, run, cpu, 0.0, res.layers);
  res.layers.emplace_back("hw.build_s", tr.seconds(build));
  res.layers.emplace_back("bench.gen_s", tr.seconds(generate));
  res.layers.emplace_back("bench.verify_s", tr.seconds(verify));
  return res;
}

int usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\n"
               "usage: %s --workload storm|storm_sharded|fabric4096 --seed N\n"
               "          [--ports P] [--trace-out FILE]\n",
               argv0, why.c_str(), argv0);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (val == nullptr) return usage(argv[0], flag + " needs a value");
    ++i;
    if (flag == "--workload") {
      opt.workload = val;
    } else if (flag == "--seed") {
      if (!parse_u64(val, opt.seed)) {
        return usage(argv[0], std::string("--seed wants a non-negative "
                                          "integer, got '") + val + "'");
      }
      have_seed = true;
    } else if (flag == "--ports") {
      std::uint64_t p = 0;
      if (!parse_u64(val, p) || p < 1 || p > 64) {
        return usage(argv[0], std::string("--ports wants 1..64, got '") +
                                  val + "'");
      }
      opt.ports = static_cast<int>(p);
    } else if (flag == "--trace-out") {
      opt.trace_out = val;
    } else {
      return usage(argv[0], "unknown flag " + flag);
    }
  }
  if (!have_seed) return usage(argv[0], "--seed is required");

  Tracer tr(!opt.trace_out.empty());
  Result res;
  try {
    if (opt.workload == "storm") {
      res = run_storm(opt, tr, 0);
    } else if (opt.workload == "storm_sharded") {
      res = run_storm(opt, tr, 4);
    } else if (opt.workload == "fabric4096") {
      res = run_fabric(opt, tr);
    } else {
      return usage(argv[0], "unknown workload '" + opt.workload +
                                "' (storm, storm_sharded, fabric4096)");
    }
  } catch (const std::invalid_argument& e) {
    return usage(argv[0], std::string("bad configuration: ") + e.what());
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  res.end_to_end.emplace_back("peak_rss_mb",
                              static_cast<double>(ru.ru_maxrss) / 1024.0);

  if (!opt.trace_out.empty()) {
    const std::string run_id = opt.workload + "-" + std::to_string(opt.seed) +
                               "-" + std::to_string(getpid());
    if (!tr.write(opt.trace_out, run_id)) {
      res.ok = false;
      res.error = "cannot write " + opt.trace_out;
    }
  }

  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(res.digest));
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"ok\": %s, "
              "\"digest\": \"%s\", \"end_to_end\": %s, \"layers\": %s}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              res.ok ? "true" : "false", digest,
              json_values(res.end_to_end).c_str(),
              json_values(res.layers).c_str());
  if (!res.ok) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", res.error.c_str());
    return 1;
  }
  return 0;
}
