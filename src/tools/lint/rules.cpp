#include "tools/lint/rules.hpp"

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace hpcvorx::lint {
namespace {

// ---------------------------------------------------------------------------
// Rule catalogue
// ---------------------------------------------------------------------------

const std::vector<RuleInfo> kRules = {
    {"R1", "determinism",
     "Simulated runs must be bit-identical across reruns and machines.  Any "
     "wall-clock read, libc PRNG, std::random_device, or environment lookup "
     "injects state the experiment configuration does not control.",
     "Derive all randomness from sim::Rng seeded by the experiment config, "
     "and all time from the simulator's virtual clock (sim::SimTime)."},
    {"R2", "coroutine-safety",
     "Every suspension must be owned by the simulator.  A coroutine with a "
     "non-Task/Proc return type silently compiles to something never "
     "scheduled; a capturing-lambda coroutine keeps references into a "
     "closure frame that dies before the coroutine does (lifetime UB); a "
     "discarded sim::Task never runs at all.",
     "Return sim::Task<...> (awaited work) or sim::Proc (fire-and-forget "
     "process); hoist lambda coroutines into named functions taking the "
     "captured state as parameters; co_await every Task you create."},
    {"R3", "no-real-concurrency",
     "No concurrency except via the shard runtime: each shard's simulator "
     "is single-threaded, and determinism comes from its totally ordered "
     "event queue plus the runtime's fixed barrier-drain order.  OS "
     "threads, mutexes, atomics, or blocking sleeps anywhere else "
     "reintroduce scheduler nondeterminism and stall virtual time.  The "
     "runtime's own translation units (sim/shard_runtime.*) carry "
     "reasoned file-level allow(R3) directives per the DESIGN.md §11/§12 "
     "contract.",
     "Model concurrency as coroutines; replace every blocking wait with "
     "co_await delay(sim, d) or a sim synchronization primitive.  Need "
     "wall-clock parallelism?  Partition work across sim::ShardRuntime "
     "shards instead of spawning threads."},
    {"R4", "layering",
     "The include graph must respect sim < hw < vorx < {apps, tools} so the "
     "Meglos-vs-VORX pairing stays swappable: sim knows nothing of hardware "
     "models, hw nothing of the OS, vorx nothing of applications.  Include "
     "cycles break the ordering in both directions at once.",
     "Move shared declarations down a layer, or invert the dependency with "
     "a callback/interface owned by the lower layer."},
    {"R5", "hot-path-allocation",
     "Steady-state frame payloads in the hw/ and vorx/ layers must come "
     "from hw::FramePool.  Every make_payload or make_shared<vector<byte>> "
     "there mints a fresh control block plus byte buffer per frame — "
     "exactly the per-event allocation traffic the pool exists to absorb "
     "(tests, apps, and tools are exempt: they are not on the hot path).",
     "Build payloads through the fabric's pool: frame_pool().buffer() + "
     "frame_pool().make(std::move(bytes)), or frame_pool().make_copy(p, n)."},
    {"R6", "shared-mutable-state",
     "A sharded parallel engine (ROADMAP direction 2) runs several "
     "schedulers in one process.  Namespace-scope mutable variables, "
     "static locals, and thread_local caches are process-wide: two shards "
     "touching them race or entangle their event streams, and TSan flags "
     "exactly these sites first.  const/constexpr data is exempt.",
     "Move the state into the owning object (Simulator, Node, a pool "
     "instance); mint ids from Simulator::allocate_id(); if the global is "
     "genuinely one-per-process, justify it with an allow(R6) comment."},
    {"R7", "ordering-hazards",
     "Iteration order of pointer-keyed or unordered containers follows "
     "hash/allocation addresses, which vary run to run and shard to shard. "
     "Feeding that order into event posts or counter emission silently "
     "breaks bit-identical replay; casting pointers to integers bakes "
     "addresses into values the trace then depends on.",
     "Key containers by stable integer ids, iterate a sorted copy when the "
     "loop posts events or emits counters, and never use addresses as "
     "ordering keys or trace values."},
    {"R8", "coroutine-lifetime",
     "std::coroutine_handle and sim::Task are (or wrap) non-owning views "
     "of a coroutine frame.  Storing handles in containers or plain "
     "members beyond the owner's scope, or capturing locals by reference "
     "in lambdas handed to schedulers, resumes or destroys frames that may "
     "already be gone — a use-after-free a sharded runtime turns from "
     "latent into fatal.  Awaiter/promise types are exempt: holding the "
     "handle is their job.",
     "Let sim::Task own the frame and co_await it; store owning Tasks, not "
     "raw handles; capture state by value in scheduled lambdas; justify a "
     "deliberate owner-of-last-resort registry with allow(R8)."},
};

// ---------------------------------------------------------------------------
// R1 / R3: banned identifiers and banned headers
// ---------------------------------------------------------------------------

enum class Match {
  kAnywhere,        // the identifier alone is enough
  kCall,            // identifier followed by '(' and not a member access
  kStdQualified,    // preceded by `std ::`
  kGlobalQualified, // preceded by a global `::` (token before `::` not a name)
  kPrefix,          // identifier starts with this text
};

struct BannedIdent {
  const char* ident;
  Match match;
  const char* rule;
  const char* hint;
};

const BannedIdent kBannedIdents[] = {
    // R1: ambient nondeterminism.
    {"system_clock", Match::kAnywhere, "R1", "use the simulator's virtual clock"},
    {"steady_clock", Match::kAnywhere, "R1", "use the simulator's virtual clock"},
    {"high_resolution_clock", Match::kAnywhere, "R1", "use the simulator's virtual clock"},
    {"random_device", Match::kAnywhere, "R1", "seed sim::Rng from the experiment config"},
    {"default_random_engine", Match::kAnywhere, "R1", "use sim::Rng (xoshiro256**)"},
    {"gettimeofday", Match::kAnywhere, "R1", "use the simulator's virtual clock"},
    {"clock_gettime", Match::kAnywhere, "R1", "use the simulator's virtual clock"},
    {"localtime", Match::kAnywhere, "R1", "use the simulator's virtual clock"},
    {"gmtime", Match::kAnywhere, "R1", "use the simulator's virtual clock"},
    {"mktime", Match::kAnywhere, "R1", "use the simulator's virtual clock"},
    {"getenv", Match::kAnywhere, "R1", "thread configuration through explicit parameters"},
    {"secure_getenv", Match::kAnywhere, "R1", "thread configuration through explicit parameters"},
    {"setenv", Match::kAnywhere, "R1", "thread configuration through explicit parameters"},
    {"putenv", Match::kAnywhere, "R1", "thread configuration through explicit parameters"},
    {"rand", Match::kCall, "R1", "use sim::Rng seeded from the experiment config"},
    {"srand", Match::kCall, "R1", "use sim::Rng seeded from the experiment config"},
    // The wider libc/POSIX PRNG family.  All are kCall (these names are
    // plausible locals/members elsewhere); `random` itself is only banned
    // when globally qualified — `Circuit::random(...)`-style factories are
    // legitimate and common.
    {"rand_r", Match::kCall, "R1", "use sim::Rng seeded from the experiment config"},
    {"random", Match::kGlobalQualified, "R1", "use sim::Rng seeded from the experiment config"},
    {"srandom", Match::kCall, "R1", "use sim::Rng seeded from the experiment config"},
    {"drand48", Match::kCall, "R1", "use sim::Rng seeded from the experiment config"},
    {"erand48", Match::kCall, "R1", "use sim::Rng seeded from the experiment config"},
    {"lrand48", Match::kCall, "R1", "use sim::Rng seeded from the experiment config"},
    {"nrand48", Match::kCall, "R1", "use sim::Rng seeded from the experiment config"},
    {"mrand48", Match::kCall, "R1", "use sim::Rng seeded from the experiment config"},
    {"jrand48", Match::kCall, "R1", "use sim::Rng seeded from the experiment config"},
    {"srand48", Match::kCall, "R1", "use sim::Rng seeded from the experiment config"},
    {"seed48", Match::kCall, "R1", "use sim::Rng seeded from the experiment config"},
    {"lcong48", Match::kCall, "R1", "use sim::Rng seeded from the experiment config"},
    // Kernel entropy and the BSD arc4random family (prefix covers
    // arc4random_uniform / arc4random_buf).
    {"getrandom", Match::kCall, "R1", "seed sim::Rng from the experiment config"},
    {"getentropy", Match::kCall, "R1", "seed sim::Rng from the experiment config"},
    {"arc4random", Match::kPrefix, "R1", "seed sim::Rng from the experiment config"},
    // <random> engines beyond default_random_engine: the concrete standard
    // engines (prefix covers mt19937_64, minstd_rand0, the ranlux sizes)
    // and the raw engine templates they alias.
    {"mt19937", Match::kPrefix, "R1", "use sim::Rng (xoshiro256**)"},
    {"minstd_rand", Match::kPrefix, "R1", "use sim::Rng (xoshiro256**)"},
    {"ranlux", Match::kPrefix, "R1", "use sim::Rng (xoshiro256**)"},
    {"knuth_b", Match::kAnywhere, "R1", "use sim::Rng (xoshiro256**)"},
    {"mersenne_twister_engine", Match::kAnywhere, "R1", "use sim::Rng (xoshiro256**)"},
    {"linear_congruential_engine", Match::kAnywhere, "R1", "use sim::Rng (xoshiro256**)"},
    {"subtract_with_carry_engine", Match::kAnywhere, "R1", "use sim::Rng (xoshiro256**)"},
    {"time", Match::kStdQualified, "R1", "use the simulator's virtual clock"},
    {"time", Match::kGlobalQualified, "R1", "use the simulator's virtual clock"},
    // R3: real threads / blocking waits.
    {"this_thread", Match::kAnywhere, "R3", "co_await delay(sim, d) instead"},
    {"jthread", Match::kAnywhere, "R3", "model the activity as a sim::Proc coroutine"},
    {"sleep_for", Match::kAnywhere, "R3", "co_await delay(sim, d) instead"},
    {"sleep_until", Match::kAnywhere, "R3", "co_await delay(sim, d) instead"},
    {"usleep", Match::kAnywhere, "R3", "co_await delay(sim, usec(n)) instead"},
    {"nanosleep", Match::kAnywhere, "R3", "co_await delay(sim, d) instead"},
    {"condition_variable", Match::kAnywhere, "R3", "use a sim Event/Gate awaitable"},
    {"condition_variable_any", Match::kAnywhere, "R3", "use a sim Event/Gate awaitable"},
    {"sleep", Match::kGlobalQualified, "R3", "co_await delay(sim, sec(n)) instead"},
    {"thread", Match::kStdQualified, "R3", "model the activity as a sim::Proc coroutine"},
    {"mutex", Match::kStdQualified, "R3", "use the sim mutex (coroutine-aware)"},
    {"recursive_mutex", Match::kStdQualified, "R3", "use the sim mutex (coroutine-aware)"},
    {"timed_mutex", Match::kStdQualified, "R3", "use the sim mutex (coroutine-aware)"},
    {"shared_mutex", Match::kStdQualified, "R3", "use the sim mutex (coroutine-aware)"},
    {"lock_guard", Match::kStdQualified, "R3", "use the sim mutex (coroutine-aware)"},
    {"unique_lock", Match::kStdQualified, "R3", "use the sim mutex (coroutine-aware)"},
    {"scoped_lock", Match::kStdQualified, "R3", "use the sim mutex (coroutine-aware)"},
    {"async", Match::kStdQualified, "R3", "spawn a sim::Proc and join via Promise"},
    {"future", Match::kStdQualified, "R3", "use sim::Promise / sim::Task"},
    {"shared_future", Match::kStdQualified, "R3", "use sim::Promise / sim::Task"},
    {"promise", Match::kStdQualified, "R3", "use sim::Promise (promise.hpp)"},
    {"counting_semaphore", Match::kStdQualified, "R3", "use a sim semaphore awaitable"},
    {"binary_semaphore", Match::kStdQualified, "R3", "use a sim semaphore awaitable"},
    {"latch", Match::kStdQualified, "R3", "use a sim Gate awaitable"},
    {"barrier", Match::kStdQualified, "R3", "use a sim Gate awaitable"},
    {"atomic", Match::kStdQualified, "R3", "single-threaded sim code needs no atomics"},
    {"atomic_flag", Match::kStdQualified, "R3", "single-threaded sim code needs no atomics"},
    {"pthread_", Match::kPrefix, "R3", "model the activity as a sim::Proc coroutine"},
};

struct BannedHeader {
  const char* header;
  const char* rule;
  const char* hint;
};

const BannedHeader kBannedHeaders[] = {
    {"chrono", "R1", "virtual time lives in sim/time.hpp"},
    {"random", "R1", "deterministic randomness lives in sim/random.hpp"},
    {"ctime", "R1", "virtual time lives in sim/time.hpp"},
    {"time.h", "R1", "virtual time lives in sim/time.hpp"},
    {"sys/time.h", "R1", "virtual time lives in sim/time.hpp"},
    {"thread", "R3", "model concurrency as coroutines"},
    {"mutex", "R3", "use sim synchronization primitives"},
    {"shared_mutex", "R3", "use sim synchronization primitives"},
    {"condition_variable", "R3", "use sim synchronization primitives"},
    {"future", "R3", "use sim::Promise / sim::Task"},
    {"semaphore", "R3", "use sim synchronization primitives"},
    {"latch", "R3", "use sim synchronization primitives"},
    {"barrier", "R3", "use sim synchronization primitives"},
    {"stop_token", "R3", "model cancellation inside the simulation"},
    {"atomic", "R3", "single-threaded sim code needs no atomics"},
    {"pthread.h", "R3", "model concurrency as coroutines"},
    {"unistd.h", "R3", "no blocking syscalls inside the simulation"},
    {"sys/wait.h", "R3", "no OS processes inside the simulation"},
};

bool is_name(const Token& t) { return Model::is_name(t); }

// ---------------------------------------------------------------------------
// Shared keyword sets
// ---------------------------------------------------------------------------

const std::set<std::string> kControlKeywords = {
    "if", "for", "while", "switch", "catch", "do", "else", "try", "return",
    "co_return", "co_yield", "co_await", "new", "throw", "case", "default"};
const std::set<std::string> kTypeKeywords = {"class", "struct", "union",
                                             "enum"};
const std::set<std::string> kTrailerTokens = {
    "const", "noexcept", "override", "final", "mutable", "constexpr", "try",
    "->", "::", "<", ">", "&", "*", ",", "[", "]", "volatile", "&&"};

// Container templates whose element storage outlives any single statement —
// used by the R8 stored-handle/stored-task checks.
const std::set<std::string> kContainers = {
    "vector", "deque", "list", "forward_list", "map", "multimap", "set",
    "multiset", "unordered_map", "unordered_multimap", "unordered_set",
    "unordered_multiset", "queue", "priority_queue", "stack", "array",
    "span", "optional"};

// Member names whose presence marks a type as part of the coroutine
// machinery itself (awaiter / promise / task wrapper): such types hold
// handles by design and are exempt from R8 stored-handle.
const std::set<std::string> kAwaiterMarkers = {
    "await_ready",    "await_suspend",       "await_resume",
    "promise_type",   "get_return_object",   "initial_suspend",
    "final_suspend",  "unhandled_exception"};

// Scheduling/registration sinks: a by-reference lambda passed straight into
// one of these outlives the enclosing frame (R8 ref-capture-escape).
const std::set<std::string> kEscapeSinks = {
    "register_handler", "spawn_process", "schedule_at", "schedule_after",
    "post_at",          "post_after",    "subscribe",   "set_handler",
    "defer"};

// Associative containers for the R7 pointer-key check.
const std::set<std::string> kAssocContainers = {
    "map",           "multimap",           "set",
    "multiset",      "unordered_map",      "unordered_multimap",
    "unordered_set", "unordered_multiset"};

// Event/trace sinks for the R7 unordered-iteration check: emitting into one
// of these from an unordered loop makes the event order address-dependent.
const std::set<std::string> kOrderSinks = {
    "post",        "post_at",        "post_after", "schedule_at",
    "schedule_after", "sample",      "send",       "deliver"};

// ---------------------------------------------------------------------------
// Diagnostic sink
// ---------------------------------------------------------------------------

struct Sink {
  const std::string& path;
  std::vector<Diagnostic>& out;
  void operator()(int line, const char* rule, const char* check,
                  std::string message) const {
    out.push_back({path, line, rule, check, std::move(message)});
  }
};

// ---------------------------------------------------------------------------
// Scope analysis (shared by R2, R6, R8)
// ---------------------------------------------------------------------------

struct Scope {
  enum Kind { kTransparent, kNamespace, kType, kFunction, kLambda } kind =
      kTransparent;
  int header_line = 0;
  std::string name;                  // function name, for diagnostics
  std::vector<std::string> ret;      // declared / trailing return type tokens
  bool has_trailing_return = false;  // lambdas only
  bool capturing = false;            // lambdas only
  bool reported = false;             // one R2 diagnostic per scope
  bool awaiterish = false;           // types only: coroutine-machinery shape
  int saved_paren_depth = 0;
};

bool contains_task_or_proc(const std::vector<std::string>& type_tokens) {
  for (const auto& t : type_tokens)
    if (t == "Task" || t == "Proc") return true;
  return false;
}

// Classifies the tokens between the previous statement boundary and a `{`.
Scope classify_segment(const std::vector<Token>& toks, std::size_t a,
                       std::size_t b) {
  Scope s;
  if (a >= b) return s;
  s.header_line = toks[b - 1].line;

  // Lambda first — `return [xs](...) -> sim::Task<void> {` starts with a
  // control keyword but the brace opens the lambda's body: find the last
  // lambda-introducer whose parameter list/specifiers run to the end of
  // the segment.
  for (std::size_t i = b; i-- > a;) {
    if (toks[i].text != "[") continue;
    if (i > a &&
        ((is_name(toks[i - 1]) && !kControlKeywords.count(toks[i - 1].text)) ||
         toks[i - 1].text == ")" || toks[i - 1].text == "]"))
      continue;  // subscript (but `return [` etc. introduce a lambda)
    if (i + 1 < b && toks[i + 1].text == "[") continue;  // [[attribute]]
    if (i > a && toks[i - 1].text == "[") continue;
    std::size_t close = Model::match_forward(toks, i, "[", "]");
    if (close == i || close >= b) continue;
    // After the capture list: optional (params), specifiers, -> type.
    std::size_t j = close + 1;
    if (j < b && toks[j].text == "(")
      j = Model::match_forward(toks, j, "(", ")") + 1;
    bool trailing = false;
    std::vector<std::string> ret;
    bool ok = true;
    for (; j < b; ++j) {
      if (toks[j].text == "->" && !trailing) {
        trailing = true;
        continue;
      }
      if (trailing)
        ret.push_back(toks[j].text);
      else if (!kTrailerTokens.count(toks[j].text) && !is_name(toks[j])) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    s.kind = Scope::kLambda;
    s.name = "<lambda>";
    s.capturing = close > i + 1;
    s.has_trailing_return = trailing;
    s.ret = std::move(ret);
    return s;
  }

  if (kControlKeywords.count(toks[a].text)) return s;

  // Function: a top-level (...) with only trailers (or a trailing return
  // type) between its ')' and the '{'.
  std::size_t last_close = b;
  int depth = 0;
  for (std::size_t j = b; j-- > a;) {
    if (toks[j].text == ")") {
      if (depth == 0) {
        last_close = j;
        break;
      }
      --depth;
    } else if (toks[j].text == "(") {
      ++depth;
    }
  }
  if (last_close != b) {
    bool trailers_only = true;
    bool trailing = false;
    std::vector<std::string> trailing_ret;
    for (std::size_t j = last_close + 1; j < b; ++j) {
      if (toks[j].text == "->" && !trailing) {
        trailing = true;
        continue;
      }
      if (trailing) {
        trailing_ret.push_back(toks[j].text);
        continue;
      }
      if (!kTrailerTokens.count(toks[j].text) && !is_name(toks[j])) {
        trailers_only = false;
        break;
      }
    }
    if (trailers_only) {
      // Find the first top-level '(' — the parameter list — and read the
      // (possibly qualified) function name just before it.
      std::size_t first_open = b;
      for (std::size_t j = a; j < b; ++j) {
        if (toks[j].text == "(") {
          first_open = j;
          break;
        }
      }
      if (first_open != b && first_open > a) {
        // Walk back over one maximal qualified-id: name, optional '~', then
        // `ident ::` pairs.  Alternation matters — in `sim::Proc K::f(` the
        // id is `K::f`, and the adjacent identifiers `Proc K` mark where the
        // return type ends.
        std::size_t name_end = first_open;  // one past the name
        std::size_t name_begin = name_end;
        if (name_begin > a && is_name(toks[name_begin - 1])) --name_begin;
        if (name_begin < name_end && name_begin > a &&
            toks[name_begin - 1].text == "~")
          --name_begin;
        while (name_begin > a + 1 && toks[name_begin - 1].text == "::" &&
               is_name(toks[name_begin - 2])) {
          name_begin -= 2;
        }
        if (name_begin < name_end && name_begin > a &&
            toks[name_begin - 1].text == "::")
          --name_begin;
        if (name_begin < name_end) {
          s.kind = Scope::kFunction;
          s.name = toks[name_end - 1].text;
          if (trailing) {
            s.ret = std::move(trailing_ret);
          } else {
            for (std::size_t j = a; j < name_begin; ++j)
              s.ret.push_back(toks[j].text);
          }
          return s;
        }
      }
    }
  }

  for (std::size_t j = a; j < b; ++j) {
    if (toks[j].text == "namespace") {
      s.kind = Scope::kNamespace;
      return s;
    }
    if (kTypeKeywords.count(toks[j].text)) {
      s.kind = Scope::kType;
      return s;
    }
  }
  return s;  // plain block / initializer braces — transparent
}

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const auto& t : v) {
    if (t.empty()) continue;
    if (!out.empty() && ident_start(t[0]) && ident_start(out.back()))
      out += ' ';
    out += t;
  }
  return out;
}

}  // namespace

const std::vector<RuleInfo>& rules() { return kRules; }

const RuleInfo* find_rule(const std::string& id) {
  for (const auto& r : kRules)
    if (r.id == id) return &r;
  return nullptr;
}

namespace {

// ---------------------------------------------------------------------------
// R1 / R3 passes
// ---------------------------------------------------------------------------

void check_banned_idents(const std::vector<Token>& t, const Sink& emit) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_name(t[i])) continue;
    const std::string& id = t[i].text;
    for (const auto& b : kBannedIdents) {
      bool hit = false;
      switch (b.match) {
        case Match::kAnywhere:
          hit = id == b.ident;
          break;
        case Match::kCall:
          hit = id == b.ident && i + 1 < t.size() && t[i + 1].text == "(" &&
                (i == 0 || (t[i - 1].text != "." && t[i - 1].text != "->"));
          break;
        case Match::kStdQualified:
          hit = id == b.ident && i >= 2 && t[i - 1].text == "::" &&
                t[i - 2].text == "std";
          break;
        case Match::kGlobalQualified:
          hit = id == b.ident && i >= 1 && t[i - 1].text == "::" &&
                (i == 1 || !is_name(t[i - 2]));
          break;
        case Match::kPrefix:
          hit = id.rfind(b.ident, 0) == 0;
          break;
      }
      if (hit) {
        std::string shown =
            b.match == Match::kStdQualified
                ? "std::" + id
                : (b.match == Match::kGlobalQualified ? "::" + id : id);
        emit(t[i].line, b.rule, "banned-token",
             "banned identifier '" + shown + "': " + b.hint);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R1 / R3 headers; R4 layering + include cycles
// ---------------------------------------------------------------------------

void check_headers(const Model& model, std::size_t idx, int file_layer,
                   const std::string& file_comp,
                   const std::map<std::string, std::size_t>& index,
                   const Sink& emit) {
  for (const Include& inc : model.includes_of(idx)) {
    if (inc.angled) {
      for (const auto& b : kBannedHeaders) {
        if (inc.path == b.header) {
          emit(inc.line, b.rule, "banned-header",
               "banned header <" + inc.path + ">: " + b.hint);
          break;
        }
      }
      continue;
    }
    if (file_layer < 0) continue;
    const std::string inc_comp = Model::top_component(inc.path);
    if (inc_comp.empty()) continue;  // same-directory relative include
    const int inc_layer = Model::layer_of(inc_comp);
    if (inc_layer < 0) continue;
    if (inc_layer > file_layer) {
      emit(inc.line, "R4", "layer-inversion",
           file_comp + "/ may not include " + inc_comp +
               "/ (layering: sim < hw < vorx < {apps, tools}): \"" + inc.path +
               "\"");
    } else if (inc_layer == 3 && file_layer == 3 && inc_comp != file_comp) {
      emit(inc.line, "R4", "peer-include",
           file_comp + "/ and " + inc_comp +
               "/ are peer leaf layers and may not include each other: \"" +
               inc.path + "\"");
    }
    // Cycle detection over resolved edges: if the included file can include
    // its way back here, this include closes a cycle.
    auto it = index.find(inc.path);
    if (it != index.end() && it->second != idx &&
        model.path_exists(it->second, idx)) {
      emit(inc.line, "R4", "include-cycle",
           "\"" + inc.path +
               "\" includes its way back to this file (include cycle)");
    }
  }
}

// ---------------------------------------------------------------------------
// R5: hot-path payload allocation (hw/ and vorx/ only)
// ---------------------------------------------------------------------------

void check_hot_path_alloc(const std::vector<Token>& t, const Sink& emit) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_name(t[i])) continue;
    const std::string& id = t[i].text;
    if (id == "make_payload" && i + 1 < t.size() && t[i + 1].text == "(") {
      emit(t[i].line, "R5", "raw-payload-alloc",
           "make_payload allocates a fresh control block + buffer per "
           "frame; build steady-state payloads through hw::FramePool "
           "(frame_pool().make / make_copy)");
    } else if (id == "make_shared" && i + 1 < t.size() &&
               t[i + 1].text == "<") {
      // Flag only the byte-vector payload spelling: scan the template
      // argument list for both `vector` and `byte`.
      bool saw_vector = false;
      bool saw_byte = false;
      int depth = 0;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        const std::string& tk = t[j].text;
        if (tk == "<") {
          ++depth;
        } else if (tk == ">") {
          if (--depth == 0) break;
        } else if (tk == "vector") {
          saw_vector = true;
        } else if (tk == "byte") {
          saw_byte = true;
        } else if (tk == ";" || tk == "{" || tk == ")") {
          break;  // comparison chain, not a template argument list
        }
      }
      if (saw_vector && saw_byte) {
        emit(t[i].line, "R5", "raw-payload-alloc",
             "make_shared<...vector<byte>...> is a raw payload "
             "allocation on the frame hot path; use "
             "hw::FramePool::make instead");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R6 helpers
// ---------------------------------------------------------------------------

// Namespace-scope declaration check: the token range [a, b) sits directly at
// namespace/global scope and ends at `;` or at the `{` of a brace
// initializer.  Flags mutable (non-const, non-static — statics have their
// own check) variable definitions.
void check_global_decl(const std::vector<Token>& t, std::size_t a,
                       std::size_t b, const Sink& emit) {
  if (b <= a) return;
  // Truncate at the first top-level '=' so `int g = expr;` is judged by its
  // declarator, not its initializer.
  int angle = 0;
  std::size_t end = b;
  for (std::size_t j = a; j < b; ++j) {
    const std::string& tk = t[j].text;
    if (tk == "<") {
      ++angle;
    } else if (tk == ">") {
      if (angle > 0) --angle;
    } else if (angle == 0 && tk == "=") {
      end = j;
      break;
    }
  }
  while (a < end && t[a].text == "inline") ++a;
  if (a >= end) return;
  static const std::set<std::string> kNotADecl = {
      "using",    "typedef", "extern",   "friend",        "template",
      "static_assert", "namespace", "class", "struct",    "union",
      "enum",     "concept", "operator", "return",        "public",
      "private",  "protected", "goto",   "asm",           "export",
      "if",       "for",     "while",    "switch",        "case",
      "default",  "else",    "do",       "try",           "catch",
      "new",      "delete",  "throw",    "co_return",     "co_await",
      "co_yield", "requires"};
  if (kNotADecl.count(t[a].text)) return;
  angle = 0;
  int idents = 0;
  std::string name;
  int name_line = t[a].line;
  for (std::size_t j = a; j < end; ++j) {
    const std::string& tk = t[j].text;
    if (t[j].kind == Token::Kind::kHeader) return;  // include, not a decl
    if (tk == "<") {
      ++angle;
      continue;
    }
    if (tk == ">") {
      if (angle > 0) --angle;
      continue;
    }
    if (angle > 0) continue;
    if (tk == "(") return;  // function declaration / function pointer
    if (tk == "const" || tk == "constexpr" || tk == "constinit" ||
        tk == "static" || tk == "thread_local")
      return;  // immutable, or handled by the static check
    if (is_name(t[j])) {
      ++idents;
      name = tk;
      name_line = t[j].line;
    }
  }
  const Token& last = t[end - 1];
  if (!(is_name(last) || last.text == "]")) return;
  if (idents < 2) return;  // need at least a type and a name
  emit(name_line, "R6", "global-mutable",
       "namespace-scope mutable variable '" + name +
           "' is process-wide shared state; shards would race on it — move "
           "it into the owning object or mark it const/constexpr");
}

// ---------------------------------------------------------------------------
// The combined scope walk: R2 coroutine checks, R6 shared state, R8 stored
// handles/tasks.  One pass so all three see the same scope stack.
// ---------------------------------------------------------------------------

void scope_walk(const std::vector<Token>& t, bool shard_layer,
                bool known_layer, const Model& model, const Sink& emit) {
  std::vector<Scope> stack;
  std::size_t seg_start = 0;
  int paren_depth = 0;

  auto effective_scope = [&]() -> const Scope* {
    for (std::size_t d = stack.size(); d-- > 0;)
      if (stack[d].kind != Scope::kTransparent) return &stack[d];
    return nullptr;
  };
  auto at_namespace_scope = [&]() {
    return stack.empty() || stack.back().kind == Scope::kNamespace;
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& tok = t[i].text;
    if (tok == "(") {
      ++paren_depth;
      continue;
    }
    if (tok == ")") {
      if (paren_depth > 0) --paren_depth;
      continue;
    }
    if (tok == ";" && paren_depth == 0) {
      if (shard_layer && at_namespace_scope())
        check_global_decl(t, seg_start, i, emit);
      seg_start = i + 1;
      continue;
    }
    if (tok == "{") {
      Scope s = classify_segment(t, seg_start, i);
      if (s.kind == Scope::kTransparent && shard_layer &&
          at_namespace_scope()) {
        // `std::vector<int> g{...};` — a brace initializer at namespace
        // scope is still a variable definition.
        check_global_decl(t, seg_start, i, emit);
      }
      if (s.kind == Scope::kType) {
        // Awaiter/promise shape: the class's own members carry
        // coroutine-protocol names.  Nested braces (member bodies, nested
        // types) are skipped, so a class that merely nests an awaiter is
        // not one.  Inherit from enclosing types — a nested awaiter's
        // helper struct is machinery too.
        const std::size_t close = Model::match_forward(t, i, "{", "}");
        for (std::size_t j = i + 1; j < close; ++j) {
          if (t[j].text == "{") {
            j = Model::match_forward(t, j, "{", "}");
            continue;
          }
          if (is_name(t[j]) && kAwaiterMarkers.count(t[j].text)) {
            s.awaiterish = true;
            break;
          }
        }
        if (!s.awaiterish) {
          for (const Scope& outer : stack)
            if (outer.kind == Scope::kType && outer.awaiterish)
              s.awaiterish = true;
        }
      }
      s.saved_paren_depth = paren_depth;
      stack.push_back(std::move(s));
      seg_start = i + 1;
      paren_depth = 0;
      continue;
    }
    if (tok == "}") {
      if (!stack.empty()) {
        paren_depth = stack.back().saved_paren_depth;
        stack.pop_back();
      }
      seg_start = i + 1;
      continue;
    }

    // --- R6: static / thread_local mutable state -------------------------
    if (shard_layer && (tok == "static" || tok == "thread_local") &&
        paren_depth == 0) {
      bool is_const =
          (i > 0 && (t[i - 1].text == "const" || t[i - 1].text == "constexpr" ||
                     t[i - 1].text == "constinit")) ||
          (i > 1 && (t[i - 2].text == "const" || t[i - 2].text == "constexpr" ||
                     t[i - 2].text == "constinit"));
      bool is_var = false;
      int angle = 0;
      int bracket = 0;  // idents inside [...] are array bounds, not the name
      std::string name;
      int name_line = t[i].line;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        const std::string& tk = t[j].text;
        if (tk == "<") {
          ++angle;
        } else if (tk == ">") {
          if (angle > 0) --angle;
        } else if (angle == 0) {
          if (tk == "[") {
            ++bracket;
            continue;
          }
          if (tk == "]") {
            if (bracket > 0) --bracket;
            continue;
          }
          if (bracket > 0) continue;
          if (tk == "(" || tk == "}") break;  // function / end of scope
          if (tk == ";" || tk == "=" || tk == "{") {
            is_var = true;
            break;
          }
          if (tk == "const" || tk == "constexpr" || tk == "constinit") {
            is_const = true;
            break;
          }
          if (is_name(t[j])) {
            name = tk;
            name_line = t[j].line;
          }
        }
      }
      if (is_var && !is_const) {
        emit(name_line, "R6", "static-mutable",
             "'" + (name.empty() ? std::string("<unnamed>") : name) + "' is " +
                 tok +
                 " mutable state shared across the whole process; a sharded "
                 "runtime needs this per-shard — move it into the owning "
                 "object (e.g. mint ids via Simulator::allocate_id())");
      }
      continue;
    }

    // --- R8: handles/Tasks stored beyond their owner ---------------------
    if (known_layer && paren_depth == 0 &&
        (tok == "coroutine_handle" || tok == "Task") && is_name(t[i])) {
      bool in_container = false;
      bool aliasing = false;
      for (std::size_t k = i; k-- > 0;) {
        const std::string& tk = t[k].text;
        // Parens bound the scan too: a `(` or `)` before the declarator
        // means we crossed into a parameter list or trailing-return-type
        // position, where a `vector` is somebody else's.
        if (tk == ";" || tk == "{" || tk == "}" || tk == "(" || tk == ")")
          break;
        if (kContainers.count(tk)) in_container = true;
        if (tk == "using" || tk == "typedef" || tk == "friend" ||
            tk == "template")
          aliasing = true;
      }
      // Forward shape: a '(' at angle depth 0 before the statement ends
      // means a function declaration (return type position) — skip.
      int angle = 0;
      bool is_decl = false;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        const std::string& tk = t[j].text;
        if (tk == "<") {
          ++angle;
        } else if (tk == ">") {
          if (angle > 0) --angle;
        } else if (angle == 0) {
          if (tk == "(") break;
          if (tk == ";" || tk == "{" || tk == "=" || tk == "}") {
            is_decl = true;
            break;
          }
        }
      }
      if (!aliasing && is_decl) {
        const Scope* eff = effective_scope();
        const bool in_awaiter_type =
            eff && eff->kind == Scope::kType && eff->awaiterish;
        if (in_container && !in_awaiter_type) {
          emit(t[i].line, "R8", "stored-handle",
               std::string("container of ") +
                   (tok == "Task" ? "sim::Task" : "coroutine_handle") +
                   " keeps frames alive past their owner's scope; store "
                   "owning Tasks behind a registry that drains them, or "
                   "co_await instead of collecting");
        } else if (tok == "coroutine_handle") {
          if (eff && eff->kind == Scope::kType && !eff->awaiterish) {
            emit(t[i].line, "R8", "stored-handle",
                 "coroutine_handle member in a non-awaiter type: the handle "
                 "is a non-owning view and the frame may be destroyed before "
                 "this object uses it; hold the owning sim::Task instead");
          }
        }
      }
      continue;
    }

    // --- R2: co_await / co_return / co_yield -----------------------------
    if (tok == "co_await" || tok == "co_return" || tok == "co_yield") {
      if (i > 0 && t[i - 1].text == "operator") continue;  // operator co_await
      for (std::size_t d = stack.size(); d-- > 0;) {
        Scope& s = stack[d];
        if (s.kind == Scope::kTransparent) continue;
        if (s.kind == Scope::kType || s.kind == Scope::kNamespace)
          break;  // co_* outside a function body
        if (s.reported) break;
        if (s.kind == Scope::kLambda) {
          if (s.capturing) {
            s.reported = true;
            emit(s.header_line, "R2", "lambda-capture",
                 "capturing-lambda coroutine: the closure frame can die "
                 "before the coroutine resumes (lifetime UB); hoist it into "
                 "a named function taking the state as parameters");
          } else if (!s.has_trailing_return || !contains_task_or_proc(s.ret)) {
            s.reported = true;
            emit(s.header_line, "R2", "coroutine-return-type",
                 "lambda coroutine must declare a trailing return type of "
                 "sim::Task<...> or sim::Proc");
          }
        } else if (!contains_task_or_proc(s.ret)) {
          s.reported = true;
          std::string ret = join(s.ret);
          emit(s.header_line, "R2", "coroutine-return-type",
               "'" + s.name + "' contains " + tok + " but returns '" +
                   (ret.empty() ? "<none>" : ret) +
                   "'; coroutines must return sim::Task<...> or sim::Proc");
        }
        break;
      }
    }
  }
  (void)model;
}

// ---------------------------------------------------------------------------
// R2: discarded Task values (cross-file registry from the Model)
// ---------------------------------------------------------------------------

void check_discarded_tasks(const std::vector<Token>& t, const Model& model,
                           const Sink& emit) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_name(t[i]) || !model.returns_task(t[i].text)) continue;
    if (t[i + 1].text != "(") continue;
    std::size_t close = Model::match_forward(t, i + 1, "(", ")");
    if (close == i + 1 || close + 1 >= t.size()) continue;
    if (t[close + 1].text != ";") continue;
    // Walk the call chain backward; a statement boundary right before the
    // chain means the Task is created and immediately destroyed, unrun.
    std::size_t j = i;
    bool discarded = false;
    while (j > 0) {
      const std::string& prev = t[j - 1].text;
      if (prev == "." || prev == "->" || prev == "::") {
        if (j < 2) break;
        const std::string& before = t[j - 2].text;
        if (before == ")") {
          std::size_t open = Model::match_backward(t, j - 2, "(", ")");
          if (open == j - 2) break;
          j = open;
          if (j > 0 && is_name(t[j - 1])) --j;
          continue;
        }
        if (is_name(t[j - 2])) {
          j -= 2;
          continue;
        }
        break;
      }
      if (prev == ";" || prev == "{" || prev == "}") discarded = true;
      break;
    }
    if (j == 0) discarded = true;
    if (discarded) {
      emit(t[i].line, "R2", "discarded-task",
           "result of Task-returning '" + t[i].text +
               "(...)' is discarded; an unawaited sim::Task never runs — "
               "co_await it (or bind it and await later)");
    }
  }
}

// ---------------------------------------------------------------------------
// R7: ordering hazards
// ---------------------------------------------------------------------------

void check_pointer_keys(const std::vector<Token>& t, const Sink& emit) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_name(t[i]) || !kAssocContainers.count(t[i].text)) continue;
    if (t[i + 1].text != "<") continue;
    // Scan the first template argument; a trailing '*' means pointer keys.
    int depth = 1;
    bool aborted = false;
    std::string last;
    for (std::size_t j = i + 2; j < t.size(); ++j) {
      const std::string& tk = t[j].text;
      if (tk == "<") {
        ++depth;
      } else if (tk == ">") {
        if (--depth == 0) break;
      } else if (tk == "," && depth == 1) {
        break;
      } else if (tk == ";" || tk == "{" || tk == ")" || tk == "}") {
        aborted = true;  // `<` was a comparison, not a template list
        break;
      } else {
        last = tk;
      }
    }
    if (!aborted && last == "*") {
      emit(t[i].line, "R7", "pointer-keyed-container",
           "'" + t[i].text +
           "' keyed by raw pointers orders/groups entries by allocation "
           "address, which differs across runs and shards; key by a stable "
           "integer id instead");
    }
  }
}

void check_unordered_iteration(const std::vector<Token>& t, const Sink& emit) {
  // Names declared in this file as unordered_* containers.
  std::set<std::string> unordered_vars;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_name(t[i]) || t[i].text.rfind("unordered_", 0) != 0) continue;
    if (t[i + 1].text != "<") continue;
    std::size_t close = Model::match_forward(t, i + 1, "<", ">");
    if (close == i + 1 || close + 1 >= t.size()) continue;
    if (is_name(t[close + 1])) unordered_vars.insert(t[close + 1].text);
  }
  if (unordered_vars.empty()) return;

  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!(is_name(t[i]) && t[i].text == "for" && t[i + 1].text == "(")) continue;
    std::size_t close = Model::match_forward(t, i + 1, "(", ")");
    if (close == i + 1) continue;
    // Range-for: a top-level ':' inside the parens ("::" is its own token).
    std::size_t colon = 0;
    int depth = 0;
    for (std::size_t j = i + 2; j < close; ++j) {
      const std::string& tk = t[j].text;
      if (tk == "(" || tk == "[") ++depth;
      else if (tk == ")" || tk == "]") --depth;
      else if (tk == ":" && depth == 0) {
        colon = j;
        break;
      }
    }
    if (colon == 0) continue;
    bool over_unordered = false;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (is_name(t[j]) && unordered_vars.count(t[j].text)) {
        over_unordered = true;
        break;
      }
    }
    if (!over_unordered) continue;
    // Loop body: the `{...}` block or single statement after the ')'.
    std::size_t body_begin = close + 1;
    std::size_t body_end;
    if (body_begin < t.size() && t[body_begin].text == "{")
      body_end = Model::match_forward(t, body_begin, "{", "}");
    else {
      body_end = body_begin;
      while (body_end < t.size() && t[body_end].text != ";") ++body_end;
    }
    for (std::size_t j = body_begin; j < body_end && j < t.size(); ++j) {
      if (is_name(t[j]) && kOrderSinks.count(t[j].text)) {
        emit(t[i].line, "R7", "unordered-iteration",
             "iterating an unordered container while calling '" + t[j].text +
                 "' makes event/sample order follow hash-bucket layout "
                 "(address-dependent); iterate a sorted copy or key by "
                 "stable ids");
        break;
      }
    }
  }
}

void check_address_values(const std::vector<Token>& t, const Sink& emit) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_name(t[i])) continue;
    if (t[i].text == "uintptr_t" || t[i].text == "intptr_t") {
      emit(t[i].line, "R7", "address-as-value",
           "'" + t[i].text +
               "' bakes an allocation address into a value; addresses "
               "differ across runs and shards — derive ordering/identity "
               "from a stable id instead");
    }
  }
}

// ---------------------------------------------------------------------------
// R8: by-reference lambdas escaping into scheduling sinks
// ---------------------------------------------------------------------------

void check_ref_capture_escape(const std::vector<Token>& t, const Sink& emit) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "[") continue;
    if (i > 0 &&
        ((is_name(t[i - 1]) && !kControlKeywords.count(t[i - 1].text)) ||
         t[i - 1].text == ")" || t[i - 1].text == "]"))
      continue;  // subscript
    if (t[i + 1].text == "[" || (i > 0 && t[i - 1].text == "["))
      continue;  // [[attribute]]
    std::size_t close = Model::match_forward(t, i, "[", "]");
    if (close == i) continue;
    // `[this]` self-registration (an object installing a handler on a
    // member it owns, for its own lifetime) is the project's standard safe
    // idiom; only by-reference captures of locals are flagged.
    bool by_ref = false;
    for (std::size_t k = i + 1; k < close; ++k) {
      if (t[k].text == "&") {
        by_ref = true;
        break;
      }
    }
    if (!by_ref) continue;
    // Must actually be a lambda: body or parameter list follows.
    if (close + 1 >= t.size()) continue;
    const std::string& after = t[close + 1].text;
    if (after != "(" && after != "{" && after != "->" && after != "mutable" &&
        after != "noexcept")
      continue;
    // Find the enclosing call's '(' and its callee.
    int depth = 0;
    std::size_t open = t.size();
    for (std::size_t k = i; k-- > 0;) {
      const std::string& tk = t[k].text;
      if (tk == ")" || tk == "]" || tk == "}") {
        ++depth;
      } else if (tk == "(" || tk == "[" || tk == "{") {
        if (depth == 0) {
          if (tk == "(") open = k;
          break;
        }
        --depth;
      } else if (depth == 0 && tk == ";") {
        break;
      }
    }
    if (open == t.size() || open == 0 || !is_name(t[open - 1])) continue;
    if (kEscapeSinks.count(t[open - 1].text)) {
      emit(t[i].line, "R8", "ref-capture-escape",
           "lambda capturing by reference passed to '" + t[open - 1].text +
               "' outlives the enclosing frame; capture the needed state by "
               "value (or pass owned state explicitly)");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

std::vector<Diagnostic> run_rules(const Model& model) {
  std::vector<Diagnostic> diags;

  // Normalized path -> source index, for cycle reporting.
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < model.sources().size(); ++i) {
    const std::string& p = model.sources()[i].path;
    index.emplace(p.rfind("src/", 0) == 0 ? p.substr(4) : p, i);
  }

  for (std::size_t i = 0; i < model.sources().size(); ++i) {
    const LexedSource& src = model.sources()[i];
    const std::vector<Token>& t = src.tokens;
    const std::string file_comp = Model::top_component(src.path);
    const int layer = Model::layer_of(file_comp);
    const bool shard_layer = layer >= 0 && layer <= 2;  // sim, hw, vorx
    const bool known_layer = layer >= 0;
    const Sink emit{src.path, diags};

    check_banned_idents(t, emit);
    check_headers(model, i, layer, file_comp, index, emit);
    if (layer == 1 || layer == 2) check_hot_path_alloc(t, emit);
    scope_walk(t, shard_layer, known_layer, model, emit);
    check_discarded_tasks(t, model, emit);
    if (shard_layer) {
      check_pointer_keys(t, emit);
      check_unordered_iteration(t, emit);
      check_address_values(t, emit);
    }
    if (known_layer) check_ref_capture_escape(t, emit);
  }
  return diags;
}

}  // namespace hpcvorx::lint
