// Self-test for vorx-lint (src/tools/lint): each rule family R1–R8 is fed
// known-bad snippets and must produce the expected diagnostic, known-good
// snippets must stay silent, and the seeded fixture files under
// tests/lint_fixtures/ must reproduce their violations.  The clean-corpus
// guarantee (the real src/ tree lints clean) is the separate vorx_lint_src
// ctest case, which runs the binary itself.
#include "tools/lint/linter.hpp"

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace {

using hpcvorx::lint::Diagnostic;
using hpcvorx::lint::Linter;

std::vector<Diagnostic> lint(
    std::vector<std::pair<std::string, std::string>> files) {
  Linter l;
  for (auto& [path, text] : files) l.add_source(path, text);
  return l.run();
}

std::vector<Diagnostic> lint_one(const std::string& text,
                                 const std::string& path = "vorx/snippet.cpp") {
  return lint({{path, text}});
}

int count_check(const std::vector<Diagnostic>& diags, const std::string& rule,
                const std::string& check) {
  int n = 0;
  for (const auto& d : diags)
    if (d.rule == rule && d.check == check) ++n;
  return n;
}

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(LINT_FIXTURE_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --------------------------------------------------------------------------
// R1: determinism
// --------------------------------------------------------------------------

TEST(LintR1, FlagsWallClocks) {
  auto d = lint_one("void f() { auto t = std::chrono::system_clock::now(); }");
  EXPECT_EQ(count_check(d, "R1", "banned-token"), 1);
  EXPECT_EQ(1, count_check(lint_one("void f() { auto t = "
                                    "std::chrono::steady_clock::now(); }"),
                           "R1", "banned-token"));
  EXPECT_EQ(1, count_check(lint_one("void f() { std::time(nullptr); }"), "R1",
                           "banned-token"));
  EXPECT_EQ(1, count_check(lint_one("void f() { ::time(nullptr); }"), "R1",
                           "banned-token"));
}

TEST(LintR1, FlagsLibcPrngAndEnv) {
  EXPECT_EQ(1, count_check(lint_one("int f() { return rand(); }"), "R1",
                           "banned-token"));
  EXPECT_EQ(1, count_check(lint_one("void f() { srand(42); }"), "R1",
                           "banned-token"));
  EXPECT_EQ(1, count_check(lint_one("void f() { std::random_device rd; }"),
                           "R1", "banned-token"));
  EXPECT_EQ(1, count_check(lint_one("void f() { getenv(\"HOME\"); }"), "R1",
                           "banned-token"));
}

TEST(LintR1, FlagsBroadPrngFamily) {
  // The wider libc/POSIX family (rand_r, *rand48, ::random) ...
  EXPECT_EQ(1, count_check(lint_one("unsigned f(unsigned* s) { return "
                                    "rand_r(s); }"),
                           "R1", "banned-token"));
  EXPECT_EQ(1, count_check(lint_one("long f() { long v = ::random(); "
                                    "return v; }"),
                           "R1", "banned-token"));
  EXPECT_EQ(1, count_check(lint_one("double f() { return drand48(); }"), "R1",
                           "banned-token"));
  EXPECT_EQ(1, count_check(lint_one("long f() { return lrand48(); }"), "R1",
                           "banned-token"));
  // ... BSD arc4random by prefix ...
  EXPECT_EQ(1, count_check(lint_one("unsigned f() { return arc4random(); }"),
                           "R1", "banned-token"));
  EXPECT_EQ(1,
            count_check(lint_one("unsigned f() { return "
                                 "arc4random_uniform(10); }"),
                        "R1", "banned-token"));
  // ... and the concrete <random> engines (prefix covers the _64 / 0 /
  // sized variants).
  EXPECT_EQ(1, count_check(lint_one("void f() { std::mt19937 g(1); }"), "R1",
                           "banned-token"));
  EXPECT_EQ(1, count_check(lint_one("void f() { std::mt19937_64 g(1); }"),
                           "R1", "banned-token"));
  EXPECT_EQ(1, count_check(lint_one("void f() { std::minstd_rand0 g(1); }"),
                           "R1", "banned-token"));
  EXPECT_EQ(1, count_check(lint_one("void f() { std::ranlux24 g(1); }"), "R1",
                           "banned-token"));
}

TEST(LintR1, PrngLookalikesAreFine) {
  // Qualified static factories named random are not the libc ::random().
  EXPECT_TRUE(
      lint_one("void f() { Circuit c = Circuit::random(4); (void)c; }")
          .empty());
  // Member calls spelled like libc generators are someone's API, not libc.
  EXPECT_TRUE(lint_one("double f(LegacyRng& r) { return r.drand48(); }")
                  .empty());
  EXPECT_TRUE(lint_one("unsigned f(LegacyRng* r) { return r->rand_r(); }")
                  .empty());
  // Identifiers that merely contain a banned name stay silent.
  EXPECT_TRUE(lint_one("int f() { int strand = 1; return strand; }").empty());
  EXPECT_TRUE(lint_one("int f() { int my_rand_r_count = 0; "
                       "return my_rand_r_count; }")
                  .empty());
}

TEST(LintR1, FlagsBannedHeaders) {
  EXPECT_EQ(1, count_check(lint_one("#include <chrono>\n"), "R1",
                           "banned-header"));
  EXPECT_EQ(1, count_check(lint_one("#include <random>\n"), "R1",
                           "banned-header"));
}

TEST(LintR1, MemberRandAndSimTimeAreFine) {
  EXPECT_TRUE(lint_one("void f(Rng& r) { r.rand(); }").empty());
  EXPECT_TRUE(lint_one("void f() { auto t = sim::time(3); }").empty());
  EXPECT_TRUE(lint_one("int my_rando() { return 4; }").empty());
}

TEST(LintR1, CommentsAndStringsAreImmune) {
  EXPECT_TRUE(lint_one("// rand() and std::thread live here\n"
                       "const char* s = \"rand() srand() getenv\";\n")
                  .empty());
  // Digit separators must not open a phantom char literal that swallows
  // the rest of the file.
  EXPECT_EQ(1, count_check(lint_one("const long k = 1'000'000;\n"
                                    "int f() { return rand(); }\n"),
                           "R1", "banned-token"));
}

// --------------------------------------------------------------------------
// R2: coroutine safety
// --------------------------------------------------------------------------

TEST(LintR2, CoroutineMustReturnTaskOrProc) {
  auto d = lint_one("int f() { co_return 1; }");
  ASSERT_EQ(count_check(d, "R2", "coroutine-return-type"), 1);
  EXPECT_NE(d[0].message.find("'f'"), std::string::npos);

  EXPECT_TRUE(lint_one("sim::Task<int> f() { co_return 1; }").empty());
  EXPECT_TRUE(lint_one("sim::Proc f() { co_await g(); }").empty());
  // Qualified definitions must see through `Class::` to the return type.
  EXPECT_TRUE(
      lint_one("sim::Proc Kernel::rx_service() { co_await g(); }").empty());
  EXPECT_EQ(1, count_check(
                   lint_one("void Kernel::oops() { co_await g(); }"), "R2",
                   "coroutine-return-type"));
}

TEST(LintR2, NonCoroutineHelpersAreFine) {
  EXPECT_TRUE(lint_one("int add(int a, int b) { return a + b; }").empty());
  // `operator co_await` declares an awaiter; it is not itself a coroutine.
  EXPECT_TRUE(
      lint_one("struct T { Awaiter operator co_await() { return {}; } };")
          .empty());
}

TEST(LintR2, CapturingLambdaCoroutine) {
  EXPECT_EQ(1, count_check(lint_one("void f(int n) {\n"
                                    "  auto l = [n]() -> sim::Task<void> {"
                                    " co_await g(n); };\n}"),
                           "R2", "lambda-capture"));
  // Capture-free lambda coroutines with a Task trailing type are fine.
  EXPECT_TRUE(lint_one("void f() {\n"
                       "  auto l = []() -> sim::Task<void> { co_return; };\n}")
                  .empty());
  // ...but with no trailing return type there is nothing to schedule.
  EXPECT_EQ(1, count_check(lint_one("void f() {\n"
                                    "  auto l = []() { co_return; };\n}"),
                           "R2", "coroutine-return-type"));
  // A lambda returned as a std::function must still be attributed to the
  // lambda, not the enclosing factory (regression: `return [xs](...)`).
  auto d = lint_one(
      "vorx::AppFn make_server(std::string n) {\n"
      "  return [n](vorx::Subprocess& sp) -> sim::Task<void> {\n"
      "    co_await sp.open(n);\n  };\n}");
  EXPECT_EQ(count_check(d, "R2", "lambda-capture"), 1);
  EXPECT_EQ(count_check(d, "R2", "coroutine-return-type"), 0);
}

TEST(LintR2, DiscardedTask) {
  const std::string header = "sim::Task<void> ping(int target);\n";
  EXPECT_EQ(1, count_check(lint_one(header + "void f() { ping(1); }"), "R2",
                           "discarded-task"));
  EXPECT_TRUE(lint_one(header +
                       "sim::Task<void> f() { co_await ping(1); }")
                  .empty());
  EXPECT_TRUE(lint_one(header + "void f() { auto t = ping(1); }").empty());
  // Chained receiver, cross-file: declaration in the header, bare call in
  // the .cpp.
  auto d = lint({{"vorx/svc.hpp", "struct Svc { sim::Task<void> flush(); };"},
                 {"vorx/use.cpp", "void f(Svc& s) { s.flush(); }"}});
  EXPECT_EQ(count_check(d, "R2", "discarded-task"), 1);
}

TEST(LintR2, OverloadedNamesAreSkipped) {
  // Link::send returns void while Channel::send returns Task — the audit
  // must not guess which overload a bare call resolves to.
  auto d = lint_one(
      "sim::Task<void> send(int chan);\n"
      "void send(double frame);\n"
      "void f() { send(2.0); }");
  EXPECT_EQ(count_check(d, "R2", "discarded-task"), 0);
}

// --------------------------------------------------------------------------
// R3: no real concurrency or blocking
// --------------------------------------------------------------------------

TEST(LintR3, FlagsThreadsMutexesSleeps) {
  EXPECT_EQ(1, count_check(lint_one("void f() { std::thread t(g); }"), "R3",
                           "banned-token"));
  EXPECT_EQ(1, count_check(lint_one("std::mutex g_lock;"), "R3",
                           "banned-token"));
  EXPECT_GE(count_check(
                lint_one("void f() { std::this_thread::sleep_for(d); }"),
                "R3", "banned-token"),
            1);
  EXPECT_EQ(1, count_check(lint_one("void f() { usleep(100); }"), "R3",
                           "banned-token"));
  EXPECT_EQ(1, count_check(lint_one("void f() { pthread_create(a, b, c, d); }"),
                           "R3", "banned-token"));
  EXPECT_EQ(1, count_check(lint_one("#include <thread>\n"), "R3",
                           "banned-header"));
}

TEST(LintR3, SimSleepMembersAreFine) {
  EXPECT_TRUE(lint_one("sim::Task<void> Subprocess::sleep(sim::Duration d) {"
                       " co_await delay(sim_, d); }")
                  .empty());
  EXPECT_TRUE(lint_one("sim::Task<void> f(Subprocess& sp) {"
                       " co_await sp.sleep(5); }")
                  .empty());
}

// --------------------------------------------------------------------------
// R4: layering
// --------------------------------------------------------------------------

TEST(LintR4, LowerLayersMayNotIncludeUpper) {
  EXPECT_EQ(1, count_check(lint_one("#include \"hw/link.hpp\"\n",
                                    "sim/event_queue.cpp"),
                           "R4", "layer-inversion"));
  EXPECT_EQ(1, count_check(lint_one("#include \"vorx/kernel.hpp\"\n",
                                    "src/hw/cluster.cpp"),
                           "R4", "layer-inversion"));
  EXPECT_EQ(1, count_check(lint_one("#include \"apps/fft.hpp\"\n",
                                    "vorx/system.cpp"),
                           "R4", "layer-inversion"));
}

TEST(LintR4, UpperLayersMayIncludeLower) {
  EXPECT_TRUE(lint_one("#include \"sim/simulator.hpp\"\n"
                       "#include \"hw/link.hpp\"\n"
                       "#include \"vorx/kernel.hpp\"\n",
                       "apps/fft.cpp")
                  .empty());
  EXPECT_TRUE(lint_one("#include \"sim/simulator.hpp\"\n", "sim/cpu.cpp")
                  .empty());
}

TEST(LintR4, PeerLeafLayersAreIsolated) {
  EXPECT_EQ(1, count_check(lint_one("#include \"tools/cdb.hpp\"\n",
                                    "apps/bitmap.cpp"),
                           "R4", "peer-include"));
  EXPECT_EQ(1, count_check(lint_one("#include \"apps/fft.hpp\"\n",
                                    "tools/prof.cpp"),
                           "R4", "peer-include"));
}

// --------------------------------------------------------------------------
// R5: hot-path payload allocation
// --------------------------------------------------------------------------

TEST(LintR5, FlagsRawPayloadAllocationInHotLayers) {
  EXPECT_EQ(1, count_check(lint_one("void f() { auto p = make_payload(b); }",
                                    "vorx/chan.cpp"),
                           "R5", "raw-payload-alloc"));
  EXPECT_EQ(1, count_check(lint_one("void f() { auto p = make_payload(b); }",
                                    "src/hw/link.cpp"),
                           "R5", "raw-payload-alloc"));
  EXPECT_EQ(1, count_check(
                   lint_one("void f() { auto p = std::make_shared<const "
                            "std::vector<std::byte>>(std::move(b)); }",
                            "vorx/chan.cpp"),
                   "R5", "raw-payload-alloc"));
}

TEST(LintR5, ColdLayersAreExempt) {
  // Tests, apps, tools, and sim are not on the frame hot path.
  for (const char* path :
       {"apps/linda.cpp", "tools/bench.cpp", "sim/core.cpp", "mytest.cpp"}) {
    EXPECT_EQ(0, count_check(lint_one("void f() { auto p = make_payload(b); }",
                                      path),
                             "R5", "raw-payload-alloc"))
        << path;
  }
}

TEST(LintR5, UnrelatedMakeSharedIsFine) {
  EXPECT_EQ(0, count_check(lint_one("void f() { auto p = "
                                    "std::make_shared<Frame>(); }",
                                    "vorx/chan.cpp"),
                           "R5", "raw-payload-alloc"));
  EXPECT_EQ(0, count_check(lint_one("void f() { auto p = std::make_shared<"
                                    "std::vector<int>>(); }",
                                    "vorx/chan.cpp"),
                           "R5", "raw-payload-alloc"));
  // A comparison chain is not a template argument list.
  EXPECT_EQ(0, count_check(lint_one("bool f(int make_shared, int b) { "
                                    "return make_shared < b; }",
                                    "vorx/chan.cpp"),
                           "R5", "raw-payload-alloc"));
}

TEST(LintR5, SuppressibleLikeEveryRule) {
  EXPECT_TRUE(lint_one("// vorx-lint: allow(R5) the pool itself\n"
                       "void f() { auto p = make_payload(b); }\n",
                       "hw/frame_pool.cpp")
                  .empty());
}

// --------------------------------------------------------------------------
// R6: shared mutable state (shard-readiness)
// --------------------------------------------------------------------------

TEST(LintR6, FlagsNamespaceScopeMutables) {
  EXPECT_EQ(1, count_check(lint_one("int g_frames = 0;\n"), "R6",
                           "global-mutable"));
  // Brace initializers are definitions too.
  EXPECT_EQ(1, count_check(lint_one("std::vector<int> g_cache{1, 2};\n"),
                           "R6", "global-mutable"));
  EXPECT_TRUE(lint_one("const int kMax = 4;\n").empty());
  EXPECT_TRUE(lint_one("constexpr int kBits = 7;\n").empty());
  // Function declarations and class members are not process-wide state.
  EXPECT_TRUE(lint_one("int helper(int x);\n").empty());
  EXPECT_TRUE(lint_one("struct S { int counter = 0; };\n").empty());
}

TEST(LintR6, FlagsStaticAndThreadLocal) {
  EXPECT_EQ(1, count_check(lint_one("int f() { static int calls = 0; "
                                    "return ++calls; }\n"),
                           "R6", "static-mutable"));
  EXPECT_EQ(1, count_check(lint_one("thread_local int tls_depth = 0;\n"),
                           "R6", "static-mutable"));
  EXPECT_TRUE(
      lint_one("int f() { static const int k = 3; return k; }\n").empty());
  EXPECT_TRUE(lint_one("static constexpr int kTable[] = {1, 2, 3};\n").empty());
  // static member *functions* are not state.
  EXPECT_TRUE(lint_one("struct S { static int size(); };\n").empty());
}

TEST(LintR6, OnlyShardLayersAreGated) {
  // apps/tools/tests run one per process and may keep globals; sim/hw/vorx
  // are the layers a sharded runtime will partition.
  for (const char* path : {"apps/foo.cpp", "tools/foo.cpp", "scratch.cpp"}) {
    EXPECT_TRUE(lint_one("int g_tuning = 1;\n", path).empty()) << path;
  }
  for (const char* path : {"sim/foo.cpp", "hw/foo.cpp", "vorx/foo.cpp"}) {
    EXPECT_EQ(1, count_check(lint_one("int g_tuning = 1;\n", path), "R6",
                             "global-mutable"))
        << path;
  }
}

// --------------------------------------------------------------------------
// R7: ordering hazards
// --------------------------------------------------------------------------

TEST(LintR7, FlagsPointerKeyedContainers) {
  EXPECT_EQ(1, count_check(lint_one("void f() { std::map<Node*, int> m; }\n"),
                           "R7", "pointer-keyed-container"));
  EXPECT_EQ(1, count_check(
                   lint_one("struct T { std::unordered_set<Chan*> s_; };\n"),
                   "R7", "pointer-keyed-container"));
  // Pointer *values* and integer keys are fine.
  EXPECT_TRUE(lint_one("void f() { std::map<int, Node*> m; }\n").empty());
  // A comparison is not a template-argument list.
  EXPECT_TRUE(lint_one("bool f(int map, int b) { return map < b; }\n").empty());
}

TEST(LintR7, FlagsUnorderedIterationFeedingSinks) {
  const std::string decl =
      "// vorx-lint: allow(R6) R7 test scaffolding\n"
      "std::unordered_map<int, int> pending;\n";
  EXPECT_EQ(1, count_check(lint_one(decl +
                                    "void f(Q& q) { for (auto& [k, v] : "
                                    "pending) { q.post(tick(k)); } }\n"),
                           "R7", "unordered-iteration"));
  // Pure accumulation over the same container stays silent: no event or
  // counter leaves in bucket order.
  EXPECT_EQ(0, count_check(lint_one(decl +
                                    "int f() { int s = 0; for (auto& [k, v] "
                                    ": pending) { s += v; } return s; }\n"),
                           "R7", "unordered-iteration"));
}

TEST(LintR7, FlagsAddressAsValue) {
  EXPECT_EQ(1, count_check(lint_one("void f(void* p) { auto k = "
                                    "reinterpret_cast<std::uintptr_t>(p); }\n"),
                           "R7", "address-as-value"));
  EXPECT_TRUE(lint_one("void f() { std::int64_t id = 7; (void)id; }\n").empty());
}

// --------------------------------------------------------------------------
// R8: coroutine lifetime
// --------------------------------------------------------------------------

TEST(LintR8, FlagsStoredHandlesAndTasks) {
  EXPECT_EQ(1, count_check(
                   lint_one("struct Reg { std::vector<std::coroutine_handle<>>"
                            " pending_; };\n"),
                   "R8", "stored-handle"));
  EXPECT_EQ(1, count_check(
                   lint_one("struct Q { std::deque<sim::Task<void>> "
                            "backlog_; };\n"),
                   "R8", "stored-handle"));
  // A bare coroutine_handle member is a dangling view in waiting.
  EXPECT_EQ(1,
            count_check(lint_one("struct W { std::coroutine_handle<> h_; };\n"),
                        "R8", "stored-handle"));
  // A handle passed through a parameter list is not storage.
  EXPECT_TRUE(
      lint_one("void resume_later(std::coroutine_handle<> h);\n").empty());
}

TEST(LintR8, AwaiterMachineryIsExempt) {
  EXPECT_TRUE(
      lint_one("struct Gate {\n"
               "  bool await_ready() const;\n"
               "  void await_suspend(std::coroutine_handle<> h);\n"
               "  void await_resume();\n"
               "  std::vector<std::coroutine_handle<>> waiters;\n"
               "};\n")
          .empty());
  // ...including awaiters nested inside a bigger type.
  EXPECT_TRUE(
      lint_one("struct Event {\n"
               "  struct Awaiter {\n"
               "    bool await_ready() const;\n"
               "    void await_suspend(std::coroutine_handle<> h);\n"
               "    void await_resume();\n"
               "    std::deque<std::coroutine_handle<>> q;\n"
               "  };\n"
               "};\n")
          .empty());
}

TEST(LintR8, FlagsRefCaptureIntoSchedulingSinks) {
  EXPECT_EQ(1, count_check(lint_one("void f(S& s) { int n = 0; "
                                    "s.post_after(5, [&n] { ++n; }); }\n"),
                           "R8", "ref-capture-escape"));
  EXPECT_EQ(1, count_check(lint_one("void f(K& k) { int n = 0; "
                                    "k.register_handler([&] { use(n); }); }\n"),
                           "R8", "ref-capture-escape"));
  // Value captures and [this] self-registration are the safe idioms.
  EXPECT_TRUE(lint_one("void f(S& s) { int n = 0; "
                       "s.post_after(5, [n] { use(n); }); }\n")
                  .empty());
  EXPECT_TRUE(lint_one("struct T { void go() { "
                       "k_.register_handler([this] { tick(); }); } };\n")
                  .empty());
  // A by-ref lambda consumed locally never escapes.
  EXPECT_TRUE(
      lint_one("void f() { int n = 0; auto g = [&n] { ++n; }; g(); }\n")
          .empty());
}

// --------------------------------------------------------------------------
// Lexer edge cases: the token stream the rules see
// --------------------------------------------------------------------------

TEST(LintLexer, RawStringsAreOpaque) {
  EXPECT_TRUE(
      lint_one("const char* s = R\"(rand() std::thread srand)\";\n").empty());
  // Custom delimiters, including an embedded `)\"` that must not close it.
  EXPECT_TRUE(
      lint_one("const char* s = R\"ev(std::mutex m; )\" )ev\";\n").empty());
  // Lexing resumes correctly after the raw string ends.
  EXPECT_EQ(1, count_check(lint_one("const char* s = R\"(rand)\";\n"
                                    "int f() { return rand(); }\n"),
                           "R1", "banned-token"));
}

TEST(LintLexer, LineSplicesJoinLogicalLines) {
  // A line-spliced // comment swallows the next physical line...
  EXPECT_TRUE(lint_one("// spliced comment \\\nint bad = rand();\n").empty());
  // ...but only that one line.
  EXPECT_EQ(1, count_check(lint_one("// spliced comment \\\nrand();\n"
                                    "int f() { return rand(); }\n"),
                           "R1", "banned-token"));
  // A splice in the middle of an identifier joins it back together.
  EXPECT_EQ(1, count_check(lint_one("int f() { return ra\\\nnd(); }\n"), "R1",
                           "banned-token"));
}

TEST(LintLexer, StringsAndCommentsHideHeaders) {
  EXPECT_TRUE(lint_one("const char* s = \"#include <thread>\";\n").empty());
  EXPECT_TRUE(lint_one("// #include <thread>\n").empty());
  // A real include after a commented-out one is still seen.
  EXPECT_EQ(1, count_check(lint_one("// #include <thread>\n"
                                    "#include <thread>\n"),
                           "R3", "banned-header"));
}

// --------------------------------------------------------------------------
// Suppressions
// --------------------------------------------------------------------------

TEST(LintSuppress, LineDirectiveCoversItsLineAndTheNext) {
  EXPECT_TRUE(lint_one("int f() { return rand(); }  "
                       "// vorx-lint: allow(R1) seeding test corpus\n")
                  .empty());
  EXPECT_TRUE(lint_one("// vorx-lint: allow(R1) seeding test corpus\n"
                       "int f() { return rand(); }\n")
                  .empty());
  // ...but not two lines down, and not other rules.
  EXPECT_EQ(1, count_check(lint_one("// vorx-lint: allow(R1) too far away\n"
                                    "int x;\n"
                                    "int f() { return rand(); }\n"),
                           "R1", "banned-token"));
  EXPECT_EQ(1, count_check(lint_one("// vorx-lint: allow(R3) wrong rule\n"
                                    "int f() { return rand(); }\n"),
                           "R1", "banned-token"));
}

TEST(LintSuppress, FileDirectiveCoversWholeFile) {
  // `std::mutex g_lock;` trips both R3 (banned token) and R6 (namespace-scope
  // mutable), so the file directive has to name both.
  EXPECT_TRUE(lint_one("// vorx-lint-file: allow(R1,R3,R6) calibration shim\n"
                       "int f() { return rand(); }\n"
                       "std::mutex g_lock;\n")
                  .empty());
}

TEST(LintSuppress, NewRulesAreSuppressible) {
  EXPECT_TRUE(lint_one("// vorx-lint: allow(R6) calibration knob\n"
                       "int g_tuning = 1;\n")
                  .empty());
  EXPECT_TRUE(lint_one("// vorx-lint-file: allow(R7) replay shim\n"
                       "std::uintptr_t f(void* p) { "
                       "return reinterpret_cast<std::uintptr_t>(p); }\n")
                  .empty());
}

// --------------------------------------------------------------------------
// Seeded fixture files (the same ones the WILL_FAIL ctest cases feed to the
// vorx-lint binary)
// --------------------------------------------------------------------------

TEST(LintFixtures, R1FixtureViolates) {
  auto d = lint({{"r1_determinism.cpp", read_fixture("r1_determinism.cpp")}});
  EXPECT_GE(count_check(d, "R1", "banned-token"), 4);
  EXPECT_GE(count_check(d, "R1", "banned-header"), 1);
}

TEST(LintFixtures, R1RngFixtureViolates) {
  auto d = lint({{"r1_rng.cpp", read_fixture("r1_rng.cpp")}});
  // One diagnostic per seeded generator: rand_r, ::random, srandom,
  // drand48, lrand48, mrand48, srand48, arc4random, arc4random_uniform,
  // getentropy, mt19937, mt19937_64, minstd_rand, ranlux48, knuth_b.
  EXPECT_GE(count_check(d, "R1", "banned-token"), 15);
}

TEST(LintFixtures, R2FixtureViolates) {
  auto d = lint({{"r2_coroutine.cpp", read_fixture("r2_coroutine.cpp")}});
  EXPECT_EQ(count_check(d, "R2", "coroutine-return-type"), 1);
  EXPECT_EQ(count_check(d, "R2", "discarded-task"), 1);
  EXPECT_EQ(count_check(d, "R2", "lambda-capture"), 1);
}

TEST(LintFixtures, R3FixtureViolates) {
  auto d = lint({{"r3_concurrency.cpp", read_fixture("r3_concurrency.cpp")}});
  EXPECT_GE(count_check(d, "R3", "banned-token"), 3);
  EXPECT_GE(count_check(d, "R3", "banned-header"), 2);
}

TEST(LintFixtures, R4FixtureViolates) {
  auto d = lint({{"sim/r4_layering.cpp", read_fixture("sim/r4_layering.cpp")}});
  EXPECT_EQ(count_check(d, "R4", "layer-inversion"), 2);
}

TEST(LintFixtures, R4CyclePairViolates) {
  // The cycle is an edge property of the resolved include graph: either
  // half alone is silent, the pair flags both closing includes.
  auto a = read_fixture("sim/r4_cycle/ring_a.hpp");
  auto b = read_fixture("sim/r4_cycle/ring_b.hpp");
  auto d = lint({{"sim/r4_cycle/ring_a.hpp", a}, {"sim/r4_cycle/ring_b.hpp", b}});
  EXPECT_EQ(count_check(d, "R4", "include-cycle"), 2);
  EXPECT_TRUE(lint({{"sim/r4_cycle/ring_a.hpp", a}}).empty());
}

TEST(LintFixtures, R4ChainCleanPairPasses) {
  auto d = lint(
      {{"sim/r4_chain/chain_top.hpp", read_fixture("sim/r4_chain/chain_top.hpp")},
       {"sim/r4_chain/chain_base.hpp",
        read_fixture("sim/r4_chain/chain_base.hpp")}});
  EXPECT_TRUE(d.empty()) << d.size() << " unexpected diagnostics, first: "
                         << (d.empty() ? "" : d[0].message);
}

TEST(LintFixtures, R5FixtureViolates) {
  auto d = lint({{"vorx/r5_hotpath.cpp", read_fixture("vorx/r5_hotpath.cpp")}});
  // Two seeded call sites plus the fixture's own helper definition (both
  // its signature and its make_shared body line count).
  EXPECT_EQ(count_check(d, "R5", "raw-payload-alloc"), 4);
}

TEST(LintFixtures, R6FixtureViolates) {
  auto d = lint({{"vorx/r6_shared_state.cpp",
                  read_fixture("vorx/r6_shared_state.cpp")}});
  EXPECT_EQ(count_check(d, "R6", "global-mutable"), 2);
  EXPECT_EQ(count_check(d, "R6", "static-mutable"), 2);
}

TEST(LintFixtures, R7FixtureViolates) {
  auto d =
      lint({{"vorx/r7_ordering.cpp", read_fixture("vorx/r7_ordering.cpp")}});
  EXPECT_EQ(count_check(d, "R7", "pointer-keyed-container"), 1);
  EXPECT_EQ(count_check(d, "R7", "unordered-iteration"), 1);
  EXPECT_EQ(count_check(d, "R7", "address-as-value"), 2);
}

TEST(LintFixtures, R8FixtureViolates) {
  auto d =
      lint({{"vorx/r8_lifetime.cpp", read_fixture("vorx/r8_lifetime.cpp")}});
  EXPECT_EQ(count_check(d, "R8", "stored-handle"), 3);
  EXPECT_EQ(count_check(d, "R8", "ref-capture-escape"), 1);
}

TEST(LintFixtures, CleanTwinsPass) {
  for (const char* name :
       {"vorx/r6_clean.cpp", "vorx/r7_clean.cpp", "vorx/r8_clean.cpp"}) {
    auto d = lint({{name, read_fixture(name)}});
    EXPECT_TRUE(d.empty()) << name << ": " << d.size()
                           << " unexpected diagnostics, first: "
                           << (d.empty() ? "" : d[0].message);
  }
}

TEST(LintFixtures, CleanFixturePasses) {
  auto d = lint({{"clean.cpp", read_fixture("clean.cpp")}});
  EXPECT_TRUE(d.empty()) << d.size() << " unexpected diagnostics, first: "
                         << (d.empty() ? "" : d[0].message);
}

// Diagnostics must come out sorted so runs are byte-identical (R1 applies
// to the linter too).
TEST(LintOutput, DiagnosticsAreSorted) {
  auto d = lint({{"b.cpp", "int f() { return rand(); }\n"},
                 {"a.cpp", "int g() { srand(1); return rand(); }\n"}});
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0].file, "a.cpp");
  EXPECT_EQ(d[1].file, "a.cpp");
  EXPECT_EQ(d[2].file, "b.cpp");
  EXPECT_LE(d[0].line, d[1].line);
}

}  // namespace
