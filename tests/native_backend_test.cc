// The compiled execution backend end to end: EngineOptions::backend =
// kCompile must produce results identical to the interpreter (the
// randomized cross-backend differential lives in lowering_test.cc; here
// the revenue pipeline plus the operational properties), fall back to
// the interpreter cleanly when no host C compiler exists (simulated via
// the RINGDB_CC override), reuse the hash-keyed .so cache across engine
// constructions, evict stale or corrupt cached modules, reap a compile
// still in flight when its engine dies, and plumb through
// serve::QueryService with every registered query's compile overlapped.
// The tiered contract runs against a deliberately slow compiler: Start()
// and the first windows never wait on it, windows run on the interpreter
// until one window boundary attaches the module, and results and
// semantic counters are exact across that switch.
//
// On hosts without any C compiler the native-path tests skip; setting
// RINGDB_EXPECT_NATIVE=1 (the release CI job does) turns those skips
// into failures so an environment that is supposed to exercise native
// code cannot silently regress to the interpreter.

#include <dlfcn.h>
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "baseline/baselines.h"
#include "runtime/engine.h"
#include "serve/query_service.h"
#include "sql/translate.h"
#include "util/random.h"
#include "workload/stream.h"

namespace ringdb {
namespace {

using ring::Update;
using runtime::Backend;
using runtime::Engine;
using runtime::EngineOptions;

// Scoped environment override (tests run single-threaded).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

sql::TranslatedQuery RevenueQuery(const ring::Catalog& catalog) {
  auto t = sql::TranslateSql(
      catalog,
      "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
      "WHERE o.okey = l.okey GROUP BY o.ckey");
  RINGDB_CHECK(t.ok());
  return *std::move(t);
}

std::vector<Update> RevenueStream(const ring::Catalog& catalog, int n) {
  workload::StreamOptions options;
  options.seed = 1234;
  options.domain_size = 64;
  options.zipf_s = 1.1;
  options.delete_fraction = 0.2;
  std::vector<workload::RelationStream> streams;
  streams.emplace_back(catalog, Symbol::Intern("orders"), options);
  streams.emplace_back(catalog, Symbol::Intern("lineitem"), options);
  workload::RoundRobinStream stream(std::move(streams));
  std::vector<Update> updates;
  updates.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) updates.push_back(stream.Next());
  return updates;
}

bool ExpectNative() {
  return std::getenv("RINGDB_EXPECT_NATIVE") != nullptr;
}

// A fresh, empty native cache directory for one test (removed by the
// destructor), so the compile path runs cold.
class ScopedCacheDir {
 public:
  ScopedCacheDir() : path_(MakeDir()), env_("RINGDB_NATIVE_CACHE_DIR",
                                            path_.c_str()) {}
  ~ScopedCacheDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  static std::string MakeDir() {
    char tmpl[] = "/tmp/ringdb-native-test-XXXXXX";
    RINGDB_CHECK(::mkdtemp(tmpl) != nullptr);
    return tmpl;
  }
  std::string path_;
  ScopedEnv env_;
};

uint64_t NativeCalls(const Engine& engine) {
  uint64_t calls = 0;
  for (const Engine::StmtStats& s : engine.Stats().statements) {
    calls += s.counters.native_calls;
  }
  return calls;
}

// Builds a compiled-backend engine or explains why native is off; used
// to decide skip-vs-fail on compiler-less hosts.
StatusOr<Engine> CompiledEngine(const ring::Catalog& catalog,
                                const sql::TranslatedQuery& q,
                                size_t batch_size, size_t shards) {
  EngineOptions options;
  options.batch_size = batch_size;
  options.num_shards = shards;
  options.backend = Backend::kCompile;
  return Engine::Create(catalog, q.group_vars, q.body, options);
}

TEST(NativeBackendTest, FallsBackToInterpreterWithoutCompiler) {
  ScopedEnv no_cc("RINGDB_CC", "/nonexistent/ringdb-no-such-cc");
  // A fresh cache dir too: a previously cached .so loads without any
  // compiler (by design — see ModuleCacheServesRepeatConstruction), and
  // this test simulates a host that has neither.
  char cache_template[] = "/tmp/ringdb-native-test-XXXXXX";
  ASSERT_NE(::mkdtemp(cache_template), nullptr);
  ScopedEnv no_cache("RINGDB_NATIVE_CACHE_DIR", cache_template);
  ring::Catalog catalog = workload::OrdersSchema();
  sql::TranslatedQuery q = RevenueQuery(catalog);
  auto engine = CompiledEngine(catalog, q, 16, 1);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_FALSE(engine->native_enabled());
  EXPECT_FALSE(engine->native_status().ok());
  // Launching the compiler failed at construction; the wait step reports
  // that error, naming the compiler it could not run.
  EXPECT_NE(engine->native_status().message().find(
                "/nonexistent/ringdb-no-such-cc"),
            std::string::npos)
      << engine->native_status().ToString();
  EXPECT_EQ(engine->Stats().native_entry_points, 0u);
  EXPECT_FALSE(engine->Stats().native_cache_hit);

  // The fallback engine is a fully functional interpreter.
  auto oracle = Engine::Create(catalog, q.group_vars, q.body);
  ASSERT_TRUE(oracle.ok());
  std::vector<Update> updates = RevenueStream(catalog, 400);
  ASSERT_TRUE(engine->ApplyBatch(updates).ok());
  for (const Update& u : updates) ASSERT_TRUE(oracle->Apply(u).ok());
  EXPECT_EQ(engine->ResultGmr(), oracle->ResultGmr());
}

TEST(NativeBackendTest, CompiledMatchesInterpreterOnRevenueStream) {
  ring::Catalog catalog = workload::OrdersSchema();
  sql::TranslatedQuery q = RevenueQuery(catalog);
  auto compiled = CompiledEngine(catalog, q, 64, 1);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled->native_enabled()) {
    ASSERT_FALSE(ExpectNative())
        << "RINGDB_EXPECT_NATIVE set but native backend unavailable: "
        << compiled->native_status().ToString();
    GTEST_SKIP() << "no host C compiler: "
                 << compiled->native_status().ToString();
  }
  EXPECT_GT(compiled->executor().program().triggers.size(), 0u);

  auto interp = Engine::Create(catalog, q.group_vars, q.body,
                               EngineOptions{.batch_size = 64});
  ASSERT_TRUE(interp.ok());
  std::vector<Update> updates = RevenueStream(catalog, 3000);
  ASSERT_TRUE(compiled->ApplyBatch(updates).ok());
  ASSERT_TRUE(interp->ApplyBatch(updates).ok());
  EXPECT_EQ(compiled->ResultGmr(), interp->ResultGmr());

  // Single-tuple path through the same native statements.
  for (const Update& u : RevenueStream(catalog, 200)) {
    ASSERT_TRUE(compiled->Apply(u).ok());
    ASSERT_TRUE(interp->Apply(u).ok());
  }
  EXPECT_EQ(compiled->ResultGmr(), interp->ResultGmr());
}

TEST(NativeBackendTest, SingleEventsReachNativeCode) {
  // Every native call is a window call: a single-tuple Apply and a
  // 1-event batch window are 1-row windows, and the first window of
  // every statement runs native (the warmup race starts native).
  ring::Catalog catalog = workload::OrdersSchema();
  sql::TranslatedQuery q = RevenueQuery(catalog);
  const Update first = RevenueStream(catalog, 1)[0];
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "1-event batch window" : "single-tuple Apply");
    auto compiled = CompiledEngine(catalog, q, 1, 1);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    if (!compiled->native_enabled()) {
      ASSERT_FALSE(ExpectNative()) << compiled->native_status().ToString();
      GTEST_SKIP() << compiled->native_status().ToString();
    }
    ASSERT_TRUE((batched ? compiled->ApplyBatch({first})
                         : compiled->Apply(first))
                    .ok());
#ifndef RINGDB_NO_METRICS
    EXPECT_GT(NativeCalls(*compiled), 0u);
#endif
    auto interp = Engine::Create(catalog, q.group_vars, q.body);
    ASSERT_TRUE(interp.ok());
    ASSERT_TRUE(interp->Apply(first).ok());
    EXPECT_EQ(compiled->ResultGmr(), interp->ResultGmr());
  }
}

TEST(NativeBackendTest, ShardedCompiledMatchesInterpreter) {
  ring::Catalog catalog = workload::OrdersSchema();
  sql::TranslatedQuery q = RevenueQuery(catalog);
  auto compiled = CompiledEngine(catalog, q, 64, 4);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled->native_enabled()) {
    GTEST_SKIP() << compiled->native_status().ToString();
  }
  auto interp = Engine::Create(catalog, q.group_vars, q.body);
  ASSERT_TRUE(interp.ok());
  std::vector<Update> updates = RevenueStream(catalog, 2000);
  ASSERT_TRUE(compiled->ApplyBatch(updates).ok());
  for (const Update& u : updates) ASSERT_TRUE(interp->Apply(u).ok());
  EXPECT_EQ(compiled->ResultGmr(), interp->ResultGmr());
}

TEST(NativeBackendTest, ModuleCacheServesRepeatConstruction) {
  ring::Catalog catalog = workload::OrdersSchema();
  sql::TranslatedQuery q = RevenueQuery(catalog);
  auto first = CompiledEngine(catalog, q, 16, 1);
  ASSERT_TRUE(first.ok());
  if (!first->native_enabled()) {
    GTEST_SKIP() << first->native_status().ToString();
  }
  // Same program → same source hash → cached .so; the second engine must
  // come up native without recompiling (observable as: still enabled).
  auto second = CompiledEngine(catalog, q, 16, 1);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->native_enabled());
}

TEST(NativeBackendTest, CorruptedCacheEntryIsEvictedAndRebuilt) {
  namespace fs = std::filesystem;
  char cache_template[] = "/tmp/ringdb-native-corrupt-XXXXXX";
  ASSERT_NE(::mkdtemp(cache_template), nullptr);
  ScopedEnv cache("RINGDB_NATIVE_CACHE_DIR", cache_template);
  ring::Catalog catalog = workload::OrdersSchema();
  sql::TranslatedQuery q = RevenueQuery(catalog);

  // Corruption shapes a cache can actually contain when a fresh process
  // starts (crashed copy, bit rot, cache shared with an incompatible
  // build): truncated artifact, then outright garbage bytes under the
  // hash-keyed name. Both must be evicted and rebuilt, never surfaced
  // as an engine-construction failure or a crash. Each round populates
  // and then fully releases the module before corrupting: dlopen of a
  // path that is still mapped in-process returns the live mapping, so
  // in-place corruption under a live engine is not the scenario this
  // recovery path serves.
  for (const char* mode : {"truncate", "garbage"}) {
    std::vector<fs::path> so_files;
    {
      auto first = CompiledEngine(catalog, q, 16, 1);
      ASSERT_TRUE(first.ok());
      if (!first->native_enabled()) {
        GTEST_SKIP() << first->native_status().ToString();
      }
      for (const auto& entry : fs::directory_iterator(cache_template)) {
        if (entry.path().extension() == ".so") {
          so_files.push_back(entry.path());
        }
      }
      ASSERT_FALSE(so_files.empty()) << mode;
    }  // engine destroyed -> module dlclosed -> mapping released
    for (const fs::path& so : so_files) {
      std::ofstream out(so, std::ios::binary | std::ios::trunc);
      if (std::string_view(mode) == "garbage") {
        out << "this is not an ELF shared object";
      }
    }
    auto rebuilt = CompiledEngine(catalog, q, 16, 1);
    ASSERT_TRUE(rebuilt.ok()) << mode << ": "
                              << rebuilt.status().ToString();
    EXPECT_TRUE(rebuilt->native_enabled())
        << mode << ": " << rebuilt->native_status().ToString();

    // And the rebuilt module computes correctly.
    auto oracle = Engine::Create(catalog, q.group_vars, q.body);
    ASSERT_TRUE(oracle.ok());
    std::vector<Update> updates = RevenueStream(catalog, 300);
    ASSERT_TRUE(rebuilt->ApplyBatch(updates).ok());
    for (const Update& u : updates) ASSERT_TRUE(oracle->Apply(u).ok());
    EXPECT_EQ(rebuilt->ResultGmr(), oracle->ResultGmr()) << mode;
  }
  fs::remove_all(cache_template);
}

TEST(NativeBackendTest, StaleAbiModuleIsEvictedAndRebuilt) {
  // A module from an older ABI sitting under the current hash name (a
  // cache populated before an ABI bump whose source text happened to
  // match) must fail the loader handshake, be evicted, and be rebuilt.
  namespace fs = std::filesystem;
  ScopedCacheDir cache;
  ring::Catalog catalog = workload::OrdersSchema();
  sql::TranslatedQuery q = RevenueQuery(catalog);
  fs::path so, src;
  {
    auto first = CompiledEngine(catalog, q, 16, 1);
    ASSERT_TRUE(first.ok());
    if (!first->native_enabled()) {
      ASSERT_FALSE(ExpectNative()) << first->native_status().ToString();
      GTEST_SKIP() << first->native_status().ToString();
    }
    EXPECT_FALSE(first->Stats().native_cache_hit);
    for (const auto& entry : fs::directory_iterator(cache.path())) {
      if (entry.path().extension() == ".so") so = entry.path();
      if (entry.path().extension() == ".c") src = entry.path();
    }
    ASSERT_FALSE(so.empty());
    ASSERT_FALSE(src.empty());
  }  // module dlclosed, so the planted file is what the next dlopen sees

  // Plant the same module built as ABI v3 under the v4 name.
  std::ifstream in(src);
  std::string source((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  const std::string v4 = "const int32_t rdb_abi_version = 4;";
  const size_t at = source.find(v4);
  ASSERT_NE(at, std::string::npos);
  source.replace(at, v4.size(), "const int32_t rdb_abi_version = 3;");
  const fs::path v3_src = fs::path(cache.path()) / "v3-module.c";
  std::ofstream(v3_src) << source;
  const std::string cmd = "cc -O0 -fPIC -shared -w -x c " + v3_src.string() +
                          " -o " + so.string();
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  auto rebuilt = CompiledEngine(catalog, q, 16, 1);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(rebuilt->native_enabled())
      << rebuilt->native_status().ToString();
  EXPECT_FALSE(rebuilt->Stats().native_cache_hit) << "v3 module was loaded";
  // The artifact under the hash name is a v4 module again (dlopen of a
  // path the engine holds returns its live mapping).
  void* handle = ::dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  ASSERT_NE(handle, nullptr);
  const auto* version =
      static_cast<const int32_t*>(::dlsym(handle, "rdb_abi_version"));
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(*version, 4);
  ::dlclose(handle);

  auto oracle = Engine::Create(catalog, q.group_vars, q.body);
  ASSERT_TRUE(oracle.ok());
  std::vector<Update> updates = RevenueStream(catalog, 300);
  ASSERT_TRUE(rebuilt->ApplyBatch(updates).ok());
  for (const Update& u : updates) ASSERT_TRUE(oracle->Apply(u).ok());
  EXPECT_EQ(rebuilt->ResultGmr(), oracle->ResultGmr());

  // And the rebuilt artifact now serves the next engine from the cache.
  auto cached = CompiledEngine(catalog, q, 16, 1);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->native_enabled());
  EXPECT_TRUE(cached->Stats().native_cache_hit);
}

TEST(NativeBackendTest, DestroyingPendingBuildReapsCompiler) {
  // Engine construction only starts the compiler; an engine destroyed
  // before anything waited for it must reap the child (no zombie, no
  // orphan) and leave no temp artifact in the cache.
  namespace fs = std::filesystem;
  ScopedCacheDir cache;
  ring::Catalog catalog = workload::OrdersSchema();
  sql::TranslatedQuery q = RevenueQuery(catalog);
  {
    auto engine = CompiledEngine(catalog, q, 16, 1);
    ASSERT_TRUE(engine.ok());
    // The compiler is a live (or exited, unreaped) child right now;
    // WNOWAIT looks without reaping it.
    siginfo_t info{};
    const int rc = ::waitid(P_ALL, 0, &info, WEXITED | WNOHANG | WNOWAIT);
    if (rc != 0) {
      ASSERT_FALSE(ExpectNative()) << "no compiler child was started";
      GTEST_SKIP() << "no host C compiler";
    }
  }
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1) << "a child outlived it";
  EXPECT_EQ(errno, ECHILD);
  for (const auto& entry : fs::directory_iterator(cache.path())) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"),
              std::string::npos)
        << entry.path();
  }
}

// ---- Tiered backend: serve on the interpreter while cc runs -----------

constexpr int kSlowCompileS = 2;

bool HasHostCc() { return std::system("command -v cc >/dev/null 2>&1") == 0; }

// A host compiler that sleeps kSlowCompileS seconds and then runs `then`
// ("exec cc \"$@\"" compiles, "exit 1" fails): a shell script RINGDB_CC
// points at for the object's lifetime, with a fresh module cache so the
// build really runs.
class SlowCompiler {
 public:
  explicit SlowCompiler(const char* then)
      : script_(WriteScript(cache_.path() + "/slow-cc.sh", then)),
        cc_("RINGDB_CC", script_.c_str()) {}
  const std::string& script() const { return script_; }
  const std::string& cache_dir() const { return cache_.path(); }

 private:
  static std::string WriteScript(std::string path, const char* then) {
    std::ofstream(path) << "#!/bin/sh\nsleep " << kSlowCompileS << "\n"
                        << then << "\n";
    std::filesystem::permissions(path, std::filesystem::perms::owner_all);
    return path;
  }

  ScopedCacheDir cache_;
  std::string script_;
  ScopedEnv cc_;
};

const std::vector<std::string>& TieredSqls() {
  static const std::vector<std::string> sqls = {
      "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
      "WHERE o.okey = l.okey GROUP BY o.ckey",
      "SELECT o.ckey, SUM(1) FROM orders o GROUP BY o.ckey"};
  return sqls;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool AnyPending(const serve::QueryService& service) {
  for (const auto& q : service.Stats().queries) {
    if (q.native_state == runtime::NativeState::kPending) return true;
  }
  return false;
}

// Pushes windows of `window` updates from `begin` on (each drained before
// the next) while any query's build is pending, pausing between windows
// so the compile lands mid-stream, then `after` more windows. Returns the
// end of the pushed prefix.
size_t StreamAcrossAttach(serve::QueryService& service,
                          const std::vector<Update>& updates, size_t begin,
                          size_t window, int after) {
  size_t next = begin;
  auto push_window = [&] {
    for (const size_t end = next + window; next < end; ++next) {
      EXPECT_TRUE(service.Push(updates[next]).ok());
    }
    service.Drain();
  };
  while (AnyPending(service) && next + window <= updates.size()) {
    push_window();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (int w = 0; w < after && next + window <= updates.size(); ++w) {
    push_window();
  }
  return next;
}

void ExpectSameStatementCounters(const Engine& a, const Engine& b) {
  const Engine::EngineStats sa = a.Stats();
  const Engine::EngineStats sb = b.Stats();
  ASSERT_EQ(sa.statements.size(), sb.statements.size());
  for (size_t i = 0; i < sa.statements.size(); ++i) {
    const Engine::StmtStats& x = sa.statements[i];
    const Engine::StmtStats& y = sb.statements[i];
    SCOPED_TRACE(x.label);
    EXPECT_EQ(x.counters.invocations, y.counters.invocations);
    EXPECT_EQ(x.counters.loop_iterations, y.counters.loop_iterations);
    EXPECT_EQ(x.counters.probes, y.counters.probes);
    EXPECT_EQ(x.counters.emissions, y.counters.emissions);
  }
}

TEST(NativeBackendTest, ServiceServesOnInterpreterUntilCompilesLand) {
  // Two compiled queries on one service, with a compiler that sleeps
  // before compiling: Start() returns at once, the first windows run on
  // the interpreter while both compiles run side by side, and each engine
  // switches to its module at one window boundary. Results match an
  // interpreted twin fed the same windows and the AGCA oracle; semantic
  // counters match the twin's.
  if (!HasHostCc()) {
    ASSERT_FALSE(ExpectNative()) << "no cc on PATH";
    GTEST_SKIP() << "no host C compiler";
  }
  SlowCompiler slow("exec cc \"$@\"");
  ring::Catalog catalog = workload::OrdersSchema();
  serve::ServeOptions options;
  options.batch_size = 32;
  options.backend = Backend::kCompile;
  options.trace_windows = 4096;  // retain every window, the first included
  const auto t0 = std::chrono::steady_clock::now();
  serve::QueryService service(catalog, options);
  std::vector<serve::QueryId> ids;
  for (size_t i = 0; i < TieredSqls().size(); ++i) {
    auto id = service.RegisterSql("q" + std::to_string(i), TieredSqls()[i]);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  service.Start();
  EXPECT_LT(SecondsSince(t0), kSlowCompileS / 2.0)
      << "Start() waited on the compiler";
  for (const auto& q : service.Stats().queries) {
    EXPECT_EQ(q.native_state, runtime::NativeState::kPending) << q.name;
  }

  const std::vector<Update> updates = RevenueStream(catalog, 32 * 400);
  const size_t pushed = StreamAcrossAttach(service, updates, 0, 32, 8);
  service.Stop();
  ASSERT_TRUE(service.status().ok()) << service.status().ToString();
  const std::vector<Update> applied(updates.begin(),
                                    updates.begin() + pushed);

  // The windows as the batcher cut them, for the interpreted twins.
  const std::vector<obs::WindowTrace> windows = service.TraceWindows();
  size_t traced = 0;
  for (const obs::WindowTrace& w : windows) traced += w.events;
  ASSERT_EQ(traced, pushed) << "trace ring dropped windows";

  for (size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE(TieredSqls()[i]);
    const Engine& engine = service.engine(ids[i]);
    ASSERT_TRUE(engine.native_enabled()) << engine.native_status().ToString();
    const Engine::EngineStats st = engine.Stats();
    EXPECT_EQ(st.native_state, runtime::NativeState::kNative);
    EXPECT_FALSE(st.native_cache_hit);
    EXPECT_GT(st.native_source_bytes, 0u);
    EXPECT_GT(st.native_entry_points, 0u);
    EXPECT_GE(st.native_build_ms, kSlowCompileS * 1000.0);
    EXPECT_EQ(st.native_wait_ms, 0.0) << "a caller blocked on the compiler";
    EXPECT_GT(st.native_attach_updates, 0u);
    EXPECT_LT(st.native_attach_updates, st.totals.updates);
#ifndef RINGDB_NO_METRICS
    EXPECT_GT(NativeCalls(engine), 0u);
    // Shard spans in window order: interpreter modes (0 row, 1 columnar)
    // up to the attach, then native (2) or profiling (3) — one switch.
    std::vector<uint32_t> modes;
    for (const obs::WindowTrace& w : windows) {
      for (const obs::TraceSpan& span : w.spans) {
        if (span.kind == obs::kSpanShardApply && span.query == i) {
          modes.push_back(span.mode);
        }
      }
    }
    ASSERT_FALSE(modes.empty());
    EXPECT_LT(modes.front(), 2u) << "first window already native";
    EXPECT_GE(modes.back(), 2u) << "last window still interpreted";
    size_t switches = 0;
    for (size_t k = 1; k < modes.size(); ++k) {
      switches += (modes[k - 1] >= 2) != (modes[k] >= 2);
    }
    EXPECT_EQ(switches, 1u);
#endif
    auto t = sql::TranslateSql(catalog, TieredSqls()[i]);
    ASSERT_TRUE(t.ok());
    auto twin = Engine::Create(catalog, t->group_vars, t->body,
                               EngineOptions{.batch_size = pushed});
    ASSERT_TRUE(twin.ok());
    size_t at = 0;
    for (const obs::WindowTrace& w : windows) {
      const std::vector<Update> slice(applied.begin() + at,
                                      applied.begin() + at + w.events);
      ASSERT_TRUE(twin->ApplyBatch(slice).ok());
      at += w.events;
    }
    EXPECT_EQ(service.snapshot(ids[i])->ToGmr(), twin->ResultGmr());
    ExpectSameStatementCounters(engine, *twin);
    baseline::NaiveReevaluator oracle(catalog, t->group_vars, t->body);
    for (const Update& u : applied) oracle.Load(u);
    ASSERT_TRUE(oracle.Refresh().ok());
    EXPECT_EQ(service.snapshot(ids[i])->ToGmr(), oracle.ResultGmr());
  }
}

TEST(NativeBackendTest, FailingSlowCompilerLeavesInterpreterOn) {
  // The compile fails after windows already ran: the poll that reaps it
  // records the failure, and the engine stays the interpreter it was.
  SlowCompiler slow("exit 1");
  ring::Catalog catalog = workload::OrdersSchema();
  sql::TranslatedQuery q = RevenueQuery(catalog);
  auto engine = CompiledEngine(catalog, q, 16, 1);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto twin = Engine::Create(catalog, q.group_vars, q.body,
                             EngineOptions{.batch_size = 16});
  ASSERT_TRUE(twin.ok());
  const std::vector<Update> updates = RevenueStream(catalog, 16 * 400);
  size_t windows = 0;
  for (size_t i = 0; i + 16 <= updates.size() &&
                     engine->sharded().native_state() ==
                         runtime::NativeState::kPending;
       i += 16, ++windows) {
    const std::vector<Update> slice(updates.begin() + i,
                                    updates.begin() + i + 16);
    ASSERT_TRUE(engine->ApplyBatch(slice).ok());
    ASSERT_TRUE(twin->ApplyBatch(slice).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GT(windows, 1u) << "the first window waited on the compiler";
  EXPECT_EQ(engine->sharded().native_state(), runtime::NativeState::kInterp);
  EXPECT_FALSE(engine->native_enabled());
  const std::string why = engine->native_status().message();
  EXPECT_NE(why.find("native compile failed"), std::string::npos) << why;
  EXPECT_NE(why.find(slow.script()), std::string::npos) << why;
  const Engine::EngineStats st = engine->Stats();
  EXPECT_EQ(st.native_attach_updates, 0u);
  EXPECT_EQ(st.native_wait_ms, 0.0);
  EXPECT_EQ(NativeCalls(*engine), 0u);
  EXPECT_EQ(engine->ResultGmr(), twin->ResultGmr());
}

TEST(NativeBackendTest, DestroyingServiceMidBuildReapsCompiler) {
  // A service destroyed while its query's compile still runs stops and
  // reaps the compiler without waiting the compile out: no child process
  // and no temp artifact outlive it.
  namespace fs = std::filesystem;
  SlowCompiler slow("exec cc \"$@\"");
  ring::Catalog catalog = workload::OrdersSchema();
  std::chrono::steady_clock::time_point destroying;
  {
    serve::ServeOptions options;
    options.batch_size = 32;
    options.backend = Backend::kCompile;
    serve::QueryService service(catalog, options);
    ASSERT_TRUE(service.RegisterSql("q0", TieredSqls()[0]).ok());
    service.Start();
    for (const Update& u : RevenueStream(catalog, 200)) {
      ASSERT_TRUE(service.Push(u).ok());
    }
    service.Drain();
    ASSERT_EQ(service.Stats().queries[0].native_state,
              runtime::NativeState::kPending);
    destroying = std::chrono::steady_clock::now();
  }
  EXPECT_LT(SecondsSince(destroying), kSlowCompileS / 4.0)
      << "destruction waited on the compiler";
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1) << "a child outlived it";
  EXPECT_EQ(errno, ECHILD);
  for (const auto& entry : fs::directory_iterator(slow.cache_dir())) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"),
              std::string::npos)
        << entry.path();
  }
}

TEST(NativeBackendTest, RecoveryReplaysExactlyWhileBuildPending) {
  // A restarted compiled service replays its WAL (and loads its
  // checkpoint) on the interpreter while the compile runs; Start() does
  // not wait for it, the recovered snapshot is exact, and the module
  // attaches at a later window with results still exact.
  if (!HasHostCc()) {
    ASSERT_FALSE(ExpectNative()) << "no cc on PATH";
    GTEST_SKIP() << "no host C compiler";
  }
  namespace fs = std::filesystem;
  char dir_template[] = "/tmp/ringdb-tiered-wal-XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  ring::Catalog catalog = workload::OrdersSchema();
  sql::TranslatedQuery q = RevenueQuery(catalog);
  serve::ServeOptions options;
  options.batch_size = 32;
  options.durability.dir = dir_template;
  options.durability.checkpoint_every_windows = 8;
  constexpr size_t kLogged = 1000;
  const std::vector<Update> updates =
      RevenueStream(catalog, kLogged + 32 * 400);
  {
    serve::QueryService first(catalog, options);  // interpreter
    ASSERT_TRUE(first.RegisterSql("q0", TieredSqls()[0]).ok());
    first.Start();
    for (size_t i = 0; i < kLogged; ++i) {
      ASSERT_TRUE(first.Push(updates[i]).ok());
    }
    first.Drain();
    first.Stop();
  }
  auto oracle_of = [&](size_t n) {
    baseline::NaiveReevaluator oracle(catalog, q.group_vars, q.body);
    for (size_t i = 0; i < n; ++i) oracle.Load(updates[i]);
    EXPECT_TRUE(oracle.Refresh().ok());
    return oracle.ResultGmr();
  };

  SlowCompiler slow("exec cc \"$@\"");
  options.backend = Backend::kCompile;
  serve::QueryService again(catalog, options);
  auto id = again.RegisterSql("q0", TieredSqls()[0]);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const auto t0 = std::chrono::steady_clock::now();
  again.Start();
  EXPECT_LT(SecondsSince(t0), kSlowCompileS / 2.0)
      << "recovery waited on the compiler";
  ASSERT_TRUE(again.durability_status().ok())
      << again.durability_status().ToString();
  EXPECT_EQ(again.recovered_updates(), kLogged);
  EXPECT_EQ(again.Stats().queries[0].native_state,
            runtime::NativeState::kPending);
  EXPECT_EQ(again.snapshot(*id)->ToGmr(), oracle_of(kLogged));

  const size_t pushed = StreamAcrossAttach(again, updates, kLogged, 32, 4);
  again.Stop();
  ASSERT_TRUE(again.status().ok()) << again.status().ToString();
  const Engine& engine = again.engine(*id);
  ASSERT_TRUE(engine.native_enabled()) << engine.native_status().ToString();
  EXPECT_EQ(engine.Stats().native_state, runtime::NativeState::kNative);
  EXPECT_GT(engine.Stats().native_attach_updates, 0u);
  EXPECT_EQ(again.snapshot(*id)->ToGmr(), oracle_of(pushed));
  fs::remove_all(dir_template);
}

TEST(NativeBackendTest, StatsPollersRaceTheAttach) {
  // The attach races every reader the tiered backend allows during
  // ingest (CI runs this under TSan): one thread hammers the service
  // stats and the engines' backend state, another blocks in
  // native_enabled() on the compiler (holding the build lock the window
  // poll only try-locks), while windows run and the modules land.
  if (!HasHostCc()) {
    ASSERT_FALSE(ExpectNative()) << "no cc on PATH";
    GTEST_SKIP() << "no host C compiler";
  }
  SlowCompiler slow("exec cc \"$@\"");
  ring::Catalog catalog = workload::OrdersSchema();
  serve::ServeOptions options;
  options.batch_size = 32;
  options.backend = Backend::kCompile;
  serve::QueryService service(catalog, options);
  std::vector<const Engine*> engines;
  for (size_t i = 0; i < TieredSqls().size(); ++i) {
    auto id = service.RegisterSql("q" + std::to_string(i), TieredSqls()[i]);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    engines.push_back(&service.engine(*id));
  }
  service.Start();
  std::atomic<bool> done{false};
  std::thread poller([&] {
    std::vector<uint64_t> attach(engines.size(), 0);
    while (!done.load(std::memory_order_acquire)) {
      const serve::QueryService::ServiceStats st = service.Stats();
      EXPECT_FALSE(service.StatsJson().empty());
      for (size_t i = 0; i < st.queries.size(); ++i) {
        const serve::QueryService::QueryStats& q = st.queries[i];
        EXPECT_NE(q.native_state, runtime::NativeState::kInterp) << q.name;
        if (attach[i] != 0) {
          // Recorded once: native and its attach count never move again.
          EXPECT_EQ(q.native_state, runtime::NativeState::kNative);
          EXPECT_EQ(q.native_attach_updates, attach[i]);
        } else if (q.native_state == runtime::NativeState::kNative) {
          attach[i] = q.native_attach_updates;
          EXPECT_GT(attach[i], 0u) << q.name;
        }
        // Read after the service's copy, so native here is native there.
        if (q.native_state == runtime::NativeState::kNative) {
          EXPECT_EQ(engines[i]->sharded().native_state(),
                    runtime::NativeState::kNative);
        }
      }
    }
  });
  std::thread settler([&] {
    EXPECT_TRUE(engines[1]->native_enabled())
        << engines[1]->native_status().ToString();
  });
  const std::vector<Update> updates = RevenueStream(catalog, 32 * 400);
  const size_t pushed = StreamAcrossAttach(service, updates, 0, 32, 4);
  done.store(true, std::memory_order_release);
  poller.join();
  settler.join();
  service.Stop();
  ASSERT_TRUE(service.status().ok()) << service.status().ToString();
  // The settler blocked on engine 1's compiler, and only it did: its
  // wait is time blocked, never more than the build; the window path
  // waits on nothing.
  const Engine::EngineStats settled = engines[1]->Stats();
  EXPECT_GT(settled.native_wait_ms, 0.0);
  EXPECT_LE(settled.native_wait_ms, settled.native_build_ms);
  EXPECT_EQ(engines[0]->Stats().native_wait_ms, 0.0);
  for (size_t i = 0; i < engines.size(); ++i) {
    SCOPED_TRACE(TieredSqls()[i]);
    EXPECT_EQ(engines[i]->Stats().native_state,
              runtime::NativeState::kNative);
    auto t = sql::TranslateSql(catalog, TieredSqls()[i]);
    ASSERT_TRUE(t.ok());
    auto twin = Engine::Create(catalog, t->group_vars, t->body);
    ASSERT_TRUE(twin.ok());
    for (size_t k = 0; k < pushed; ++k) {
      ASSERT_TRUE(twin->Apply(updates[k]).ok());
    }
    EXPECT_EQ(service.snapshot(i)->ToGmr(), twin->ResultGmr());
  }
}

TEST(NativeBackendTest, ServeOptionsPlumbBackend) {
  ring::Catalog catalog = workload::OrdersSchema();
  serve::ServeOptions options;
  options.batch_size = 32;
  options.backend = Backend::kCompile;
  serve::QueryService service(catalog, options);
  auto id = service.RegisterSql(
      "revenue",
      "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
      "WHERE o.okey = l.okey GROUP BY o.ckey");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const bool native = service.engine(*id).native_enabled();

  service.Start();
  std::vector<Update> updates = RevenueStream(catalog, 500);
  for (const Update& u : updates) ASSERT_TRUE(service.Push(u).ok());
  service.Drain();
  service.Stop();
  ASSERT_TRUE(service.status().ok()) << service.status().ToString();

  // Snapshot equals an interpreter replay of the same stream whether or
  // not the native module engaged (compiler-less hosts fall back).
  auto oracle = Engine::Create(
      catalog, service.query_info(*id).group_vars,
      RevenueQuery(catalog).body);
  ASSERT_TRUE(oracle.ok());
  for (const Update& u : updates) ASSERT_TRUE(oracle->Apply(u).ok());
  ring::Gmr expected = oracle->ResultGmr();
  auto snapshot = service.snapshot(*id);
  for (const auto& [tuple, m] : expected.support()) {
    std::vector<Value> key;
    for (Symbol g : service.query_info(*id).group_vars) {
      const Value* v = tuple.Get(g);
      ASSERT_NE(v, nullptr);
      key.push_back(*v);
    }
    EXPECT_EQ(snapshot->Get(key), m);
  }
  if (std::getenv("RINGDB_EXPECT_NATIVE") != nullptr) {
    EXPECT_TRUE(native) << "serve backend did not engage native code";
  }
}

}  // namespace
}  // namespace ringdb
