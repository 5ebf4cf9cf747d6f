// The compiled execution backend end to end: EngineOptions::backend =
// kCompile must produce results identical to the interpreter (the
// randomized cross-backend differential lives in lowering_test.cc; here
// the revenue pipeline plus the operational properties), fall back to
// the interpreter cleanly when no host C compiler exists (simulated via
// the RINGDB_CC override), reuse the hash-keyed .so cache across engine
// constructions, evict stale or corrupt cached modules, reap a compile
// still in flight when its engine dies, and plumb through
// serve::QueryService with every registered query's compile overlapped.
//
// On hosts without any C compiler the native-path tests skip; setting
// RINGDB_EXPECT_NATIVE=1 (the release CI job does) turns those skips
// into failures so an environment that is supposed to exercise native
// code cannot silently regress to the interpreter.

#include <dlfcn.h>
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

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

TEST(NativeBackendTest, ServiceOverlapsQueryCompilesBeforeFirstWindow) {
  // Two compiled queries on one service, on an empty cache: both
  // compiles run side by side from registration, Start() settles both,
  // and both are native from the first window on. Results match an
  // interpreted twin per query.
  ScopedCacheDir cache;
  ring::Catalog catalog = workload::OrdersSchema();
  serve::ServeOptions options;
  options.batch_size = 32;
  options.backend = Backend::kCompile;
  options.trace_windows = 4096;  // retain every window, the first included
  serve::QueryService service(catalog, options);
  const std::vector<std::string> sqls = {
      "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
      "WHERE o.okey = l.okey GROUP BY o.ckey",
      "SELECT o.ckey, SUM(1) FROM orders o GROUP BY o.ckey"};
  std::vector<serve::QueryId> ids;
  for (size_t i = 0; i < sqls.size(); ++i) {
    auto id = service.RegisterSql("q" + std::to_string(i), sqls[i]);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  service.Start();
  std::vector<Update> updates = RevenueStream(catalog, 600);
  for (const Update& u : updates) ASSERT_TRUE(service.Push(u).ok());
  service.Drain();
  service.Stop();
  ASSERT_TRUE(service.status().ok()) << service.status().ToString();

  for (size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE(sqls[i]);
    const Engine& engine = service.engine(ids[i]);
    if (!engine.native_enabled()) {
      ASSERT_FALSE(ExpectNative()) << engine.native_status().ToString();
      GTEST_SKIP() << engine.native_status().ToString();
    }
    const Engine::EngineStats st = engine.Stats();
    EXPECT_FALSE(st.native_cache_hit);
    EXPECT_GT(st.native_source_bytes, 0u);
    EXPECT_GT(st.native_entry_points, 0u);
    EXPECT_GT(st.native_build_ms, 0.0);
    EXPECT_LE(st.native_wait_ms, st.native_build_ms);
#ifndef RINGDB_NO_METRICS
    EXPECT_GT(NativeCalls(engine), 0u);
    // The first window's shard spans already ran with the module
    // attached (mode 2 native or 3 profiling; 1 means interpreter-only).
    const std::vector<obs::WindowTrace> windows = service.TraceWindows();
    ASSERT_FALSE(windows.empty());
    const obs::WindowTrace* first = &windows[0];
    for (const obs::WindowTrace& w : windows) {
      if (w.seq < first->seq) first = &w;
    }
    bool saw_shard_span = false;
    for (const obs::TraceSpan& span : first->spans) {
      if (span.kind != obs::kSpanShardApply || span.query != i) continue;
      saw_shard_span = true;
      EXPECT_GE(span.mode, 2u) << "window " << first->seq;
    }
    EXPECT_TRUE(saw_shard_span);
#endif
    auto t = sql::TranslateSql(catalog, sqls[i]);
    ASSERT_TRUE(t.ok());
    auto twin = Engine::Create(catalog, t->group_vars, t->body);
    ASSERT_TRUE(twin.ok());
    for (const Update& u : updates) ASSERT_TRUE(twin->Apply(u).ok());
    EXPECT_EQ(service.snapshot(ids[i])->ToGmr(), twin->ResultGmr());
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
