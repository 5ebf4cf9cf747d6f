// Observability layer (src/obs/ + per-statement execution counters):
// primitive semantics, export formats, and the metrics-exactness
// property. The semantic statement counters (invocations, loop
// iterations, probes, emissions) are defined by the lowered program and
// the update stream, not by how statements execute — so they must be
// (a) per-update constants in the bench_opcount differential sense
// (NC0: the count of the next 100 updates does not change as the
// database grows) and (b) bit-identical between the interpreter and the
// compiled backend across batch sizes and shard counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "agca/ast.h"
#include "obs/metrics.h"
#include "runtime/engine.h"
#include "sql/translate.h"
#include "util/random.h"
#include "workload/stream.h"

namespace ringdb {
namespace {

using agca::CmpOp;
using agca::Expr;
using agca::ExprPtr;
using agca::Term;
using runtime::Backend;
using runtime::Engine;
using runtime::EngineOptions;
using runtime::Executor;

Symbol S(const char* s) { return Symbol::Intern(s); }

// The NO_METRICS build compiles recording out (reads are all-zero);
// semantic assertions only hold in the normal configuration.
#ifdef RINGDB_NO_METRICS
#define SKIP_WITHOUT_METRICS() \
  GTEST_SKIP() << "metrics compiled out (-DRINGDB_NO_METRICS)"
#else
#define SKIP_WITHOUT_METRICS() \
  do {                         \
  } while (0)
#endif

// ---- Primitives -----------------------------------------------------------

TEST(CounterTest, MergesExactlyAcrossThreads) {
  SKIP_WITHOUT_METRICS();
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kAddsPerThread; ++i) counter.Add();
      counter.Add(5);
    });
  }
  for (std::thread& t : threads) t.join();
  // Sharding moves where the adds land, never how many.
  EXPECT_EQ(counter.Value(), kThreads * (kAddsPerThread + 5));
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, SetMaxIsMonotone) {
  SKIP_WITHOUT_METRICS();
  obs::Gauge gauge;
  gauge.Set(10);
  gauge.SetMax(7);  // lower: ignored
  EXPECT_EQ(gauge.Value(), 10);
  gauge.SetMax(42);
  EXPECT_EQ(gauge.Value(), 42);
  gauge.Add(-2);
  EXPECT_EQ(gauge.Value(), 40);
}

TEST(HistogramTest, QuantilesAreBucketUpperBoundsExtremesAreExact) {
  SKIP_WITHOUT_METRICS();
  obs::Histogram hist;
  // 100 values of 5: bucket 3 covers [4, 8), upper bound 7. Quantiles
  // are bucket estimates; min/max/sum/mean are exact.
  for (int i = 0; i < 100; ++i) hist.Record(5);
  obs::HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum, 500u);
  EXPECT_EQ(snap.mean(), 5u);
  EXPECT_EQ(snap.p50, 7u);
  EXPECT_EQ(snap.p99, 7u);
  EXPECT_EQ(snap.min, 5u);
  EXPECT_EQ(snap.max, 5u);
  // One outlier at 1000 moves max (exactly) and p99 (rank
  // ceil(101*0.99) = 100 of 101 lands past the hundred fives) but not
  // p50 or min.
  hist.Record(1000);
  snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 101u);
  EXPECT_EQ(snap.p50, 7u);
  EXPECT_EQ(snap.min, 5u);
  EXPECT_EQ(snap.max, 1000u);
  // A new low updates min exactly too.
  hist.Record(2);
  snap = hist.Snapshot();
  EXPECT_EQ(snap.min, 2u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_EQ(snap.mean(), (500u + 1000u + 2u) / 102u);
  hist.Reset();
  EXPECT_EQ(hist.Snapshot().count, 0u);
  EXPECT_EQ(hist.Snapshot().min, 0u);
  EXPECT_EQ(hist.Snapshot().max, 0u);
}

TEST(HistogramTest, MinMaxMergeExactlyAcrossThreads) {
  SKIP_WITHOUT_METRICS();
  obs::Histogram hist;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      // Each thread records its own band; the extremes are the global
      // band edges regardless of interleaving (sticky CAS).
      for (uint64_t v = 10 + static_cast<uint64_t>(t) * 100;
           v < 100 + static_cast<uint64_t>(t) * 100; ++v) {
        hist.Record(v);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  obs::HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * 90u);
  EXPECT_EQ(snap.min, 10u);
  EXPECT_EQ(snap.max, 100u + (kThreads - 1) * 100u - 1u);
}

TEST(HistogramTest, ZeroGetsItsOwnBucket) {
  SKIP_WITHOUT_METRICS();
  obs::Histogram hist;
  hist.Record(0);
  obs::HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.p50, 0u);
  EXPECT_EQ(snap.max, 0u);
}

TEST(MetricsRegistryTest, ExportsTextAndJson) {
  SKIP_WITHOUT_METRICS();
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.AddCounter("ingest.updates");
  obs::Gauge* g = registry.AddGauge("serve.queue.depth");
  obs::Histogram* h = registry.AddHistogram("apply.span_ns");
  c->Add(3);
  g->Set(12);
  h->Record(100);
  const std::string text = registry.ExportText();
  EXPECT_NE(text.find("ingest.updates"), std::string::npos);
  EXPECT_NE(text.find("serve.queue.depth"), std::string::npos);
  EXPECT_NE(text.find("apply.span_ns (n=1)"), std::string::npos);
  const std::string json = registry.ExportJson();
  EXPECT_NE(json.find("\"ingest.updates\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"serve.queue.depth\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  registry.ResetAll();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0);
}

// ---- Metrics exactness ----------------------------------------------------

// Per-statement semantic counters summed over all statements (the
// dispatch split native_calls/interp_calls is excluded by design: it
// describes *where* statements ran, which the backends legitimately
// disagree on).
struct SemanticTotals {
  uint64_t invocations = 0;
  uint64_t loop_iterations = 0;
  uint64_t probes = 0;
  uint64_t emissions = 0;

  bool operator==(const SemanticTotals&) const = default;
};

SemanticTotals Semantics(const Engine::EngineStats& stats) {
  SemanticTotals t;
  for (const Engine::StmtStats& s : stats.statements) {
    t.invocations += s.counters.invocations;
    t.loop_iterations += s.counters.loop_iterations;
    t.probes += s.counters.probes;
    t.emissions += s.counters.emissions;
  }
  return t;
}

// bench_opcount's oracle, as a test: for a fully update-bound query the
// per-update statement counters are a constant of the query. Measure the
// counter delta of 100 updates at |DB|=1k and again at |DB|=4k — the
// NC0 property says they are equal, and every per-statement row must
// satisfy invocations == native_calls + interp_calls.
TEST(MetricsExactnessTest, CountersAreConstantPerUpdate) {
  SKIP_WITHOUT_METRICS();
  ring::Catalog catalog;
  const Symbol r = S("ObsR");
  catalog.AddRelation(r, {S("A")});
  // Self-join count (Example 1.2): R(x) * R(y) * [x = y].
  ExprPtr body = Expr::Mul({Expr::Relation(r, {Term(S("x"))}),
                            Expr::Relation(r, {Term(S("y"))}),
                            Expr::Cmp(CmpOp::kEq, Expr::Var(S("x")),
                                      Expr::Var(S("y")))});
  auto engine = Engine::Create(catalog, {}, body);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Rng rng(7);
  std::vector<SemanticTotals> deltas;
  int64_t applied = 0;
  for (int64_t target : {1000, 4000}) {
    while (applied < target) {
      ASSERT_TRUE(engine->Insert(r, {Value(rng.Range(0, 64))}).ok());
      ++applied;
    }
    const SemanticTotals before = Semantics(engine->Stats());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(engine->Insert(r, {Value(rng.Range(0, 64))}).ok());
      ++applied;
    }
    const SemanticTotals after = Semantics(engine->Stats());
    deltas.push_back(SemanticTotals{
        after.invocations - before.invocations,
        after.loop_iterations - before.loop_iterations,
        after.probes - before.probes, after.emissions - before.emissions});
  }
  EXPECT_EQ(deltas[0], deltas[1]) << "per-update counter cost grew with |DB|";
  EXPECT_GT(deltas[0].invocations, 0u);
  EXPECT_GT(deltas[0].emissions, 0u);
  for (const Engine::StmtStats& s : engine->Stats().statements) {
    EXPECT_EQ(s.counters.invocations,
              s.counters.native_calls + s.counters.interp_calls)
        << s.label;
  }
}

// The exactness grid: batch {1, 7, 1024} × shards {1, 2, 8} × both
// backends over one fixed revenue-query stream. Within each
// (batch, shards) cell the interpreter and the compiled backend must
// produce identical semantic counters and identical engine totals —
// native execution (including its profile-guided interp/native
// alternation during warmup) may change *where* work runs, never how
// much work the lowered program does.
TEST(MetricsExactnessTest, CountersAreBackendInvariantAcrossGrid) {
  SKIP_WITHOUT_METRICS();
  ring::Catalog catalog = workload::OrdersSchema();
  auto translated = sql::TranslateSql(
      catalog,
      "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
      "WHERE o.okey = l.okey GROUP BY o.ckey");
  ASSERT_TRUE(translated.ok()) << translated.status().ToString();

  workload::StreamOptions options;
  options.seed = 99;
  options.domain_size = 512;
  options.zipf_s = 1.1;
  options.delete_fraction = 0.15;
  std::vector<workload::RelationStream> streams;
  streams.emplace_back(catalog, S("orders"), options);
  streams.emplace_back(catalog, S("lineitem"), options);
  workload::RoundRobinStream stream(std::move(streams));
  constexpr int kUpdates = 3000;
  std::vector<ring::Update> updates;
  updates.reserve(kUpdates);
  for (int i = 0; i < kUpdates; ++i) updates.push_back(stream.Next());

  auto run = [&](size_t batch, size_t shards,
                 Backend backend) -> StatusOr<Engine> {
    EngineOptions engine_options;
    engine_options.batch_size = batch;
    engine_options.num_shards = shards;
    engine_options.backend = backend;
    auto engine = Engine::Create(catalog, translated->group_vars,
                                 translated->body, engine_options);
    if (engine.ok()) {
      Status status = engine->ApplyBatch(updates);
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    return engine;
  };

  bool native_checked = false;
  for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
    for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE("batch=" + std::to_string(batch) +
                   " shards=" + std::to_string(shards));
      auto interp = run(batch, shards, Backend::kInterpret);
      ASSERT_TRUE(interp.ok()) << interp.status().ToString();
      const Engine::EngineStats istats = interp->Stats();
      // Dispatch sanity on the pure-interpreter engine: no native calls.
      for (const Engine::StmtStats& s : istats.statements) {
        EXPECT_EQ(s.counters.native_calls, 0u) << s.label;
        EXPECT_EQ(s.counters.invocations, s.counters.interp_calls)
            << s.label;
      }

      auto compiled = run(batch, shards, Backend::kCompile);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      if (!compiled->native_enabled()) {
        continue;  // no host C compiler: grid still covers the interpreter
      }
      native_checked = true;
      const Engine::EngineStats cstats = compiled->Stats();
      EXPECT_EQ(Semantics(istats), Semantics(cstats));
      ASSERT_EQ(istats.statements.size(), cstats.statements.size());
      for (size_t i = 0; i < istats.statements.size(); ++i) {
        const Engine::StmtStats& a = istats.statements[i];
        const Engine::StmtStats& b = cstats.statements[i];
        EXPECT_EQ(a.counters.invocations, b.counters.invocations) << a.label;
        EXPECT_EQ(a.counters.loop_iterations, b.counters.loop_iterations)
            << a.label;
        EXPECT_EQ(a.counters.probes, b.counters.probes) << a.label;
        EXPECT_EQ(a.counters.emissions, b.counters.emissions) << a.label;
        EXPECT_EQ(b.counters.invocations,
                  b.counters.native_calls + b.counters.interp_calls)
            << a.label;
      }
      // Engine totals that are backend-invariant by construction
      // (arithmetic_ops is interpreter-only and excluded on purpose).
      EXPECT_EQ(istats.totals.updates, cstats.totals.updates);
      EXPECT_EQ(istats.totals.statements_run, cstats.totals.statements_run);
      EXPECT_EQ(istats.totals.delta_entries, cstats.totals.delta_entries);
      EXPECT_EQ(istats.totals.entries_touched,
                cstats.totals.entries_touched);
      // And the results agree, of course.
      EXPECT_EQ(interp->ResultGmr().ToString(),
                compiled->ResultGmr().ToString());
    }
  }
  if (!native_checked) {
    GTEST_SKIP() << "compiled backend unavailable; interpreter grid ran";
  }
}

// The exporters carry the counters: spot-check that StatsText/StatsJson
// contain the per-statement rows and the summary fields.
TEST(MetricsExactnessTest, EngineExportersCarryCounters) {
  SKIP_WITHOUT_METRICS();
  ring::Catalog catalog;
  const Symbol r = S("ObsExp");
  catalog.AddRelation(r, {S("A")});
  auto engine = Engine::Create(catalog, {}, Expr::Relation(r, {Term(S("x"))}));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE(engine->Insert(r, {Value(int64_t{1})}).ok());
  const std::string text = engine->StatsText();
  EXPECT_NE(text.find("statement"), std::string::npos);
  EXPECT_NE(text.find("invocations"), std::string::npos);
  const std::string json = engine->StatsJson();
  EXPECT_NE(json.find("\"num_shards\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"statements\": ["), std::string::npos);
  EXPECT_NE(json.find("\"approx_bytes\""), std::string::npos);
  // A standalone engine never publishes, so it never copies a page.
  EXPECT_NE(text.find("publish_pages_copied=0"), std::string::npos);
  EXPECT_NE(json.find("\"publish_pages_copied\": 0,"), std::string::npos);
}

}  // namespace
}  // namespace ringdb
