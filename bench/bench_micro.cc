// Micro-benchmarks (google-benchmark): per-update latency of the
// compiled trigger programs for the canonical query shapes, compile
// times, evaluator throughput, view-table primitives, and the cost of
// publishing a window (copy-on-write freeze).

#include <benchmark/benchmark.h>

#include "agca/ast.h"
#include "agca/eval.h"
#include "baseline/baselines.h"
#include "compiler/compile.h"
#include "runtime/engine.h"
#include "runtime/frozen_view.h"
#include "runtime/view_table.h"
#include "sql/translate.h"
#include "util/random.h"
#include "workload/stream.h"

namespace {

using ringdb::Numeric;
using ringdb::Rng;
using ringdb::Symbol;
using ringdb::Value;
using ringdb::agca::CmpOp;
using ringdb::agca::Expr;
using ringdb::agca::ExprPtr;
using ringdb::agca::Term;

Symbol S(const char* s) { return Symbol::Intern(s); }

struct SelfJoin {
  ringdb::ring::Catalog catalog;
  Symbol rel = S("Rmb");
  ExprPtr body;
  SelfJoin() {
    catalog.AddRelation(rel, {S("A")});
    body = Expr::Mul({Expr::Relation(rel, {Term(S("x"))}),
                      Expr::Relation(rel, {Term(S("y"))}),
                      Expr::Cmp(CmpOp::kEq, Expr::Var(S("x")),
                                Expr::Var(S("y")))});
  }
};

void BM_EngineApplySelfJoin(benchmark::State& state) {
  SelfJoin q;
  auto engine = ringdb::runtime::Engine::Create(q.catalog, {}, q.body);
  Rng rng(1);
  // Pre-populate.
  for (int64_t i = 0; i < state.range(0); ++i) {
    (void)engine->Insert(q.rel, {Value(rng.Range(0, 1024))});
  }
  for (auto _ : state) {
    (void)engine->Insert(q.rel, {Value(rng.Range(0, 1024))});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineApplySelfJoin)->Arg(1024)->Arg(65536);

void BM_ClassicalApplySelfJoin(benchmark::State& state) {
  SelfJoin q;
  ringdb::baseline::ClassicalIvm classical(q.catalog, {}, q.body);
  Rng rng(1);
  for (int64_t i = 0; i < state.range(0); ++i) {
    (void)classical.Apply(
        ringdb::ring::Update::Insert(q.rel, {Value(rng.Range(0, 1024))}));
  }
  for (auto _ : state) {
    (void)classical.Apply(
        ringdb::ring::Update::Insert(q.rel, {Value(rng.Range(0, 1024))}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassicalApplySelfJoin)->Arg(1024)->Arg(16384);

void BM_EngineApplyRevenue(benchmark::State& state) {
  auto catalog = ringdb::workload::OrdersSchema();
  auto t = ringdb::sql::TranslateSql(
      catalog,
      "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
      "WHERE o.okey = l.okey GROUP BY o.ckey");
  auto engine =
      ringdb::runtime::Engine::Create(catalog, t->group_vars, t->body);
  ringdb::workload::StreamOptions options;
  options.domain_size = 4096;
  options.delete_fraction = 0.1;
  std::vector<ringdb::workload::RelationStream> streams;
  streams.emplace_back(catalog, S("orders"), options);
  streams.emplace_back(catalog, S("lineitem"), options);
  ringdb::workload::RoundRobinStream stream(std::move(streams));
  for (auto _ : state) {
    (void)engine->Apply(stream.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineApplyRevenue);

void BM_CompileRevenueQuery(benchmark::State& state) {
  auto catalog = ringdb::workload::OrdersSchema();
  auto t = ringdb::sql::TranslateSql(
      catalog,
      "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
      "WHERE o.okey = l.okey GROUP BY o.ckey");
  for (auto _ : state) {
    auto compiled =
        ringdb::compiler::Compile(catalog, t->group_vars, t->body);
    benchmark::DoNotOptimize(compiled);
  }
}
BENCHMARK(BM_CompileRevenueQuery);

void BM_SqlParseTranslate(benchmark::State& state) {
  auto catalog = ringdb::workload::OrdersSchema();
  for (auto _ : state) {
    auto t = ringdb::sql::TranslateSql(
        catalog,
        "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
        "WHERE o.okey = l.okey AND l.qty > 2 GROUP BY o.ckey");
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_SqlParseTranslate);

void BM_EvaluatorJoin(benchmark::State& state) {
  // Reference evaluator on an n x n two-way equijoin — the nonincremental
  // cost recursive IVM avoids.
  ringdb::ring::Catalog catalog;
  catalog.AddRelation(S("Rmv"), {S("A"), S("B")});
  catalog.AddRelation(S("Smv"), {S("B"), S("C")});
  ringdb::ring::Database db(catalog);
  Rng rng(3);
  int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    db.Insert(S("Rmv"), {Value(i), Value(rng.Range(0, n / 4 + 1))});
    db.Insert(S("Smv"), {Value(rng.Range(0, n / 4 + 1)), Value(i)});
  }
  ExprPtr q = Expr::Sum(
      {}, Expr::Mul({Expr::Relation(S("Rmv"), {Term(S("a")), Term(S("b"))}),
                     Expr::Relation(S("Smv"),
                                    {Term(S("b")), Term(S("c"))})}));
  for (auto _ : state) {
    auto r = ringdb::agca::EvaluateScalar(q, db, ringdb::ring::Tuple());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EvaluatorJoin)->Arg(64)->Arg(256);

void BM_ViewTableAdd(benchmark::State& state) {
  ringdb::runtime::ViewTable view(2);
  Rng rng(5);
  for (auto _ : state) {
    view.Add({Value(rng.Range(0, 4096)), Value(rng.Range(0, 16))},
             ringdb::kOne);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ViewTableAdd);

void BM_ViewTableIndexedProbe(benchmark::State& state) {
  ringdb::runtime::ViewTable view(2);
  int index = view.EnsureIndex({1});
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) {
    view.Add({Value(rng.Range(0, 65536)), Value(rng.Range(0, 64))},
             ringdb::kOne);
  }
  for (auto _ : state) {
    int64_t probe = rng.Range(0, 64);
    size_t n = 0;
    view.ForEachMatching(index, {Value(probe)},
                         [&](ringdb::runtime::KeyView, Numeric) { ++n; });
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_ViewTableIndexedProbe);

// Point probes on an arity-1 view of 1M entries: the cost of reaching an
// entry through the page tables (slot page, then entry page).
void BM_ViewTableProbeArity1(benchmark::State& state) {
  ringdb::runtime::ViewTable view(1);
  constexpr int64_t kEntries = 1 << 20;
  for (int64_t i = 0; i < kEntries; ++i) view.Add({Value(i)}, ringdb::kOne);
  Rng rng(5);
  for (auto _ : state) {
    const Value key(rng.Range(0, kEntries - 1));
    benchmark::DoNotOptimize(view.At(&key, 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ViewTableProbeArity1);

// One published window on an arity-1 view of state.range(0) entries,
// with the previous publication still held (as a reader would): 64 key
// updates, then a freeze. Publication copies the pages the window
// touched, so the time should not grow with the view.
void BM_FreezeAfterWindow(benchmark::State& state) {
  ringdb::runtime::ViewTable view(1);
  const int64_t entries = state.range(0);
  for (int64_t i = 0; i < entries; ++i) view.Add({Value(i)}, ringdb::kOne);
  ringdb::runtime::FrozenViewPtr held =
      ringdb::runtime::FrozenView::Freeze(view);
  Rng rng(5);
  const uint64_t copied0 = view.pages_copied();
  for (auto _ : state) {
    for (int k = 0; k < 64; ++k) {
      view.Add({Value(rng.Range(0, entries - 1))}, ringdb::kOne);
    }
    held = ringdb::runtime::FrozenView::Freeze(view);
  }
  state.counters["pages_copied_per_window"] = benchmark::Counter(
      static_cast<double>(view.pages_copied() - copied0) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_FreezeAfterWindow)->Arg(10000)->Arg(100000)->Arg(1000000);

}  // namespace

BENCHMARK_MAIN();
