// Serving subsystem: multi-query fan-out equivalence against independent
// engines, snapshot isolation (version monotonicity, every published
// snapshot equals a replay of the covered stream prefix), ingest
// backpressure through a tiny queue, a reader/writer hammer test (run
// under TSan in the debug-tsan CI job) proving readers never block on or
// tear against the ingest pipeline, and snapshots held across 1,000+
// windows staying exact while the writer copies the pages they share.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "ring/database.h"
#include "runtime/engine.h"
#include "serve/ingest_queue.h"
#include "serve/query_service.h"
#include "serve/snapshot.h"
#include "sql/translate.h"
#include "workload/stream.h"

namespace ringdb {
namespace {

using ring::Catalog;
using ring::Update;
using serve::QueryId;
using serve::QueryService;
using serve::ServeOptions;
using serve::SnapshotPtr;

Symbol S(const char* s) { return Symbol::Intern(s); }

constexpr const char* kRevenueSql =
    "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
    "WHERE o.okey = l.okey GROUP BY o.ckey";
constexpr const char* kOrderCountSql =
    "SELECT o.ckey, SUM(1) FROM orders o GROUP BY o.ckey";
constexpr const char* kScalarSql = "SELECT SUM(l.qty) FROM lineitem l";

std::vector<Update> MakeUpdates(const Catalog& catalog, int count,
                                uint64_t seed) {
  workload::StreamOptions options;
  options.seed = seed;
  options.domain_size = 64;  // heavy key reuse: real coalescing happens
  options.zipf_s = 1.1;
  options.delete_fraction = 0.2;
  std::vector<workload::RelationStream> streams;
  streams.emplace_back(catalog, S("orders"), options);
  streams.emplace_back(catalog, S("lineitem"), options);
  workload::RoundRobinStream stream(std::move(streams));
  std::vector<Update> updates;
  updates.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) updates.push_back(stream.Next());
  return updates;
}

// Replays the first `prefix` updates through a fresh engine and returns
// the grouped result (the oracle for snapshot consistency).
ring::Gmr ReplayPrefix(const Catalog& catalog, const char* sql,
                       const std::vector<Update>& updates, size_t prefix) {
  auto translated = sql::TranslateSql(catalog, sql);
  EXPECT_TRUE(translated.ok()) << translated.status().ToString();
  auto engine =
      runtime::Engine::Create(catalog, translated->group_vars,
                              translated->body);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  for (size_t i = 0; i < prefix; ++i) {
    EXPECT_TRUE(engine->Apply(updates[i]).ok());
  }
  return engine->ResultGmr();
}

TEST(QueryServiceTest, MultiQueryEquivalentToIndependentEngines) {
  Catalog catalog = workload::OrdersSchema();
  const std::vector<Update> updates = MakeUpdates(catalog, 4000, 17);
  const char* sqls[] = {kRevenueSql, kOrderCountSql, kScalarSql};

  ServeOptions options;
  options.batch_size = 128;
  QueryService service(catalog, options);
  std::vector<QueryId> ids;
  for (const char* sql : sqls) {
    auto id = service.RegisterSql(sql, sql);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  service.Start();
  for (const Update& update : updates) {
    ASSERT_TRUE(service.Push(update).ok());
  }
  service.Stop();
  ASSERT_TRUE(service.status().ok()) << service.status().ToString();

  for (size_t q = 0; q < ids.size(); ++q) {
    const ring::Gmr expected =
        ReplayPrefix(catalog, sqls[q], updates, updates.size());
    // Both read paths agree with the oracle: the published snapshot and
    // the underlying engine (safe to touch after Stop).
    EXPECT_EQ(service.snapshot(ids[q])->ToGmr(), expected) << sqls[q];
    EXPECT_EQ(service.engine(ids[q]).ResultGmr(), expected) << sqls[q];
  }
}

TEST(QueryServiceTest, ScalarFastPathAndPointLookups) {
  Catalog catalog = workload::OrdersSchema();
  ServeOptions options;
  options.batch_size = 32;
  QueryService service(catalog, options);
  auto scalar_id = service.RegisterSql("qty", kScalarSql);
  auto count_id = service.RegisterSql("counts", kOrderCountSql);
  ASSERT_TRUE(scalar_id.ok() && count_id.ok());
  service.Start();
  ASSERT_TRUE(service.Push(Update::Insert(S("lineitem"),
                                          {Value(1), Value(10), Value(3)}))
                  .ok());
  ASSERT_TRUE(service.Push(Update::Insert(S("lineitem"),
                                          {Value(2), Value(10), Value(4)}))
                  .ok());
  ASSERT_TRUE(
      service.Push(Update::Insert(S("orders"), {Value(1), Value(42)})).ok());
  ASSERT_TRUE(
      service.Push(Update::Insert(S("orders"), {Value(2), Value(42)})).ok());
  service.Drain();
  EXPECT_EQ(service.Scalar(*scalar_id), Numeric(7));
  EXPECT_TRUE(service.snapshot(*scalar_id)->scalar_query());
  EXPECT_EQ(service.Get(*count_id, {Value(42)}), Numeric(2));
  EXPECT_EQ(service.Get(*count_id, {Value(7)}), kZero);  // absent group
  service.Stop();
}

TEST(QueryServiceTest, SnapshotsAreVersionedPrefixesOfTheStream) {
  Catalog catalog = workload::OrdersSchema();
  const std::vector<Update> updates = MakeUpdates(catalog, 2000, 29);

  ServeOptions options;
  options.batch_size = 64;
  QueryService service(catalog, options);
  auto id = service.RegisterSql("revenue", kRevenueSql);
  ASSERT_TRUE(id.ok());

  // A racing poller keeps every distinct version it observes (it may
  // catch snapshots at arbitrary mid-window moments); deterministic
  // captures after each drained chunk guarantee mid-stream coverage
  // even when the scheduler starves the poller (single-core CI).
  std::atomic<bool> stop{false};
  std::vector<SnapshotPtr> poller_captured;
  std::thread poller([&] {
    uint64_t last_version = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      SnapshotPtr snapshot = service.snapshot(*id);
      // Monotonicity: versions never regress for a single reader.
      ASSERT_GE(snapshot->version(), last_version);
      if (snapshot->version() != last_version) {
        last_version = snapshot->version();
        poller_captured.push_back(std::move(snapshot));
      }
    }
  });

  service.Start();
  std::vector<SnapshotPtr> captured;
  const size_t kChunk = 300;  // not a multiple of the 64-event window
  for (size_t i = 0; i < updates.size(); ++i) {
    ASSERT_TRUE(service.Push(updates[i]).ok());
    if ((i + 1) % kChunk == 0) {
      service.Drain();
      SnapshotPtr snapshot = service.snapshot(*id);
      EXPECT_EQ(snapshot->updates_applied(), i + 1);
      captured.push_back(std::move(snapshot));
    }
  }
  service.Drain();
  captured.push_back(service.snapshot(*id));
  stop.store(true);
  poller.join();
  service.Stop();
  ASSERT_TRUE(service.status().ok());
  captured.insert(captured.end(), poller_captured.begin(),
                  poller_captured.end());
  std::sort(captured.begin(), captured.end(),
            [](const SnapshotPtr& a, const SnapshotPtr& b) {
              return a->version() < b->version();
            });

  // Every captured snapshot is exactly a replayed prefix of the stream:
  // updates_applied() tells which one, window boundaries are invisible.
  ASSERT_FALSE(captured.empty());
  uint64_t last_applied = 0;
  for (const SnapshotPtr& snapshot : captured) {
    EXPECT_GE(snapshot->updates_applied(), last_applied);
    last_applied = snapshot->updates_applied();
    ASSERT_LE(snapshot->updates_applied(), updates.size());
    EXPECT_EQ(snapshot->ToGmr(),
              ReplayPrefix(catalog, kRevenueSql, updates,
                           static_cast<size_t>(snapshot->updates_applied())))
        << "at version " << snapshot->version();
  }
  // The final snapshot covers the whole stream.
  EXPECT_EQ(service.snapshot(*id)->updates_applied(), updates.size());
}

// 8 reader threads race ApplyBatch through the full pipeline; the
// debug-tsan CI job runs this under ThreadSanitizer, which is the actual
// gate — data-race-free publication, not just plausible values. Sharded
// engines are used so the per-shard worker pool is raced too.
TEST(QueryServiceTest, ReaderWriterHammer) {
  Catalog catalog = workload::OrdersSchema();
  const std::vector<Update> updates = MakeUpdates(catalog, 6000, 43);

  ServeOptions options;
  options.batch_size = 256;
  options.num_shards = 2;
  options.queue_capacity = 1024;
  QueryService service(catalog, options);
  auto revenue = service.RegisterSql("revenue", kRevenueSql);
  auto counts = service.RegisterSql("counts", kOrderCountSql);
  ASSERT_TRUE(revenue.ok() && counts.ok());
  service.Start();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 8; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(workload::ChildSeed(7, static_cast<uint64_t>(r)));
      uint64_t last_version[2] = {0, 0};
      uint64_t reads = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const QueryId id = (reads % 2 == 0) ? *revenue : *counts;
        SnapshotPtr snapshot = service.snapshot(id);
        ASSERT_GE(snapshot->version(), last_version[reads % 2]);
        last_version[reads % 2] = snapshot->version();
        // Point lookup + scalar read against the frozen table; the sum
        // over a scan must equal the snapshot's own scalar (an internal
        // consistency invariant a torn read would break).
        const Value key(static_cast<int64_t>(rng.Below(64)));
        (void)snapshot->Get({key});
        if (reads % 64 == 0) {
          Numeric total = kZero;
          snapshot->ForEach(
              [&](runtime::KeyView, Numeric m) { total += m; });
          ASSERT_EQ(total, snapshot->scalar());
        }
        ++reads;
      }
      total_reads.fetch_add(reads);
    });
  }

  for (const Update& update : updates) {
    ASSERT_TRUE(service.Push(update).ok());
  }
  service.Drain();
  stop.store(true);
  for (std::thread& t : readers) t.join();
  service.Stop();
  ASSERT_TRUE(service.status().ok()) << service.status().ToString();
  EXPECT_GT(total_reads.load(), 0u);

  // The raced result is still exactly the replayed stream.
  EXPECT_EQ(service.snapshot(*revenue)->ToGmr(),
            ReplayPrefix(catalog, kRevenueSql, updates, updates.size()));
}

// Copy-on-write publication: a published snapshot shares its pages with
// the live root, which copies a page before its next write to it.
// Readers hold snapshots across at least 1,000 windows, probing and
// scanning them while the writer keeps copying and mutating (the
// debug-tsan CI job races exactly this), and every held snapshot still
// equals a replay of its updates_applied() prefix at the end.
TEST(QueryServiceTest, HeldSnapshotsStayExactAcrossWindows) {
  Catalog catalog = workload::OrdersSchema();
  const std::vector<Update> updates = MakeUpdates(catalog, 6000, 59);
  auto translated = sql::TranslateSql(catalog, kRevenueSql);
  ASSERT_TRUE(translated.ok());
  for (size_t shards : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ServeOptions options;
    options.batch_size = 4;  // >= 1,500 windows over the stream
    options.num_shards = shards;
    QueryService service(catalog, options);
    auto id = service.RegisterSql("revenue", kRevenueSql);
    ASSERT_TRUE(id.ok());
    service.Start();

    std::atomic<bool> stop{false};
    std::vector<std::vector<SnapshotPtr>> held(3);
    std::vector<std::thread> readers;
    for (size_t r = 0; r < 2; ++r) {
      readers.emplace_back([&, r] {
        Rng rng(workload::ChildSeed(11, r));
        std::vector<SnapshotPtr>& mine = held[r];
        while (!stop.load(std::memory_order_relaxed)) {
          SnapshotPtr snapshot = service.snapshot(*id);
          if (mine.empty() ||
              snapshot->version() >= mine.back()->version() + 40) {
            mine.push_back(std::move(snapshot));
          }
          // Read an older held snapshot while the writer copies the
          // pages it shares with the live root.
          const SnapshotPtr& old = mine[rng.Below(mine.size())];
          (void)old->Get({Value(static_cast<int64_t>(rng.Below(64)))});
          Numeric total = kZero;
          old->ForEach([&](runtime::KeyView, Numeric m) { total += m; });
          ASSERT_EQ(total, old->scalar());
        }
      });
    }
    // Deterministic captures too, so an early snapshot is held however
    // the scheduler treats the readers.
    for (size_t i = 0; i < updates.size(); ++i) {
      ASSERT_TRUE(service.Push(updates[i]).ok());
      if (i % 500 == 20) {
        service.Drain();
        held[2].push_back(service.snapshot(*id));
      }
    }
    service.Drain();
    stop.store(true);
    for (std::thread& t : readers) t.join();
    const uint64_t last_version = service.snapshot(*id)->version();
    service.Stop();
    ASSERT_TRUE(service.status().ok()) << service.status().ToString();
    EXPECT_GT(service.engine(*id).Stats().publish_pages_copied, 0u);

    std::vector<SnapshotPtr> all;
    for (const auto& mine : held) all.insert(all.end(), mine.begin(), mine.end());
    std::sort(all.begin(), all.end(),
              [](const SnapshotPtr& a, const SnapshotPtr& b) {
                return a->updates_applied() < b->updates_applied();
              });
    ASSERT_FALSE(all.empty());
    EXPECT_GE(last_version, all.front()->version() + 1000);
    // One replay engine walks the stream; each held snapshot is checked
    // when the replay reaches its prefix.
    auto replay = runtime::Engine::Create(catalog, translated->group_vars,
                                          translated->body);
    ASSERT_TRUE(replay.ok());
    size_t applied = 0;
    for (const SnapshotPtr& snapshot : all) {
      ASSERT_LE(snapshot->updates_applied(), updates.size());
      for (; applied < snapshot->updates_applied(); ++applied) {
        ASSERT_TRUE(replay->Apply(updates[applied]).ok());
      }
      EXPECT_EQ(snapshot->ToGmr(), replay->ResultGmr())
          << "held snapshot at version " << snapshot->version();
    }
  }
}

// 8 reader threads hammer QueryService::Stats() while ingest runs (the
// debug-tsan CI job races the export against the batcher, the worker
// pool, and the blocked producers); every poll must see internally
// consistent, monotone values — the epoch fields (snapshot_version,
// windows_applied, windows_skipped) never move backwards for a single
// poller, staleness is never negative, and applied never exceeds pushed.
TEST(QueryServiceTest, StatsHammerIsMonotoneUnderIngest) {
  Catalog catalog = workload::OrdersSchema();
  const std::vector<Update> updates = MakeUpdates(catalog, 6000, 71);

  ServeOptions options;
  options.batch_size = 128;
  options.num_shards = 2;
  options.queue_capacity = 256;  // small: stalls and depth get exercised
  QueryService service(catalog, options);
  auto revenue = service.RegisterSql("revenue", kRevenueSql);
  auto counts = service.RegisterSql("counts", kOrderCountSql);
  ASSERT_TRUE(revenue.ok() && counts.ok());
  service.Start();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_polls{0};
  std::vector<std::thread> pollers;
  for (int r = 0; r < 8; ++r) {
    pollers.emplace_back([&] {
      uint64_t polls = 0;
      uint64_t last_pushed = 0;
      int64_t last_windows = 0;
      std::vector<QueryService::QueryStats> last(2);
      while (!stop.load(std::memory_order_relaxed)) {
        const QueryService::ServiceStats stats = service.Stats();
        ASSERT_EQ(stats.queries.size(), 2u);
        ASSERT_LE(stats.applied, stats.pushed);
        ASSERT_GE(stats.pushed, last_pushed);
        last_pushed = stats.pushed;
        ASSERT_GE(stats.windows, last_windows);
        last_windows = stats.windows;
        ASSERT_LE(stats.queue.depth, stats.queue.capacity);
        for (size_t q = 0; q < stats.queries.size(); ++q) {
          const QueryService::QueryStats& qs = stats.queries[q];
          ASSERT_GE(qs.snapshot_version, last[q].snapshot_version);
          ASSERT_GE(qs.windows_applied, last[q].windows_applied);
          ASSERT_GE(qs.windows_skipped, last[q].windows_skipped);
          ASSERT_GE(qs.staleness_windows, 0);
          last[q] = qs;
        }
        ++polls;
      }
      total_polls.fetch_add(polls);
    });
  }

  for (const Update& update : updates) {
    ASSERT_TRUE(service.Push(update).ok());
  }
  service.Drain();
  stop.store(true);
  for (std::thread& t : pollers) t.join();
  EXPECT_GT(total_polls.load(), 0u);

  // Quiescent exports are exact and self-consistent.
  const QueryService::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.pushed, updates.size());
  EXPECT_EQ(stats.applied, updates.size());
  EXPECT_EQ(stats.queue.depth, 0u);
#ifndef RINGDB_NO_METRICS
  EXPECT_GT(stats.windows, 0);
  for (const QueryService::QueryStats& qs : stats.queries) {
    // Drained: every popped window was either applied or skipped.
    EXPECT_EQ(qs.windows_applied + qs.windows_skipped, stats.windows)
        << qs.name;
    EXPECT_EQ(qs.staleness_windows, 0) << qs.name;
  }
#endif
  const std::string text = service.StatsText();
  EXPECT_NE(text.find("revenue"), std::string::npos);
  EXPECT_NE(text.find("counts"), std::string::npos);
  service.Stop();
  ASSERT_TRUE(service.status().ok()) << service.status().ToString();
}

TEST(QueryServiceTest, BackpressureThroughTinyQueue) {
  Catalog catalog = workload::OrdersSchema();
  const std::vector<Update> updates = MakeUpdates(catalog, 3000, 61);

  ServeOptions options;
  options.batch_size = 16;
  options.queue_capacity = 8;  // producers must block, repeatedly
  QueryService service(catalog, options);
  auto id = service.RegisterSql("revenue", kRevenueSql);
  ASSERT_TRUE(id.ok());
  service.Start();

  // Two producers interleave nondeterministically, so only the *final*
  // state is checked: the maintained result is a function of the summed
  // database alone, and ring addition commutes, so any interleaving of
  // the same update multiset converges to the same result.
  std::thread producer_a([&] {
    for (size_t i = 0; i < updates.size(); i += 2) {
      ASSERT_TRUE(service.Push(updates[i]).ok());
    }
  });
  std::thread producer_b([&] {
    for (size_t i = 1; i < updates.size(); i += 2) {
      ASSERT_TRUE(service.Push(updates[i]).ok());
    }
  });
  producer_a.join();
  producer_b.join();
  service.Drain();
  service.Stop();
  ASSERT_TRUE(service.status().ok());
  EXPECT_EQ(service.snapshot(*id)->updates_applied(), updates.size());
  EXPECT_EQ(service.snapshot(*id)->ToGmr(),
            ReplayPrefix(catalog, kRevenueSql, updates, updates.size()));
}

TEST(QueryServiceTest, PushValidatesAndRegistrationFreezes) {
  Catalog catalog = workload::OrdersSchema();
  QueryService service(catalog, ServeOptions{});
  auto id = service.RegisterSql("revenue", kRevenueSql);
  ASSERT_TRUE(id.ok());
  service.Start();
  // Producers get validation errors synchronously.
  EXPECT_FALSE(service.Push(Update::Insert(S("nope"), {Value(1)})).ok());
  EXPECT_FALSE(
      service.Push(Update::Insert(S("orders"), {Value(1)})).ok());
  // Registration after Start is refused.
  EXPECT_FALSE(service.RegisterSql("late", kOrderCountSql).ok());
  service.Stop();
  // Push after Stop is refused; snapshots stay readable.
  EXPECT_FALSE(
      service.Push(Update::Insert(S("orders"), {Value(1), Value(2)})).ok());
  EXPECT_EQ(service.version(*id), 0u);
  EXPECT_EQ(service.Get(*id, {Value(5)}), kZero);
}

TEST(QueryServiceTest, DisjointWindowsSkipRepublication) {
  Catalog catalog = workload::OrdersSchema();
  ServeOptions options;
  options.batch_size = 4;
  QueryService service(catalog, options);
  auto counts = service.RegisterSql("counts", kOrderCountSql);
  ASSERT_TRUE(counts.ok());
  // Push before Start is refused: no batcher exists to drain the queue.
  EXPECT_FALSE(
      service.Push(Update::Insert(S("orders"), {Value(1), Value(2)})).ok());
  service.Start();
  // lineitem-only windows cannot move an orders-only query; the skip
  // keeps the version-0 snapshot published instead of rebuilding it.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(service
                    .Push(Update::Insert(
                        S("lineitem"), {Value(i), Value(1), Value(1)}))
                    .ok());
  }
  service.Drain();
  EXPECT_EQ(service.version(*counts), 0u);
  ASSERT_TRUE(
      service.Push(Update::Insert(S("orders"), {Value(1), Value(5)})).ok());
  service.Drain();
  EXPECT_GT(service.version(*counts), 0u);
  EXPECT_EQ(service.Get(*counts, {Value(5)}), Numeric(1));
  service.Stop();
}

TEST(IngestQueueTest, WindowingAndClose) {
  serve::IngestQueue queue(4);
  EXPECT_TRUE(queue.Push(Update::Insert(S("orders"), {Value(1), Value(1)})));
  EXPECT_TRUE(queue.Push(Update::Insert(S("orders"), {Value(2), Value(2)})));
  std::vector<Update> window;
  EXPECT_TRUE(queue.PopWindow(8, &window));
  EXPECT_EQ(window.size(), 2u);
  EXPECT_EQ(window[0].values[0], Value(1));  // FIFO
  queue.Close();
  EXPECT_FALSE(queue.Push(Update::Insert(S("orders"), {Value(3), Value(3)})));
  EXPECT_FALSE(queue.PopWindow(8, &window));
}

TEST(QueryServiceTest, PushTimesOutUnavailableWhenBatcherStalls) {
  Catalog catalog = workload::OrdersSchema();
  ServeOptions options;
  options.batch_size = 4;
  options.queue_capacity = 4;
  options.push_timeout_ms = 50;  // shed load fast instead of hanging
  QueryService service(catalog, options);
  auto id = service.RegisterSql("revenue", kRevenueSql);
  ASSERT_TRUE(id.ok());
  service.Start();
  service.TestOnlyStallBatcher(true);

  // Fill the queue past capacity; once full, Push must come back with
  // kUnavailable within the timeout instead of blocking forever.
  Status timed_out = Status::Ok();
  for (int i = 0; i < 32 && timed_out.ok(); ++i) {
    timed_out = service.Push(
        Update::Insert(S("orders"), {Value(i), Value(i % 5)}));
  }
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.code(), StatusCode::kUnavailable)
      << timed_out.ToString();

  // Shed pushes are not counted as accepted: un-stall, drain, and the
  // applied count equals exactly the accepted pushes.
  service.TestOnlyStallBatcher(false);
  service.Drain();
  EXPECT_EQ(service.snapshot(*id)->updates_applied(),
            service.Stats().pushed);
  service.Stop();
  ASSERT_TRUE(service.status().ok()) << service.status().ToString();
}

TEST(QueryServiceTest, RestartRecoversEpochAndResults) {
  Catalog catalog = workload::OrdersSchema();
  const std::vector<Update> updates = MakeUpdates(catalog, 1500, 23);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ringdb-serve-restart-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  ServeOptions options;
  options.batch_size = 64;
  options.durability.dir = dir.string();
  options.durability.checkpoint_every_windows = 4;

  uint64_t first_seq = 0;
  uint64_t first_updates = 0;
  ring::Gmr first_result;
  {
    QueryService service(catalog, options);
    auto id = service.RegisterSql("revenue", kRevenueSql);
    ASSERT_TRUE(id.ok());
    service.Start();
    ASSERT_TRUE(service.durability_status().ok())
        << service.durability_status().ToString();
    for (const Update& update : updates) {
      ASSERT_TRUE(service.Push(update).ok());
    }
    service.Stop();
    ASSERT_TRUE(service.status().ok());
    first_seq = service.snapshot(*id)->version();
    first_updates = service.snapshot(*id)->updates_applied();
    first_result = service.snapshot(*id)->ToGmr();
    ASSERT_EQ(first_updates, updates.size());
  }

  // A fresh service over the same directory resumes at the stopped
  // epoch: same version, same updates_applied, same result — and keeps
  // maintaining correctly from there.
  QueryService service(catalog, options);
  auto id = service.RegisterSql("revenue", kRevenueSql);
  ASSERT_TRUE(id.ok());
  service.Start();
  ASSERT_TRUE(service.durability_status().ok())
      << service.durability_status().ToString();
  EXPECT_EQ(service.recovered_seq(), first_seq);
  EXPECT_EQ(service.recovered_updates(), first_updates);
  EXPECT_EQ(service.snapshot(*id)->version(), first_seq);
  EXPECT_EQ(service.snapshot(*id)->updates_applied(), first_updates);
  EXPECT_EQ(service.snapshot(*id)->ToGmr(), first_result);

  const std::vector<Update> more = MakeUpdates(catalog, 500, 29);
  for (const Update& update : more) {
    ASSERT_TRUE(service.Push(update).ok());
  }
  service.Stop();
  ASSERT_TRUE(service.status().ok());
  std::vector<Update> all = updates;
  all.insert(all.end(), more.begin(), more.end());
  EXPECT_EQ(service.snapshot(*id)->updates_applied(), all.size());
  EXPECT_EQ(service.snapshot(*id)->ToGmr(),
            ReplayPrefix(catalog, kRevenueSql, all, all.size()));
  std::filesystem::remove_all(dir);
}

TEST(IngestQueueTest, TryPushForAcceptsTimesOutAndCloses) {
  serve::IngestQueue queue(1);
  using PushResult = serve::IngestQueue::PushResult;
  using std::chrono::milliseconds;
  EXPECT_EQ(queue.TryPushFor(
                Update::Insert(S("orders"), {Value(1), Value(1)}),
                milliseconds(10)),
            PushResult::kAccepted);
  // Full queue, no consumer: times out without accepting.
  EXPECT_EQ(queue.TryPushFor(
                Update::Insert(S("orders"), {Value(2), Value(2)}),
                milliseconds(10)),
            PushResult::kTimedOut);
  EXPECT_EQ(queue.GetStats().timeouts, 1u);
  // A consumer freeing space inside the wait releases the producer.
  std::thread consumer([&] {
    std::this_thread::sleep_for(milliseconds(20));
    std::vector<Update> window;
    EXPECT_TRUE(queue.PopWindow(1, &window));
  });
  EXPECT_EQ(queue.TryPushFor(
                Update::Insert(S("orders"), {Value(3), Value(3)}),
                milliseconds(5000)),
            PushResult::kAccepted);
  consumer.join();
  queue.Close();
  EXPECT_EQ(queue.TryPushFor(
                Update::Insert(S("orders"), {Value(4), Value(4)}),
                milliseconds(10)),
            PushResult::kClosed);
}

TEST(IngestQueueTest, BlockedProducerReleasedByConsumer) {
  serve::IngestQueue queue(1);
  EXPECT_TRUE(queue.Push(Update::Insert(S("orders"), {Value(1), Value(1)})));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(
        queue.Push(Update::Insert(S("orders"), {Value(2), Value(2)})));
    second_pushed.store(true);
  });
  // The producer is stuck on the full queue until a window is popped.
  std::vector<Update> window;
  EXPECT_TRUE(queue.PopWindow(1, &window));
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_TRUE(queue.PopWindow(1, &window));
  EXPECT_EQ(window[0].values[0], Value(2));
}

}  // namespace
}  // namespace ringdb
