// Concurrent query serving: many standing queries over one ingest
// stream, snapshot-isolated reads racing a single logical writer.
//
// The paper's point is that maintained views make query *results* cheap
// to read; QueryService is the layer that lets arbitrarily many threads
// actually read them while updates keep flowing. It hosts N registered
// queries (SQL or AGCA) over one shared catalog, each compiled to its
// own trigger program; one ingest stream fans out to all of them, with
// each window's per-relation delta GMRs coalesced exactly once
// (exec::BatchBuilder) and the same UpdateBatch fed to every query's
// engine via Engine::ApplyPrepared — cancellation and dedup work
// amortize across queries instead of repeating per query. After every
// applied window each query publishes an immutable ResultSnapshot by
// swapping its SnapshotCell (RCU-style), so readers get constant-time,
// batch-consistent point lookups, scalar reads, and scans, and never
// observe a half-applied window.
//
// Pipeline (each stage overlaps the others):
//
//   producers --Push--> IngestQueue (bounded, backpressure)
//     --> batcher thread: window coalescing, fan-out
//       --> per-query appliers (query 0 on the batcher thread, one
//           worker thread per further query; each engine may be
//           internally sharded on top) --> snapshot publication
//
//   serve::QueryService service(catalog, {.batch_size = 1024});
//   auto revenue = service.RegisterSql("revenue",
//       "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
//       "WHERE o.okey = l.okey GROUP BY o.ckey");
//   service.Start();
//   // producer threads:          reader threads:
//   service.Push(update);         service.Get(*revenue, {Value(ckey)});
//   service.Stop();

#ifndef RINGDB_SERVE_QUERY_SERVICE_H_
#define RINGDB_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "agca/ast.h"
#include "exec/batch.h"
#include "log/crash_point.h"
#include "log/durable_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ring/database.h"
#include "runtime/engine.h"
#include "serve/ingest_queue.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace ringdb {
namespace serve {

using QueryId = size_t;

struct ServeOptions {
  // Updates coalesced per applied window; also the snapshot cadence
  // (one snapshot per query per window).
  size_t batch_size = 1024;
  // Data-parallel shards per query engine (subject to each query's
  // partition analysis; see exec/partition.h).
  size_t num_shards = 1;
  // IngestQueue bound: producers block once this many events are
  // pending (backpressure instead of unbounded buffering).
  size_t queue_capacity = 1 << 16;
  // Statement-execution backend for every registered query's engine
  // (runtime::EngineOptions::backend): kCompile dispatches trigger
  // statements into runtime-compiled native code where available,
  // falling back to the interpreter transparently. Standing queries are
  // exactly the long-lived engines the one-time compile cost amortizes
  // over.
  runtime::Backend backend = runtime::Backend::kInterpret;
  // Durability (log/durable_log.h): when `durability.dir` is non-empty,
  // Start() recovers the service's state from that directory (checkpoint
  // load + WAL replay + torn-tail truncation) and every applied window
  // is logged write-ahead. Empty dir = the memory-only default.
  log::DurabilityOptions durability;
  // Push backpressure bound: a producer blocked this long on a full
  // ingest queue gets Status kUnavailable back instead of blocking
  // further (load shedding the producer can see). 0 = block forever
  // (the pre-timeout behavior).
  uint64_t push_timeout_ms = 30000;
  // Flight-recorder depth: the last `trace_windows` applied windows keep
  // their full per-stage trace (obs/trace.h) in a lock-free ring,
  // exportable any time via TraceJson() and dumped automatically on a
  // durability fail-stop. 0 disables window tracing entirely (every
  // recorder call early-outs); under -DRINGDB_NO_METRICS it is forced
  // to 0 regardless.
  size_t trace_windows = obs::TraceRecorder::kDefaultCapacity;
  // When non-empty, Start() arms SIGUSR1 as an on-demand dump hook: the
  // batcher polls between windows and writes the Chrome-trace JSON of
  // the retained windows to this path. Empty = no signal handler is
  // installed (the default: libraries should not take signals
  // unprompted).
  std::string trace_dump_path;
};

class QueryService {
 public:
  // A service over `catalog`; all queries registered later are compiled
  // against it. No threads run until Start().
  explicit QueryService(ring::Catalog catalog, ServeOptions options = {});
  ~QueryService();  // Stop()

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Registers the standing query Sum_[group_vars](body); compiles it to
  // its trigger program on this service's catalog. Registration is only
  // allowed before Start().
  StatusOr<QueryId> Register(std::string name,
                             std::vector<Symbol> group_vars,
                             agca::ExprPtr body);
  StatusOr<QueryId> RegisterSql(std::string name, const std::string& sql);

  // Recovers durable state, then spawns the batcher and per-query worker
  // threads; freezes registration. Never waits for a query's native
  // compile (ServeOptions::backend): windows run on the interpreter until
  // each engine attaches its module at a window boundary. Snapshots
  // (version 0, empty result) are readable even before Start.
  void Start();

  // Enqueues one update. Validated against the catalog here so the
  // producer gets the error synchronously (the asynchronous batcher
  // could only drop it). Blocks while the queue is full — at most
  // options.push_timeout_ms, after which the update is rejected with
  // kUnavailable (retryable: nothing was enqueued); FailedPrecondition
  // outside the running window (before Start or after Stop).
  Status Push(const ring::Update& update);

  // Blocks until every successfully pushed update has been applied to
  // every query and the corresponding snapshots published. Meaningful
  // once the caller's producers are quiescent.
  void Drain();

  // Closes the queue (later Push calls fail), drains what was accepted,
  // and joins all threads. Idempotent; snapshots stay readable forever.
  void Stop();

  // Number of registered standing queries.
  size_t num_queries() const { return queries_.size(); }
  // Name/definition metadata recorded at registration. Precondition:
  // id came from this service's Register/RegisterSql.
  const QueryInfo& query_info(QueryId id) const;
  // First ingest/apply error, if any. Stable once Drain()/Stop()
  // returned; racing appliers may not have recorded an error yet.
  Status status() const;
  // First durability error, if any (recovery or WAL append/checkpoint
  // failure). Durability is fail-stop but non-fatal: on error the
  // service records it here, stops logging, and keeps serving
  // memory-only — producers and readers see no difference.
  Status durability_status() const;
  // The window/event epoch recovery landed on at Start() (0 when
  // durability is off or the directory was empty). Snapshots published
  // before any new window advertise exactly this epoch.
  uint64_t recovered_seq() const { return recovered_seq_; }
  uint64_t recovered_updates() const { return recovered_updates_; }

  // Test hook: freeze the batcher between windows so the ingest queue
  // fills deterministically (exercises the Push timeout path).
  void TestOnlyStallBatcher(bool stalled) {
    stall_batcher_.store(stalled, std::memory_order_release);
  }
  // Test hook: inject a durability failure through the same fail-stop
  // path a real WAL/checkpoint error takes (records the error, stops
  // logging, writes the flight-recorder dump). Lets tests exercise the
  // degraded state without filesystem fault injection.
  void TestOnlyInjectDurabilityError(Status error) {
    DisableDurability(std::move(error));
  }

  // --- Read path: any thread, any time after registration -------------
  // RCU-style reads: one shared_ptr copy out of the query's publication
  // cell (a mutex held for nanoseconds; see SnapshotCell), then pure
  // probes into immutable memory. No read ever blocks ingest for longer
  // than a pointer swap; ingest never blocks a read on batch work.
  // A query's snapshot advances only with windows that touch its
  // relations (disjoint windows cannot move the result and are skipped),
  // so version() lags the global window count for single-relation
  // queries on multi-relation streams.
  // The query's latest published snapshot (immutable; hold the pointer
  // to read many values from one consistent version).
  SnapshotPtr snapshot(QueryId id) const {
    RINGDB_CHECK(id < queries_.size());
    return queries_[id]->snapshot.load();
  }
  // Point lookup in the latest snapshot, values in group_vars order.
  Numeric Get(QueryId id, const std::vector<Value>& group_values) const {
    return snapshot(id)->Get(group_values);
  }
  // Scalar result from the latest snapshot (scalar queries only).
  Numeric Scalar(QueryId id) const { return snapshot(id)->scalar(); }
  // Applied-window sequence number of the latest snapshot.
  uint64_t version(QueryId id) const { return snapshot(id)->version(); }

  // Test/maintenance access to a query's engine. Only valid while the
  // service is not running (before Start or after Stop).
  runtime::Engine& engine(QueryId id);

  // --- Observability ---------------------------------------------------
  // Everything below is safe to call from any thread at any time,
  // concurrently with ingest: reads are atomics, histogram merges, and
  // two short mutex acquisitions (queue depth, drain counters). The
  // per-query epoch fields (snapshot_version, windows_applied,
  // windows_skipped) are monotone — pollers can assert they never move
  // backwards (serve_test's stats hammer does).
  struct QueryStats {
    std::string name;
    uint64_t snapshot_version = 0;   // applied-window seq of the snapshot
    int64_t windows_applied = 0;     // relevant windows applied
    int64_t windows_skipped = 0;     // disjoint windows skipped
    int64_t staleness_windows = 0;   // global windows not yet reflected
    // The engine's backend (EngineStats::native_state): pending while the
    // query's compile runs, native once a window boundary attached it.
    runtime::NativeState native_state = runtime::NativeState::kInterp;
    uint64_t native_attach_updates = 0;  // interpreted before the attach
  };
  struct ServiceStats {
    uint64_t pushed = 0;             // accepted Push calls
    uint64_t applied = 0;            // updates applied + published
    int64_t windows = 0;             // coalesce windows popped so far
    IngestQueue::Stats queue;
    obs::HistogramSnapshot coalesce_ns;     // window -> delta GMRs
    obs::HistogramSnapshot query_apply_ns;  // per query per window
    obs::HistogramSnapshot publish_age_ns;  // window pop -> snapshot swap
    log::DurabilityStats durability;        // zeros when durability is off
    // Fail-stop state: true once the first durability error was recorded
    // (the service keeps serving memory-only); durability_error is that
    // first error's message.
    bool degraded = false;
    std::string durability_error;
    // Pass counts of every RINGDB_CRASH_POINT site the durability path
    // crossed (process-wide; see log/crash_point.h).
    std::vector<log::CrashPointCount> crash_points;
    std::vector<QueryStats> queries;
  };
  ServiceStats Stats() const;
  std::string StatsText() const;
  std::string StatsJson(int indent = 0) const;

  // --- Window tracing (flight recorder) --------------------------------
  // The pipeline-wide trace ring: the batcher records queue-wait,
  // coalesce, WAL append/fsync, fan-out, and checkpoint stages per
  // window; appliers add per-query apply/publish spans and each engine's
  // shards add per-shard apply spans. Exports are safe from any thread
  // at any time (seqlock-validated copies; in-flight windows export as
  // complete=false).
  // Chrome trace-event JSON of the retained windows (chrome://tracing /
  // Perfetto-loadable).
  std::string TraceJson() const;
  // Per-stage latency breakdown (p50/p99, critical-path attribution) of
  // the retained windows as a JSON object.
  std::string TraceBreakdownJson(int indent = 0) const;
  // The retained windows themselves (tests assert span invariants on
  // these; empty when tracing is off).
  std::vector<obs::WindowTrace> TraceWindows() const {
    return trace_.Export();
  }
  const obs::TraceRecorder& trace_recorder() const { return trace_; }

 private:
  struct Query {
    std::shared_ptr<const QueryInfo> info;
    std::unique_ptr<runtime::Engine> engine;
    SnapshotCell snapshot;
    // Relations with a trigger in this query's program: a window whose
    // delta relations are disjoint cannot change the result, so its
    // apply (a no-op) and its O(result) snapshot rebuild are skipped —
    // the previous snapshot stays published, and it still equals the
    // replay of the longer prefix.
    std::unordered_set<Symbol> relevant_relations;
    // Written only by this query's applier thread; read via status()
    // after the Drain()/Stop() happens-before edge.
    Status apply_status;
    // Monotone epoch gauges (single writer: this query's applier;
    // concurrent readers via Stats()).
    obs::Gauge windows_applied;
    obs::Gauge windows_skipped;
  };

  void BatcherLoop();
  void WorkerLoop(size_t query_index);
  // Start()-time recovery: opens the durable log, loads checkpoints,
  // replays the WAL into every engine, republishes snapshots at the
  // recovered epoch. A failure records durability_status_ and leaves
  // dlog_ null (memory-only service).
  void RecoverDurability();
  // One engine slot per query, in registration order ("q0", "q1", ...).
  std::vector<log::DurableLog::EngineSlot> EngineSlots() const;
  // Records the first durability error and stops logging (fail-stop).
  // The first call also dumps the flight recorder — the last
  // trace_windows windows, including the failing in-flight one — to
  // <durability.dir>/flight.trace.json, so the window timeline leading
  // into the failure survives for post-mortem.
  void DisableDurability(Status error);
  // Writes TraceJson() to `path` (best effort; used by the flight dump
  // and the SIGUSR1 on-demand dump).
  void WriteTraceFile(const std::string& path) const;
  // Applies the window's batch to one query and publishes its snapshot.
  // `window_ns` is the window's PopWindow timestamp (publish-age span).
  void ApplyAndPublish(size_t query_index, const exec::UpdateBatch& batch,
                       uint64_t version, uint64_t updates_applied,
                       uint64_t window_ns);

  ring::Catalog catalog_;
  ServeOptions options_;
  std::vector<std::unique_ptr<Query>> queries_;
  IngestQueue queue_;
  exec::BatchBuilder builder_;  // batcher-thread-only after Start

  // Atomic so a misuse like Push racing Start() fails cleanly (the
  // FailedPrecondition path) instead of being a data race; the intended
  // protocol is still Start -> spawn producers -> Push.
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> stall_batcher_{false};  // test hook; Stop() clears it

  // Durability: dlog_ is touched by Start() (recovery, pre-thread), the
  // batcher thread (append/checkpoint), Stop() (close, post-join), and
  // Stats() readers — dlog_mu_ serializes them (appends hold it through
  // their fsync; Stats tolerates that, it is observability).
  mutable std::mutex dlog_mu_;
  std::unique_ptr<log::DurableLog> dlog_;
  Status durability_status_;  // first durability error (guarded by dlog_mu_)
  uint64_t recovered_seq_ = 0;      // set by Start() before threads spawn
  uint64_t recovered_updates_ = 0;

  std::thread batcher_;
  std::vector<std::thread> workers_;  // worker i serves query i + 1

  // Fan-out handoff (mirrors exec::ShardedExecutor's pool): the batcher
  // publishes the window's batch/version under mu_, bumps generation_,
  // and waits for pending_ to drain; workers re-read the shared fields
  // after observing the generation change under the same mutex.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const exec::UpdateBatch* current_batch_ = nullptr;
  uint64_t current_version_ = 0;
  uint64_t current_updates_ = 0;
  uint64_t current_window_ns_ = 0;  // PopWindow timestamp of the window
  uint64_t generation_ = 0;
  size_t pending_ = 0;
  bool stop_workers_ = false;

  // Pipeline stage spans + global window epoch (batcher writes, any
  // thread reads through Stats()).
  obs::Gauge windows_;                // coalesce windows popped (monotone)
  obs::Histogram coalesce_ns_;        // window -> delta GMRs (batcher)
  obs::Histogram query_apply_ns_;     // ApplyPrepared span per query/window
  obs::Histogram publish_age_ns_;  // pop -> snapshot swap

  // Pipeline-wide flight recorder (capacity options.trace_windows; 0 =
  // off). Single writer per stage: the batcher owns the stage intervals,
  // each applier its query's spans, each shard its apply span — the
  // recorder's seqlock framing makes concurrent Export() safe.
  obs::TraceRecorder trace_;

  // Drain accounting: pushed_ counts accepted Push calls, applied_
  // counts window events whose snapshots are all published.
  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  uint64_t pushed_ = 0;
  uint64_t applied_ = 0;
};

}  // namespace serve
}  // namespace ringdb

#endif  // RINGDB_SERVE_QUERY_SERVICE_H_
