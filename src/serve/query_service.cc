#include "serve/query_service.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <utility>

#include "obs/trace_export.h"
#include "sql/translate.h"
#include "util/check.h"
#include "util/table_printer.h"

namespace ringdb {
namespace serve {

namespace {

// Minimal JSON string escaping for error messages embedded in StatsJson
// (paths and strerror text can carry quotes and backslashes).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

QueryService::QueryService(ring::Catalog catalog, ServeOptions options)
    : catalog_(std::move(catalog)),
      options_(options),
      queue_(options.queue_capacity),
      builder_(catalog_),
      trace_(options.trace_windows) {}

QueryService::~QueryService() { Stop(); }

StatusOr<QueryId> QueryService::Register(std::string name,
                                         std::vector<Symbol> group_vars,
                                         agca::ExprPtr body) {
  if (started_ || stopped_) {
    return Status::FailedPrecondition(
        "queries must be registered before Start()");
  }
  runtime::EngineOptions engine_options;
  engine_options.batch_size = options_.batch_size;
  engine_options.num_shards = options_.num_shards;
  engine_options.backend = options_.backend;
  RINGDB_ASSIGN_OR_RETURN(
      runtime::Engine engine,
      runtime::Engine::Create(catalog_, group_vars, std::move(body),
                              engine_options));
  auto info = std::make_shared<QueryInfo>();
  info->name = std::move(name);
  info->group_vars = std::move(group_vars);
  info->key_order = engine.root_key_order();
  auto query = std::make_unique<Query>();
  query->info = info;
  query->engine = std::make_unique<runtime::Engine>(std::move(engine));
  for (const compiler::Trigger& trigger : query->engine->program().triggers) {
    query->relevant_relations.insert(trigger.relation);
  }
  // The empty pre-ingest snapshot: readers are never handed a null.
  query->snapshot.store(ResultSnapshot::Build(std::move(info),
                                              *query->engine,
                                              /*version=*/0,
                                              /*updates_applied=*/0));
  queries_.push_back(std::move(query));
  return queries_.size() - 1;
}

StatusOr<QueryId> QueryService::RegisterSql(std::string name,
                                            const std::string& sql) {
  RINGDB_ASSIGN_OR_RETURN(sql::TranslatedQuery translated,
                          sql::TranslateSql(catalog_, sql));
  return Register(std::move(name), std::move(translated.group_vars),
                  std::move(translated.body));
}

std::vector<log::DurableLog::EngineSlot> QueryService::EngineSlots() const {
  std::vector<log::DurableLog::EngineSlot> slots;
  slots.reserve(queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    // Registration order names the checkpoint families; a service must
    // register its queries in the same order across restarts (the
    // program fingerprint rejects a swapped assignment regardless).
    slots.push_back({"q" + std::to_string(i), queries_[i]->engine.get()});
  }
  return slots;
}

void QueryService::DisableDurability(Status error) {
  bool first_error = false;
  {
    std::lock_guard<std::mutex> lock(dlog_mu_);
    if (durability_status_.ok()) {
      durability_status_ = std::move(error);
      first_error = true;
    }
    if (dlog_ != nullptr) {
      (void)dlog_->Close();  // best effort; the error is already recorded
      dlog_.reset();
    }
  }
#ifndef RINGDB_NO_METRICS
  // Flight dump on the first fail-stop: the last trace_windows windows
  // (the failing one still in flight, complete=false) to the durability
  // directory, outside dlog_mu_ — the dump is pure reads of the trace
  // ring plus file IO.
  if (first_error && !options_.durability.dir.empty()) {
    WriteTraceFile(options_.durability.dir + "/flight.trace.json");
  }
#else
  (void)first_error;
#endif
}

void QueryService::WriteTraceFile(const std::string& path) const {
  const std::string json = TraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;  // best effort: tracing must never fail ingest
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

void QueryService::RecoverDurability() {
  if (!options_.durability.enabled()) return;
  auto opened = log::DurableLog::Open(catalog_, options_.durability);
  if (!opened.ok()) {
    DisableDurability(opened.status());
    return;
  }
  std::unique_ptr<log::DurableLog> dlog = std::move(opened).value();
  Status recovered = dlog->Recover(EngineSlots());
  if (!recovered.ok()) {
    // Fail-stop, not fatal: the engines may hold a partial replay, but
    // every snapshot still advertises the pre-recovery epoch 0 and no
    // new windows were applied — republish nothing, serve memory-only.
    DisableDurability(std::move(recovered));
    return;
  }
  recovered_seq_ = dlog->recovered_seq();
  recovered_updates_ = dlog->recovered_updates();
  if (recovered_seq_ > 0) {
    // Republish every query at the recovered epoch: readers of the
    // restarted service resume exactly at "a replay of the first
    // recovered_updates events", the invariant snapshots advertise.
    for (auto& query : queries_) {
      query->snapshot.store(ResultSnapshot::Build(
          query->info, *query->engine, recovered_seq_, recovered_updates_));
    }
    RINGDB_OBS(windows_.SetMax(static_cast<int64_t>(recovered_seq_)));
  }
  // From here every AppendWindow/MaybeCheckpoint attributes its WAL
  // append, fsync, and checkpoint time to the window's trace slot.
  dlog->set_trace(&trace_);
  std::lock_guard<std::mutex> lock(dlog_mu_);
  dlog_ = std::move(dlog);
}

void QueryService::Start() {
  RINGDB_CHECK(!started_ && !stopped_);
  // Every registered query launched its native compile at registration.
  // Nothing here waits for it: recovery replay and the first windows run
  // on the interpreter, and each engine attaches its module at the first
  // window boundary after its compiler exits.
  RecoverDurability();  // before any thread exists; engines are quiescent
  // Shard-owned publication from here on: each shard freezes its root
  // sub-snapshot at window end (under its token), so snapshot builds
  // compose pointers instead of scanning. Enabled only now — recovery
  // replay above paid no per-window freezes, and its republish seeded
  // the per-shard epochs lazily through RootSubSnapshots.
  for (auto& query : queries_) {
    query->engine->sharded().EnablePublish(true);
  }
#ifndef RINGDB_NO_METRICS
  if (!options_.trace_dump_path.empty()) {
    // Opt-in on-demand dump: `kill -USR1 <pid>` flags a request; the
    // batcher polls between windows and writes trace_dump_path.
    obs::ArmTraceDumpSignal(SIGUSR1);
  }
#endif
  started_ = true;
  for (size_t i = 1; i < queries_.size(); ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  batcher_ = std::thread([this] { BatcherLoop(); });
}

Status QueryService::Push(const ring::Update& update) {
  // Before Start there is no batcher to drain the queue: accepting the
  // update would strand it (and leave a later Drain() waiting forever).
  if (!started_) {
    return Status::FailedPrecondition("Push before Start()");
  }
  // Eager validation — the exact check BatchBuilder::Add performs — so
  // the producer gets the error and the batcher can treat builder
  // failures as impossible.
  RINGDB_RETURN_IF_ERROR(exec::BatchBuilder::Validate(
      catalog_, update.relation, update.values));
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++pushed_;
  }
  // Not accepted after all: undo the drain accounting. The rollback may
  // have made Drain's predicate true with no further applies coming, so
  // wake waiters too.
  auto rollback = [&] {
    {
      std::lock_guard<std::mutex> lock(drain_mu_);
      --pushed_;
    }
    drain_cv_.notify_all();
  };
  if (options_.push_timeout_ms == 0) {
    // No deadline: block on backpressure for as long as it takes.
    if (!queue_.Push(update)) {
      rollback();
      return Status::FailedPrecondition("ingest queue closed");
    }
    return Status::Ok();
  }
  switch (queue_.TryPushFor(
      update, std::chrono::milliseconds(options_.push_timeout_ms))) {
    case IngestQueue::PushResult::kAccepted:
      return Status::Ok();
    case IngestQueue::PushResult::kTimedOut:
      rollback();
      return Status::Unavailable(
          "ingest queue full: no space within " +
          std::to_string(options_.push_timeout_ms) + "ms (retryable)");
    case IngestQueue::PushResult::kClosed:
      rollback();
      return Status::FailedPrecondition("ingest queue closed");
  }
  RINGDB_CHECK(false);
  return Status::Internal("unreachable");
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [&] { return applied_ >= pushed_; });
}

void QueryService::Stop() {
  if (stopped_) return;
  stall_batcher_.store(false, std::memory_order_release);
  queue_.Close();
  if (batcher_.joinable()) batcher_.join();  // drains accepted updates
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_workers_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  {
    // Batcher joined: the WAL tail is quiescent. A clean stop syncs it,
    // so kGroupCommit loses nothing across an orderly restart.
    std::lock_guard<std::mutex> lock(dlog_mu_);
    if (dlog_ != nullptr) {
      Status closed = dlog_->Close();
      if (!closed.ok() && durability_status_.ok()) {
        durability_status_ = std::move(closed);
      }
    }
  }
  stopped_ = true;
}

const QueryInfo& QueryService::query_info(QueryId id) const {
  RINGDB_CHECK(id < queries_.size());
  return *queries_[id]->info;
}

Status QueryService::status() const {
  for (const auto& query : queries_) {
    if (!query->apply_status.ok()) return query->apply_status;
  }
  return Status::Ok();
}

Status QueryService::durability_status() const {
  std::lock_guard<std::mutex> lock(dlog_mu_);
  return durability_status_;
}

runtime::Engine& QueryService::engine(QueryId id) {
  RINGDB_CHECK(id < queries_.size());
  RINGDB_CHECK(!started_ || stopped_);
  return *queries_[id]->engine;
}

void QueryService::ApplyAndPublish(size_t query_index,
                                   const exec::UpdateBatch& batch,
                                   uint64_t version,
                                   uint64_t updates_applied,
                                   uint64_t window_ns) {
  Query& query = *queries_[query_index];
  // A window disjoint from the query's trigger relations cannot move
  // the result: skip the no-op apply and the O(result-size) snapshot
  // rebuild. The previous snapshot stays published — still a correct
  // prefix of the stream, just labeled with its older epoch.
  bool touches_query = false;
  for (const exec::RelationDelta& delta : batch.deltas()) {
    if (query.relevant_relations.contains(delta.relation)) {
      touches_query = true;
      break;
    }
  }
  if (!touches_query) {
    RINGDB_OBS(query.windows_skipped.Add(1));
    return;
  }
#ifndef RINGDB_NO_METRICS
  const uint64_t t0 = obs::NowNs();
  // Hand the window's trace slot down to the engine's shard layer: each
  // shard records its own apply span tagged with this query. The engine
  // is exclusively this applier's for the duration of the window, so the
  // plain write is safe (workers read it after the generation handshake).
  query.engine->sharded().SetTraceContext(
      {&trace_, version, static_cast<uint32_t>(query_index)});
#endif
  Status applied = query.engine->ApplyPrepared(batch);
#ifndef RINGDB_NO_METRICS
  query.engine->sharded().SetTraceContext({});
  const uint64_t t1 = obs::NowNs();
  query_apply_ns_.Record(t1 - t0);
#endif
  if (!applied.ok() && query.apply_status.ok()) {
    query.apply_status = std::move(applied);
  }
  query.snapshot.store(ResultSnapshot::Build(query.info, *query.engine,
                                             version, updates_applied));
#ifndef RINGDB_NO_METRICS
  const uint64_t t2 = obs::NowNs();
  publish_age_ns_.Record(t2 - window_ns);
  const uint32_t mode = query.engine->executor().window_dispatch_mode();
  trace_.AddSpan(version, obs::kSpanQueryApply,
                 static_cast<uint32_t>(query_index), /*shard=*/0, mode, t0,
                 t1);
  trace_.AddSpan(version, obs::kSpanQueryPublish,
                 static_cast<uint32_t>(query_index), /*shard=*/0, mode, t1,
                 t2);
#endif
  RINGDB_OBS(query.windows_applied.Add(1));
}

void QueryService::WorkerLoop(size_t query_index) {
  uint64_t seen_generation = 0;
  while (true) {
    const exec::UpdateBatch* batch = nullptr;
    uint64_t version = 0;
    uint64_t updates = 0;
    uint64_t window_ns = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_workers_ || generation_ != seen_generation;
      });
      if (stop_workers_) return;
      seen_generation = generation_;
      batch = current_batch_;
      version = current_version_;
      updates = current_updates_;
      window_ns = current_window_ns_;
    }
    ApplyAndPublish(query_index, *batch, version, updates, window_ns);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
    }
    done_cv_.notify_one();
  }
}

void QueryService::BatcherLoop() {
  std::vector<ring::Update> window;
  // Window numbering continues across restarts: recovery landed the
  // engines (and the published snapshots) exactly on this epoch.
  uint64_t sequence = recovered_seq_;
  uint64_t cumulative_updates = recovered_updates_;
  uint64_t oldest_enqueue_ns = 0;
  while (queue_.PopWindow(options_.batch_size, &window, &oldest_enqueue_ns)) {
    while (stall_batcher_.load(std::memory_order_acquire)) {
      // Test hook: hold the popped window so producers fill the queue
      // behind it. Stop() clears the flag before closing the queue.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const uint64_t window_ns = obs::NowNs();
    cumulative_updates += window.size();
    const uint64_t version = ++sequence;
#ifndef RINGDB_NO_METRICS
    // The window's trace slot opens here and closes after checkpoint;
    // queue-wait is the span the window's oldest event spent enqueued
    // before the batcher picked the window up.
    trace_.BeginWindow(version, window.size());
    if (oldest_enqueue_ns != 0 && oldest_enqueue_ns <= window_ns) {
      trace_.Stage(version, obs::kTraceQueueWait, oldest_enqueue_ns,
                   window_ns);
    }
#endif
    for (const ring::Update& update : window) {
      // Push validated relation and arity; Add cannot fail.
      RINGDB_CHECK(builder_.Add(update).ok());
    }
    // The window's delta GMRs, built once for all queries.
    exec::UpdateBatch batch = builder_.Build();
#ifndef RINGDB_NO_METRICS
    const uint64_t coalesce_end = obs::NowNs();
    coalesce_ns_.Record(coalesce_end - window_ns);
    trace_.Stage(version, obs::kTraceCoalesce, window_ns, coalesce_end);
#endif
    // Write-ahead: the window is logged before any engine sees it, so a
    // crash anywhere downstream replays it instead of losing it. Append
    // failure is fail-stop for durability only (record + keep serving).
    if (dlog_ != nullptr) {
      Status logged;
      {
        std::lock_guard<std::mutex> lock(dlog_mu_);
        if (dlog_ != nullptr) {
          logged = dlog_->AppendWindow(version, window.size(),
                                       cumulative_updates, batch);
        }
      }
      if (!logged.ok()) DisableDurability(std::move(logged));
    }
    RINGDB_OBS(windows_.Set(static_cast<int64_t>(version)));
    const size_t num_queries = queries_.size();
#ifndef RINGDB_NO_METRICS
    const uint64_t fanout_t0 = obs::NowNs();
#endif
    if (num_queries > 1) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        current_batch_ = &batch;
        current_version_ = version;
        current_updates_ = cumulative_updates;
        current_window_ns_ = window_ns;
        pending_ = num_queries - 1;
        ++generation_;
      }
      work_cv_.notify_all();
    }
    if (num_queries > 0) {
      // Query 0 runs here: the batcher is an applier, not just a router.
      ApplyAndPublish(0, batch, version, cumulative_updates, window_ns);
    }
    if (num_queries > 1) {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] { return pending_ == 0; });
    }
#ifndef RINGDB_NO_METRICS
    if (num_queries > 0) {
      // Fan-out barrier: publish through every applier's ApplyPrepared +
      // snapshot swap, back to all-workers-parked. The per-query and
      // per-shard spans recorded inside nest under this interval.
      trace_.Stage(version, obs::kTraceFanout, fanout_t0, obs::NowNs());
    }
#endif
    // Every engine has fully applied the window and the workers are
    // parked — the quiescence WriteCheckpoint requires.
    if (dlog_ != nullptr) {
      Status ckpt;
      {
        std::lock_guard<std::mutex> lock(dlog_mu_);
        if (dlog_ != nullptr) {
          ckpt = dlog_->MaybeCheckpoint(version, cumulative_updates,
                                        EngineSlots());
        }
      }
      if (!ckpt.ok()) DisableDurability(std::move(ckpt));
    }
#ifndef RINGDB_NO_METRICS
    trace_.FinishWindow(version);
    if (!options_.trace_dump_path.empty() &&
        obs::ConsumeTraceDumpRequest()) {
      WriteTraceFile(options_.trace_dump_path);
    }
#endif
    {
      std::lock_guard<std::mutex> lock(drain_mu_);
      applied_ += window.size();
    }
    drain_cv_.notify_all();
  }
}

QueryService::ServiceStats QueryService::Stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    out.pushed = pushed_;
    out.applied = applied_;
  }
  out.windows = windows_.Value();
  out.queue = queue_.GetStats();
  {
    std::lock_guard<std::mutex> lock(dlog_mu_);
    if (dlog_ != nullptr) out.durability = dlog_->GetStats();
    out.degraded = !durability_status_.ok();
    if (out.degraded) out.durability_error = durability_status_.message();
  }
  out.crash_points = log::CrashPointCounts();
  out.coalesce_ns = coalesce_ns_.Snapshot();
  out.query_apply_ns = query_apply_ns_.Snapshot();
  out.publish_age_ns = publish_age_ns_.Snapshot();
  out.queries.reserve(queries_.size());
  for (const auto& query : queries_) {
    QueryStats qs;
    qs.name = query->info->name;
    qs.snapshot_version = query->snapshot.load()->version();
    qs.windows_applied = query->windows_applied.Value();
    qs.windows_skipped = query->windows_skipped.Value();
    const exec::ShardedExecutor& sharded = query->engine->sharded();
    qs.native_state = sharded.native_state();
    qs.native_attach_updates = sharded.native_attach_updates();
    // The global epoch is read after the per-query ones, so a racing
    // window can only make staleness look larger, never negative — but
    // clamp anyway (a query may also observe its own window before the
    // batcher's Set lands).
    qs.staleness_windows = std::max<int64_t>(
        0, out.windows - (qs.windows_applied + qs.windows_skipped));
    out.queries.push_back(std::move(qs));
  }
  return out;
}

std::string QueryService::StatsText() const {
  const ServiceStats st = Stats();
  std::string out;
  out += "serve: pushed=" + std::to_string(st.pushed) +
         " applied=" + std::to_string(st.applied) +
         " windows=" + std::to_string(st.windows) +
         " queue_depth=" + std::to_string(st.queue.depth) + "/" +
         std::to_string(st.queue.capacity) +
         " stalls=" + std::to_string(st.queue.stalls) + "\n";
  auto span = [&](const char* name, const obs::HistogramSnapshot& s) {
    out += std::string(name) + ": n=" + std::to_string(s.count) +
           " mean=" + std::to_string(s.mean()) +
           "ns p50=" + std::to_string(s.p50) +
           "ns p99=" + std::to_string(s.p99) +
           "ns max=" + std::to_string(s.max) + "ns\n";
  };
  span("queue_wait", st.queue.wait_ns);
  span("queue_stall", st.queue.stall_ns);
  span("coalesce", st.coalesce_ns);
  span("query_apply", st.query_apply_ns);
  span("publish_age", st.publish_age_ns);
  if (st.durability.enabled) {
    out += "durability: policy=" + st.durability.policy +
           " wal_records=" + std::to_string(st.durability.wal_records) +
           " wal_bytes=" + std::to_string(st.durability.wal_bytes) +
           " fsyncs=" + std::to_string(st.durability.wal_fsyncs) +
           " unsynced=" + std::to_string(st.durability.unsynced_windows) +
           " checkpoints=" + std::to_string(st.durability.checkpoints) +
           " windows_since_ckpt=" +
           std::to_string(st.durability.windows_since_checkpoint) +
           " recovered_seq=" + std::to_string(st.durability.recovered_seq) +
           " recovered_updates=" +
           std::to_string(st.durability.recovered_updates) +
           " truncated_bytes=" +
           std::to_string(st.durability.truncated_bytes) + "\n";
    span("wal_append", st.durability.append_ns);
    span("checkpoint", st.durability.checkpoint_ns);
  }
  if (st.degraded) {
    out += "durability DEGRADED (fail-stop, serving memory-only): " +
           st.durability_error + "\n";
  }
  if (!st.crash_points.empty()) {
    out += "crash_points:";
    for (const log::CrashPointCount& cp : st.crash_points) {
      out += " " + std::string(cp.name) + "=" + std::to_string(cp.hits);
    }
    out += "\n";
  }
  TablePrinter table({"query", "version", "windows_applied",
                      "windows_skipped", "staleness", "backend",
                      "attach_updates"});
  for (const QueryStats& q : st.queries) {
    table.AddRow({q.name, std::to_string(q.snapshot_version),
                  std::to_string(q.windows_applied),
                  std::to_string(q.windows_skipped),
                  std::to_string(q.staleness_windows),
                  runtime::NativeStateName(q.native_state),
                  std::to_string(q.native_attach_updates)});
  }
  out += table.Render();
  return out;
}

std::string QueryService::StatsJson(int indent) const {
  const ServiceStats st = Stats();
  const std::string pad(static_cast<size_t>(indent), ' ');
  std::string out = "{\n";
  out += pad + "  \"pushed\": " + std::to_string(st.pushed) + ",\n";
  out += pad + "  \"applied\": " + std::to_string(st.applied) + ",\n";
  out += pad + "  \"windows\": " + std::to_string(st.windows) + ",\n";
  out += pad + "  \"queue\": {\"depth\": " + std::to_string(st.queue.depth) +
         ", \"capacity\": " + std::to_string(st.queue.capacity) +
         ", \"stalls\": " + std::to_string(st.queue.stalls) +
         ", \"stall_ns\": ";
  obs::AppendHistogramJson(st.queue.stall_ns, &out);
  out += ", \"wait_ns\": ";
  obs::AppendHistogramJson(st.queue.wait_ns, &out);
  out += ", \"window_size\": ";
  obs::AppendHistogramJson(st.queue.window_size, &out);
  out += "},\n";
  out += pad + "  \"coalesce_ns\": ";
  obs::AppendHistogramJson(st.coalesce_ns, &out);
  out += ",\n" + pad + "  \"query_apply_ns\": ";
  obs::AppendHistogramJson(st.query_apply_ns, &out);
  out += ",\n" + pad + "  \"publish_age_ns\": ";
  obs::AppendHistogramJson(st.publish_age_ns, &out);
  out += ",\n" + pad + "  \"durability\": {\"enabled\": " +
         std::string(st.durability.enabled ? "true" : "false") +
         ", \"degraded\": " + (st.degraded ? "true" : "false");
  if (st.degraded) {
    out += ", \"error\": \"" + JsonEscape(st.durability_error) + "\"";
  }
  if (st.durability.enabled) {
    out += ", \"policy\": \"" + st.durability.policy + "\"" +
           ", \"wal_records\": " + std::to_string(st.durability.wal_records) +
           ", \"wal_bytes\": " + std::to_string(st.durability.wal_bytes) +
           ", \"wal_fsyncs\": " + std::to_string(st.durability.wal_fsyncs) +
           ", \"unsynced_windows\": " +
           std::to_string(st.durability.unsynced_windows) +
           ", \"checkpoints\": " + std::to_string(st.durability.checkpoints) +
           ", \"windows_since_checkpoint\": " +
           std::to_string(st.durability.windows_since_checkpoint) +
           ", \"recovered_seq\": " +
           std::to_string(st.durability.recovered_seq) +
           ", \"recovered_updates\": " +
           std::to_string(st.durability.recovered_updates) +
           ", \"recovered_records\": " +
           std::to_string(st.durability.recovered_records) +
           ", \"truncated_bytes\": " +
           std::to_string(st.durability.truncated_bytes) +
           ", \"append_ns\": ";
    obs::AppendHistogramJson(st.durability.append_ns, &out);
    out += ", \"checkpoint_ns\": ";
    obs::AppendHistogramJson(st.durability.checkpoint_ns, &out);
  }
  out += "},\n" + pad + "  \"crash_points\": {";
  for (size_t i = 0; i < st.crash_points.size(); ++i) {
    out += std::string(i == 0 ? "" : ", ") + "\"" + st.crash_points[i].name +
           "\": " + std::to_string(st.crash_points[i].hits);
  }
  out += "},\n" + pad + "  \"queries\": [\n";
  for (size_t i = 0; i < st.queries.size(); ++i) {
    const QueryStats& q = st.queries[i];
    out += pad + "    {\"name\": \"" + q.name + "\", \"version\": " +
           std::to_string(q.snapshot_version) +
           ", \"windows_applied\": " + std::to_string(q.windows_applied) +
           ", \"windows_skipped\": " + std::to_string(q.windows_skipped) +
           ", \"staleness_windows\": " +
           std::to_string(q.staleness_windows) + ", \"native_state\": \"" +
           runtime::NativeStateName(q.native_state) +
           "\", \"native_attach_updates\": " +
           std::to_string(q.native_attach_updates) + "}";
    out += (i + 1 < st.queries.size()) ? ",\n" : "\n";
  }
  out += pad + "  ]\n" + pad + "}";
  return out;
}

std::string QueryService::TraceJson() const {
  return obs::TraceToChromeJson(trace_.Export(), "serve");
}

std::string QueryService::TraceBreakdownJson(int indent) const {
  std::string out;
  obs::AppendTraceBreakdownJson(obs::ComputeTraceBreakdown(trace_.Export()),
                                indent, &out);
  return out;
}

}  // namespace serve
}  // namespace ringdb
