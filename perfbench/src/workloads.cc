#include "workloads.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "obs/trace.h"
#include "reference.h"
#include "runtime/engine.h"
#include "serve/query_service.h"
#include "sql/translate.h"
#include "stats.h"
#include "util/random.h"
#include "workload/stream.h"

namespace perfbench {

using ringdb::Symbol;
using ringdb::Value;
using ringdb::ring::Update;
namespace fs = std::filesystem;
namespace obs = ringdb::obs;
namespace runtime = ringdb::runtime;
namespace serve = ringdb::serve;

const std::vector<WorkloadSpec>& Workloads() {
  // Stream lengths and rates are part of each workload's definition: per
  // update cost climbs with stream position on the zipf streams, so a
  // different length is a different workload. The paced rate leaves the
  // 1-shard compiled service headroom: at 50k upd/s it fell behind in
  // slow phases of a shared host, and freshness at the edge of
  // saturation swung by a third between runs.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"shard_serve_zipf", 1.1, 4096, 200000, /*shards=*/2,
       /*compiled=*/false, /*count_query=*/false, /*durable=*/false,
       /*offered_rate=*/0, /*fresh_limit_ms=*/5000, /*threads=*/4},
      {"paced_wal_uniform", 0.0, 1 << 20, 600000, 1, true, true, true, 30000,
       1000, 3},
  };
  return kWorkloads;
}

namespace {

constexpr size_t kBatch = 1024;
constexpr double kDeleteFraction = 0.15;
constexpr size_t kOraclePrefix = 5000;
// Setup is timed at least kMinSetupReps times, and more while a run
// has spent under kSetupBudgetS on it (cheap setups are noisy; setups
// that pay the C compiler take about 0.8 s each).
constexpr int kMinSetupReps = 9;
constexpr int kMaxSetupReps = 2000;
constexpr double kSetupBudgetS = 2.0;
constexpr size_t kReadKeys = 1 << 16;  // power of two: index with a mask
// Point reads per second beside the closed-loop writer. No read:write mix
// of a real deployment is known, so the rate is a choice: about one read
// per 15 updates, a few percent of the reader thread (a Get takes about
// 1 us). gen.late_p99_ms shows the generator keeping to it.
constexpr double kReadRate = 20000;

uint64_t Now() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

// Gives freed heap back to the kernel, so resident memory counts live
// data rather than what the allocator happens to keep cached.
void TrimHeap() { malloc_trim(0); }

// Touches `cap` slots of capacity so recording samples during a timed
// repetition allocates nothing and grows no resident memory.
template <typename T>
void PreTouch(std::vector<T>& v, size_t cap) {
  v.assign(cap, T{});
  v.clear();
}

// Pools at most kMaxPooledPerRep of one repetition's latency samples,
// every k-th in time order, so a run's pooled samples stay a few MB.
constexpr size_t kMaxPooledPerRep = 1 << 16;
void AppendThinned(std::vector<double>& to, const std::vector<double>& from) {
  const size_t stride = (from.size() + kMaxPooledPerRep - 1) / kMaxPooledPerRep;
  for (size_t i = 0; i < from.size(); i += std::max<size_t>(stride, 1)) {
    to.push_back(from[i]);
  }
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

std::string FreshDir(const RunOptions& opt, const std::string& stem) {
  static int counter = 0;
  const fs::path dir =
      fs::path(opt.work_dir) / (stem + "-" + std::to_string(counter++));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// Points the compiled backend at an empty cache, so setup pays the host
// C compiler the way a first start does (a warm cache costs ~1 ms).
void UseNativeCache(const std::string& dir) {
  setenv("RINGDB_NATIVE_CACHE_DIR", dir.c_str(), 1);
}

// Keeps read results observable so no read can be optimized away.
std::atomic<int64_t> g_sink{0};

// ---- Inputs --------------------------------------------------------------

struct Inputs {
  ringdb::ring::Catalog catalog;
  std::vector<Update> stream;
  std::vector<std::vector<Value>> read_keys;  // prebuilt Get arguments
  Reference ref;
  double generate_s = 0;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  in.catalog = ringdb::workload::OrdersSchema();
  const uint64_t t0 = Now();
  ringdb::workload::StreamOptions so;
  so.domain_size = spec.domain;
  so.zipf_s = spec.zipf_s;
  so.delete_fraction = kDeleteFraction;
  std::vector<ringdb::workload::RelationStream> streams;
  so.seed = ringdb::workload::ChildSeed(seed, 0);
  streams.emplace_back(in.catalog, Symbol::Intern("orders"), so);
  so.seed = ringdb::workload::ChildSeed(seed, 1);
  streams.emplace_back(in.catalog, Symbol::Intern("lineitem"), so);
  ringdb::workload::RoundRobinStream rr(std::move(streams));
  in.stream.reserve(spec.updates);
  for (size_t i = 0; i < spec.updates; ++i) in.stream.push_back(rr.Next());

  // Read keys follow the stream's own customer distribution: the ckey of
  // a random orders event.
  std::vector<size_t> order_events;
  const Symbol orders = Symbol::Intern("orders");
  for (size_t i = 0; i < in.stream.size(); ++i) {
    if (in.stream[i].relation == orders) order_events.push_back(i);
  }
  ringdb::Rng rng(ringdb::workload::ChildSeed(seed, 2));
  in.read_keys.reserve(kReadKeys);
  for (size_t i = 0; i < kReadKeys; ++i) {
    const Update& u = in.stream[order_events[rng.Below(order_events.size())]];
    in.read_keys.push_back({u.values[1]});
  }
  in.generate_s = (Now() - t0) / 1e9;
  in.ref = ComputeReference(in.stream, in.stream.size());
  return in;
}

// ---- Samples pooled over the repetitions of one run ----------------------

struct StageRow {
  std::string name;
  std::vector<double> dur_ns, self_ns;
};

struct Samples {
  // Untraced repetitions: the end-to-end metrics, and the per-layer
  // throughput, freshness and read latency. state_mb is taken on the
  // first repetition only: later ones reuse pages that earlier service
  // threads' malloc arenas kept, so their growth reads low.
  std::vector<double> setup_s, upd_per_s, state_mb, fresh_ms, read_us;
  // Traced repetitions' headline figures, for the overhead comparison.
  std::vector<double> traced_upd_per_s, traced_fresh_ms;
  // Setup breakdown.
  std::vector<double> translate_ms, create_s;
  bool native_enabled = false;
  // Per-layer timings. Generator lateness, recovery and WAL volume come
  // from every repetition; the rest from traced ones.
  std::vector<double> coalesce_us, apply_us, apply_self_us, shard_apply_us,
      shard_skew, push_ns, queue_wait_ms, fanout_ms, fanout_self_ms,
      publish_us, wal_append_us, wal_fsync_ms, checkpoint_ms,
      events_per_window, late_ms, recovery_s, wal_bytes_per_upd, view_bytes;
  // Per-layer counters, summed over traced repetitions.
  uint64_t traced_updates = 0, traced_windows = 0, entries = 0, loop_iters = 0, probes = 0,
           emissions = 0, invocations = 0, native_calls = 0,
           interp_calls = 0, morsels = 0, stolen = 0, windows = 0,
           pushes = 0, push_stalls = 0, windows_applied = 0,
           windows_skipped = 0, fsyncs = 0, dropped_spans = 0;
  double snapshot_parts = 0;
  uint64_t recon_e2e_ns = 0, recon_covered_ns = 0;
  std::vector<StageRow> stage_rows;  // self-time table, first-seen order

  StageRow& Row(const std::string& name) {
    for (StageRow& row : stage_rows) {
      if (row.name == name) return row;
    }
    stage_rows.push_back(StageRow{name, {}, {}});
    return stage_rows.back();
  }
  void AddStage(const std::string& name, uint64_t dur, uint64_t self) {
    StageRow& row = Row(name);
    row.dur_ns.push_back(static_cast<double>(dur));
    row.self_ns.push_back(static_cast<double>(self));
  }
};

void Fail(RunResult& r, const std::string& what) {
  if (r.correct) r.error = what;
  r.correct = false;
}

void CheckResult(RunResult& r, const std::string& where,
                 const ringdb::ring::Gmr& got, const Grouped& want) {
  bool ok = true;
  const Grouped g = FromGmr(got, &ok);
  if (!ok) return Fail(r, where + ": result is not integral");
  const std::string diff = Diff(g, want);
  if (!diff.empty()) Fail(r, where + ": " + diff);
}

// Folds one engine's always-on counters (EngineStats) into the samples.
// `entries`: count its coalesced delta entries (once per window, not once
// per query sharing the window's batch).
void AddEngineCounters(const runtime::Engine& engine, bool entries,
                       Samples& s) {
  const runtime::Engine::EngineStats es = engine.Stats();
  for (const runtime::Engine::StmtStats& st : es.statements) {
    s.loop_iters += st.counters.loop_iterations;
    s.probes += st.counters.probes;
    s.emissions += st.counters.emissions;
    s.invocations += st.counters.invocations;
    s.native_calls += st.counters.native_calls;
    s.interp_calls += st.counters.interp_calls;
  }
  if (entries) s.entries += es.totals.delta_entries;
  s.morsels += es.morsels_run;
  s.stolen += es.morsels_stolen;
  s.native_enabled = s.native_enabled || es.native_enabled;
}

runtime::Backend BackendOf(const WorkloadSpec& spec) {
  return spec.compiled ? runtime::Backend::kCompile
                       : runtime::Backend::kInterpret;
}

// ---- Serving -------------------------------------------------------------

serve::ServeOptions ServiceOptions(const WorkloadSpec& spec,
                                   const std::string& wal_dir,
                                   size_t trace_windows) {
  serve::ServeOptions so;
  so.batch_size = kBatch;
  so.num_shards = spec.shards;
  so.backend = BackendOf(spec);
  so.trace_windows = trace_windows;
  if (spec.durable) {
    so.durability.dir = wal_dir;
    so.durability.fsync_policy = ringdb::log::FsyncPolicy::kEveryWindow;
    so.durability.checkpoint_every_windows = 1024;
  }
  return so;
}

struct Service {
  std::unique_ptr<serve::QueryService> svc;
  std::vector<serve::QueryId> ids;
  std::vector<const Grouped*> want;  // reference result per query
};

// Constructs the service and registers the workload's queries (not
// started). Returns false after recording the failure.
bool BuildService(const WorkloadSpec& spec, const Inputs& in,
                  const serve::ServeOptions& so, Service& out,
                  RunResult& r) {
  out.svc = std::make_unique<serve::QueryService>(in.catalog, so);
  std::vector<std::pair<const char*, const Grouped*>> queries = {
      {kRevenueSql, &in.ref.revenue}};
  if (spec.count_query) queries.push_back({kCountSql, &in.ref.count});
  for (size_t q = 0; q < queries.size(); ++q) {
    auto id = out.svc->RegisterSql("q" + std::to_string(q), queries[q].first);
    if (!id.ok()) {
      Fail(r, "register: " + id.status().ToString());
      return false;
    }
    out.ids.push_back(*id);
    out.want.push_back(queries[q].second);
  }
  return true;
}

void CheckService(const Service& s, const std::string& where,
                  RunResult& r) {
  for (size_t q = 0; q < s.ids.size(); ++q) {
    CheckResult(r, where + " q" + std::to_string(q),
                s.svc->snapshot(s.ids[q])->ToGmr(), *s.want[q]);
  }
}

// Splits one retained window into stage and span self times: a span's
// self time is its length minus what its children cover (fan-out minus
// the query spans inside it, query apply minus its shard spans).
void AnalyzeWindow(const obs::WindowTrace& w, Samples& s) {
  s.events_per_window.push_back(static_cast<double>(w.events));
  std::vector<Interval> query_spans;
  for (const obs::TraceSpan& sp : w.spans) {
    if (sp.kind == obs::kSpanQueryApply || sp.kind == obs::kSpanQueryPublish) {
      query_spans.push_back({sp.begin_ns, sp.end_ns});
    }
  }
  std::vector<Interval> stages;
  for (uint32_t k = 0; k < obs::kTraceStageCount; ++k) {
    if (w.stage_begin_ns[k] == 0) continue;
    const Interval iv{w.stage_begin_ns[k],
                      std::max(w.stage_begin_ns[k], w.stage_end_ns[k])};
    stages.push_back(iv);
    const uint64_t dur = iv.second - iv.first;
    const uint64_t self =
        k == obs::kTraceFanout ? SelfNs(iv, query_spans) : dur;
    s.AddStage(obs::TraceStageName(static_cast<obs::TraceStage>(k)), dur,
               self);
    switch (k) {
      case obs::kTraceQueueWait: s.queue_wait_ms.push_back(dur / 1e6); break;
      case obs::kTraceCoalesce: s.coalesce_us.push_back(dur / 1e3); break;
      case obs::kTraceWalAppend: s.wal_append_us.push_back(dur / 1e3); break;
      case obs::kTraceWalFsync: s.wal_fsync_ms.push_back(dur / 1e6); break;
      case obs::kTraceCheckpoint: s.checkpoint_ms.push_back(dur / 1e6); break;
      case obs::kTraceFanout:
        s.fanout_ms.push_back(dur / 1e6);
        s.fanout_self_ms.push_back(self / 1e6);
        break;
      default: break;
    }
  }
  // Per query: apply self time, shard spans and their skew.
  for (const obs::TraceSpan& sp : w.spans) {
    const uint64_t dur = sp.end_ns > sp.begin_ns ? sp.end_ns - sp.begin_ns : 0;
    if (sp.kind == obs::kSpanQueryApply) {
      std::vector<Interval> shard_spans;
      double max_ns = 0, sum_ns = 0, count = 0;
      for (const obs::TraceSpan& c : w.spans) {
        if (c.query != sp.query || c.kind == obs::kSpanQueryApply ||
            c.kind == obs::kSpanQueryPublish) {
          continue;
        }
        shard_spans.push_back({c.begin_ns, c.end_ns});
        if (c.kind == obs::kSpanShardApply) {
          const double d = static_cast<double>(c.end_ns - c.begin_ns);
          max_ns = std::max(max_ns, d);
          sum_ns += d;
          count += 1;
        }
      }
      const uint64_t self = SelfNs({sp.begin_ns, sp.end_ns}, shard_spans);
      s.AddStage("query_apply", dur, self);
      s.apply_us.push_back(dur / 1e3);
      s.apply_self_us.push_back(self / 1e3);
      if (count > 0 && sum_ns > 0) s.shard_skew.push_back(max_ns * count / sum_ns);
    } else {
      s.AddStage(obs::TraceSpanKindName(sp.kind), dur, dur);
      if (sp.kind == obs::kSpanQueryPublish) s.publish_us.push_back(dur / 1e3);
      if (sp.kind == obs::kSpanShardApply) s.shard_apply_us.push_back(dur / 1e3);
    }
  }
  s.recon_e2e_ns += w.ElapsedNs();
  s.recon_covered_ns += CoveredNs(stages, w.BeginNs(), w.EndNs());
}

// Setup as a first start pays it: service construction, registration
// (translate + compile, with the host C compiler on an empty native
// cache) and Start on an empty durability directory.
void SetupService(const WorkloadSpec& spec, const Inputs& in,
                  const RunOptions& opt, Samples& s, RunResult& r) {
  const std::string wal_dir = spec.durable ? FreshDir(opt, "wal") : "";
  {
    const uint64_t a = Now();
    auto q = ringdb::sql::TranslateSql(in.catalog, kRevenueSql);
    s.translate_ms.push_back((Now() - a) / 1e6);
    if (!q.ok()) return Fail(r, q.status().ToString());
  }
  const serve::ServeOptions so = ServiceOptions(spec, wal_dir, 0);
  Service svc;
  const uint64_t t0 = Now();
  if (!BuildService(spec, in, so, svc, r)) return;
  const uint64_t t1 = Now();
  svc.svc->Start();
  const uint64_t t2 = Now();
  s.setup_s.push_back((t2 - t0) / 1e9);
  s.create_s.push_back((t1 - t0) / 1e9);
  svc.svc->Stop();
  for (serve::QueryId id : svc.ids) {
    s.native_enabled = s.native_enabled || svc.svc->engine(id).native_enabled();
  }
  svc.svc.reset();
  if (spec.durable) fs::remove_all(wal_dir);
}

// One service lifetime after setup: the stream (closed-loop writer with
// an open-loop reader beside it, or an open-loop paced writer), output
// check, and for durable workloads a timed restart on the same directory.
void ServiceRep(const WorkloadSpec& spec, const Inputs& in,
                const RunOptions& opt, bool traced, Samples& s,
                RunResult& r) {
  const size_t n = in.stream.size();
  const bool open_loop = spec.offered_rate > 0;
  const std::string wal_dir = spec.durable ? FreshDir(opt, "wal") : "";
  // Open-loop windows hold at least tens of events, closed-loop ones a
  // full batch; the flight recorder is sized to keep every window.
  const size_t trace_windows =
      traced ? (open_loop ? n / 32 : n / kBatch + 64) : 0;
  // Room for the reads of a closed-loop repetition (about 1 s each).
  const size_t read_cap = open_loop ? 0 : static_cast<size_t>(kReadRate * 5);

  std::vector<uint64_t> handoff(n);
  std::vector<double> fresh, push_ns, late, read_latency_ns, read_late_ns;
  PreTouch(fresh, n);
  PreTouch(push_ns, traced ? n : 0);
  PreTouch(late, open_loop ? n : 0);
  PreTouch(read_latency_ns, read_cap);
  PreTouch(read_late_ns, read_cap);

  TrimHeap();
  Service svc;
  if (!BuildService(spec, in, ServiceOptions(spec, wal_dir, trace_windows),
                    svc, r)) {
    return;
  }
  svc.svc->Start();
  serve::QueryService& service = *svc.svc;
  const serve::QueryId id0 = svc.ids[0];

  const double rss0 = RssMb();
  size_t stamped = 0;  // updates known readable in every query
  auto poll = [&](uint64_t now) {
    uint64_t covered = n;
    for (serve::QueryId id : svc.ids) {
      covered = std::min<uint64_t>(covered,
                                   service.snapshot(id)->updates_applied());
    }
    for (; stamped < covered; ++stamped) {
      fresh.push_back((now - handoff[stamped]) / 1e6);
    }
  };
  auto push = [&](size_t i) {
    const uint64_t a = Now();
    const ringdb::Status st = service.Push(in.stream[i]);
    if (traced) push_ns.push_back(static_cast<double>(Now() - a));
    if (!st.ok()) r.failed += 1;
  };
  int64_t sink = 0;
  auto read = [&](uint64_t i) {
    const ringdb::Numeric v =
        service.Get(id0, in.read_keys[i & (kReadKeys - 1)]);
    sink += v.is_integer() ? v.AsInt() : 1;
  };

  const uint64_t start = Now() + 100000;  // both loops share one origin
  OpenLoop reads(start, kReadRate);
  reads.latency_ns.swap(read_latency_ns);
  reads.late_ns.swap(read_late_ns);
  std::atomic<bool> stop_reader{false};
  std::thread reader;
  if (!open_loop) {
    // Closed-loop writer on this thread, open-loop reader beside it.
    reader = std::thread([&] {
      for (uint64_t i = 0;; ++i) {
        const uint64_t due = reads.Due(i);
        uint64_t now;
        while ((now = Now()) < due) {
          if (stop_reader.load(std::memory_order_relaxed)) return;
          CpuRelax();
        }
        if (stop_reader.load(std::memory_order_relaxed)) return;
        read(i);
        reads.Record(i, now, Now());
      }
    });
    while (Now() < start) CpuRelax();
    for (size_t i = 0; i < n; ++i) {
      handoff[i] = Now();
      push(i);
      if ((i & 15) == 15) poll(Now());
    }
  } else {
    // Paced writer: between due times it polls both queries' snapshots
    // for freshness.
    OpenLoop updates(start, spec.offered_rate);
    uint64_t poll_at = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t due = updates.Due(i);
      uint64_t now;
      while ((now = Now()) < due) {
        if (now >= poll_at) {
          poll(now);
          poll_at = now + 5000;
        }
        CpuRelax();
      }
      handoff[i] = due;
      push(i);
      late.push_back((now - due) / 1e6);
    }
  }
  // Wait for the tail to become readable. A query skips windows that
  // touch none of its relations, so if its epoch stops short of the last
  // update, Drain() decides when everything is published.
  uint64_t progress_at = Now();
  size_t seen = stamped;
  while (stamped < n) {
    const uint64_t now = Now();
    poll(now);
    if (stamped != seen) {
      seen = stamped;
      progress_at = now;
    } else if (now - progress_at > 50000000) {
      service.Drain();
      const uint64_t d = Now();
      for (; stamped < n; ++stamped) fresh.push_back((d - handoff[stamped]) / 1e6);
    }
    for (int k = 0; k < 64; ++k) CpuRelax();
  }
  const uint64_t end = Now();
  stop_reader.store(true);
  if (reader.joinable()) reader.join();
  service.Drain();
  TrimHeap();
  const double rss1 = RssMb();
  g_sink += sink;

  const double rate = n / ((end - start) / 1e9);
  for (double f : fresh) {
    if (f > spec.fresh_limit_ms) r.failed += 1;
  }
  r.attempted += n + reads.latency_ns.size();
  CheckService(svc, "serving", r);
  if (!service.status().ok()) Fail(r, "service: " + service.status().ToString());
  if (!service.durability_status().ok()) {
    Fail(r, "durability: " + service.durability_status().ToString());
  }

  const serve::QueryService::ServiceStats stats = service.Stats();
  std::vector<double> read_us;
  for (double v : reads.latency_ns) read_us.push_back(v / 1e3);
  std::vector<double> late_ms = late;
  for (double v : reads.late_ns) late_ms.push_back(v / 1e6);
  AppendThinned(s.late_ms, late_ms);
  if (spec.durable) {
    s.wal_bytes_per_upd.push_back(static_cast<double>(stats.durability.wal_bytes) / n);
  }
  if (traced) {
    s.traced_upd_per_s.push_back(rate);
    AppendThinned(s.traced_fresh_ms, fresh);
    AppendThinned(s.push_ns, push_ns);
    for (const obs::WindowTrace& w : service.TraceWindows()) {
      if (w.complete) {
        AnalyzeWindow(w, s);
        ++s.traced_windows;
      }
    }
    s.dropped_spans += service.trace_recorder().dropped_spans();
    s.snapshot_parts = static_cast<double>(service.snapshot(id0)->num_parts());
    s.windows += static_cast<uint64_t>(stats.windows);
    s.pushes += n;
    s.push_stalls += stats.queue.stalls;
    s.fsyncs += stats.durability.wal_fsyncs;
    for (const auto& q : stats.queries) {
      s.windows_applied += static_cast<uint64_t>(q.windows_applied);
      s.windows_skipped += static_cast<uint64_t>(q.windows_skipped);
    }
  } else {
    s.upd_per_s.push_back(rate);
    if (s.state_mb.empty()) s.state_mb.push_back(rss1 - rss0);
    AppendThinned(s.fresh_ms, fresh);
    AppendThinned(s.read_us, read_us);
  }
  service.Stop();
  if (traced) {
    double bytes = 0;
    for (size_t q = 0; q < svc.ids.size(); ++q) {
      AddEngineCounters(service.engine(svc.ids[q]), q == 0, s);
      bytes += static_cast<double>(service.engine(svc.ids[q]).Stats().approx_bytes);
    }
    s.view_bytes.push_back(bytes);
    s.traced_updates += n;
  }
  svc.svc.reset();

  if (spec.durable) {
    // Restart on the same directory: checkpoint load plus WAL replay.
    Service again;
    if (!BuildService(spec, in, ServiceOptions(spec, wal_dir, 0), again, r)) {
      return;
    }
    const uint64_t a = Now();
    again.svc->Start();
    s.recovery_s.push_back((Now() - a) / 1e9);
    if (again.svc->recovered_updates() != n) {
      Fail(r, "recovery landed on " +
                  std::to_string(again.svc->recovered_updates()) +
                  " updates, pushed " + std::to_string(n));
    }
    if (!again.svc->durability_status().ok()) {
      Fail(r, "recovery: " + again.svc->durability_status().ToString());
    }
    CheckService(again, "recovered", r);
    again.svc->Stop();
    fs::remove_all(wal_dir);
  }
}

// ---- Reporting -------------------------------------------------------------

void Line(RunResult& r, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void Line(RunResult& r, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  r.report.push_back(buf);
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

void AddMetric(RunResult& r, const std::string& name, double value,
               const std::string& unit, const std::string& note = "") {
  r.metrics.push_back({name, value, unit});
  Line(r, "  %-28s %14.6g %-6s %s", name.c_str(), value, unit.c_str(),
       note.c_str());
}

std::string CountNote(const Summary& s) {
  char buf[160];
  if (s.tail_level > 0) {
    std::snprintf(buf, sizeof(buf), "n=%zu, p%g=%.6g%s", s.n,
                  s.tail_level * 100, s.tail,
                  s.p99_supported ? "" : ", p99 has <10 samples beyond");
  } else {
    std::snprintf(buf, sizeof(buf), "n=%zu, max=%.6g (too few for a tail)",
                  s.n, s.max);
  }
  return buf;
}

// A per-layer timing as <layer>.<what>_<unit>_p50 and _p99, with the
// sample count beside them.
void AddTiming(RunResult& r, const std::string& stem,
               const std::vector<double>& v, const std::string& unit) {
  const Summary s = Summarize(v);
  AddMetric(r, stem + "_p50", s.p50, unit, CountNote(s));
  AddMetric(r, stem + "_p99", s.p99, unit, CountNote(s));
}

// Throughput, median over the untraced repetitions. At a fixed offered
// rate it only checks that the service keeps up; the per-layer
// fresh_p50_ms carries the signal there.
std::string RateNote(const WorkloadSpec& spec, const Samples& s) {
  std::vector<double> rates = s.upd_per_s;
  char note[160];
  std::snprintf(note, sizeof(note), "%s, median of %zu, min %.6g, max %.6g",
                spec.offered_rate > 0 ? "saturation check at the offered rate"
                                      : "closed loop",
                rates.size(), Quantile(rates, 0.0), Quantile(rates, 1.0));
  return note;
}

void EndToEndMetrics(const WorkloadSpec& spec, const Samples& s,
                     RunResult& r) {
  Line(r, "end-to-end (%zu untraced repetitions):", s.upd_per_s.size());
  std::vector<double> setup = s.setup_s;
  char note[160];
  std::snprintf(note, sizeof(note),
                "median of %zu setups on an empty native cache, p10 %.3g, "
                "p90 %.3g",
                setup.size(), Quantile(setup, 0.1), Quantile(setup, 0.9));
  AddMetric(r, "setup_s", Median(s.setup_s), "s", note);
  AddMetric(r, "state_mb", Median(s.state_mb), "MB",
            "resident growth over the first repetition's stream");
  // Throughput, freshness and read latency follow the shared host's speed
  // too closely to gate on; the traced run reports them per-layer. The
  // throughput is printed here as well, for reading only.
  Line(r, "  %-28s %14.6g %-6s %s", "(upd_per_s)", Median(s.upd_per_s),
       "upd/s", RateNote(spec, s).c_str());
}

void PerLayerMetrics(const WorkloadSpec& spec, const Inputs& in,
                     const Samples& s, RunResult& r) {
  const uint64_t u = s.traced_updates;
  Line(r, "per-layer (%zu traced repetitions, %llu updates):",
       s.traced_upd_per_s.size(), static_cast<unsigned long long>(u));
  AddMetric(r, "upd_per_s", Median(s.upd_per_s), "upd/s",
            "untraced repetitions; " + RateNote(spec, s));
  const Summary fresh = Summarize(s.fresh_ms);
  AddMetric(r, "fresh_p50_ms", fresh.p50, "ms",
            "untraced repetitions; " + CountNote(fresh));
  AddMetric(r, "fresh_p99_ms", fresh.p99, "ms",
            "untraced repetitions; " + CountNote(fresh));
  const Summary read = Summarize(s.read_us);
  AddMetric(r, "read_p50_us", read.p50, "us",
            "untraced repetitions; " + CountNote(read));
  AddMetric(r, "read_p99_us", read.p99, "us",
            "untraced repetitions; " + CountNote(read));
  AddMetric(r, "sql.translate_ms", Median(s.translate_ms), "ms");
  AddMetric(r, "compiler.create_s", Median(s.create_s), "s",
            "service construction + RegisterSql");
  AddMetric(r, "runtime.native_enabled", s.native_enabled ? 1 : 0, "bool");
  AddTiming(r, "exec.coalesce_us", s.coalesce_us, "us");
  AddMetric(r, "exec.entries_per_event", Ratio(s.entries, u), "ratio");
  AddTiming(r, "runtime.apply_us", s.apply_us, "us");
  AddMetric(r, "runtime.apply_self_us_p50", Summarize(s.apply_self_us).p50,
            "us", "query apply minus its shard spans");
  AddMetric(r, "runtime.loop_iters_per_upd", Ratio(s.loop_iters, u), "ratio");
  AddMetric(r, "runtime.probes_per_upd", Ratio(s.probes, u), "ratio");
  AddMetric(r, "runtime.emissions_per_upd", Ratio(s.emissions, u), "ratio");
  AddMetric(r, "runtime.invocations_per_upd", Ratio(s.invocations, u),
            "ratio");
  AddMetric(r, "runtime.native_call_frac",
            Ratio(s.native_calls, s.native_calls + s.interp_calls), "ratio");
  AddMetric(r, "runtime.view_bytes", Median(s.view_bytes), "B");
  AddTiming(r, "exec.shard_apply_us", s.shard_apply_us, "us");
  AddMetric(r, "exec.shard_skew", Summarize(s.shard_skew).p50, "ratio",
            "max over mean shard apply per window, median");
  AddMetric(r, "exec.morsels_per_window", Ratio(s.morsels, s.windows), "ratio");
  AddMetric(r, "exec.stolen_frac", Ratio(s.stolen, s.morsels), "ratio");
  AddTiming(r, "serve.push_ns", s.push_ns, "ns");
  AddMetric(r, "serve.push_stall_frac", Ratio(s.push_stalls, s.pushes), "ratio");
  AddTiming(r, "serve.queue_wait_ms", s.queue_wait_ms, "ms");
  double events = 0;
  for (double e : s.events_per_window) events += e;
  AddMetric(r, "serve.events_per_window",
            s.events_per_window.empty() ? 0 : events / s.events_per_window.size(),
            "ratio", "mean");
  AddTiming(r, "serve.fanout_ms", s.fanout_ms, "ms");
  AddMetric(r, "serve.fanout_self_ms_p50", Summarize(s.fanout_self_ms).p50,
            "ms", "fan-out minus the query spans inside it");
  AddMetric(r, "serve.publish_us_p50", Summarize(s.publish_us).p50, "us");
  AddMetric(r, "serve.windows_skipped_frac",
            Ratio(s.windows_skipped, s.windows_applied + s.windows_skipped),
            "ratio");
  AddMetric(r, "serve.snapshot_parts", s.snapshot_parts, "count");
  AddMetric(r, "log.wal_append_us_p50", Summarize(s.wal_append_us).p50, "us");
  AddTiming(r, "log.wal_fsync_ms", s.wal_fsync_ms, "ms");
  AddMetric(r, "log.fsyncs_per_window", Ratio(s.fsyncs, s.windows), "ratio");
  AddMetric(r, "log.checkpoint_ms_p99", Summarize(s.checkpoint_ms).p99, "ms",
            CountNote(Summarize(s.checkpoint_ms)));
  AddMetric(r, "log.recovery_s", Median(s.recovery_s), "s",
            "restart Start(): checkpoint load + WAL replay, median");
  AddMetric(r, "log.wal_bytes_per_upd", Median(s.wal_bytes_per_upd), "B");
  // Tracing cost on the workload's headline figure: throughput for the
  // closed loop, median freshness at the fixed offered rate.
  double overhead = 0;
  if (spec.offered_rate > 0) {
    const double base = Summarize(s.fresh_ms).p50;
    if (base > 0) overhead = 100 * (Summarize(s.traced_fresh_ms).p50 - base) / base;
  } else {
    const double base = Median(s.upd_per_s);
    if (base > 0) overhead = 100 * (base - Median(s.traced_upd_per_s)) / base;
  }
  AddMetric(r, "obs.trace_overhead_pct", overhead, "%",
            "traced against untraced median, same run");
  AddMetric(r, "obs.reconcile_error_pct",
            s.recon_e2e_ns == 0
                ? 0
                : 100.0 * (static_cast<double>(s.recon_e2e_ns) -
                           static_cast<double>(s.recon_covered_ns)) /
                      static_cast<double>(s.recon_e2e_ns),
            "%", "window time no stage accounts for");
  AddMetric(r, "obs.dropped_spans", static_cast<double>(s.dropped_spans),
            "count");
  AddMetric(r, "gen.late_p99_ms", Summarize(s.late_ms).p99, "ms",
            CountNote(Summarize(s.late_ms)));
  AddMetric(r, "gen.generate_s", in.generate_s, "s",
            "stream generation, before any timing");

  // Self-time table: each stage's span, its self time, and its share of
  // the summed end-to-end window time.
  Line(r, "self time per stage (%llu traced windows retained of %llu):",
       static_cast<unsigned long long>(s.traced_windows),
       static_cast<unsigned long long>(s.windows));
  Line(r, "  %-16s %8s %12s %12s %12s %8s", "stage", "n", "p50_us",
       "p99_us", "self_p50_us", "self_%");
  for (const StageRow& row : s.stage_rows) {
    const Summary d = Summarize(row.dur_ns);
    const Summary self = Summarize(row.self_ns);
    double self_total = 0;
    for (double v : row.self_ns) self_total += v;
    Line(r, "  %-16s %8zu %12.3f %12.3f %12.3f %8.2f", row.name.c_str(), d.n,
         d.p50 / 1e3, d.p99 / 1e3, self.p50 / 1e3,
         s.recon_e2e_ns == 0 ? 0.0 : 100 * self_total / s.recon_e2e_ns);
  }
}

}  // namespace

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& opt) {
  RunResult r;
  const Inputs in = MakeInputs(spec, opt.seed);
  if (!in.ref.representable) Fail(r, "reference result overflows int64");
  const std::string oracle =
      CheckReferenceAgainstOracle(in.catalog, in.stream, kOraclePrefix);
  if (!oracle.empty()) Fail(r, oracle);

  Samples s;
  // Setup on an empty native cache each time; the last cache stays warm
  // for the measured repetitions, which set up outside the timed window.
  const uint64_t setup_start = Now();
  for (int k = 0; r.correct && k < kMaxSetupReps &&
                  (k < kMinSetupReps ||
                   Now() - setup_start < kSetupBudgetS * 1e9);
       ++k) {
    UseNativeCache(FreshDir(opt, "native"));
    SetupService(spec, in, opt, s, r);
  }
  // Repetitions while the next one still fits in the run's time, and at
  // least two, so a median never rests on one stream; a traced run
  // alternates untraced and traced repetitions so the overhead compares
  // like with like.
  const uint64_t deadline = Now() + static_cast<uint64_t>(opt.seconds * 1e9);
  uint64_t last_rep_ns = 0;
  for (int rep = 0; r.correct; ++rep) {
    const bool traced = opt.trace && rep % 2 == 1;
    const uint64_t t = Now();
    if (rep >= 2 && t + last_rep_ns > deadline) break;
    ServiceRep(spec, in, opt, traced, s, r);
    last_rep_ns = Now() - t;
  }
  if (!r.correct) return r;
  if (opt.trace) {
    PerLayerMetrics(spec, in, s, r);
  } else {
    EndToEndMetrics(spec, s, r);
  }
  Line(r, "failed_frac %.6g ratio (%llu of %llu operations; freshness limit "
       "%g ms)",
       Ratio(r.failed, r.attempted), static_cast<unsigned long long>(r.failed),
       static_cast<unsigned long long>(r.attempted), spec.fresh_limit_ms);
  return r;
}

}  // namespace perfbench
