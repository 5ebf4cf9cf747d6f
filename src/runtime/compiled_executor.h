// The compiled execution backend: an Executor whose statements run as
// dlopen'd native code (compiler/codegen_c.h emission, runtime/
// native_module.h compilation + caching) instead of bytecode dispatch.
//
// CompiledExecutor is plug-compatible with the interpreter — it overrides
// exactly one seam, RunStatementWindow, and inherits everything else:
// trigger dispatch, delta batching, grouped statement-major execution,
// lazy domain maintenance, stats, and every read path. Every statement
// execution reaches that seam as a columnar window (a single-tuple apply
// or a nonlinear unit replay is a 1-row window), and a native window
// executes as
//
//   host RunStatementWindow        native window entry point
//   ------------------------       ----------------------------------
//   mirror read columns to   -->   per row: loop nest via
//   RdbVal (once per delta)        api->foreach[_matching], straight-
//   convert row scales             line rhs over RdbNum locals, scaled
//                                  emissions chunked into api->add_span
//                            <--   return
//
// Only direct statements (whose rhs never reads their own target view)
// have window entry points, so add_span may apply emissions in place.
//
// Backend choice is per statement rhs variant (plain vs grouped) and
// profile-guided: during a short warmup this executor alternates the
// native window and the interpreter's gathered window, timing both with
// obs::NowNs, and locks whichever measured cheaper per row. Under
// -DRINGDB_NO_METRICS there is no clock, so the emitter's static
// preference locks immediately. Engine::Stats exports the decision per
// statement (StmtDispatch).
//
// Fallback is per statement and per module: statements without a window
// entry point (lazy domain maintenance, self-reading statements) keep
// their interpreter implementation, and until a module is attached — or
// when none could be built (no host C compiler) — the executor is the
// plain interpreter. ShardedExecutor builds one module per program,
// attaches it to every shard at the first window boundary after the
// build is ready, and records any build failure in native_status().

#ifndef RINGDB_RUNTIME_COMPILED_EXECUTOR_H_
#define RINGDB_RUNTIME_COMPILED_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "compiler/ir.h"
#include "compiler/lower.h"
#include "runtime/interpreter.h"
#include "runtime/native_abi.h"
#include "runtime/native_module.h"

namespace ringdb {
namespace runtime {

// Which statement-execution backend an engine uses (EngineOptions).
enum class Backend {
  kInterpret,  // register-based bytecode interpreter (always available)
  kCompile,    // emitted C compiled at runtime; falls back to the
               // interpreter per statement (no window entry point) and
               // wholesale when no host compiler is available
};

// Where an engine's native backend stands (EngineStats::native_state).
// A kCompile engine starts kPending and moves once, at a window boundary,
// to kNative (module attached) or kInterp (the build failed); an
// interpreter engine is kInterp throughout. kReady is the executor's
// internal step between the two (module built, not yet attached); it is
// reported as kPending.
enum class NativeState : uint8_t { kInterp, kPending, kNative, kReady };

inline const char* NativeStateName(NativeState state) {
  switch (state) {
    case NativeState::kPending:
    case NativeState::kReady:
      return "pending";
    case NativeState::kNative:
      return "native";
    default:
      return "interp";
  }
}

class CompiledExecutor : public Executor {
 public:
  explicit CompiledExecutor(compiler::TriggerProgram program);

  // Switches the emitted statements to native windows from the next
  // window on. `module` must have been built from (a program lowered
  // identically to) this executor's program; ShardedExecutor builds it
  // once and attaches it to every shard between two windows, at most
  // once. Views are host-owned and backend-agnostic, so the windows
  // already applied by the interpreter need no conversion.
  void AttachModule(std::shared_ptr<const NativeModule> module);

  void CollectDispatch(std::vector<StmtDispatch>* out) const override;

  // Executor::ApproxBytes plus the native conversion scratch this backend
  // owns (mirror columns, span buffers, entry scratch).
  size_t ApproxBytes() const override;

  // Trace-span mode summary over the window profiles: 2 (native) when
  // any variant locked a native entry point, 3 while any is still
  // profiling, else the interpreter's own answer.
  uint32_t window_dispatch_mode() const override;

 protected:
  // Whole-window dispatch into the native entry points (RdbColStmtFn),
  // raced against the interpreter's gathered window during warmup.
  void RunStatementWindow(const compiler::lower::StmtProgram& sp,
                          const ColWindow& win,
                          const compiler::lower::RhsProgram& rhs) override;

 private:
  // Profile-guided selection state for one rhs variant. Mode values
  // match StmtDispatch: 0 = interpreter, 1 = native, 2 = still profiling
  // (warmup alternation). Window cost scales with the window width, so
  // the lock normalizes by row units (ns x units cross-multiplication):
  // a wide native window and a narrow interpreted one still compare per
  // row. Single-writer per shard, like everything else in the executor.
  struct WindowProfile {
    uint8_t mode = 2;
    uint16_t native_runs = 0;
    uint16_t interp_runs = 0;
    uint64_t native_ns = 0;
    uint64_t interp_ns = 0;
    uint64_t native_units = 0;
    uint64_t interp_units = 0;
  };
  // Warmup windows per backend before a variant's mode locks. Long
  // enough to amortize first-touch effects (branch training, view growth
  // during early batches), short enough that profiling cost is invisible
  // next to steady-state throughput.
  static constexpr uint16_t kWarmupRuns = 12;

  struct Fns {
    RdbColStmtFn plain = nullptr;
    RdbColStmtFn grouped = nullptr;
    WindowProfile plain_profile;
    WindowProfile grouped_profile;
  };

  // The native half of RunStatementWindow: mirrors the window's columns
  // into cached RdbVal arrays (once per delta epoch, shared by every
  // statement window cut from it), converts the scales, and runs the
  // whole window in one RdbColStmtFn call.
  void RunNativeWindow(RdbColStmtFn fn, const compiler::lower::StmtProgram& sp,
                       const ColWindow& win);

  // The host-api table handed to every native call (function-local static
  // so the private trampolines stay private).
  static const RdbHostApi& HostApi();

  // RdbHostApi trampolines; ctx is the CompiledExecutor.
  static RdbNum Probe(void* ctx, int32_t view_id, const RdbVal* key,
                      uint32_t n);
  static void Foreach(void* ctx, int32_t view_id, RdbLoopFn fn, void* env);
  static void ForeachMatching(void* ctx, int32_t view_id, int32_t index_id,
                              const RdbVal* subkey, uint32_t n,
                              RdbLoopFn fn, void* env);
  static void AddSpan(void* ctx, int32_t view_id, const RdbVal* keys,
                      const RdbNum* deltas, uint32_t count, uint32_t arity);
  static void Fail(void* ctx, const char* msg);

  std::shared_ptr<const NativeModule> module_;
  // Lowered statement -> native entry points + profiles, resolved once
  // (lowered_ is immutable and shared, so StmtProgram addresses are
  // stable keys).
  std::unordered_map<const compiler::lower::StmtProgram*, Fns> fns_;

  // Per-call conversion scratch (single-writer executor, like the
  // interpreter's frames): enumerated keys and probe subkeys per loop
  // depth.
  std::vector<std::vector<RdbVal>> entry_scratch_;  // per loop depth
  std::vector<Key> subkey_scratch_;                 // per loop depth
  Key probe_scratch_;
  size_t depth_ = 0;

  // Columnar-window conversion scratch. Mirror columns are keyed by the
  // window's delta epoch: the first statement window cut from a delta
  // converts the columns it reads (cols_read), later windows over the
  // same delta reuse them — so conversion is once per (delta, column),
  // not once per statement. Pointers for unconverted columns stay null
  // (never dereferenced: window code only names cols_read).
  uint64_t mirror_epoch_ = ~0ull;
  std::vector<std::vector<RdbVal>> mirror_cols_;
  std::vector<const RdbVal*> mirror_ptrs_;
  std::vector<RdbNum> win_scale_scratch_;
  // add_span trampoline conversion buffers (flattened keys + deltas).
  std::vector<Value> span_keys_scratch_;
  std::vector<Numeric> span_deltas_scratch_;
};

}  // namespace runtime
}  // namespace ringdb

#endif  // RINGDB_RUNTIME_COMPILED_EXECUTOR_H_
