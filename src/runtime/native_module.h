// Runtime compilation of generated trigger modules: take the C source
// emitted by compiler::GenerateModule, compile it with the host C
// compiler (`cc -O2 -shared -fPIC`), dlopen the result, and resolve the
// window entry points of every emitted statement.
//
// A build runs in two steps so no caller has to wait on the compiler:
// Launch() emits the source and starts the compiler as a child process
// (posix_spawn, no shell) without waiting; Pending::Poll() checks without
// blocking whether it has exited (or was never needed: a cache hit) and
// if so reaps it, dlopens the module and resolves its symbols, while
// Pending::Wait() does the same but blocks until the compiler exits.
// Engines launch when a query is registered, poll at each window
// boundary and keep running on the interpreter until the poll succeeds.
//
// Shared objects are cached by source hash under a per-user build
// directory, so repeated engine construction for the same query (every
// test run, every process restart) pays the external compiler exactly
// once and then just dlopens. The cache is crash/race-safe: artifacts
// are written to temp names and renamed into place atomically.
//
// Environment knobs:
//   RINGDB_CC                - host compiler override. An empty value or a
//                              path that cannot be executed disables the
//                              backend (Wait returns an error and the
//                              engine falls back to the interpreter); used
//                              by tests/CI to simulate compiler-less hosts.
//   RINGDB_NATIVE_CACHE_DIR  - cache directory override (default:
//                              $TMPDIR/ringdb-native-cache-<uid>).
//
// Nothing here aborts on environmental failure — no compiler, read-only
// filesystem, dlopen errors all surface as Status from Wait so the caller
// can fall back gracefully. ABI drift between the host and an (possibly
// stale, cached) module is caught by the rdb_abi_version /
// rdb_abi_layout handshake exported by every module; a cached artifact
// that fails it is evicted and rebuilt.

#ifndef RINGDB_RUNTIME_NATIVE_MODULE_H_
#define RINGDB_RUNTIME_NATIVE_MODULE_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compiler/codegen_c.h"
#include "compiler/ir.h"
#include "runtime/native_abi.h"
#include "util/status.h"

namespace ringdb {
namespace runtime {

// Where one module build's time and bytes went (exported per engine by
// Engine::Stats). Recorded once, when Poll or Wait settles the build.
struct NativeBuildStats {
  double build_ms = 0;        // wall time from Launch to resolved
  double wait_ms = 0;         // how long Wait blocked on the compiler
  uint64_t source_bytes = 0;  // emitted C
  uint64_t entry_points = 0;  // window symbols resolved
  bool cache_hit = false;     // a cached .so loaded; no compiler ran
};

class NativeModule {
 public:
  // Per-statement window entry points; null means interpreter fallback.
  // `grouped` aliases `plain` when the grouped rhs folds nothing. The
  // prefer flags carry the emitter's static cost-model verdict per
  // variant (compiler::CodegenStmt), which the compiled executor locks
  // when it has no clock to profile with (-DRINGDB_NO_METRICS).
  struct StmtFns {
    RdbColStmtFn plain = nullptr;
    RdbColStmtFn grouped = nullptr;
    bool prefer_native = true;
    bool grouped_prefer_native = true;
  };

  // A settled build: the loaded module, or why there is none.
  using Result = StatusOr<std::shared_ptr<const NativeModule>>;

  // A build in flight. Destroying it before it settled stops the
  // compiler (SIGTERM to its process group), reaps it and removes its
  // temp files, so no child process or temp artifact outlives it. Not
  // thread-safe: callers serialize Poll/Wait/destruction, and call
  // neither again once one returned a result.
  class Pending {
   public:
    ~Pending();
    Pending(const Pending&) = delete;
    Pending& operator=(const Pending&) = delete;

    // Never blocks on the compiler: nullopt while it still runs (also
    // right after a stale cached module was evicted and its rebuild
    // started); otherwise the settled build, as Wait returns it.
    std::optional<Result> Poll() { return Step(/*block=*/false); }
    // Blocks until the compiler exits, then reaps it, dlopens and
    // resolves. Errors (no emittable statements, no host compiler,
    // compile/dlopen failure, ABI mismatch) are returned, never fatal.
    Result Wait() { return *Step(/*block=*/true); }
    const NativeBuildStats& stats() const { return stats_; }

   private:
    friend class NativeModule;
    Pending() = default;

    // Writes the source and spawns the compiler into a temp .so.
    Status Spawn();
    // Reaps the spawned compiler and renames its output into place;
    // nullopt when `block` is false and the compiler still runs.
    std::optional<Status> Reap(bool block);
    // Reap (if a compiler runs), then load; see Poll/Wait.
    std::optional<Result> Step(bool block);

    compiler::CodegenModule gen_;
    Status status_ = Status::Ok();  // launch/compile error, reported once settled
    std::string cc_;
    std::string src_, so_, tmp_so_, log_;
    pid_t pid_ = -1;  // running compiler, or -1
    bool cached_ = false;
    uint64_t launch_ns_ = 0;
    NativeBuildStats stats_;
  };

  // Emits the module for `program` and starts compiling it (or finds it
  // in the cache). Never blocks on the compiler.
  static std::unique_ptr<Pending> Launch(
      const compiler::TriggerProgram& program);

  ~NativeModule();
  NativeModule(const NativeModule&) = delete;
  NativeModule& operator=(const NativeModule&) = delete;

  // fns(t, s) for program.triggers[t].statements[s].
  const StmtFns& fns(size_t trigger, size_t stmt) const {
    return fns_[trigger][stmt];
  }
  const std::string& so_path() const { return so_path_; }
  const std::string& source() const { return source_; }

 private:
  NativeModule() = default;

  // dlopen + ABI handshake + per-statement symbol resolution for one
  // on-disk artifact. Split out so a failing *cached* artifact
  // (truncated, bit-rotted, or from an older ABI) can be evicted and
  // rebuilt instead of surfacing as a hard error.
  static StatusOr<std::shared_ptr<NativeModule>> LoadAndResolve(
      const std::string& so_path, const compiler::CodegenModule& gen,
      uint64_t* entry_points);

  void* handle_ = nullptr;  // dlclosed by the destructor
  std::vector<std::vector<StmtFns>> fns_;
  std::string so_path_;
  std::string source_;
};

}  // namespace runtime
}  // namespace ringdb

#endif  // RINGDB_RUNTIME_NATIVE_MODULE_H_
