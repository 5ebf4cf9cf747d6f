#include "runtime/native_module.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/hash.h"

extern char** environ;

namespace ringdb {
namespace runtime {

namespace {

namespace fs = std::filesystem;

// Resolves the host C compiler. RINGDB_CC wins when set (even when bogus:
// the caller is asking for exactly that compiler, and a bad one must fail
// instead of silently substituting); otherwise the first of the usual
// names found on PATH.
std::string FindCompiler() {
  if (const char* env = std::getenv("RINGDB_CC")) return env;
  const char* path = std::getenv("PATH");
  if (path == nullptr) return "";
  for (const char* cand : {"cc", "gcc", "clang"}) {
    std::stringstream dirs(path);
    std::string dir;
    while (std::getline(dirs, dir, ':')) {
      if (dir.empty()) continue;
      fs::path p = fs::path(dir) / cand;
      std::error_code ec;
      if (fs::exists(p, ec) && ::access(p.c_str(), X_OK) == 0) {
        return p.string();
      }
    }
  }
  return "";
}

StatusOr<fs::path> CacheDir() {
  fs::path dir;
  if (const char* env = std::getenv("RINGDB_NATIVE_CACHE_DIR")) {
    dir = env;
  } else {
    std::error_code ec;
    fs::path tmp = fs::temp_directory_path(ec);
    if (ec) tmp = "/tmp";
    dir = tmp / ("ringdb-native-cache-" + std::to_string(::getuid()));
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create native cache dir " +
                            dir.string() + ": " + ec.message());
  }
  return dir;
}

// Unique per (process, call) suffix for temp artifacts: pid alone is not
// enough — two threads of one process building the same program would
// collide on the temp names and could publish a corrupt artifact into
// the hash-keyed cache.
std::string TmpSuffix() {
  static std::atomic<uint64_t> counter{0};
  return ".tmp" + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

Status WriteFileAtomic(const fs::path& target, const std::string& content) {
  fs::path tmp = target;
  tmp += TmpSuffix();
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  out.close();
  if (!out) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return Status::Internal("cannot write " + tmp.string());
  }
  std::error_code ec;
  fs::rename(tmp, target, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return Status::Internal("cannot rename into " + target.string() +
                            ": " + ec.message());
  }
  return Status::Ok();
}

std::string FirstLines(const fs::path& file, size_t max_bytes) {
  std::ifstream in(file);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  if (content.size() > max_bytes) {
    content.resize(max_bytes);
    content += "...";
  }
  return content;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::unique_ptr<NativeModule::Pending> NativeModule::Launch(
    const compiler::TriggerProgram& program) {
  std::unique_ptr<Pending> p(new Pending());
  p->launch_ns_ = NowNs();
  p->gen_ = compiler::GenerateModule(program);
  p->stats_.source_bytes = p->gen_.source.size();
  p->status_ = [&]() -> Status {
    if (p->gen_.emitted_statements == 0) {
      return Status::FailedPrecondition(
          "no emittable statements (lazy-domain or self-reading "
          "program); interpreter only");
    }
    p->cc_ = FindCompiler();
    if (p->cc_.empty()) {
      return Status::FailedPrecondition(
          "no host C compiler found (set RINGDB_CC or install cc)");
    }
    RINGDB_ASSIGN_OR_RETURN(fs::path dir, CacheDir());
    // Key on content hash + length: same program, same artifact.
    char key[64];
    std::snprintf(key, sizeof(key), "%016llx-%zu",
                  static_cast<unsigned long long>(HashString(p->gen_.source)),
                  p->gen_.source.size());
    p->src_ = (dir / (std::string(key) + ".c")).string();
    p->so_ = (dir / (std::string(key) + ".so")).string();
    std::error_code ec;
    p->cached_ = fs::exists(p->so_, ec);
    return p->cached_ ? Status::Ok() : p->Spawn();
  }();
  return p;
}

Status NativeModule::Pending::Spawn() {
  RINGDB_RETURN_IF_ERROR(WriteFileAtomic(src_, gen_.source));
  // The compiler writes a temp name, published by Reap, so concurrent
  // builders of the same hash can only ever publish complete artifacts.
  const std::string suffix = TmpSuffix();
  tmp_so_ = so_ + suffix;
  log_ = so_ + suffix + ".log";
  // -w: generated code compiles warning-free in spirit, but helper
  // functions a given module never calls would trip -Wunused-function.
  const char* argv[] = {cc_.c_str(), "-O2",          "-fPIC",
                        "-shared",   "-w",           "-x",
                        "c",         src_.c_str(),   "-o",
                        tmp_so_.c_str(), nullptr};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  // Its own process group, so ~Pending can stop the compiler together
  // with whatever it started (cc1, as, ld; a wrapper script's children).
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&attr, 0);
  const int rc =
      ::posix_spawnp(&pid_, cc_.c_str(), &actions, &attr,
                     const_cast<char* const*>(argv), environ);
  posix_spawnattr_destroy(&attr);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    std::error_code ec;
    fs::remove(log_, ec);
    return Status::Internal("cannot start host C compiler " + cc_ + ": " +
                            std::strerror(rc));
  }
  return Status::Ok();
}

std::optional<Status> NativeModule::Pending::Reap(bool block) {
  int wstatus = 0;
  pid_t r;
  do {
    r = ::waitpid(pid_, &wstatus, block ? 0 : WNOHANG);
  } while (r < 0 && errno == EINTR);
  if (r == 0) return std::nullopt;  // WNOHANG: still compiling
  pid_ = -1;
  std::error_code ec;
  if (r < 0 || !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    const std::string detail = FirstLines(log_, 512);
    fs::remove(tmp_so_, ec);
    fs::remove(log_, ec);
    return Status::Internal("native compile failed (" + cc_ + "): " +
                            detail);
  }
  fs::remove(log_, ec);
  fs::rename(tmp_so_, so_, ec);
  if (ec) {
    fs::remove(tmp_so_, ec);
    return Status::Internal("cannot publish " + so_ + ": " + ec.message());
  }
  return Status::Ok();
}

NativeModule::Pending::~Pending() {
  if (pid_ < 0) return;
  // Nobody wants this module any more: stop the compile rather than wait
  // it out. SIGTERM lets the compiler driver delete its own temp files;
  // the group is still ours to signal because its leader is unreaped.
  // Reap then removes the temp .so and log (or publishes a compile that
  // had already finished).
  ::kill(-pid_, SIGTERM);
  (void)Reap(/*block=*/true);
}

std::optional<NativeModule::Result> NativeModule::Pending::Step(bool block) {
  if (pid_ >= 0) {
    const uint64_t t0 = NowNs();
    std::optional<Status> reaped = Reap(block);
    if (block) stats_.wait_ms += static_cast<double>(NowNs() - t0) / 1e6;
    if (!reaped.has_value()) return std::nullopt;
    status_ = std::move(*reaped);
  }
  std::shared_ptr<NativeModule> module;
  if (status_.ok()) {
    auto loaded = LoadAndResolve(so_, gen_, &stats_.entry_points);
    if (!loaded.ok() && cached_) {
      // The cache lied: the hash-keyed name promised a loadable module
      // for this exact source, but the artifact would not dlopen, failed
      // the ABI handshake (a module from an older ABI), or is missing
      // symbols (truncated or bit-rotted file, cache shared with an
      // incompatible build). Evict it and pay the compile once — never
      // surface a corrupt cache entry as an engine-construction error.
      std::error_code ec;
      fs::remove(so_, ec);
      cached_ = false;
      status_ = Spawn();
      return Step(block);
    }
    if (loaded.ok()) {
      module = std::move(loaded).value();
    } else {
      status_ = loaded.status();
    }
  }
  stats_.build_ms = static_cast<double>(NowNs() - launch_ns_) / 1e6;
  if (!status_.ok()) return Result(status_);
  stats_.cache_hit = cached_;
  module->source_ = std::move(gen_.source);
  return Result(std::shared_ptr<const NativeModule>(std::move(module)));
}

StatusOr<std::shared_ptr<NativeModule>> NativeModule::LoadAndResolve(
    const std::string& so_path, const compiler::CodegenModule& gen,
    uint64_t* entry_points) {
  void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* err = ::dlerror();
    return Status::Internal("dlopen(" + so_path +
                            ") failed: " + (err ? err : "?"));
  }
  auto module = std::shared_ptr<NativeModule>(new NativeModule());
  module->handle_ = handle;
  module->so_path_ = so_path;

  // ABI handshake before touching any statement symbol: a stale cached
  // artifact from an older ABI must be rejected, not executed.
  const auto* version =
      static_cast<const int32_t*>(::dlsym(handle, "rdb_abi_version"));
  const auto* layout =
      static_cast<const uint64_t*>(::dlsym(handle, "rdb_abi_layout"));
  if (version == nullptr || layout == nullptr ||
      static_cast<uint32_t>(*version) != RDB_ABI_VERSION ||
      *layout != RdbAbiLayout()) {
    return Status::Internal("native module ABI mismatch: " + so_path);
  }

  auto resolve = [&](const std::string& name,
                     RdbColStmtFn* fn) -> Status {
    *fn = reinterpret_cast<RdbColStmtFn>(::dlsym(handle, name.c_str()));
    if (*fn == nullptr) {
      return Status::Internal("missing native symbol " + name);
    }
    ++*entry_points;
    return Status::Ok();
  };
  *entry_points = 0;
  module->fns_.resize(gen.stmts.size());
  for (size_t t = 0; t < gen.stmts.size(); ++t) {
    module->fns_[t].resize(gen.stmts[t].size());
    for (size_t s = 0; s < gen.stmts[t].size(); ++s) {
      const compiler::CodegenStmt& cs = gen.stmts[t][s];
      if (!cs.emitted) continue;
      StmtFns& fns = module->fns_[t][s];
      RINGDB_RETURN_IF_ERROR(resolve(cs.fn, &fns.plain));
      if (cs.grouped_fn == cs.fn) {
        fns.grouped = fns.plain;
      } else if (!cs.grouped_fn.empty()) {
        RINGDB_RETURN_IF_ERROR(resolve(cs.grouped_fn, &fns.grouped));
      }
      fns.prefer_native = cs.prefer_native;
      fns.grouped_prefer_native = cs.grouped_prefer_native;
    }
  }
  return module;
}

NativeModule::~NativeModule() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

}  // namespace runtime
}  // namespace ringdb
