// Immutable, versioned query results for concurrent serving.
//
// A ResultSnapshot freezes one query's maintained result as of a batch
// boundary: an epoch (version = number of applied ingest windows, plus
// the count of input tuple-units those windows carried) and the query's
// grouped result *composed* from per-shard immutable sub-snapshots
// (runtime::FrozenView, published by the shard that applied the window —
// see ShardedExecutor::RootSubSnapshots). Composition replaces the old
// merge-on-read barrier: building a snapshot collects one shared_ptr per
// shard — no global scan, no quiesce beyond the batch boundary the caller
// already owns. Each part cost its shard an O(pages) page-table copy
// when it was frozen, and shares its pages with the live root until the
// shard's next writes copy them; so end to end, a publication costs
// O(shards + pages a window touched), never O(result).
//
// Reads against the composition:
//  - scalar(): ring sum of the per-part totals; each part computes its
//    total once, on the first read that needs it.
//  - Get()/AtRootKey(): probe every part's frozen table and sum in the
//    ring — O(shards) probes, each a slot page and an entry page.
//  - ForEach()/ToGmr()/size(): need the cross-shard merge; a multi-part
//    snapshot materializes the merged dense arrays lazily, once, behind
//    a std::once_flag (keys whose shard contributions cancel to zero are
//    skipped, as the ring semantics require). Single-part snapshots
//    iterate their one part directly and never merge.
//
// serve::QueryService publishes a fresh snapshot per query after every
// applied window by swapping a shared_ptr cell (SnapshotCell below) —
// RCU-style: readers copy the pointer and the refcount keeps their
// snapshot (and its FrozenView parts) alive for as long as they hold
// it, the writer never waits for readers. Any number of threads get
// consistent point lookups, scalar reads, and full scans while
// ingestion keeps running; no reader ever observes a half-applied
// batch.

#ifndef RINGDB_SERVE_SNAPSHOT_H_
#define RINGDB_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ring/gmr.h"
#include "runtime/frozen_view.h"
#include "runtime/view_table.h"
#include "util/numeric.h"
#include "util/symbol.h"
#include "util/value.h"

namespace ringdb {

namespace runtime {
class Engine;
}  // namespace runtime

namespace serve {

// Immutable per-query metadata, shared by every snapshot of the query
// (one allocation at registration, not one per publication).
struct QueryInfo {
  std::string name;
  // Requested grouping order (empty for scalar queries).
  std::vector<Symbol> group_vars;
  // group i -> root-view key position (root keys are stored in the
  // compiler's canonical order; see runtime::Engine::root_key_order).
  std::vector<size_t> key_order;
};

class ResultSnapshot {
 public:
  // Composes `engine`'s current per-shard sub-snapshots. Must not race
  // an apply on the same engine; QueryService builds snapshots on the
  // thread that just applied the batch (shards already froze their
  // parts at window end, so composition is pointer collection).
  static std::shared_ptr<const ResultSnapshot> Build(
      std::shared_ptr<const QueryInfo> info, const runtime::Engine& engine,
      uint64_t version, uint64_t updates_applied);

  // Applied-window sequence number; strictly increases across the
  // snapshots of one query (0 = the empty pre-ingest snapshot).
  uint64_t version() const { return version_; }
  // Input tuple-units covered: this snapshot equals a replay of exactly
  // the first updates_applied() events of the ingest stream.
  uint64_t updates_applied() const { return updates_applied_; }

  const QueryInfo& info() const { return *info_; }
  size_t arity() const { return arity_; }
  bool scalar_query() const { return arity_ == 0; }
  // Number of groups in the result (multi-part: forces the merge).
  size_t size() const {
    if (parts_.size() == 1) return parts_[0]->size();
    EnsureMerged();
    return merged_values_.size();
  }

  // Number of per-shard parts composed into this snapshot.
  size_t num_parts() const { return parts_.size(); }

  // Scalar fast path: the root value for scalar queries; the Sum(.)
  // collapse (total over all groups) otherwise. O(shards) once every
  // part has its total (a scan of the part on its first such read).
  Numeric scalar() const;

  // Point lookup, values given in group_vars order; 0 outside the
  // result (the gmr default).
  Numeric Get(const std::vector<Value>& group_values) const;

  // Raw probe with the key already in root-view key order: ring sum of
  // every part's probe.
  Numeric AtRootKey(const Value* key, size_t n) const;

  // Full scan: fn(KeyView, Numeric) per group, keys in root order
  // (permute through info().key_order for group_vars order). One group
  // key appears exactly once; zero-sum groups are skipped on the merged
  // multi-part path (single-part scans mirror the part's own iteration,
  // zero entries of keep_zeros views included).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (parts_.size() == 1) {
      parts_[0]->ForEach(fn);
      return;
    }
    EnsureMerged();
    for (size_t i = 0; i < merged_values_.size(); ++i) {
      fn(runtime::KeyView(merged_keys_.data() + i * arity_, arity_),
         merged_values_[i]);
    }
  }

  // The result as a gmr over the group variables (equivalence checks).
  ring::Gmr ToGmr() const;

 private:
  ResultSnapshot() = default;
  // Builds the cross-shard merged dense arrays (multi-part scans); safe
  // to race from any number of readers via the once flag.
  void EnsureMerged() const;

  std::shared_ptr<const QueryInfo> info_;
  uint64_t version_ = 0;
  uint64_t updates_applied_ = 0;
  size_t arity_ = 0;
  std::vector<runtime::FrozenViewPtr> parts_;  // one per shard
  // Lazily merged scan arrays (multi-part only), built under
  // merged_once_: logically const, hence mutable.
  mutable std::once_flag merged_once_;
  mutable std::vector<Value> merged_keys_;  // arity_-strided, root order
  mutable std::vector<Numeric> merged_values_;
};

using SnapshotPtr = std::shared_ptr<const ResultSnapshot>;

// The published-snapshot cell: an atomically swappable SnapshotPtr.
// std::atomic<shared_ptr> would be the textbook tool, but libstdc++'s
// lock-free _Sp_atomic is not TSan-annotated in GCC 12 and the
// debug-tsan CI job gates this subsystem, so the cell uses a plain
// mutex held only for the pointer copy: constant-time on both sides
// (the writer swaps one pointer per applied window, readers copy one
// pointer and then probe immutable memory lock-free), and the refcount
// retires an old snapshot when its last reader drops it.
class SnapshotCell {
 public:
  SnapshotCell() = default;
  SnapshotCell(const SnapshotCell&) = delete;
  SnapshotCell& operator=(const SnapshotCell&) = delete;

  SnapshotPtr load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ptr_;
  }

  void store(SnapshotPtr next) {
    SnapshotPtr old;
    {
      std::lock_guard<std::mutex> lock(mu_);
      old = std::move(ptr_);
      ptr_ = std::move(next);
    }
    // `old` (and possibly the whole retired snapshot) dies here, outside
    // the lock, so publication never holds the cell over a deallocation.
  }

 private:
  mutable std::mutex mu_;
  SnapshotPtr ptr_;
};

}  // namespace serve
}  // namespace ringdb

#endif  // RINGDB_SERVE_SNAPSHOT_H_
