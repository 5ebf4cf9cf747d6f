// Immutable frozen copy of one ViewTable — a shard's published sub-result.
//
// The shard-owned publish path ends every applied window with the owning
// worker freezing its shard's root view into one of these. Freezing
// copies the table's two page tables (runtime/view_table.h): O(pages)
// refcount bumps, sharing every entry and slot page with the live table,
// which copies a page only before its own next write to it. So a
// publication costs the pages the next window touches, and a served
// result is resident once plus those pages, not twice.
// serve::ResultSnapshot composes the per-shard FrozenViews by shared_ptr —
// readers probe each part and sum in the ring, full scans lazily merge —
// so publication never pays ShardedExecutor::ForEachRootMerged's
// merge-on-read barrier, and a shard untouched by a window republishes its
// previous FrozenView for free (the epoch-carry in ShardedExecutor).
//
// Immutable after Freeze(): every accessor is const and safe to call from
// any number of threads with no synchronization beyond the happens-before
// that delivered the pointer (SnapshotCell / the worker-pool handshake).
// The pages it holds are never written again (the live table copies a
// shared page before writing), and the page refcounts are atomic, so
// dropping the last reference on any thread frees a page safely.
//
// A freeze applies the table's deferred erases first and then holds
// exactly its live entries, in ViewTable::ForEach order — including
// zero-valued entries of keep_zeros views — so a single-part composition
// preserves the source table's iteration semantics bit-for-bit.

#ifndef RINGDB_RUNTIME_FROZEN_VIEW_H_
#define RINGDB_RUNTIME_FROZEN_VIEW_H_

#include <cstdint>
#include <memory>
#include <mutex>

#include "runtime/view_table.h"
#include "util/numeric.h"
#include "util/value.h"

namespace ringdb {
namespace runtime {

class FrozenView {
 public:
  // Freezes `table`'s current live entries (see ViewTable::Freeze). Must
  // not race a writer of `table` (callers hold the shard token or the
  // executor is quiescent).
  static std::shared_ptr<const FrozenView> Freeze(ViewTable& table) {
    auto view = std::shared_ptr<FrozenView>(new FrozenView());
    view->pages_ = table.Freeze();
    return view;
  }

  size_t arity() const { return pages_.arity; }
  size_t size() const { return pages_.entries; }
  // Ring sum of every entry's multiplicity (the shard's contribution to
  // a Sum(.) read). Computed on first use, once, by whichever reader
  // asks: a publication does not pay a pass over the result.
  Numeric total() const {
    std::call_once(total_once_, [this] {
      Numeric total = kZero;
      ForEach([&](KeyView, Numeric m) { total += m; });
      total_ = total;
    });
    return total_;
  }

  // Point probe in root key order; 0 when absent (the gmr default).
  Numeric At(const Value* key, size_t n) const {
    const uint32_t id = pages_.Find(key, n, HashValues(key, n));
    return id == ViewPages::kNoEntry ? kZero : pages_.Head(id)->value;
  }

  // fn(KeyView, Numeric) per entry, in freeze (= source iteration) order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t id = 0; id < pages_.entries; ++id) {
      const EntryHead* head = pages_.Head(id);
      fn(KeyView(EntryKey(head), pages_.arity), head->value);
    }
  }

  // Heap bytes held by this copy alone: its page tables plus the pages
  // `live` (the table it was frozen from) no longer shares with it.
  size_t ApproxBytesNotSharedWith(const ViewTable& live) const {
    return pages_.BytesNotSharedWith(live.pages());
  }

 private:
  FrozenView() = default;

  ViewPages pages_;
  mutable std::once_flag total_once_;
  mutable Numeric total_ = kZero;
};

using FrozenViewPtr = std::shared_ptr<const FrozenView>;

}  // namespace runtime
}  // namespace ringdb

#endif  // RINGDB_RUNTIME_FROZEN_VIEW_H_
