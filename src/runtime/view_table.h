// Flat open-addressing storage for materialized views.
//
// A ViewTable is a positional-key hash map with default 0, zero-erasure
// (the support is exactly the nonzero entries unless keep_zeros is set),
// and incrementally maintained secondary indexes over key-position
// subsets — the store behind every trigger firing (Theorem 7.1 keeps
// per-update work proportional to the affected values, so the constant
// factor of a single probe is the whole ballgame).
//
// Layout (see DESIGN.md "View storage"):
//  - entries_: one dense array of Entry{cached 64-bit hash, Numeric,
//    key}. Keys of arity <= kInlineValues live in-slot; larger keys live
//    in a per-view arena of fixed-size blocks with a free list.
//  - slots_: power-of-two open-addressing table of 32-bit entry ids,
//    linear probing, tombstone-free backshift deletion.
//  - indexes_: subkey-hash -> vector of 32-bit entry ids. No Key copies;
//    probes verify candidates against the entry key (collisions share a
//    row).
// Deletion swap-moves the last entry into the hole and patches its slot
// and index rows, keeping ids dense. While an iteration is in flight,
// erases are deferred: the entry is flagged pending_erase (reads and
// iteration treat it as absent) and structurally removed before the next
// mutation, so callbacks may write to the view they are iterating.
//
// ForEach/ForEachMatching are templated on the callback: the interpreter
// inner loop probes without std::function type erasure. Callbacks get a
// KeyView into entry storage; a write to the same view inside the
// callback invalidates it, so copy needed values out before mutating
// (the interpreter binds loop variables before recursing, and defers its
// own emissions past the loops, so it conforms).

#ifndef RINGDB_RUNTIME_VIEW_TABLE_H_
#define RINGDB_RUNTIME_VIEW_TABLE_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/check.h"
#include "util/hash.h"
#include "util/numeric.h"
#include "util/value.h"

namespace ringdb {
namespace runtime {

using Key = std::vector<Value>;

// Order-dependent hash over a positional key; shared by the entry table,
// the index subkey rows, and the unordered containers that still key on
// full Keys (e.g. lazy slice sets).
inline uint64_t HashValues(const Value* v, size_t n) {
  uint64_t h = 0x9ae16a3b2f90404fULL;
  for (size_t i = 0; i < n; ++i) {
    h = HashCombine(h, v[i].Hash());
  }
  return h;
}

struct KeyHash {
  size_t operator()(const Key& k) const noexcept {
    return static_cast<size_t>(HashValues(k.data(), k.size()));
  }
};

// Non-owning view of an entry's key. Valid until the owning table is
// mutated; materialize with ToKey() to outlive that.
class KeyView {
 public:
  KeyView(const Value* data, size_t size) : data_(data), size_(size) {}
  KeyView(const Key& key) : data_(key.data()), size_(key.size()) {}  // NOLINT

  size_t size() const { return size_; }
  const Value& operator[](size_t i) const { return data_[i]; }
  const Value* begin() const { return data_; }
  const Value* end() const { return data_ + size_; }

  Key ToKey() const { return Key(data_, data_ + size_); }

 private:
  const Value* data_;
  size_t size_;
};

class ViewTable {
 public:
  // Keys up to this arity are stored inline in the entry; larger keys go
  // through the per-view arena.
  static constexpr size_t kInlineValues = 2;

  explicit ViewTable(size_t arity) : arity_(arity) {}

  ViewTable(ViewTable&&) = default;
  ViewTable& operator=(ViewTable&&) = default;
  ViewTable(const ViewTable&) = delete;
  ViewTable& operator=(const ViewTable&) = delete;

  size_t arity() const { return arity_; }
  size_t size() const { return entries_.size() - pending_erases_.size(); }

  // Pre-sizes the slot table and entry array for at least `n` entries
  // (hint from the batch path: current size + delta-GMR size), avoiding
  // rehash storms on large batches. Never shrinks.
  void Reserve(size_t n);

  // Lazily initialized views keep zero-valued entries: their entry set is
  // the *initialized key domain* (paper footnote 2), which self-loop
  // maintenance statements must enumerate even where the value is 0.
  void SetKeepZeros() { keep_zeros_ = true; }
  bool keep_zeros() const { return keep_zeros_; }

  bool Contains(const Key& key) const;

  Numeric At(const Key& key) const { return At(key.data(), key.size()); }
  Numeric At(const Value* key, size_t n) const {
    const uint32_t id = FindEntry(key, n);
    return id == kNoEntry ? kZero : entries_[id].value;
  }

  // entry[key] += delta, erasing on cancellation to zero; all registered
  // indexes are maintained. The pointer overload lets callers keep keys
  // in flat reused buffers (the interpreter's emission path) instead of
  // allocating a Key per call.
  void Add(const Key& key, Numeric delta) {
    Add(key.data(), key.size(), delta);
  }
  void Add(const Value* key, size_t n, Numeric delta);

  // Batched Add over a column span: `keys` holds `count` keys flattened
  // into arity-sized chunks (the layout of the interpreter's emission
  // buffer and of a columnar window's gathered target keys), `deltas`
  // one Numeric per key. Semantically identical to calling Add per
  // element in order; the batch hoists the pending-erase sweep out of
  // the loop, hashes all keys up front into a reused scratch column, and
  // prefetches each key's slot-table cache line before probing it.
  void AddSpan(const Value* keys, const Numeric* deltas, size_t count);

  // Inserts an entry with the given value (even zero) if absent; used to
  // mark a lazily initialized key. No-op when the key exists.
  void EnsureEntry(const Key& key, Numeric value);

  // Registers (idempotently) an index over the given key positions;
  // returns its id. Positions must be sorted and within arity.
  int EnsureIndex(std::vector<size_t> positions);

  // Invokes fn(key, multiplicity) for every entry whose values at the
  // index's positions equal `subkey` (values in position order). Entries
  // added by fn to this view are not visited (snapshot bound); entries
  // erased by fn are deferred-erased and skipped from then on.
  template <typename Fn>
  void ForEachMatching(int index_id, const Key& subkey, Fn&& fn) const {
    const Index& index = indexes_[static_cast<size_t>(index_id)];
    RINGDB_CHECK_EQ(subkey.size(), index.positions.size());
    auto row_it =
        index.rows.find(HashValues(subkey.data(), subkey.size()));
    if (row_it == index.rows.end()) return;
    const std::vector<uint32_t>& row = row_it->second;
    IterGuard guard(this);
    // Snapshot bound: appends by fn land past n and are not visited. The
    // row reference is stable (unordered_map) and indexing re-reads the
    // data pointer, so growth during fn is safe.
    const size_t n = row.size();
    for (size_t i = 0; i < n; ++i) {
      const Entry& e = entries_[row[i]];
      if (e.pending_erase) continue;
      const Value* ek = EntryKey(e);
      bool match = true;
      for (size_t p = 0; p < index.positions.size() && match; ++p) {
        match = ek[index.positions[p]] == subkey[p];
      }
      if (match) fn(KeyView(ek, arity_), e.value);
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    IterGuard guard(this);
    const size_t n = entries_.size();
    for (size_t i = 0; i < n; ++i) {
      const Entry& e = entries_[i];
      if (e.pending_erase) continue;
      fn(KeyView(EntryKey(e), arity_), e.value);
    }
  }

  // Estimated heap bytes: slot table, entry array, key arena, string
  // payloads behind key values, and index storage (bucket arrays, row
  // nodes, id vectors). Used by the memory comparisons of the
  // factorization experiment (E3) and the engine's approx_bytes gauge.
  // O(#indexes), not O(#entries): the string and index-row components
  // are maintained incrementally on insert/erase/index churn (a live
  // gauge instead of a recount walk, so stats polling stays cheap on
  // million-entry views). Debug builds cross-check against the walk.
  size_t ApproxBytes() const;
  // The original full-recount walk; the incremental accounting must
  // agree with it exactly (debug ApproxBytes asserts so, and the
  // randomized view_table tests call both).
  size_t ApproxBytesSlow() const;

  std::string ToString() const;

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;
  static constexpr uint32_t kNoEntry = UINT32_MAX;

  struct Entry {
    uint64_t hash = 0;
    Numeric value = kZero;
    uint32_t block = 0;          // arena block, used when arity > inline
    bool pending_erase = false;  // deferred zero-cancellation erase
    std::array<Value, kInlineValues> ikey;  // in-slot key (arity <= inline)
  };

  struct Index {
    std::vector<size_t> positions;
    // subkey hash -> ids of entries whose key matches at `positions`.
    // Hash collisions share a row; probes verify against the entry key.
    std::unordered_map<uint64_t, std::vector<uint32_t>> rows;
  };

  // Tracks iteration nesting so structural mutation (entry moves, slot
  // backshift, row compaction) can be deferred while callbacks run.
  class IterGuard {
   public:
    explicit IterGuard(const ViewTable* t) : t_(t) { ++t_->iter_depth_; }
    ~IterGuard() { --t_->iter_depth_; }

   private:
    const ViewTable* t_;
  };
  friend class IterGuard;

  bool inline_keys() const { return arity_ <= kInlineValues; }

  const Value* EntryKey(const Entry& e) const {
    return inline_keys() ? e.ikey.data() : arena_.data() + e.block * arity_;
  }

  uint64_t SubHash(const Index& index, const Value* key) const {
    uint64_t h = 0x9ae16a3b2f90404fULL;
    for (size_t p : index.positions) h = HashCombine(h, key[p].Hash());
    return h;
  }

  // Id of the live entry with this key, or kNoEntry.
  uint32_t FindEntry(const Value* key, size_t n) const;
  uint32_t FindEntryHashed(const Value* key, size_t n, uint64_t hash) const;

  // Add with the key's hash already computed (the AddSpan batch path);
  // does not sweep pending erases — the caller has.
  void AddHashed(const Value* key, uint64_t hash, Numeric delta);

  // Clears entry `id`'s deferred erase (it counts as live again).
  void Unpend(uint32_t id);

  // Inserts a new entry (key must be absent) and returns its id.
  uint32_t AppendEntry(const Value* key, uint64_t hash, Numeric value);

  // Removes entry `id` from slots and index rows, frees its key storage,
  // and swap-moves the last entry into the hole (patching its slot and
  // rows). Defers onto pending_erases_ while iterating.
  void EraseEntry(uint32_t id);
  void EraseEntryNow(uint32_t id);
  void ApplyPendingErases();

  void EraseSlotAt(size_t slot);           // backshift deletion
  size_t SlotOf(uint32_t id) const;        // slot holding this entry id
  void RemoveFromRow(Index* index, uint64_t subhash, uint32_t id);
  void GrowSlots(size_t min_entries);

  // Incremental ApproxBytes accounting. string_bytes_: heap payloads
  // behind stored string key values (entries own copies, so capacities
  // are measured on the stored strings, live + pending-erase alike).
  // index_row_bytes_: per-row node overhead + id-vector capacities
  // across all indexes (bucket arrays are added at read time — they are
  // O(#indexes) to query but change on rehash, which is invisible from
  // the mutation sites).
  size_t string_bytes_ = 0;
  size_t index_row_bytes_ = 0;

  size_t arity_;
  bool keep_zeros_ = false;
  std::vector<uint32_t> slots_;  // power-of-two; kEmptySlot = free
  std::vector<Entry> entries_;   // dense, ids stable except swap-erase
  std::vector<Value> arena_;     // arity_-sized blocks for large keys
  std::vector<uint32_t> free_blocks_;
  std::vector<uint32_t> pending_erases_;
  std::vector<Index> indexes_;
  // AddSpan's per-batch hash column (one 64-bit hash per spanned key),
  // reused across windows. Counted by ApproxBytes: it is the view-side
  // buffer of the columnar window path and the accounting invariant
  // (ApproxBytes == ApproxBytesSlow in debug) must cover it.
  std::vector<uint64_t> span_hash_scratch_;
  mutable int iter_depth_ = 0;
};

}  // namespace runtime
}  // namespace ringdb

#endif  // RINGDB_RUNTIME_VIEW_TABLE_H_
