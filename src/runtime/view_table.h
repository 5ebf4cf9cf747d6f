// Flat open-addressing storage for materialized views, kept in fixed-size
// copy-on-write pages.
//
// A ViewTable is a positional-key hash map with default 0, zero-erasure
// (the support is exactly the nonzero entries unless keep_zeros is set),
// and incrementally maintained secondary indexes over key-position
// subsets — the store behind every trigger firing (Theorem 7.1 keeps
// per-update work proportional to the affected values, so the constant
// factor of a single probe is the whole ballgame).
//
// Layout (see DESIGN.md "View storage"):
//  - Entries: dense ids, each an arity-strided record {cached 64-bit
//    hash, Numeric, arity Values} — one key layout for every arity —
//    packed kPageEntries to an entry page.
//  - Slots: power-of-two open-addressing table of 32-bit entry ids,
//    linear probing, tombstone-free backshift deletion, kSlotPageIds to a
//    slot page (a table smaller than one page is one short page).
//  - Both page tables hold refcounted page pointers (ViewPages). Freeze()
//    hands the two tables to a runtime::FrozenView in O(pages) and starts
//    a new freeze generation; every page is stamped with the generation
//    it was written in, and the table copies a page from an older
//    generation before its first write to it. A frozen copy therefore
//    never changes, and publication costs the pages the next window
//    touches, not the size of the view.
//  - indexes_: subkey-hash -> vector of 32-bit entry ids. No Key copies;
//    probes verify candidates against the entry key (collisions share a
//    row). Indexes are private to the live table, never frozen.
// Deletion swap-moves the last entry into the hole and patches its slot
// and index rows, keeping ids dense. While an iteration is in flight,
// erases are deferred: the entry is flagged pending (a bit per id, kept
// outside the records; reads and iteration treat it as absent) and
// structurally removed before the next mutation, so callbacks may write
// to the view they are iterating.
//
// ForEach/ForEachMatching are templated on the callback: the interpreter
// inner loop probes without std::function type erasure. Callbacks get a
// KeyView into entry storage; a write to the same view inside the
// callback invalidates it, so copy needed values out before mutating
// (the interpreter binds loop variables before recursing, and defers its
// own emissions past the loops, so it conforms).

#ifndef RINGDB_RUNTIME_VIEW_TABLE_H_
#define RINGDB_RUNTIME_VIEW_TABLE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
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

// Fixed page geometry: 64 entry records per entry page, 1024 slot ids
// (4 KiB) per slot page.
inline constexpr size_t kEntryPageShift = 6;
inline constexpr size_t kPageEntries = size_t{1} << kEntryPageShift;
inline constexpr size_t kSlotPageShift = 10;
inline constexpr size_t kSlotPageIds = size_t{1} << kSlotPageShift;

// The fixed head of an entry record; the key's arity Values follow it.
struct EntryHead {
  uint64_t hash;
  Numeric value;
};
inline Value* EntryKey(EntryHead* head) {
  return reinterpret_cast<Value*>(head + 1);
}
inline const Value* EntryKey(const EntryHead* head) {
  return reinterpret_cast<const Value*>(head + 1);
}

// One page of view storage: this header, then the payload (entry records
// or slot ids). Refcounted in place so a live table and any number of
// frozen copies can hold it; shared pages are never written (ViewTable
// copies a page whose `gen` predates its latest freeze before writing).
struct ViewPage {
  static constexpr uint32_t kSlotPage = UINT32_MAX;  // `arity` of slot pages

  std::atomic<uint32_t> refs{1};
  uint32_t used = 0;  // entry pages: records constructed at [0, used)
  uint64_t gen = 0;   // freeze generation the page was written in
  uint32_t arity = 0;  // entry pages: key arity; slot pages: kSlotPage

  unsigned char* payload() { return reinterpret_cast<unsigned char*>(this + 1); }
  const unsigned char* payload() const {
    return reinterpret_cast<const unsigned char*>(this + 1);
  }
  // Entry pages: record r, records `stride` bytes apart.
  EntryHead* record(size_t r, size_t stride) {
    return reinterpret_cast<EntryHead*>(payload() + r * stride);
  }
  const EntryHead* record(size_t r, size_t stride) const {
    return reinterpret_cast<const EntryHead*>(payload() + r * stride);
  }

  // A fresh page with `payload_bytes` of payload and one reference.
  static ViewPage* New(size_t payload_bytes, uint32_t arity, uint64_t gen);
  // Destroys the constructed records (entry pages) and frees the page.
  static void Destroy(ViewPage* page);
};

// Owning reference to a ViewPage (intrusive refcount).
class PageRef {
 public:
  PageRef() = default;
  explicit PageRef(ViewPage* page) : p_(page) {}  // adopts one reference
  PageRef(const PageRef& o) : p_(o.p_) {
    if (p_ != nullptr) p_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  PageRef(PageRef&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  PageRef& operator=(PageRef o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~PageRef() {
    if (p_ != nullptr && p_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ViewPage::Destroy(p_);
    }
  }

  ViewPage* get() const { return p_; }
  ViewPage* operator->() const { return p_; }
  ViewPage& operator*() const { return *p_; }

 private:
  ViewPage* p_ = nullptr;
};

// Bytes of one entry record of the given arity.
inline constexpr size_t EntryStride(size_t arity) {
  return sizeof(EntryHead) + arity * sizeof(Value);
}

// The read side of a view's storage: the two page tables plus what is
// needed to address them. A live ViewTable owns one; Freeze() copies it
// into a FrozenView, sharing every page.
struct ViewPages {
  static constexpr uint32_t kEmptySlot = UINT32_MAX;
  static constexpr uint32_t kNoEntry = UINT32_MAX;

  size_t arity = 0;
  size_t stride = 0;      // EntryStride(arity)
  uint32_t entries = 0;   // records [0, entries) are constructed
  size_t slot_mask = 0;   // slot count - 1 (meaningless without slot pages)
  std::vector<PageRef> entry_pages;
  std::vector<PageRef> slot_pages;

  size_t num_slots() const { return slot_pages.empty() ? 0 : slot_mask + 1; }
  // Ids per slot page: a table smaller than one page is one short page.
  size_t slot_page_ids() const {
    return num_slots() < kSlotPageIds ? num_slots() : kSlotPageIds;
  }

  const EntryHead* Head(uint32_t id) const {
    return entry_pages[id >> kEntryPageShift]->record(
        id & (kPageEntries - 1), stride);
  }
  const Value* KeyOf(uint32_t id) const { return EntryKey(Head(id)); }
  const uint32_t* SlotAddress(size_t s) const {
    return reinterpret_cast<const uint32_t*>(
               slot_pages[s >> kSlotPageShift]->payload()) +
           (s & (kSlotPageIds - 1));
  }
  uint32_t Slot(size_t s) const { return *SlotAddress(s); }

  // Id of the record with this hash and key, or kNoEntry.
  uint32_t Find(const Value* key, size_t n, uint64_t hash) const {
    if (slot_pages.empty()) return kNoEntry;
    size_t s = hash & slot_mask;
    for (uint32_t id; (id = Slot(s)) != kEmptySlot; s = (s + 1) & slot_mask) {
      const EntryHead* head = Head(id);
      if (head->hash != hash) continue;
      const Value* ek = EntryKey(head);
      bool eq = true;
      for (size_t i = 0; i < n && eq; ++i) eq = ek[i] == key[i];
      if (eq) return id;
    }
    return kNoEntry;
  }

  // Heap bytes of the pages and page tables (the strings behind key
  // values are the caller's to count).
  size_t PageBytes() const;
  // Bytes this copy holds that `live` does not share: its own page
  // tables, and every page (with its key strings) that sits at a
  // different address in `live`, or past its end.
  size_t BytesNotSharedWith(const ViewPages& live) const;
};

class ViewTable {
 public:
  explicit ViewTable(size_t arity);

  ViewTable(ViewTable&&) = default;
  ViewTable& operator=(ViewTable&&) = default;
  ViewTable(const ViewTable&) = delete;
  ViewTable& operator=(const ViewTable&) = delete;

  size_t arity() const { return arity_; }
  size_t size() const { return pages_.entries - pending_erases_.size(); }

  // Pre-sizes the slot table for at least `n` entries (hint from the
  // batch path: current size + delta-GMR size), avoiding rehash storms
  // on large batches. Never shrinks, and does nothing to an empty table
  // (the batch path hints every view, and a view no window writes
  // should hold no page; its first insert sizes it).
  void Reserve(size_t n);

  // Lazily initialized views keep zero-valued entries: their entry set is
  // the *initialized key domain* (paper footnote 2), which self-loop
  // maintenance statements must enumerate even where the value is 0.
  void SetKeepZeros() { keep_zeros_ = true; }
  bool keep_zeros() const { return keep_zeros_; }

  bool Contains(const Key& key) const;

  Numeric At(const Key& key) const { return At(key.data(), key.size()); }
  Numeric At(const Value* key, size_t n) const {
    const uint32_t id = pages_.Find(key, n, HashValues(key, n));
    return id == kNoEntry ? kZero : pages_.Head(id)->value;
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
      const uint32_t id = row[i];
      if (IsPending(id)) continue;
      const EntryHead* head = pages_.Head(id);
      const Value* ek = EntryKey(head);
      bool match = true;
      for (size_t p = 0; p < index.positions.size() && match; ++p) {
        match = ek[index.positions[p]] == subkey[p];
      }
      if (match) fn(KeyView(ek, arity_), head->value);
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    IterGuard guard(this);
    const uint32_t n = pages_.entries;
    for (uint32_t id = 0; id < n; ++id) {
      if (IsPending(id)) continue;
      const EntryHead* head = pages_.Head(id);
      fn(KeyView(EntryKey(head), arity_), head->value);
    }
  }

  // Publication (runtime::FrozenView::Freeze): applies deferred erases,
  // returns a copy of the page tables that shares every page, and starts
  // a new freeze generation so the table copies each of those pages
  // before writing it. O(pages); no iteration may be in flight.
  ViewPages Freeze();
  // The storage as it is now (a frozen copy compares against it to tell
  // which of its pages it holds alone).
  const ViewPages& pages() const { return pages_; }
  // Pages copied because a write found them shared with a freeze.
  uint64_t pages_copied() const { return pages_copied_; }

  // Estimated heap bytes: entry and slot pages, page tables, string
  // payloads behind key values, and index storage (bucket arrays, row
  // nodes, id vectors). Used by the memory comparisons of the
  // factorization experiment (E3) and the engine's approx_bytes gauge.
  // O(#indexes), not O(#entries): the string and index-row components
  // are maintained incrementally on insert/erase/copy/index churn (a live
  // gauge instead of a recount walk, so stats polling stays cheap on
  // million-entry views). Debug builds cross-check against the walk.
  size_t ApproxBytes() const;
  // The original full-recount walk; the incremental accounting must
  // agree with it exactly (debug ApproxBytes asserts so, and the
  // randomized view_table tests call both).
  size_t ApproxBytesSlow() const;

  std::string ToString() const;

 private:
  static constexpr uint32_t kEmptySlot = ViewPages::kEmptySlot;
  static constexpr uint32_t kNoEntry = ViewPages::kNoEntry;

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

  bool IsPending(uint32_t id) const {
    return id < pending_.size() && pending_[id];
  }

  uint64_t SubHash(const Index& index, const Value* key) const {
    uint64_t h = 0x9ae16a3b2f90404fULL;
    for (size_t p : index.positions) h = HashCombine(h, key[p].Hash());
    return h;
  }

  // The single copy-on-write site: returns `page` ready for writing,
  // first replacing it with a private copy when its generation predates
  // the latest freeze (a frozen copy may hold it).
  ViewPage* Writable(PageRef& page);
  EntryHead* MutableHead(uint32_t id) {
    return Writable(pages_.entry_pages[id >> kEntryPageShift])
        ->record(id & (kPageEntries - 1), pages_.stride);
  }
  void SetSlot(size_t s, uint32_t id) {
    reinterpret_cast<uint32_t*>(
        Writable(pages_.slot_pages[s >> kSlotPageShift])
            ->payload())[s & (kSlotPageIds - 1)] = id;
  }

  // Add with the key's hash already computed (the AddSpan batch path);
  // does not sweep pending erases — the caller has.
  void AddHashed(const Value* key, uint64_t hash, Numeric delta);

  // Clears entry `id`'s deferred erase (it counts as live again).
  void Unpend(uint32_t id);

  // Inserts a new entry (key must be absent) and returns its id.
  uint32_t AppendEntry(const Value* key, uint64_t hash, Numeric value);

  // Removes entry `id` from slots and index rows, destroys its key, and
  // swap-moves the last entry into the hole (patching its slot and
  // rows). Defers onto pending_erases_ while iterating.
  void EraseEntry(uint32_t id);
  void EraseEntryNow(uint32_t id);
  void ApplyPendingErases();

  void EraseSlotAt(size_t slot);           // backshift deletion
  size_t SlotOf(uint32_t id) const;        // slot holding this entry id
  void RemoveFromRow(Index* index, uint64_t subhash, uint32_t id);
  void GrowSlots(size_t min_entries);

  // Incremental ApproxBytes accounting. string_bytes_: heap payloads
  // behind the string key values stored in this table's pages (measured
  // on the stored copies, live + pending-erase alike; a page copy
  // re-measures its strings). index_row_bytes_: per-row node overhead +
  // id-vector capacities across all indexes (bucket arrays are added at
  // read time — they are O(#indexes) to query but change on rehash,
  // which is invisible from the mutation sites).
  size_t string_bytes_ = 0;
  size_t index_row_bytes_ = 0;

  size_t arity_;
  bool keep_zeros_ = false;
  ViewPages pages_;
  // Pages whose gen differs from freeze_gen_ may be shared with a frozen
  // copy. Freeze() bumps it; new and copied pages are stamped with it.
  uint64_t freeze_gen_ = 0;
  uint64_t pages_copied_ = 0;
  std::vector<uint32_t> pending_erases_;
  std::vector<bool> pending_;  // by id; empty when nothing is pending
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
