#include "runtime/view_table.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <new>
#include <sstream>

namespace ringdb {
namespace runtime {

namespace {

// One index row's fixed cost in the unordered_map: subkey hash, id
// vector header, bucket chain + cached hash.
constexpr size_t kIndexRowNodeBytes =
    sizeof(uint64_t) + sizeof(std::vector<uint32_t>) + 2 * sizeof(void*);

// Heap payload behind the string values of a stored key (SSO strings —
// up to 15 chars in libstdc++/libc++ — cost nothing).
size_t StringHeapBytes(const Value* key, size_t n) {
  size_t bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    if (key[i].is_string()) {
      const std::string& s = key[i].AsString();
      if (s.capacity() > 15) bytes += s.capacity() + 1;
    }
  }
  return bytes;
}

// String payloads behind every key stored in an entry page.
size_t PageStringBytes(const ViewPage& page) {
  const size_t stride = EntryStride(page.arity);
  size_t bytes = 0;
  for (uint32_t r = 0; r < page.used; ++r) {
    bytes += StringHeapBytes(EntryKey(page.record(r, stride)), page.arity);
  }
  return bytes;
}

size_t EntryPageBytes(size_t stride) {
  return sizeof(ViewPage) + kPageEntries * stride;
}

}  // namespace

ViewPage* ViewPage::New(size_t payload_bytes, uint32_t arity, uint64_t gen) {
  auto* page = new (::operator new(sizeof(ViewPage) + payload_bytes)) ViewPage;
  page->arity = arity;
  page->gen = gen;
  return page;
}

void ViewPage::Destroy(ViewPage* page) {
  if (page->arity != kSlotPage) {
    const size_t stride = EntryStride(page->arity);
    for (uint32_t r = 0; r < page->used; ++r) {
      Value* key = EntryKey(page->record(r, stride));
      for (size_t i = 0; i < page->arity; ++i) key[i].~Value();
    }
  }
  page->~ViewPage();
  ::operator delete(page);
}

size_t ViewPages::PageBytes() const {
  return entry_pages.size() * EntryPageBytes(stride) +
         slot_pages.size() *
             (sizeof(ViewPage) + slot_page_ids() * sizeof(uint32_t)) +
         (entry_pages.capacity() + slot_pages.capacity()) * sizeof(PageRef);
}

size_t ViewPages::BytesNotSharedWith(const ViewPages& live) const {
  size_t bytes =
      (entry_pages.capacity() + slot_pages.capacity()) * sizeof(PageRef);
  for (size_t p = 0; p < entry_pages.size(); ++p) {
    if (p < live.entry_pages.size() &&
        live.entry_pages[p].get() == entry_pages[p].get()) {
      continue;
    }
    bytes += EntryPageBytes(stride) + PageStringBytes(*entry_pages[p]);
  }
  const size_t slot_page_bytes =
      sizeof(ViewPage) + slot_page_ids() * sizeof(uint32_t);
  for (size_t p = 0; p < slot_pages.size(); ++p) {
    if (p < live.slot_pages.size() &&
        live.slot_pages[p].get() == slot_pages[p].get()) {
      continue;
    }
    bytes += slot_page_bytes;
  }
  return bytes;
}

ViewTable::ViewTable(size_t arity) : arity_(arity) {
  pages_.arity = arity;
  pages_.stride = EntryStride(arity);
}

ViewPage* ViewTable::Writable(PageRef& page) {
  const ViewPage& old = *page;
  if (old.gen == freeze_gen_) return page.get();
  ViewPage* copy;
  if (old.arity == ViewPage::kSlotPage) {
    const size_t bytes = pages_.slot_page_ids() * sizeof(uint32_t);
    copy = ViewPage::New(bytes, ViewPage::kSlotPage, freeze_gen_);
    std::memcpy(copy->payload(), old.payload(), bytes);
  } else {
    const size_t stride = pages_.stride;
    copy = ViewPage::New(kPageEntries * stride, old.arity, freeze_gen_);
    for (uint32_t r = 0; r < old.used; ++r) {
      const EntryHead* src = old.record(r, stride);
      EntryHead* dst = new (copy->record(r, stride)) EntryHead(*src);
      for (size_t i = 0; i < arity_; ++i) {
        new (EntryKey(dst) + i) Value(EntryKey(src)[i]);
      }
    }
    copy->used = old.used;
    // The copies' string capacities need not match the originals'.
    string_bytes_ += PageStringBytes(*copy);
    string_bytes_ -= PageStringBytes(old);
  }
  page = PageRef(copy);
  ++pages_copied_;
  return copy;
}

// Clears a deferred erase: the entry at `id` counts as live again.
void ViewTable::Unpend(uint32_t id) {
  pending_[id] = false;
  pending_erases_.erase(
      std::find(pending_erases_.begin(), pending_erases_.end(), id));
  if (pending_erases_.empty()) pending_.clear();
}

bool ViewTable::Contains(const Key& key) const {
  const uint32_t id =
      pages_.Find(key.data(), key.size(), HashValues(key.data(), key.size()));
  return id != kNoEntry && !IsPending(id);
}

void ViewTable::Add(const Value* key, size_t n, Numeric delta) {
  RINGDB_CHECK_EQ(n, arity_);
  if (delta.IsZero()) return;
  if (iter_depth_ == 0 && !pending_erases_.empty()) ApplyPendingErases();
  AddHashed(key, HashValues(key, n), delta);
}

void ViewTable::AddHashed(const Value* key, uint64_t hash, Numeric delta) {
  const uint32_t id = pages_.Find(key, arity_, hash);
  if (id == kNoEntry) {
    AppendEntry(key, hash, delta);
    return;
  }
  EntryHead* head = MutableHead(id);
  head->value += delta;
  if (IsPending(id)) {
    // Resurrected before the deferred erase applied (delta is nonzero, so
    // the sum left zero).
    Unpend(id);
    return;
  }
  if (head->value.IsZero() && !keep_zeros_) EraseEntry(id);
}

void ViewTable::AddSpan(const Value* keys, const Numeric* deltas,
                        size_t count) {
  if (count == 0) return;
  // One pending-erase sweep for the whole span: when no iteration is in
  // flight, per-element Adds cannot re-defer (EraseEntry applies
  // immediately), so hoisting the sweep is observationally identical to
  // calling Add in a loop. Under an active iteration the sweep is skipped
  // exactly like Add skips it.
  if (iter_depth_ == 0 && !pending_erases_.empty()) ApplyPendingErases();
  span_hash_scratch_.resize(count);
  // Hash pass first: computing all key hashes up front lets the probe
  // pass start from a warm slot line (the prefetch below) instead of
  // alternating hash arithmetic with dependent cache misses. Slot growth
  // mid-span only makes the *hint* stale; the probe recomputes masks.
  const bool prefetch = !pages_.slot_pages.empty();
  for (size_t i = 0; i < count; ++i) {
    const uint64_t h = HashValues(keys + i * arity_, arity_);
    span_hash_scratch_[i] = h;
    if (prefetch) __builtin_prefetch(pages_.SlotAddress(h & pages_.slot_mask));
  }
  for (size_t i = 0; i < count; ++i) {
    if (deltas[i].IsZero()) continue;
    AddHashed(keys + i * arity_, span_hash_scratch_[i], deltas[i]);
  }
}

void ViewTable::EnsureEntry(const Key& key, Numeric value) {
  RINGDB_CHECK_EQ(key.size(), arity_);
  if (iter_depth_ == 0 && !pending_erases_.empty()) ApplyPendingErases();
  const uint64_t hash = HashValues(key.data(), key.size());
  const uint32_t id = pages_.Find(key.data(), key.size(), hash);
  if (id != kNoEntry) {
    // A pending-erase entry still owns its key; marking it live again
    // with the requested value preserves EnsureEntry's contract.
    if (IsPending(id)) {
      MutableHead(id)->value = value;
      Unpend(id);
    }
    return;
  }
  AppendEntry(key.data(), hash, value);
}

void ViewTable::Reserve(size_t n) {
  if (pages_.entries == 0) return;
  if (iter_depth_ == 0 && !pending_erases_.empty()) ApplyPendingErases();
  const size_t pages = (n + kPageEntries - 1) >> kEntryPageShift;
  std::vector<PageRef>& table = pages_.entry_pages;
  if (table.capacity() < pages) {
    table.reserve(std::max(pages, table.capacity() * 2));
  }
  GrowSlots(n);
  // Index rows are keyed by distinct subkey, typically far fewer than n;
  // they grow amortized on insert — pre-reserving n buckets per window
  // was a rehash per window for no locality gain.
}

int ViewTable::EnsureIndex(std::vector<size_t> positions) {
  RINGDB_CHECK_EQ(iter_depth_, 0);
  if (!pending_erases_.empty()) ApplyPendingErases();
  for (size_t i = 1; i < positions.size(); ++i) {
    RINGDB_CHECK_LT(positions[i - 1], positions[i]);
  }
  for (size_t p : positions) RINGDB_CHECK_LT(p, arity_);
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (indexes_[i].positions == positions) return static_cast<int>(i);
  }
  Index index;
  index.positions = std::move(positions);
  index.rows.reserve(pages_.entries);
  for (uint32_t id = 0; id < pages_.entries; ++id) {
    index.rows[SubHash(index, pages_.KeyOf(id))].push_back(id);
  }
  // Account the freshly built rows in one pass (the only O(n) moment of
  // the incremental scheme: index registration itself is O(n) anyway).
  for (const auto& [subhash, row] : index.rows) {
    index_row_bytes_ += kIndexRowNodeBytes + row.capacity() * sizeof(uint32_t);
  }
  indexes_.push_back(std::move(index));
  return static_cast<int>(indexes_.size() - 1);
}

uint32_t ViewTable::AppendEntry(const Value* key, uint64_t hash,
                                Numeric value) {
  RINGDB_CHECK_LT(pages_.entries, kNoEntry);
  const uint32_t id = pages_.entries;
  if ((static_cast<size_t>(id) + 1) * 4 > pages_.num_slots() * 3) {
    GrowSlots(static_cast<size_t>(id) + 1);
  }
  const size_t r = id & (kPageEntries - 1);
  if (r == 0) {
    pages_.entry_pages.emplace_back(ViewPage::New(
        kPageEntries * pages_.stride, static_cast<uint32_t>(arity_),
        freeze_gen_));
  }
  ViewPage* page = Writable(pages_.entry_pages.back());
  Value* ek = EntryKey(new (page->record(r, pages_.stride))
                           EntryHead{hash, value});
  for (size_t i = 0; i < arity_; ++i) new (ek + i) Value(key[i]);
  page->used = static_cast<uint32_t>(r + 1);
  ++pages_.entries;
  size_t s = hash & pages_.slot_mask;
  while (pages_.Slot(s) != kEmptySlot) s = (s + 1) & pages_.slot_mask;
  SetSlot(s, id);
  // Incremental ApproxBytes: measure the *stored* copies (their
  // capacities, not the caller's), and track row growth around the
  // push_back.
  string_bytes_ += StringHeapBytes(ek, arity_);
  for (Index& index : indexes_) {
    auto [it, inserted] = index.rows.try_emplace(SubHash(index, ek));
    if (inserted) index_row_bytes_ += kIndexRowNodeBytes;
    index_row_bytes_ -= it->second.capacity() * sizeof(uint32_t);
    it->second.push_back(id);
    index_row_bytes_ += it->second.capacity() * sizeof(uint32_t);
  }
  return id;
}

void ViewTable::EraseEntry(uint32_t id) {
  if (iter_depth_ > 0) {
    if (pending_.size() < pages_.entries) pending_.resize(pages_.entries);
    pending_[id] = true;
    pending_erases_.push_back(id);
    return;
  }
  EraseEntryNow(id);
}

void ViewTable::ApplyPendingErases() {
  // Descending id order keeps every deferred id valid: swap-erase only
  // relocates the last (maximal) entry, which is either the id being
  // erased or not deferred at all.
  std::sort(pending_erases_.begin(), pending_erases_.end(),
            std::greater<uint32_t>());
  for (uint32_t id : pending_erases_) EraseEntryNow(id);
  pending_erases_.clear();
  pending_.clear();
}

void ViewTable::EraseEntryNow(uint32_t id) {
  {
    const Value* ek = pages_.KeyOf(id);
    EraseSlotAt(SlotOf(id));
    for (Index& index : indexes_) {
      RemoveFromRow(&index, SubHash(index, ek), id);
    }
  }
  const uint32_t last = pages_.entries - 1;
  if (id != last) {
    // The last entry moves into the hole; its slot and index rows must
    // point at the new id.
    SetSlot(SlotOf(last), id);
    const Value* lk = pages_.KeyOf(last);
    for (Index& index : indexes_) {
      auto row = index.rows.find(SubHash(index, lk));
      RINGDB_CHECK(row != index.rows.end());
      for (uint32_t& rid : row->second) {
        if (rid == last) {
          rid = id;
          break;
        }
      }
    }
  }
  // Both pages are made writable before any record moves.
  EntryHead* hole = MutableHead(id);
  EntryHead* tail = MutableHead(last);
  Value* hk = EntryKey(hole);
  Value* tk = EntryKey(tail);
  string_bytes_ -= StringHeapBytes(hk, arity_);
  if (id != last) {
    // Move-construct (not assign) the survivor's key, so it keeps the
    // string buffers, and so the capacities, accounted for it.
    *hole = *tail;
    for (size_t i = 0; i < arity_; ++i) {
      hk[i].~Value();
      new (hk + i) Value(std::move(tk[i]));
    }
  }
  for (size_t i = 0; i < arity_; ++i) tk[i].~Value();
  ViewPage* page = pages_.entry_pages.back().get();
  --page->used;
  --pages_.entries;
  if (page->used == 0) pages_.entry_pages.pop_back();
}

void ViewTable::EraseSlotAt(size_t slot) {
  // Tombstone-free backshift deletion: walk the probe chain after the
  // hole and move back every entry whose home position reaches the hole.
  const size_t mask = pages_.slot_mask;
  size_t i = slot;
  size_t j = slot;
  while (true) {
    j = (j + 1) & mask;
    const uint32_t id = pages_.Slot(j);
    if (id == kEmptySlot) break;
    const size_t home = pages_.Head(id)->hash & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      SetSlot(i, id);
      i = j;
    }
  }
  SetSlot(i, kEmptySlot);
}

size_t ViewTable::SlotOf(uint32_t id) const {
  const size_t mask = pages_.slot_mask;
  size_t s = pages_.Head(id)->hash & mask;
  while (pages_.Slot(s) != id) s = (s + 1) & mask;
  return s;
}

void ViewTable::RemoveFromRow(Index* index, uint64_t subhash, uint32_t id) {
  auto it = index->rows.find(subhash);
  RINGDB_CHECK(it != index->rows.end());
  std::vector<uint32_t>& row = it->second;
  for (uint32_t& rid : row) {
    if (rid == id) {
      rid = row.back();
      row.pop_back();
      break;
    }
  }
  if (row.empty()) {
    // pop_back never shrinks capacity, so the row still accounts for
    // capacity() ids plus its node.
    index_row_bytes_ -=
        kIndexRowNodeBytes + row.capacity() * sizeof(uint32_t);
    index->rows.erase(it);
  }
}

void ViewTable::GrowSlots(size_t min_entries) {
  const size_t old_slots = pages_.num_slots();
  size_t cap = old_slots == 0 ? 16 : old_slots;
  while (min_entries * 4 > cap * 3) cap *= 2;
  if (cap == old_slots) return;
  // Fresh pages throughout: the old ones may be shared with a freeze.
  const size_t ids = std::min(cap, kSlotPageIds);
  std::vector<PageRef> fresh;
  fresh.reserve(cap / ids);
  for (size_t p = 0; p < cap / ids; ++p) {
    ViewPage* page =
        ViewPage::New(ids * sizeof(uint32_t), ViewPage::kSlotPage, freeze_gen_);
    std::memset(page->payload(), 0xff, ids * sizeof(uint32_t));
    fresh.emplace_back(page);
  }
  pages_.slot_pages = std::move(fresh);
  pages_.slot_mask = cap - 1;
  for (uint32_t id = 0; id < pages_.entries; ++id) {
    size_t s = pages_.Head(id)->hash & pages_.slot_mask;
    while (pages_.Slot(s) != kEmptySlot) s = (s + 1) & pages_.slot_mask;
    SetSlot(s, id);
  }
}

ViewPages ViewTable::Freeze() {
  RINGDB_CHECK_EQ(iter_depth_, 0);
  if (!pending_erases_.empty()) ApplyPendingErases();
  ++freeze_gen_;
  return pages_;
}

size_t ViewTable::ApproxBytes() const {
  size_t bytes = pages_.PageBytes() +
                 pending_erases_.capacity() * sizeof(uint32_t) +
                 pending_.capacity() / 8 +
                 span_hash_scratch_.capacity() * sizeof(uint64_t) +
                 string_bytes_ + index_row_bytes_;
  // Bucket arrays rehash behind the map's back, so they are queried at
  // read time instead of tracked (O(#indexes), still no entry walk).
  for (const Index& index : indexes_) {
    bytes += index.positions.capacity() * sizeof(size_t);
    bytes += index.rows.bucket_count() * sizeof(void*);
  }
#ifndef NDEBUG
  RINGDB_CHECK_EQ(bytes, ApproxBytesSlow());
#endif
  return bytes;
}

size_t ViewTable::ApproxBytesSlow() const {
  size_t bytes = pages_.PageBytes() +
                 pending_erases_.capacity() * sizeof(uint32_t) +
                 pending_.capacity() / 8 +
                 span_hash_scratch_.capacity() * sizeof(uint64_t);
  // Heap payloads behind string key values (SSO strings cost nothing).
  for (uint32_t id = 0; id < pages_.entries; ++id) {
    bytes += StringHeapBytes(pages_.KeyOf(id), arity_);
  }
  for (const Index& index : indexes_) {
    bytes += index.positions.capacity() * sizeof(size_t);
    bytes += index.rows.bucket_count() * sizeof(void*);
    for (const auto& [subhash, row] : index.rows) {
      bytes += kIndexRowNodeBytes + row.capacity() * sizeof(uint32_t);
    }
  }
  return bytes;
}

std::string ViewTable::ToString() const {
  std::ostringstream out;
  out << '{';
  bool first = true;
  ForEach([&](KeyView key, Numeric m) {
    if (!first) out << ", ";
    first = false;
    out << '[';
    for (size_t i = 0; i < key.size(); ++i) {
      if (i) out << ", ";
      out << key[i].ToString();
    }
    out << "] -> " << m.ToString();
  });
  out << '}';
  return out.str();
}

}  // namespace runtime
}  // namespace ringdb
