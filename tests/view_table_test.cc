// ViewTable (runtime/view_table.h): default-zero lookups, cancellation
// erasure, keep-zeros mode (lazy domains), incrementally maintained
// partial-key slot-id indexes, deferred erasure under iteration, the
// hash/equality contract of Value keys, and copy-on-write publication:
// a FrozenView (runtime/frozen_view.h) never changes after its freeze,
// and a freeze plus a small window copies pages in proportion to the
// window, not the table.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "runtime/frozen_view.h"
#include "runtime/view_table.h"
#include "util/random.h"

namespace ringdb {
namespace runtime {
namespace {

TEST(ViewTableTest, DefaultZeroAndAdd) {
  ViewTable v(2);
  Key k{Value(1), Value("a")};
  EXPECT_EQ(v.At(k), kZero);
  v.Add(k, Numeric(5));
  EXPECT_EQ(v.At(k), Numeric(5));
  v.Add(k, Numeric(-2));
  EXPECT_EQ(v.At(k), Numeric(3));
  EXPECT_EQ(v.size(), 1u);
}

TEST(ViewTableTest, CancellationErasesEntry) {
  ViewTable v(1);
  v.Add({Value(7)}, Numeric(4));
  v.Add({Value(7)}, Numeric(-4));
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.At({Value(7)}), kZero);
  EXPECT_FALSE(v.Contains({Value(7)}));
}

TEST(ViewTableTest, KeepZerosRetainsInitializedDomain) {
  ViewTable v(1);
  v.SetKeepZeros();
  v.EnsureEntry({Value(1)}, kZero);
  v.Add({Value(2)}, Numeric(3));
  v.Add({Value(2)}, Numeric(-3));
  EXPECT_EQ(v.size(), 2u);  // both survive as (possibly zero) entries
  EXPECT_TRUE(v.Contains({Value(1)}));
  EXPECT_TRUE(v.Contains({Value(2)}));
  EXPECT_EQ(v.At({Value(2)}), kZero);
}

TEST(ViewTableTest, EnsureEntryIsIdempotent) {
  ViewTable v(1);
  v.Add({Value(1)}, Numeric(9));
  v.EnsureEntry({Value(1)}, Numeric(555));  // no-op: entry exists
  EXPECT_EQ(v.At({Value(1)}), Numeric(9));
}

TEST(ViewTableTest, ZeroDeltaIsNoop) {
  ViewTable v(1);
  v.Add({Value(1)}, kZero);
  EXPECT_EQ(v.size(), 0u);
}

// Value::Hash regression: -0.0 and 0.0 compare equal, so they must land
// on one entry (the old hash split them, silently breaking every Key
// table's hash/equality invariant).
TEST(ViewTableTest, NegativeZeroAndZeroShareOneEntry) {
  ASSERT_EQ(Value(-0.0), Value(0.0));
  ASSERT_EQ(Value(-0.0).Hash(), Value(0.0).Hash());
  ViewTable v(1);
  v.Add({Value(0.0)}, Numeric(2));
  v.Add({Value(-0.0)}, Numeric(3));
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v.At({Value(-0.0)}), Numeric(5));
  v.Add({Value(0.0)}, Numeric(-5));  // cancels across both spellings
  EXPECT_EQ(v.size(), 0u);
}

TEST(ViewTableTest, IndexFindsMatchingEntries) {
  ViewTable v(2);
  int idx = v.EnsureIndex({1});
  v.Add({Value(1), Value(10)}, kOne);
  v.Add({Value(2), Value(10)}, kOne);
  v.Add({Value(3), Value(20)}, kOne);
  std::set<int64_t> firsts;
  v.ForEachMatching(idx, {Value(10)}, [&](KeyView k, Numeric) {
    firsts.insert(k[0].AsInt());
  });
  EXPECT_EQ(firsts, (std::set<int64_t>{1, 2}));
}

TEST(ViewTableTest, IndexBuiltOverExistingEntries) {
  ViewTable v(2);
  v.Add({Value(1), Value(10)}, kOne);
  v.Add({Value(2), Value(20)}, kOne);
  int idx = v.EnsureIndex({1});  // built after the fact
  int count = 0;
  v.ForEachMatching(idx, {Value(20)}, [&](KeyView, Numeric) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ViewTableTest, IndexMaintainedAcrossErasure) {
  ViewTable v(2);
  int idx = v.EnsureIndex({0});
  v.Add({Value(1), Value(10)}, Numeric(2));
  v.Add({Value(1), Value(10)}, Numeric(-2));  // cancels, erased
  int count = 0;
  v.ForEachMatching(idx, {Value(1)}, [&](KeyView, Numeric) { ++count; });
  EXPECT_EQ(count, 0);
  // Re-adding resurrects the index row.
  v.Add({Value(1), Value(10)}, kOne);
  v.ForEachMatching(idx, {Value(1)}, [&](KeyView, Numeric) { ++count; });
  EXPECT_EQ(count, 1);
}

// Zero-cancellation in a keep_zeros view must keep the entry *and* its
// index row (the initialized domain is what self-loop statements
// enumerate), reported with multiplicity 0.
TEST(ViewTableTest, KeepZerosIndexRetainsCancelledEntries) {
  ViewTable v(2);
  v.SetKeepZeros();
  int idx = v.EnsureIndex({0});
  v.Add({Value(1), Value(10)}, Numeric(2));
  v.Add({Value(1), Value(11)}, Numeric(5));
  v.Add({Value(1), Value(10)}, Numeric(-2));  // cancels to zero, kept
  std::set<std::pair<int64_t, int64_t>> seen;
  v.ForEachMatching(idx, {Value(1)}, [&](KeyView k, Numeric m) {
    seen.insert({k[1].AsInt(), m.is_integer() ? m.AsInt() : -999});
  });
  EXPECT_EQ(seen, (std::set<std::pair<int64_t, int64_t>>{{10, 0}, {11, 5}}));
  EXPECT_EQ(v.size(), 2u);
}

TEST(ViewTableTest, EnsureIndexDeduplicates) {
  ViewTable v(3);
  EXPECT_EQ(v.EnsureIndex({0, 2}), v.EnsureIndex({0, 2}));
  EXPECT_NE(v.EnsureIndex({0, 2}), v.EnsureIndex({1}));
}

TEST(ViewTableTest, MultiPositionIndex) {
  ViewTable v(3);
  int idx = v.EnsureIndex({0, 2});
  v.Add({Value(1), Value("x"), Value(3)}, kOne);
  v.Add({Value(1), Value("y"), Value(3)}, kOne);
  v.Add({Value(1), Value("z"), Value(4)}, kOne);
  int count = 0;
  v.ForEachMatching(idx, {Value(1), Value(3)},
                    [&](KeyView, Numeric) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST(ViewTableTest, RandomizedIndexConsistency) {
  // Index probes must always agree with a full scan, across insertions,
  // accumulation, and cancellation erasure (which swap-moves entries and
  // patches slot/index ids).
  ViewTable v(2);
  int idx = v.EnsureIndex({1});
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    Key k{Value(rng.Range(0, 50)), Value(rng.Range(0, 10))};
    v.Add(k, Numeric(rng.Range(-2, 2)));
  }
  for (int64_t probe = 0; probe <= 10; ++probe) {
    std::set<std::pair<int64_t, int64_t>> via_index, via_scan;
    v.ForEachMatching(idx, {Value(probe)}, [&](KeyView k, Numeric) {
      via_index.insert({k[0].AsInt(), k[1].AsInt()});
    });
    v.ForEach([&](KeyView k, Numeric) {
      if (k[1] == Value(probe)) {
        via_scan.insert({k[0].AsInt(), k[1].AsInt()});
      }
    });
    EXPECT_EQ(via_index, via_scan) << probe;
  }
}

TEST(ViewTableTest, RandomizedAgainstReferenceMap) {
  // Full behavioral check against a simple reference: At/size after a
  // mixed stream of adds and cancellations, at arities 2 and 3.
  for (size_t arity : {size_t{2}, size_t{3}}) {
    ViewTable v(arity);
    std::map<std::vector<int64_t>, int64_t> ref;
    Rng rng(7 + arity);
    for (int i = 0; i < 20000; ++i) {
      std::vector<int64_t> rk;
      Key k;
      for (size_t j = 0; j < arity; ++j) {
        int64_t x = rng.Range(0, 12);
        rk.push_back(x);
        k.push_back(Value(x));
      }
      int64_t d = rng.Range(-2, 2);
      v.Add(k, Numeric(d));
      ref[rk] += d;
      if (ref[rk] == 0) ref.erase(rk);
    }
    EXPECT_EQ(v.size(), ref.size());
    for (const auto& [rk, m] : ref) {
      Key k;
      for (int64_t x : rk) k.push_back(Value(x));
      EXPECT_EQ(v.At(k), Numeric(m));
    }
    size_t scanned = 0;
    v.ForEach([&](KeyView k, Numeric m) {
      ++scanned;
      std::vector<int64_t> rk;
      for (size_t j = 0; j < arity; ++j) rk.push_back(k[j].AsInt());
      auto it = ref.find(rk);
      ASSERT_NE(it, ref.end());
      EXPECT_EQ(Numeric(it->second), m);
    });
    EXPECT_EQ(scanned, ref.size());
  }
}

TEST(ViewTableTest, WideKeysSurviveChurn) {
  // Swap-erase moves arity-4 records (string payloads included) across
  // page edges; survivors must come through intact.
  ViewTable v(4);
  int idx = v.EnsureIndex({0, 3});
  auto key = [](int64_t a, const std::string& s, int64_t c, int64_t d) {
    return Key{Value(a), Value(s), Value(c), Value(d)};
  };
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 40; ++i) {
      v.Add(key(i % 4, "payload-string-well-past-sso-" + std::to_string(i),
                round, i % 8),
            kOne);
    }
    for (int i = 0; i < 40; i += 2) {
      v.Add(key(i % 4, "payload-string-well-past-sso-" + std::to_string(i),
                round, i % 8),
            Numeric(-1));  // cancel half, moving records into the holes
    }
  }
  size_t matches = 0;
  v.ForEachMatching(idx, {Value(1), Value(1)}, [&](KeyView k, Numeric m) {
    EXPECT_EQ(k[0].AsInt(), 1);
    EXPECT_EQ(k[3].AsInt(), 1);
    EXPECT_TRUE(k[1].is_string());
    EXPECT_EQ(m, kOne);
    ++matches;
  });
  EXPECT_EQ(matches, 5u * 50u);  // odd i with i%4==1, i%8==1: 1,9,17,25,33
}

// Mutation-safety: a callback may write to the very view it is
// iterating (self-loop statements do). Inserts are not visited
// (snapshot), cancellations are deferred and skipped, and the table is
// consistent afterwards.
TEST(ViewTableTest, ForEachMatchingSurvivesWritesToSameView) {
  ViewTable v(2);
  int idx = v.EnsureIndex({1});
  for (int i = 0; i < 64; ++i) {
    v.Add({Value(i), Value(i % 4)}, Numeric(i + 1));
  }
  size_t visited = 0;
  v.ForEachMatching(idx, {Value(1)}, [&](KeyView k, Numeric m) {
    ++visited;
    const int64_t first = k[0].AsInt();  // copy out before mutating
    v.Add({Value(first), Value(1)}, -m);       // cancel self
    v.Add({Value(first + 1000), Value(1)}, kOne);  // matching insert
    EXPECT_EQ(v.At({Value(first + 1000), Value(1)}), kOne);
    EXPECT_FALSE(v.Contains({Value(first), Value(1)}));
  });
  EXPECT_EQ(visited, 16u);  // snapshot: the 1000+ inserts not visited
  // The 16 matching originals cancelled, 48 others + 16 inserts remain.
  EXPECT_EQ(v.size(), 64u);
  size_t remaining = 0;
  v.ForEachMatching(idx, {Value(1)}, [&](KeyView k, Numeric m) {
    EXPECT_GE(k[0].AsInt(), 1000);
    EXPECT_EQ(m, kOne);
    ++remaining;
  });
  EXPECT_EQ(remaining, 16u);
}

TEST(ViewTableTest, NestedForEachWithDeferredErase) {
  ViewTable v(1);
  for (int i = 0; i < 8; ++i) v.Add({Value(i)}, kOne);
  size_t outer = 0;
  size_t cancelled = 0;
  v.ForEach([&](KeyView k, Numeric m) {
    ++outer;
    Key key{k[0]};
    v.Add(key, -m);  // deferred erase under iteration
    ++cancelled;
    // An erased-then-readded key resurrects in place.
    if (key[0].AsInt() == 3) {
      v.Add(key, Numeric(7));
      EXPECT_EQ(v.At(key), Numeric(7));
      --cancelled;
    }
    // Nested scans see exactly the live entries.
    size_t inner = 0;
    v.ForEach([&](KeyView, Numeric) { ++inner; });
    EXPECT_EQ(inner, 8u - cancelled);
    EXPECT_EQ(v.size(), 8u - cancelled);
  });
  EXPECT_EQ(outer, 8u);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v.At({Value(3)}), Numeric(7));
  EXPECT_FALSE(v.Contains({Value(0)}));
}

TEST(ViewTableTest, ReserveKeepsContents) {
  ViewTable v(2);
  int idx = v.EnsureIndex({0});
  for (int i = 0; i < 100; ++i) v.Add({Value(i % 10), Value(i)}, kOne);
  v.Reserve(100000);
  EXPECT_EQ(v.size(), 100u);
  size_t count = 0;
  v.ForEachMatching(idx, {Value(3)}, [&](KeyView, Numeric) { ++count; });
  EXPECT_EQ(count, 10u);
}

TEST(ViewTableTest, ApproxBytesGrowsWithEntries) {
  ViewTable small(1), large(1);
  for (int i = 0; i < 10; ++i) small.Add({Value(i)}, kOne);
  for (int i = 0; i < 1000; ++i) large.Add({Value(i)}, kOne);
  EXPECT_GT(large.ApproxBytes(), small.ApproxBytes());
}

TEST(ViewTableTest, ApproxBytesCountsStringPayloadAndIndexes) {
  // Long string keys own heap payloads the estimate must include (the
  // old estimate skipped them, skewing the E3 memory comparison).
  ViewTable ints(1), strings(1);
  for (int i = 0; i < 500; ++i) {
    ints.Add({Value(i)}, kOne);
    strings.Add({Value("quite-a-long-key-string-number-" +
                       std::to_string(i))},
                kOne);
  }
  EXPECT_GT(strings.ApproxBytes(), ints.ApproxBytes() + 500 * 16);
  // Registering an index adds accounted storage.
  ViewTable indexed(2), plain(2);
  indexed.EnsureIndex({0});
  for (int i = 0; i < 500; ++i) {
    indexed.Add({Value(i % 7), Value(i)}, kOne);
    plain.Add({Value(i % 7), Value(i)}, kOne);
  }
  EXPECT_GT(indexed.ApproxBytes(), plain.ApproxBytes());
}

// The incremental ApproxBytes accounting (a live gauge maintained at
// insert/erase/index-churn sites) must equal the full recount walk at
// every churn point — across string payloads (SSO and heap), arity-3
// keys, index registration over existing entries, cancellation erasure
// (swap-move + row compaction), resurrection, keep-zeros domains, and
// pages copied on write after freezes (the copies' strings are
// re-measured).
// Debug builds also self-check inside ApproxBytes; this test pins the
// property in release builds too.
TEST(ViewTableTest, ApproxBytesIncrementalMatchesSlowWalkUnderChurn) {
  for (size_t arity : {size_t{2}, size_t{3}}) {
    ViewTable v(arity);
    int idx = v.EnsureIndex({0});
    Rng rng(31 + arity);
    auto make_key = [&](int64_t salt) {
      Key k;
      k.push_back(Value(salt % 9));
      // Mix of int, SSO string, and heap string key values.
      const int64_t kind = salt % 3;
      k.push_back(kind == 0 ? Value(salt)
                  : kind == 1
                      ? Value("sso")
                      : Value("heap-allocated-key-string-payload-" +
                              std::to_string(salt % 17)));
      while (k.size() < arity) k.push_back(Value(salt % 5));
      return k;
    };
    std::vector<FrozenViewPtr> held;
    for (int i = 0; i < 3000; ++i) {
      v.Add(make_key(rng.Range(0, 400)), Numeric(rng.Range(-2, 2)));
      if (i % 257 == 0) {
        EXPECT_EQ(v.ApproxBytes(), v.ApproxBytesSlow()) << "churn step " << i;
      }
      if (i % 97 == 0) held.push_back(FrozenView::Freeze(v));
    }
    EXPECT_GT(v.pages_copied(), 0u);
    // A second index built over the existing population must be
    // accounted in one pass.
    v.EnsureIndex({1});
    EXPECT_EQ(v.ApproxBytes(), v.ApproxBytesSlow());
    // Deferred erases under iteration, then resurrection.
    v.ForEachMatching(idx, {Value(3)}, [&](KeyView k, Numeric m) {
      v.Add(k.ToKey(), -m);
    });
    EXPECT_EQ(v.ApproxBytes(), v.ApproxBytesSlow());
    for (int i = 0; i < 500; ++i) {
      v.Add(make_key(rng.Range(0, 400)), kOne);
    }
    EXPECT_EQ(v.ApproxBytes(), v.ApproxBytesSlow());
  }
  // keep_zeros domains retain cancelled entries; their storage stays
  // accounted.
  ViewTable lazy(1);
  lazy.SetKeepZeros();
  for (int i = 0; i < 200; ++i) {
    lazy.EnsureEntry({Value("lazy-domain-key-string-" + std::to_string(i))},
                     kZero);
    lazy.Add({Value("lazy-domain-key-string-" + std::to_string(i))},
             Numeric(i % 3 - 1));
  }
  EXPECT_EQ(lazy.ApproxBytes(), lazy.ApproxBytesSlow());
}

// The reference model: a key -> value map with the table's erasure rule
// (keep_zeros tables keep cancelled keys at 0).
using RefMap = std::map<Key, Numeric>;

void RefAdd(RefMap* ref, const Key& key, Numeric delta, bool keep_zeros) {
  if (delta.IsZero()) return;
  Numeric& m = (*ref)[key];
  m += delta;
  if (m.IsZero() && !keep_zeros) ref->erase(key);
}

RefMap Scan(const FrozenView& view) {
  RefMap out;
  view.ForEach([&](KeyView k, Numeric m) {
    EXPECT_TRUE(out.emplace(k.ToKey(), m).second) << "duplicate key";
  });
  return out;
}

RefMap Scan(const ViewTable& table) {
  RefMap out;
  table.ForEach([&](KeyView k, Numeric m) {
    EXPECT_TRUE(out.emplace(k.ToKey(), m).second) << "duplicate key";
  });
  return out;
}

// Freeze contract: a FrozenView taken before N rounds of mutation still
// equals the result recorded at its freeze, while the live table keeps
// matching the reference. The rounds cover inserts, swap-erase across
// page edges, slot growth past several slot pages, deferred erases
// pending at the freeze, keep_zeros domains, string keys, and arity 0-3.
TEST(ViewTableTest, FrozenViewsNeverChangeUnderMutation) {
  for (size_t arity = 0; arity <= 3; ++arity) {
    for (bool keep_zeros : {false, true}) {
      SCOPED_TRACE("arity " + std::to_string(arity) +
                   (keep_zeros ? " keep_zeros" : ""));
      ViewTable v(arity);
      if (keep_zeros) v.SetKeepZeros();
      if (arity >= 2) v.EnsureIndex({1});
      RefMap ref;
      Rng rng(101 + arity * 2 + (keep_zeros ? 1 : 0));
      auto make_key = [&](int64_t id) {
        Key k;
        for (size_t j = 0; j < arity; ++j) {
          if (j == 1) {
            k.push_back(Value("string-key-well-past-sso-" +
                              std::to_string(id % 13)));
          } else {
            k.push_back(Value(id + static_cast<int64_t>(j)));
          }
        }
        return k;
      };
      std::vector<std::pair<FrozenViewPtr, RefMap>> frozen;
      for (int round = 0; round < 12; ++round) {
        // Domain widens every round: slot growth happens after freezes.
        const int64_t domain = 40 + 250 * round;
        for (int i = 0; i < 600; ++i) {
          const Key k = make_key(rng.Range(0, domain));
          if (keep_zeros && i % 7 == 0) {
            v.EnsureEntry(k, kZero);
            ref.emplace(k, kZero);
            continue;
          }
          const Numeric d(rng.Range(-2, 2));
          v.Add(k, d);
          RefAdd(&ref, k, d, keep_zeros);
        }
        // Cancel every third entry under iteration: the erases stay
        // pending into the freeze below, which must apply them first.
        size_t visited = 0;
        v.ForEach([&](KeyView key, Numeric m) {
          if (visited++ % 3 != 0 || m.IsZero()) return;
          const Key k = key.ToKey();
          v.Add(k, -m);
          RefAdd(&ref, k, -m, keep_zeros);
        });
        ASSERT_EQ(Scan(v), ref) << "round " << round;
        frozen.emplace_back(FrozenView::Freeze(v), ref);
      }
      EXPECT_EQ(v.size(), ref.size());
      for (size_t r = 0; r < frozen.size(); ++r) {
        const FrozenView& view = *frozen[r].first;
        const RefMap& want = frozen[r].second;
        EXPECT_EQ(view.size(), want.size()) << "freeze " << r;
        EXPECT_EQ(Scan(view), want) << "freeze " << r;
        Numeric total = kZero;
        for (const auto& [k, m] : want) {
          EXPECT_EQ(view.At(k.data(), k.size()), m) << "freeze " << r;
          total += m;
        }
        EXPECT_EQ(view.total(), total) << "freeze " << r;
        const Key absent = make_key(1000000);
        if (arity > 0) EXPECT_EQ(view.At(absent.data(), arity), kZero);
      }
      for (const auto& [k, m] : ref) EXPECT_EQ(v.At(k), m);
      EXPECT_EQ(v.ApproxBytes(), v.ApproxBytesSlow());
    }
  }
}

// Publication is O(delta): with a frozen copy held, a window touching
// one key plus the next freeze copies at most a small constant number of
// pages, at 10k and at 200k entries alike, and the frozen copy holds
// only those pages apart from the live table.
TEST(ViewTableTest, FreezeAfterOneKeyWindowCopiesConstantPages) {
  // Arity-1 entry pages and slot pages are both 4 KiB of payload.
  const size_t page_bytes = sizeof(ViewPage) + kPageEntries * EntryStride(1);
  ASSERT_EQ(page_bytes, sizeof(ViewPage) + kSlotPageIds * sizeof(uint32_t));
  for (int64_t n : {int64_t{10000}, int64_t{200000}}) {
    SCOPED_TRACE("entries " + std::to_string(n));
    ViewTable v(1);
    for (int64_t i = 0; i < n; ++i) v.Add({Value(i)}, kOne);
    const uint64_t before_freeze = v.pages_copied();
    FrozenViewPtr held = FrozenView::Freeze(v);
    EXPECT_EQ(v.pages_copied(), before_freeze);  // freezing copies nothing
    // Freshly frozen, the copy shares every page: it holds only its
    // page tables (copied vectors, capacity == size).
    const size_t table_bytes =
        (v.pages().entry_pages.size() + v.pages().slot_pages.size()) *
        sizeof(PageRef);
    EXPECT_EQ(held->ApproxBytesNotSharedWith(v), table_bytes);
    // Three one-key windows, each published: update in place, insert a
    // new key, cancel a key (swap-erase plus backshift).
    const Key keys[] = {{Value(n / 2)}, {Value(n + 7)}, {Value(n / 3)}};
    const Numeric deltas[] = {Numeric(5), kOne, Numeric(-1)};
    for (int w = 0; w < 3; ++w) {
      const uint64_t c0 = v.pages_copied();
      v.Add(keys[w], deltas[w]);
      const uint64_t copies = v.pages_copied() - c0;
      EXPECT_GE(copies, 1u) << "window " << w;
      EXPECT_LE(copies, 6u) << "window " << w;
      FrozenViewPtr next = FrozenView::Freeze(v);
      EXPECT_EQ(v.pages_copied(), c0 + copies);
      // The previous copy holds the pages the window replaced, no more.
      EXPECT_LE(held->ApproxBytesNotSharedWith(v),
                table_bytes + sizeof(PageRef) + copies * page_bytes)
          << "window " << w;
      held = std::move(next);
    }
    EXPECT_EQ(held->At(keys[0].data(), 1), Numeric(6));
    EXPECT_EQ(held->At(keys[1].data(), 1), kOne);
    EXPECT_EQ(held->At(keys[2].data(), 1), kZero);
    EXPECT_EQ(held->size(), static_cast<size_t>(n));
  }
}

TEST(ViewTableTest, EmptyTablesAllocateNoPage) {
  ViewTable v(2);
  v.EnsureIndex({0});
  v.Reserve(100000);
  FrozenViewPtr frozen = FrozenView::Freeze(v);
  EXPECT_TRUE(v.pages().entry_pages.empty());
  EXPECT_TRUE(v.pages().slot_pages.empty());
  EXPECT_EQ(frozen->size(), 0u);
  EXPECT_EQ(frozen->total(), kZero);
  const Key k{Value(1), Value(2)};
  EXPECT_EQ(frozen->At(k.data(), 2), kZero);
  // Cancelling the only entry releases its page again.
  v.Add(k, kOne);
  EXPECT_EQ(v.pages().entry_pages.size(), 1u);
  v.Add(k, Numeric(-1));
  EXPECT_TRUE(v.pages().entry_pages.empty());
  EXPECT_EQ(v.ApproxBytes(), v.ApproxBytesSlow());
}

TEST(ViewTableTest, ToStringRendersEntries) {
  ViewTable v(2);
  v.Add({Value(1), Value("a")}, Numeric(3));
  EXPECT_EQ(v.ToString(), "{[1, a] -> 3}");
}

}  // namespace
}  // namespace runtime
}  // namespace ringdb
