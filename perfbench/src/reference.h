// Output check: an independent linear hash-join reference for the two
// benchmark queries, and the AGCA-level oracle that checks the reference.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ring/database.h"
#include "ring/gmr.h"

namespace perfbench {

// Grouped query result: ckey -> aggregate, nonzero groups only.
using Grouped = std::unordered_map<int64_t, int64_t>;

// SELECT o.ckey, SUM(l.price*l.qty) ... GROUP BY o.ckey
extern const char* const kRevenueSql;
// SELECT o.ckey, SUM(1) FROM orders o GROUP BY o.ckey
extern const char* const kCountSql;

struct Reference {
  Grouped revenue;
  Grouped count;
  // False when a group's value does not fit int64 (the engine would
  // leave the integer ring there, so no exact comparison is possible).
  bool representable = true;
};

// Final revenue and count over the first n updates of orders(okey, ckey)
// and lineitem(okey, price, qty): one pass folds multiplicities, one
// pass joins orders to per-okey lineitem sums. O(n).
Reference ComputeReference(const std::vector<ringdb::ring::Update>& stream,
                           size_t n);

// A grouped result as exported by the engine (Gmr over one group
// variable). Non-integer values or keys make `ok` false.
Grouped FromGmr(const ringdb::ring::Gmr& gmr, bool* ok);

// "" when equal, else a short description of the first difference.
std::string Diff(const Grouped& got, const Grouped& want);

// Checks ComputeReference against baseline::NaiveReevaluator (full AGCA
// re-evaluation, quadratic in the prefix) for both queries over the
// first `prefix` updates. "" on agreement, else what differed.
std::string CheckReferenceAgainstOracle(
    const ringdb::ring::Catalog& catalog,
    const std::vector<ringdb::ring::Update>& stream, size_t prefix);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
