#include "reference.h"

#include <utility>

#include "baseline/baselines.h"
#include "sql/translate.h"
#include "util/symbol.h"

namespace perfbench {

using ringdb::Symbol;
using ringdb::ring::Update;

const char* const kRevenueSql =
    "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
    "WHERE o.okey = l.okey GROUP BY o.ckey";
const char* const kCountSql =
    "SELECT o.ckey, SUM(1) FROM orders o GROUP BY o.ckey";

namespace {

struct PairHash {
  size_t operator()(const std::pair<int64_t, int64_t>& p) const {
    return std::hash<int64_t>()(p.first * 0x9e3779b97f4a7c15LL ^ p.second);
  }
};

bool FitsInt64(__int128 v) {
  return v >= INT64_MIN && v <= INT64_MAX;
}

}  // namespace

Reference ComputeReference(const std::vector<Update>& stream, size_t n) {
  const Symbol orders = Symbol::Intern("orders");
  const Symbol lineitem = Symbol::Intern("lineitem");
  // Net multiplicity per orders tuple, and per-okey lineitem revenue.
  std::unordered_map<std::pair<int64_t, int64_t>, int64_t, PairHash> order_mult;
  std::unordered_map<int64_t, __int128> line_sum;
  for (size_t i = 0; i < n && i < stream.size(); ++i) {
    const Update& u = stream[i];
    const int64_t m = u.sign == Update::Sign::kInsert ? 1 : -1;
    if (u.relation == orders) {
      order_mult[{u.values[0].AsInt(), u.values[1].AsInt()}] += m;
    } else if (u.relation == lineitem) {
      line_sum[u.values[0].AsInt()] += static_cast<__int128>(m) *
                                       u.values[1].AsInt() *
                                       u.values[2].AsInt();
    }
  }
  std::unordered_map<int64_t, __int128> revenue;
  std::unordered_map<int64_t, __int128> count;
  for (const auto& [key, m] : order_mult) {
    if (m == 0) continue;
    count[key.second] += m;
    auto it = line_sum.find(key.first);
    if (it != line_sum.end()) revenue[key.second] += m * it->second;
  }
  Reference ref;
  for (const auto& [sums, out] : {std::make_pair(&revenue, &ref.revenue),
                                   std::make_pair(&count, &ref.count)}) {
    for (const auto& [ckey, v] : *sums) {
      if (v == 0) continue;
      if (!FitsInt64(v)) ref.representable = false;
      (*out)[ckey] = static_cast<int64_t>(v);
    }
  }
  return ref;
}

Grouped FromGmr(const ringdb::ring::Gmr& gmr, bool* ok) {
  Grouped out;
  for (const auto& [tuple, m] : gmr.support()) {
    if (m.IsZero()) continue;
    if (tuple.size() != 1 || !tuple.fields()[0].second.is_int() ||
        !m.is_integer()) {
      *ok = false;
      continue;
    }
    out[tuple.fields()[0].second.AsInt()] = m.AsInt();
  }
  return out;
}

std::string Diff(const Grouped& got, const Grouped& want) {
  for (const auto& [k, v] : want) {
    auto it = got.find(k);
    if (it == got.end() || it->second != v) {
      return "group " + std::to_string(k) + ": want " + std::to_string(v) +
             ", got " +
             (it == got.end() ? std::string("nothing")
                              : std::to_string(it->second));
    }
  }
  if (got.size() != want.size()) {
    for (const auto& [k, v] : got) {
      if (want.count(k) == 0) {
        return "unexpected group " + std::to_string(k) + " = " +
               std::to_string(v);
      }
    }
  }
  return "";
}

std::string CheckReferenceAgainstOracle(const ringdb::ring::Catalog& catalog,
                                        const std::vector<Update>& stream,
                                        size_t prefix) {
  const Reference ref = ComputeReference(stream, prefix);
  if (!ref.representable) return "reference overflowed int64";
  for (const auto& [sql, want] :
       {std::make_pair(kRevenueSql, &ref.revenue),
        std::make_pair(kCountSql, &ref.count)}) {
    auto q = ringdb::sql::TranslateSql(catalog, sql);
    if (!q.ok()) return q.status().ToString();
    ringdb::baseline::NaiveReevaluator oracle(catalog, q->group_vars, q->body);
    for (size_t i = 0; i < prefix && i < stream.size(); ++i) {
      oracle.Load(stream[i]);
    }
    ringdb::Status refreshed = oracle.Refresh();
    if (!refreshed.ok()) return refreshed.ToString();
    bool ok = true;
    const Grouped got = FromGmr(oracle.ResultGmr(), &ok);
    if (!ok) return "oracle result is not integral";
    const std::string diff = Diff(got, *want);
    if (!diff.empty()) return std::string("oracle vs reference: ") + diff;
  }
  return "";
}

}  // namespace perfbench
