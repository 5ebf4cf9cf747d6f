#include "serve/snapshot.h"

#include <unordered_map>

#include "log/crash_point.h"
#include "ring/tuple.h"
#include "runtime/engine.h"
#include "util/check.h"

namespace ringdb {
namespace serve {

namespace {

// Group keys up to this arity are permuted on the stack in Get (larger
// arities fall back to a heap key; grouping columns are few in practice).
constexpr size_t kInlineArity = 4;

}  // namespace

std::shared_ptr<const ResultSnapshot> ResultSnapshot::Build(
    std::shared_ptr<const QueryInfo> info, const runtime::Engine& engine,
    uint64_t version, uint64_t updates_applied) {
  auto snap = std::shared_ptr<ResultSnapshot>(new ResultSnapshot());
  snap->info_ = std::move(info);
  snap->version_ = version;
  snap->updates_applied_ = updates_applied;
  snap->arity_ = snap->info_->group_vars.size();
  // Collect the per-shard FrozenViews. In the serving steady state each
  // shard froze its part when it finished its window (under the shard
  // token), so this is pointer collection; stale shards (recovery,
  // publication gaps) are frozen here on the calling thread.
  snap->parts_ = engine.sharded().RootSubSnapshots();
  RINGDB_CRASH_POINT("snapshot_compose");
  return snap;
}

Numeric ResultSnapshot::scalar() const {
  Numeric total = kZero;
  for (const runtime::FrozenViewPtr& part : parts_) total += part->total();
  return total;
}

void ResultSnapshot::EnsureMerged() const {
  std::call_once(merged_once_, [this] {
    std::unordered_map<runtime::Key, Numeric, runtime::KeyHash> merge;
    size_t estimate = 0;
    for (const runtime::FrozenViewPtr& part : parts_) {
      estimate += part->size();
    }
    merge.reserve(estimate);
    for (const runtime::FrozenViewPtr& part : parts_) {
      part->ForEach([&](runtime::KeyView key, Numeric m) {
        auto [it, inserted] = merge.try_emplace(key.ToKey(), m);
        if (!inserted) it->second += m;
      });
    }
    merged_keys_.reserve(merge.size() * arity_);
    merged_values_.reserve(merge.size());
    for (const auto& [key, m] : merge) {
      if (m.IsZero()) continue;  // shard contributions cancelled
      for (const Value& v : key) merged_keys_.push_back(v);
      merged_values_.push_back(m);
    }
  });
}

Numeric ResultSnapshot::AtRootKey(const Value* key, size_t n) const {
  RINGDB_CHECK_EQ(n, arity_);
  Numeric sum = kZero;
  for (const runtime::FrozenViewPtr& part : parts_) {
    sum += part->At(key, n);
  }
  return sum;
}

Numeric ResultSnapshot::Get(const std::vector<Value>& group_values) const {
  RINGDB_CHECK_EQ(group_values.size(), arity_);
  if (arity_ == 0) return scalar();
  const std::vector<size_t>& order = info_->key_order;
  if (arity_ <= kInlineArity) {
    Value key[kInlineArity];
    for (size_t i = 0; i < arity_; ++i) key[order[i]] = group_values[i];
    return AtRootKey(key, arity_);
  }
  runtime::Key key(arity_);
  for (size_t i = 0; i < arity_; ++i) key[order[i]] = group_values[i];
  return AtRootKey(key.data(), arity_);
}

ring::Gmr ResultSnapshot::ToGmr() const {
  ring::Gmr out;
  const std::vector<Symbol>& group_vars = info_->group_vars;
  const std::vector<size_t>& order = info_->key_order;
  out.Reserve(size());
  ForEach([&](runtime::KeyView key, Numeric m) {
    std::vector<ring::Tuple::Field> fields;
    fields.reserve(group_vars.size());
    for (size_t i = 0; i < group_vars.size(); ++i) {
      fields.emplace_back(group_vars[i], key[order[i]]);
    }
    out.Add(ring::Tuple::FromFields(std::move(fields)), m);
  });
  return out;
}

}  // namespace serve
}  // namespace ringdb
