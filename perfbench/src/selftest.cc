// Self-tests for the benchmark's own helpers: the percentile rule,
// open-loop due-time accounting, span self time, and the reference join
// against the AGCA oracle. Run with `python3 perfbench/run.py --selftest`.

#include <cstdio>
#include <string>
#include <vector>

#include "reference.h"
#include "stats.h"
#include "workload/stream.h"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void TestPercentileRule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted
  Expect(Quantile(v, 0.5) == 50, "median of 1..100 is 50 (nearest rank)");
  Expect(Quantile(v, 0.99) == 99, "p99 of 1..100 is 99");
  Expect(Quantile(v, 1.0) == 100, "p100 is the max");
  Expect(SamplesBeyond(1000, 0.99) == 10, "p99 of 1000 has 10 beyond");
  Expect(SamplesBeyond(999, 0.99) == 9, "p99 of 999 has 9 beyond");
  Expect(TailLevel(19) == 0.0, "19 samples support no percentile");
  Expect(TailLevel(20) == 0.5, "20 samples support the median");
  Expect(TailLevel(100) == 0.9, "100 samples support p90");
  Expect(TailLevel(999) == 0.9, "999 samples do not support p99");
  Expect(TailLevel(1000) == 0.99, "1000 samples support p99");
  Expect(TailLevel(10000) == 0.999, "10000 samples support p99.9");
  std::vector<double> big;
  for (int i = 0; i < 2000; ++i) big.push_back(i);
  const Summary s = Summarize(big);
  Expect(s.n == 2000 && s.p50 == 999 && s.p99 == 1979 && s.p99_supported,
         "Summarize reports n, p50 and p99 of 0..1999");
  Expect(s.tail_level == 0.99 && s.max == 1999,
         "Summarize's tail of 2000 samples is p99");
  Expect(!Summarize({1, 2, 3}).p99_supported,
         "a p99 of three samples is flagged unsupported");
}

void TestOpenLoop() {
  // 1000 ops/s from t=1s: op i is due at 1s + i ms, whatever happened
  // before it.
  OpenLoop loop(1000000000, 1000.0);
  Expect(loop.Due(0) == 1000000000 && loop.Due(3) == 1003000000,
         "due times follow the fixed rate");
  // A generator that starts each op at max(due, previous end); every op
  // takes 0.1 ms except op 2, which stalls for 5 ms.
  uint64_t prev_end = 0;
  for (uint64_t i = 0; i < 10; ++i) {
    const uint64_t start = std::max(loop.Due(i), prev_end);
    const uint64_t end = start + (i == 2 ? 5000000 : 100000);
    loop.Record(i, start, end);
    prev_end = end;
  }
  Expect(loop.late_ns[2] == 0 && loop.latency_ns[2] == 5000000,
         "the stalled op is on time and pays its own stall");
  // Op 3 was due at 1003 ms, started at 1007 ms (when op 2 ended), ended
  // at 1007.1 ms: 4 ms late, 4.1 ms latency from its due time.
  Expect(loop.late_ns[3] == 4000000, "the next op is late by the backlog");
  Expect(loop.latency_ns[3] == 4100000,
         "latency is charged from the due time, not the start");
  // The backlog drains 0.9 ms per op: op 7 starts at 1007.4 ms, on time.
  Expect(loop.late_ns[6] == 1300000 && loop.late_ns[7] == 400000 &&
             loop.late_ns[8] == 0,
         "lateness shrinks as the backlog drains");
  Expect(loop.latency_ns[9] == 100000, "after the backlog only service time");
}

void TestSelfTime() {
  const Interval span{100, 200};
  Expect(SelfNs(span, {}) == 100, "a span without children is all self");
  Expect(SelfNs(span, {{110, 130}, {120, 150}}) == 60,
         "overlapping children count once");
  Expect(SelfNs(span, {{50, 120}, {190, 260}}) == 70,
         "children are clipped to the span");
  Expect(SelfNs(span, {{300, 400}}) == 100, "disjoint children do not count");
  Expect(CoveredNs({{0, 10}, {5, 20}, {30, 40}}, 0, 100) == 30,
         "covered length is the union");
}

void TestReferenceAgainstOracle() {
  const ringdb::ring::Catalog catalog = ringdb::workload::OrdersSchema();
  for (double zipf : {0.0, 1.1}) {
    for (uint64_t seed : {1, 2, 3}) {
      ringdb::workload::StreamOptions so;
      so.domain_size = 64;  // small domain: many join partners per okey
      so.zipf_s = zipf;
      so.delete_fraction = 0.15;
      std::vector<ringdb::workload::RelationStream> streams;
      so.seed = seed;
      streams.emplace_back(catalog, ringdb::Symbol::Intern("orders"), so);
      so.seed = seed + 100;
      streams.emplace_back(catalog, ringdb::Symbol::Intern("lineitem"), so);
      ringdb::workload::RoundRobinStream rr(std::move(streams));
      std::vector<ringdb::ring::Update> stream;
      for (int i = 0; i < 3000; ++i) stream.push_back(rr.Next());
      const std::string diff =
          CheckReferenceAgainstOracle(catalog, stream, stream.size());
      Expect(diff.empty(), "reference equals the oracle (zipf " +
                               std::to_string(zipf) + ", seed " +
                               std::to_string(seed) + "): " + diff);
      // The comparison must be able to fail.
      Reference ref = ComputeReference(stream, stream.size());
      Grouped broken = ref.revenue;
      if (!broken.empty()) broken.begin()->second += 1;
      Expect(!Diff(broken, ref.revenue).empty(),
             "a changed group value is reported");
      broken = ref.count;
      broken[1 << 30] = 1;
      Expect(!Diff(broken, ref.count).empty(), "an extra group is reported");
    }
  }
}

}  // namespace

int SelfTest() {
  TestPercentileRule();
  TestOpenLoop();
  TestSelfTime();
  TestReferenceAgainstOracle();
  std::printf("selftest: %s (%d failures)\n", failures == 0 ? "ok" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
