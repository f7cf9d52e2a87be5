// Self-tests of the benchmark's statistics: median and quartiles, the
// "at least ten samples beyond" percentile rule and the reported tail, span
// self time with overlapping children, and the attempt/failure tally.
// Exit code 0 = pass.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_median_and_quartiles() {
  using perfbench::median;
  using perfbench::quartiles;
  expect(median({}) == 0, "median of nothing is 0");
  expect(median({3, 1, 2}) == 2, "odd median");
  expect(median({4, 1, 3, 2}) == 2.5, "even median");
  // Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  auto q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expect(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25),
         "quartiles of 1..10");
  // Python: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  q = quartiles({2, 1});
  expect(near(q[0], 0.75) && near(q[1], 1.5) && near(q[2], 2.25),
         "quartiles of two values extrapolate like Python");
  // Python: statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
  q = quartiles({5, 1, 4, 2, 3});
  expect(near(q[0], 1.5) && near(q[1], 3.0) && near(q[2], 4.5),
         "quartiles of five values");
}

void test_tail_percentile_rule() {
  using perfbench::min_samples_for;
  using perfbench::tail_percentile;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  auto p99 = tail_percentile(v, 99);
  expect(p99.has_value() && *p99 == 990, "p99 of 1..1000 is 990, 10 beyond");
  v.pop_back();
  expect(!tail_percentile(v, 99).has_value(),
         "p99 of 999 samples has only 9 beyond");
  expect(min_samples_for(99) == 1000, "p99 needs 1000 samples");
  expect(min_samples_for(50) == 20, "p50 needs 20 samples for 10 beyond");
  expect(min_samples_for(99, 0) == 1, "no rule: one sample is enough");
  auto p50 = tail_percentile({5, 1, 4, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                              15, 16, 17, 18, 19, 20},
                             50);
  expect(p50.has_value() && *p50 == 10, "nearest-rank p50 of 1..20");
  expect(!tail_percentile({}, 50, 0).has_value(), "empty input has no tail");

  using perfbench::reported_tail;
  v.push_back(1000);  // 1..1000 again
  expect(reported_tail(v) == 990.0, "reported tail is p99 from 1000 samples");
  std::vector<double> small;
  for (int i = 1; i <= 60; ++i) small.push_back(i);
  expect(reported_tail(small) == 50.0,
         "below 1000 samples: the 11th largest, ten beyond it");
  small.resize(10);
  expect(!reported_tail(small).has_value(), "ten samples have no tail");
}

perfbench::Span span(std::uint64_t id, std::uint64_t parent, std::int64_t s,
                     std::int64_t e) {
  perfbench::Span out;
  out.id = id;
  out.parent = parent;
  out.start_ns = s;
  out.end_ns = e;
  return out;
}

void test_self_time() {
  using perfbench::self_time_ns;
  auto parent = span(1, 0, 0, 100);
  expect(self_time_ns(parent, {}) == 100, "no children: all self");
  expect(self_time_ns(parent, {span(2, 1, 10, 20), span(3, 1, 30, 50)}) == 70,
         "disjoint children");
  // Overlapping children (e.g. two campaign workers): 10..40 covered once.
  expect(self_time_ns(parent, {span(2, 1, 10, 30), span(3, 1, 20, 40)}) == 70,
         "overlapping children are not double counted");
  expect(self_time_ns(parent, {span(2, 1, 10, 40), span(3, 1, 20, 30)}) == 70,
         "nested child inside another child");
  expect(self_time_ns(parent, {span(2, 1, -10, 10), span(3, 1, 90, 120)}) ==
             80,
         "children sticking out of the parent count only inside it");

  perfbench::SpanRecorder rec;
  auto root = rec.begin("hs", 7);
  auto flight = rec.begin("tls.flight");
  auto op = rec.begin("kem.encaps");
  rec.end(op);
  rec.end(flight);
  rec.end(root);
  const auto& spans = rec.spans();
  expect(spans.size() == 3 && spans[1].parent == spans[0].id &&
             spans[2].parent == spans[1].id,
         "nested begin makes a child");
  expect(spans[2].request == 7, "descendants inherit the request id");
  auto self = rec.child_self_time_per_request("hs");
  expect(self.size() == 1 &&
             self[0] == static_cast<double>(spans[1].duration_ns() -
                                            spans[2].duration_ns()),
         "per-request self time: flight time minus the op inside it");
  std::ostringstream os;
  rec.write_jsonl(os);
  expect(os.str().find("\"name\":\"tls.flight\"") != std::string::npos &&
             os.str().find("\"request\":7") != std::string::npos,
         "span file carries name and request id");
}

void test_tally() {
  perfbench::Tally t;
  expect(t.fail_ratio() == 0 && t.ok_ratio() == 0, "empty tally");
  t.add(true);
  t.add(false);
  t.add(10, 1);
  expect(t.attempted == 12 && t.failed == 2, "tally counts attempts");
  expect(near(t.fail_ratio(), 2.0 / 12) && near(t.ok_ratio(), 10.0 / 12),
         "fail and ok ratios");
  t.add(3, 5);
  expect(t.failed == 5, "failures never exceed attempts");
}

}  // namespace

int main() {
  test_median_and_quartiles();
  test_tail_percentile_rule();
  test_self_time();
  test_tally();
  if (failures) {
    std::fprintf(stderr, "%d self-test failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
