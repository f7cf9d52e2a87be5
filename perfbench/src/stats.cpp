#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/stats.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  return pqtls::analysis::median(std::move(values));
}

std::array<double, 3> quartiles(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n < 2) throw std::invalid_argument("quartiles need two values");
  std::sort(values.begin(), values.end());
  // statistics.quantiles, method='exclusive', n=4.
  const long long m = static_cast<long long>(n) + 1;
  std::array<double, 3> out{};
  for (long long i = 1; i <= 3; ++i) {
    long long j = i * m / 4;
    j = std::clamp<long long>(j, 1, static_cast<long long>(n) - 1);
    long long delta = i * m - j * 4;
    out[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                  values[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return out;
}

namespace {

// 1-based nearest rank ceil(pct/100 * n), robust to pct not being exact in
// binary (0.99 * 1000 must give rank 990, not 991).
std::size_t nearest_rank(double pct, std::size_t n) {
  double exact = pct / 100.0 * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::optional<double> tail_percentile(std::vector<double> values, double pct,
                                      std::size_t min_beyond) {
  const std::size_t n = values.size();
  if (n == 0 || pct <= 0 || pct >= 100) return std::nullopt;
  std::size_t rank = nearest_rank(pct, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::optional<double> reported_tail(std::vector<double> values) {
  if (auto p99 = tail_percentile(values, 99)) return p99;
  const std::size_t n = values.size();
  if (n < 11) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (n - 11), values.end());
  return values[n - 11];
}

std::size_t min_samples_for(double pct, std::size_t min_beyond) {
  std::size_t n = 1;
  while (n - nearest_rank(pct, n) < min_beyond) ++n;
  return n;
}

void Tally::add(long long n, long long bad) {
  attempted += n;
  failed += std::clamp(bad, 0LL, n);
}

double Tally::fail_ratio() const {
  return attempted ? static_cast<double>(failed) /
                         static_cast<double>(attempted)
                   : 0.0;
}

std::int64_t self_time_ns(const Span& parent,
                          const std::vector<Span>& children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const Span& c : children) {
    std::int64_t s = std::max(c.start_ns, parent.start_ns);
    std::int64_t e = std::min(c.end_ns, parent.end_ns);
    if (e > s) iv.emplace_back(s, e);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) covered += cur_e - cur_s;
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) covered += cur_e - cur_s;
  return parent.duration_ns() - covered;
}

std::uint64_t SpanRecorder::begin(std::string name, std::int64_t request) {
  Span span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.request = request;
  if (request < 0 && !open_.empty()) span.request = spans_[open_.back()].request;
  span.name = std::move(name);
  span.start_ns = now_ns();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::end(std::uint64_t id) {
  std::int64_t t = now_ns();
  // Spans close in LIFO order; tolerate a mismatched id by closing down to it.
  while (!open_.empty()) {
    Span& span = spans_[open_.back()];
    open_.pop_back();
    span.end_ns = t;
    if (span.id == id) return;
  }
}

void SpanRecorder::add(std::string name, std::int64_t start_ns,
                       std::int64_t end_ns, std::int64_t request) {
  Span span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.request = request;
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name && s.end_ns >= s.start_ns)
      out.push_back(static_cast<double>(s.duration_ns()));
  return out;
}

namespace {

// Children of every span, indexed by span id (ids are 1-based positions):
// a per-span scan would be quadratic in the span count.
std::vector<std::vector<Span>> children_by_id(const std::vector<Span>& spans) {
  std::vector<std::vector<Span>> kids(spans.size() + 1);
  for (const Span& s : spans)
    if (s.parent) kids[s.parent].push_back(s);
  return kids;
}

}  // namespace

std::vector<double> SpanRecorder::child_self_time_per_request(
    const std::string& root) const {
  auto kids = children_by_id(spans_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name != root) continue;
    std::int64_t sum = 0;
    for (const Span& child : kids[s.id]) sum += self_time_ns(child, kids[child.id]);
    out.push_back(static_cast<double>(sum));
  }
  return out;
}

void SpanRecorder::write_jsonl(std::ostream& os) const {
  for (const Span& s : spans_) {
    os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << "}\n";
  }
}

}  // namespace perfbench
