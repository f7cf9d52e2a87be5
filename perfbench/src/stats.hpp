// Statistics and span bookkeeping for the benchmark: quartiles, the
// "at least ten samples beyond" tail percentile, failure tallies, and an
// in-memory span recorder with self-time accounting. Self-tested by
// perfbench/tests/stats_test.cpp.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the default 'exclusive' method). Needs at least two values.
std::array<double, 3> quartiles(std::vector<double> values);

/// Nearest-rank percentile `pct` (0 < pct < 100) of `values`, provided at
/// least `min_beyond` samples rank strictly above it; nullopt otherwise.
/// p99 therefore needs at least 1000 samples.
std::optional<double> tail_percentile(std::vector<double> values, double pct,
                                      std::size_t min_beyond = 10);

/// The tail the benchmark reports next to a median: the nearest-rank p99
/// when at least ten samples lie beyond it (1000 or more samples),
/// otherwise the highest percentile that keeps ten samples beyond it (the
/// 11th largest value). nullopt below 11 samples.
std::optional<double> reported_tail(std::vector<double> values);

/// Smallest sample count for which tail_percentile(pct, min_beyond) exists.
std::size_t min_samples_for(double pct, std::size_t min_beyond = 10);

/// Attempt/failure counter behind ok_ratio: an attempt fails when the
/// operation did not complete or any of its output checks mismatched.
struct Tally {
  long long attempted = 0;
  long long failed = 0;

  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// `n` attempts of which `bad` failed (bad is clamped to n).
  void add(long long n, long long bad);
  double fail_ratio() const;
  double ok_ratio() const { return attempted ? 1.0 - fail_ratio() : 0.0; }
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t request = -1;  // -1 = not tied to one request
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Duration of `parent` minus the part of its interval that the union of
/// `children` covers (children may overlap each other or stick out of the
/// parent; only the covered part inside the parent counts).
std::int64_t self_time_ns(const Span& parent, const std::vector<Span>& children);

/// Single-threaded span recorder. Spans nest through an open-span stack, so
/// a span begun while another is open becomes its child. Everything stays in
/// memory until write_jsonl().
class SpanRecorder {
 public:
  std::uint64_t begin(std::string name, std::int64_t request = -1);
  void end(std::uint64_t id);
  /// Record a span measured elsewhere (e.g. on a worker thread) under the
  /// currently open span.
  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t request = -1);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ns) of every closed span named `name`.
  std::vector<double> durations(const std::string& name) const;
  /// For each span named `root`, the summed self time (ns) of its direct
  /// children (e.g. per handshake: flight time not spent in child ops).
  std::vector<double> child_self_time_per_request(const std::string& root) const;

  /// One JSON object per line: id, parent, request, name, start_ns, end_ns.
  void write_jsonl(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indices into spans_
};

/// RAII span on a recorder; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name, std::int64_t request = -1)
      : rec_(rec), id_(rec ? rec->begin(std::move(name), request) : 0) {}
  ~ScopedSpan() {
    if (rec_) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::uint64_t id_;
};

}  // namespace perfbench
