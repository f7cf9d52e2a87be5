// The four workloads, untraced: set-up, the timed window, and the output
// checks that feed ok_ratio. See perfbench/README.md for why each exists.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "campaign/runner.hpp"
#include "campaign/sinks.hpp"
#include "crypto/backend/backend.hpp"
#include "crypto/catalog.hpp"
#include "crypto/drbg.hpp"
#include "loadgen/fleet.hpp"
#include "tls/server_context.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using pqtls::testbed::TimeModel;
namespace campaign = pqtls::campaign;

namespace {

// High-water RSS of this process image from /proc/self/status (VmHWM).
// getrusage's ru_maxrss is not used: Linux carries the pre-exec image's
// peak over execve, so it would report the launching interpreter's RSS.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return std::nan("");
}

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\' << c;
    else if (static_cast<unsigned char>(c) < 0x20) os << ' ';
    else os << c;
  }
  os << '"';
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Common tail of every untraced run: the metrics a user sees on any workload.
void report_common(Report& report, double setup_s) {
  report.metric("setup_s", setup_s, "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("ok_ratio", report.tally().ok_ratio(), "ratio");
}

/// Latency median and tail. The tail is the p99 where ten samples lie
/// beyond it, else the highest percentile that keeps ten beyond.
void report_latency(Report& report, const std::vector<double>& latency_ms) {
  report.median_metric("hs_latency_ms_p50", latency_ms, "ms");
  report.metric("hs_latency_ms_p99",
                reported_tail(latency_ms).value_or(std::nan("")), "ms");
}

// Extract the "id" field of one campaign JSONL row.
std::string row_id(const std::string& row) {
  const std::string key = "\"id\":\"";
  auto at = row.find(key);
  if (at == std::string::npos) return {};
  at += key.size();
  return row.substr(at, row.find('"', at) - at);
}

// Records each cell's wall time and wire totals as the runner hands it over.
class TimingSink : public campaign::Sink {
 public:
  explicit TimingSink(CampaignPass& pass) : pass_(pass) {}
  void cell(const campaign::CellOutcome& outcome) override {
    ++pass_.cells;
    pass_.cell_wall_s.push_back(outcome.wall_seconds);
    if (!outcome.ok()) ++pass_.failed_cells;
    for (const auto& s : outcome.result.samples) {
      ++pass_.samples;
      pass_.packets += static_cast<long long>(s.client_packets + s.server_packets);
      pass_.bytes += static_cast<long long>(s.client_bytes + s.server_bytes);
      pass_.retransmissions += static_cast<long long>(
          s.client_retransmissions + s.server_retransmissions);
    }
    pass_.handshakes += static_cast<int>(outcome.result.samples.size());
  }

 private:
  CampaignPass& pass_;
};

}  // namespace

// ---- Report ----

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
  if (!std::isfinite(value)) check(false, name + " is not a finite number");
}

void Report::median_metric(const std::string& name,
                           const std::vector<double>& samples,
                           const std::string& unit) {
  metric(name, median(samples), unit);
  if (samples.size() >= 2) {
    auto q = quartiles(samples);
    spread_[name] = Spread{q[0], q[2], samples.size()};
  }
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) check_failures_.push_back(what);
}

void Report::write_json(std::ostream& os, const RunArgs& args) const {
  os << "{\"workload\":";
  write_json_string(os, args.workload);
  os << ",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
     << ",\"correct\":" << (correct() ? "true" : "false")
     << ",\"attempted\":" << tally_.attempted << ",\"failed\":"
     << tally_.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, name);
    os << ":{\"value\":"
       << (std::isfinite(v.value) ? json_number(v.value) : "null")
       << ",\"unit\":";
    write_json_string(os, v.unit);
    os << '}';
  }
  os << "},\"spread\":{";
  first = true;
  for (const auto& [name, q] : spread_) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, name);
    os << ":{\"q1\":" << json_number(q.q1) << ",\"q3\":" << json_number(q.q3)
       << ",\"n\":" << q.n << '}';
  }
  os << "},\"backend\":";
  write_json_string(os, std::string(pqtls::crypto::backend::active_name()));
  os << ",\"build_type\":";
  write_json_string(os, PERFBENCH_BUILD_TYPE);
  os << ",\"check_failures\":[";
  for (std::size_t i = 0; i < check_failures_.size(); ++i) {
    if (i) os << ',';
    write_json_string(os, check_failures_[i]);
  }
  os << "]}\n";
}

// ---- definitions ----

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  // SplitMix64 finalizer over (seed, index).
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

testbed::ExperimentConfig hs_config(const std::string& ka,
                                    const std::string& sa, bool resumed,
                                    int samples, std::uint64_t seed,
                                    TimeModel time_model) {
  testbed::ExperimentConfig c;
  c.ka = ka;
  c.sa = sa;
  c.sample_handshakes = samples;
  c.seed = seed;
  c.pki_seed = kPkiSeed;
  c.time_model = time_model;
  if (resumed) {
    c.resumption_ratio = 1.0;
    c.early_data = true;
    c.psk_only_resumption = true;
  }
  return c;
}

loadgen::LoadConfig fleet_config(std::uint64_t seed, std::uint32_t shards) {
  loadgen::LoadConfig c;
  c.ka = kFleetKa;
  c.sa = kFleetSa;
  c.arrival = loadgen::Arrival::kPoisson;
  c.offered_rate = 20000;
  c.servers = 16;
  c.cores = 4;
  c.balancer = loadgen::BalancerKind::kLeastLoaded;
  c.churn_rate = 50;
  c.churn_lifetime_s = 20;
  c.warmup_s = 1;
  c.duration_s = kFleetDuration;
  c.seed = seed;
  c.pki_seed = kPkiSeed;
  c.shards = shards;
  return c;
}

double setup_contexts(const std::vector<std::string>& kas,
                      const std::string& sa, int reps) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    std::int64_t t0 = now_ns();
    const auto& catalog = pqtls::crypto::AlgorithmCatalog::instance();
    const auto* signer = catalog.require_signer(sa).signer;
    for (const auto& ka : kas)
      pqtls::tls::server_context(*catalog.require_kem(ka).kem, *signer,
                                 kPkiSeed + static_cast<std::uint64_t>(r));
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

std::vector<std::string> campaign_kas() {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const auto& cell : campaign::find_campaign(kCampaign)->cells)
    if (seen.insert(cell.config.ka).second) out.push_back(cell.config.ka);
  return out;
}

std::size_t modeled_wire_bytes(const std::string& ka, const std::string& sa,
                               bool resumed) {
  auto r = testbed::run_experiment(
      hs_config(ka, sa, resumed, 2, kPkiSeed, TimeModel::kModeled));
  if (!r.ok || r.samples.size() != 2) return 0;
  std::size_t a = r.samples[0].client_bytes + r.samples[0].server_bytes;
  std::size_t b = r.samples[1].client_bytes + r.samples[1].server_bytes;
  return a == b ? a : 0;
}

std::map<std::string, std::string> load_campaign_reference(
    const std::string& data_dir) {
  std::map<std::string, std::string> out;
  std::ifstream in(data_dir + "/table4a_rows.jsonl");
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) out[row_id(line)] = line;
  return out;
}

FleetReference fleet_reference_of(const loadgen::LoadMetrics& m) {
  return FleetReference{m.completed, m.dropped, m.timed_out, m.p99};
}

FleetReference load_fleet_reference(const std::string& data_dir) {
  FleetReference ref;
  std::ifstream in(data_dir + "/fleet_16x4.txt");
  for (std::string key, value; in >> key >> value;) {
    if (key == "completed") ref.completed = std::stoll(value);
    else if (key == "dropped") ref.dropped = std::stoll(value);
    else if (key == "timed_out") ref.timed_out = std::stoll(value);
    else if (key == "p99_s") ref.p99 = std::strtod(value.c_str(), nullptr);
  }
  return ref;
}

CampaignPass run_campaign_pass(
    std::uint64_t order_seed,
    const std::map<std::string, std::string>& reference) {
  campaign::CampaignSpec spec = *campaign::find_campaign(kCampaign);
  // The seed only reorders cells: each row depends on (base seed, cell id)
  // alone, so every order must reproduce the reference rows. Cells move
  // only within their KA's run of scenarios, which cost about the same, so
  // the order leaves the workers' load balance (and the pass time) alone.
  pqtls::crypto::Drbg rng(order_seed);
  auto& cells = spec.cells;
  for (std::size_t begin = 0, end = 0; begin < cells.size(); begin = end) {
    while (end < cells.size() && cells[end].config.ka == cells[begin].config.ka)
      ++end;
    for (std::size_t i = end - begin; i > 1; --i)
      std::swap(cells[begin + i - 1], cells[begin + rng.uniform(i)]);
  }

  campaign::RunnerOptions opts;
  opts.workers = kCampaignWorkers;
  opts.samples = kCampaignSamples;
  opts.base_seed = kPkiSeed;

  CampaignPass pass;
  std::ostringstream rows;
  campaign::JsonlSink jsonl(rows);
  TimingSink timing(pass);
  std::int64_t t0 = now_ns();
  campaign::run_campaign(spec, opts, {&jsonl, &timing});
  pass.wall_s = seconds_since(t0);

  std::istringstream in(rows.str());
  for (std::string line; std::getline(in, line);) {
    auto it = reference.find(row_id(line));
    if (it == reference.end() || it->second != line) {
      ++pass.failed_cells;
      if (pass.first_mismatch.empty()) pass.first_mismatch = line;
    }
  }
  return pass;
}

// ---- workloads ----

void run_hs(const RunArgs& args, bool resumed, Report& report) {
  constexpr int kSetupReps = 25;
  // Blocks of sequential handshakes; one block is one testbed experiment.
  const int block = resumed ? 250 : 25;
  double setup_s = setup_contexts({kPqKa}, kPqSa, kSetupReps);

  const std::size_t want_bytes = modeled_wire_bytes(kPqKa, kPqSa, resumed);
  report.check(want_bytes > 0, "modeled reference run failed");
  if (resumed) {
    // Equal bytes to the resumed modeled run, which carries no certificate
    // flight, is what shows that a measured sample really resumed.
    std::size_t full = modeled_wire_bytes(kPqKa, kPqSa, false);
    report.check(want_bytes < full, "resumed handshakes are not smaller");
  }

  std::vector<double> latency_ms, block_rate;
  const std::size_t min_samples = min_samples_for(99);
  std::int64_t t_start = now_ns();
  for (std::uint64_t b = 0;; ++b) {
    std::int64_t t0 = now_ns();
    auto r = testbed::run_experiment(hs_config(
        kPqKa, kPqSa, resumed, block, mix_seed(args.seed, b),
        TimeModel::kMeasured));
    double wall = seconds_since(t0);
    long long bad = block - static_cast<long long>(r.samples.size());
    for (const auto& s : r.samples) {
      latency_ms.push_back(s.total * 1e3);
      if (s.client_bytes + s.server_bytes != want_bytes) ++bad;
    }
    report.tally().add(block, bad);
    block_rate.push_back(static_cast<double>(r.samples.size()) / wall);
    double elapsed = seconds_since(t_start);
    if ((elapsed >= args.seconds && latency_ms.size() >= min_samples) ||
        elapsed >= 4 * args.seconds)
      break;
  }
  report.check(report.tally().failed == 0,
               std::to_string(report.tally().failed) +
                   " handshakes failed or differ from the modeled wire bytes");

  report.median_metric("handshakes_per_s", block_rate, "hs/s");
  report_latency(report, latency_ms);
  report_common(report, setup_s);
}

void run_campaign_workload(const RunArgs& args, Report& report) {
  constexpr int kSetupReps = 3;
  double setup_s = setup_contexts(campaign_kas(), kCampaignSa, kSetupReps);
  auto reference = load_campaign_reference(args.data_dir);
  report.check(!reference.empty(), "campaign reference rows missing");

  std::vector<double> hs_rate, cell_ms_per_hs;
  std::int64_t t_start = now_ns();
  for (std::uint64_t p = 0; p == 0 || seconds_since(t_start) < args.seconds;
       ++p) {
    CampaignPass pass = run_campaign_pass(mix_seed(args.seed, p), reference);
    report.tally().add(pass.cells, pass.failed_cells);
    report.check(pass.failed_cells == 0,
                 "campaign row differs from the reference: " +
                     pass.first_mismatch);
    report.check(pass.cells == static_cast<int>(reference.size()),
                 "campaign ran " + std::to_string(pass.cells) + " cells");
    hs_rate.push_back(pass.handshakes / pass.wall_s);
    for (double w : pass.cell_wall_s)
      cell_ms_per_hs.push_back(w * 1e3 / kCampaignSamples);
    std::printf("campaign pass %llu: %d cells in %.3f s = %.2f cells/s\n",
                static_cast<unsigned long long>(p), pass.cells, pass.wall_s,
                pass.cells / pass.wall_s);
  }

  report.median_metric("handshakes_per_s", hs_rate, "hs/s");
  // The rows' latencies are modeled, the same bytes every run; the
  // wall-clock latency here is each cell's time per handshake.
  report_latency(report, cell_ms_per_hs);
  report_common(report, setup_s);
}

void run_fleet_workload(const RunArgs& args, Report& report) {
  constexpr int kSetupReps = 25;
  std::vector<double> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    std::int64_t t0 = now_ns();
    loadgen::calibrated_profile(kFleetKa, kFleetSa,
                                kPkiSeed + static_cast<std::uint64_t>(r));
    setup.push_back(seconds_since(t0));
  }

  std::vector<double> hs_rate, events_rate, block_ms;
  // At least 11 blocks, so the latency tail has ten beyond it.
  constexpr std::size_t kMinBlocks = 11;
  std::int64_t t_start = now_ns();
  for (std::uint64_t b = 0;
       block_ms.size() < kMinBlocks || seconds_since(t_start) < args.seconds;
       ++b) {
    std::int64_t t0 = now_ns();
    auto m = loadgen::run_fleet(fleet_config(mix_seed(args.seed, b), 1));
    double wall = seconds_since(t0);
    report.tally().add(m.ok);
    hs_rate.push_back(static_cast<double>(m.completed) / wall);
    events_rate.push_back(static_cast<double>(m.sim_events) / wall);
    block_ms.push_back(wall * 1e3);
  }
  report.check(report.tally().failed == 0, "a fleet run completed nothing");

  // The reference run: fixed seed, compared with the kept LoadMetrics.
  auto ref = load_fleet_reference(args.data_dir);
  auto got = fleet_reference_of(
      loadgen::run_fleet(fleet_config(kFleetRefSeed, kFleetShards)));
  report.tally().add(got == ref);
  report.check(got == ref, "fleet reference LoadMetrics differ");

  std::printf("fleet: %.0f events/s (median of %zu blocks)\n",
              median(events_rate), events_rate.size());
  report.median_metric("handshakes_per_s", hs_rate, "hs/s");
  // The simulated handshake latencies are outputs, identical from run to
  // run; the wall-clock latency this workload has is one fleet run's.
  report_latency(report, block_ms);
  report_common(report, median(setup));
}

int write_references(const RunArgs& args) {
  // Campaign rows at one worker: the runner promises the same bytes at any
  // worker count and in any cell order, which the timed passes check.
  campaign::RunnerOptions opts;
  opts.workers = 1;
  opts.samples = kCampaignSamples;
  opts.base_seed = kPkiSeed;
  std::ofstream rows(args.data_dir + "/table4a_rows.jsonl");
  campaign::JsonlSink jsonl(rows);
  int failed = campaign::run_campaign(*campaign::find_campaign(kCampaign), opts,
                                      {&jsonl});

  auto m = loadgen::run_fleet(fleet_config(kFleetRefSeed, 1));
  std::ofstream fleet(args.data_dir + "/fleet_16x4.txt");
  fleet << "completed " << m.completed << "\ndropped " << m.dropped
        << "\ntimed_out " << m.timed_out << "\np99_s " << json_number(m.p99)
        << "\n";
  return failed == 0 && m.ok ? 0 : 1;
}

}  // namespace perfbench
