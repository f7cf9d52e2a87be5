// Shared pieces of the perfbench binary: run arguments, the result report,
// the fixed workload definitions, and the per-workload entry points.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "loadgen/loadgen.hpp"
#include "stats.hpp"
#include "testbed/testbed.hpp"

namespace perfbench {

namespace testbed = pqtls::testbed;
namespace loadgen = pqtls::loadgen;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = "perfbench/reference";  // reference outputs
  std::string spans_path;                        // traced run: span file
};

/// Metrics, output checks and the attempt tally of one run.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// The median of `samples` as metric `name`, keeping the samples'
  /// quartiles and count as its within-run spread.
  void median_metric(const std::string& name, const std::vector<double>& samples,
                     const std::string& unit);
  /// Record an output check; a failed check marks the run incorrect.
  void check(bool ok, const std::string& what);
  Tally& tally() { return tally_; }
  const Tally& tally() const { return tally_; }
  bool correct() const { return check_failures_.empty(); }

  /// One JSON object: workload, seed, trace, correct, attempted, failed,
  /// metrics (name -> {value, unit}), spread (name -> {q1, q3, n}),
  /// backend, build type, check failures.
  void write_json(std::ostream& os, const RunArgs& args) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  struct Spread {
    double q1, q3;
    std::size_t n;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, Spread> spread_;
  std::vector<std::string> check_failures_;
  Tally tally_;
};

// ---- fixed workload definitions ----

/// Deterministic 64-bit mix of a workload seed with a block index.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

/// hs_pq / hs_resumed: measured-mode, No Emulation kyber768/dilithium3
/// testbed experiment; `resumed` resumes every sample with psk_ke + 0-RTT.
testbed::ExperimentConfig hs_config(const std::string& ka,
                                    const std::string& sa, bool resumed,
                                    int samples, std::uint64_t seed,
                                    testbed::TimeModel time_model);

/// fleet_16x4: the CI fleet configuration (16 servers x 4 cores,
/// least_loaded, Poisson 20k/s plus churn 50:20) for kFleetDuration
/// virtual seconds after a 1 s warm-up.
loadgen::LoadConfig fleet_config(std::uint64_t seed, std::uint32_t shards);

inline constexpr const char* kPqKa = "kyber768";
inline constexpr const char* kPqSa = "dilithium3";
inline constexpr const char* kFleetKa = "kyber512";
inline constexpr const char* kFleetSa = "dilithium2";
inline constexpr const char* kCampaign = "table4a";
inline constexpr const char* kCampaignSa = "rsa:2048";
inline constexpr int kCampaignSamples = 3;
inline constexpr int kCampaignWorkers = 2;
inline constexpr std::uint32_t kFleetShards = 2;
inline constexpr double kFleetDuration = 2.0;  // virtual seconds per block
/// PKI seed of the material every timed window uses (the campaign's base
/// seed, so its rows match the kept reference). Set-up repetitions use
/// kPkiSeed + r so each one builds fresh material past the caches.
inline constexpr std::uint64_t kPkiSeed = 0x715b3d;
/// Seed of the fleet run whose LoadMetrics are kept as a reference.
inline constexpr std::uint64_t kFleetRefSeed = 0x715b3d;

// ---- entry points ----

void run_hs(const RunArgs& args, bool resumed, Report& report);
void run_campaign_workload(const RunArgs& args, Report& report);
void run_fleet_workload(const RunArgs& args, Report& report);
/// The traced run: every per-layer metric, spans written to spans_path.
void run_layers(const RunArgs& args, Report& report);
/// Regenerate the reference outputs kept in args.data_dir.
int write_references(const RunArgs& args);

// ---- helpers shared by the untraced and traced runs ----

/// Median over `reps` set-up repetitions of server_context() for each of
/// `kas` with `sa`; repetition r uses kPkiSeed + r (r = 0 is what the timed
/// window reuses from the cache). Includes the catalog build.
double setup_contexts(const std::vector<std::string>& kas,
                      const std::string& sa, int reps);
/// Distinct KAs of the table4a campaign, in campaign order.
std::vector<std::string> campaign_kas();

/// Reference outputs kept with the benchmark.
std::map<std::string, std::string> load_campaign_reference(
    const std::string& data_dir);
struct FleetReference {
  long long completed = -1, dropped = -1, timed_out = -1;
  double p99 = -1;
  bool operator==(const FleetReference&) const = default;
};
FleetReference load_fleet_reference(const std::string& data_dir);
FleetReference fleet_reference_of(const loadgen::LoadMetrics& m);

/// One campaign pass (cells shuffled by `order_seed`) with every row
/// compared against `reference`.
struct CampaignPass {
  double wall_s = 0;
  int cells = 0;
  int handshakes = 0;
  int failed_cells = 0;  // not ok() or row differs from the reference
  std::vector<double> cell_wall_s;  // per cell, in completion order
  // Totals over every sampled handshake of the pass (wire layer).
  long long samples = 0, packets = 0, bytes = 0, retransmissions = 0;
  std::string first_mismatch;
};
CampaignPass run_campaign_pass(std::uint64_t order_seed,
                               const std::map<std::string, std::string>& reference);

/// Per-handshake wire bytes (client + server) of a modeled-mode run of the
/// same configuration: the value every measured sample must reproduce.
std::size_t modeled_wire_bytes(const std::string& ka, const std::string& sa,
                               bool resumed);

}  // namespace perfbench
