// Reproduces Table 3: white-box measurements for the paper's selected
// KA/SA pairs — handshake rate, CPU cost per handshake on server and
// client, per-library CPU distribution (libcrypto / kernel / libssl / libc /
// ixgbe / python), and packets sent per handshake.
//
// Runs the "table3" campaign (the paper's eight pairs, white-box) through
// an in-memory sink.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pqtls;
  std::vector<campaign::CellOutcome> outcomes =
      bench::run_measured("table3", argc, argv, 12);

  std::printf("Table 3: white-box measurements (%d sampled handshakes per "
              "row)\n\n",
              outcomes.front().cell.config.sample_handshakes);
  std::printf("%-4s %-15s %-17s %6s | %9s %9s | %8s %8s\n", "Lvl", "KA", "SA",
              "HS[1/s]", "SrvCPU ms", "CliCPU ms", "SrvPkts", "CliPkts");

  const crypto::AlgorithmCatalog& catalog = crypto::AlgorithmCatalog::instance();
  std::vector<const testbed::ExperimentResult*> results;
  for (const auto& o : outcomes) {
    const std::string& ka = o.cell.config.ka;
    const std::string& sa = o.cell.config.sa;
    // The paper groups levels one and two.
    int level = std::max(catalog.require_kem(ka).table_level,
                         catalog.require_signer(sa).table_level);
    std::string level_label = level <= 2 ? "<=2" : std::to_string(level);
    if (!o.ok()) {
      std::printf("%-4s %-15s %-17s FAILED\n", level_label.c_str(), ka.c_str(),
                  sa.c_str());
      continue;
    }
    const testbed::ExperimentResult& r = o.result;
    std::printf("%-4s %-15s %-17s %6.0f | %9.2f %9.2f | %8.1f %8.1f\n",
                level_label.c_str(), ka.c_str(), sa.c_str(),
                r.handshakes_per_second, r.server_cpu_ms, r.client_cpu_ms,
                r.server_packets, r.client_packets);
    results.push_back(&r);
  }

  std::printf("\nLibrary distribution (%% of CPU time per side)\n");
  std::printf("%-34s | %-42s | %-42s\n", "", "server", "client");
  std::printf("%-15s %-18s |", "KA", "SA");
  for (int side = 0; side < 2; ++side) {
    for (int lib = 0; lib < static_cast<int>(perf::Lib::kCount); ++lib)
      std::printf(" %6.6s", std::string(perf::lib_name(
                                static_cast<perf::Lib>(lib)))
                                .c_str());
    std::printf(" |");
  }
  std::printf("\n");
  for (const testbed::ExperimentResult* r : results) {
    std::printf("%-15s %-18s |", r->ka.c_str(), r->sa.c_str());
    for (int lib = 0; lib < static_cast<int>(perf::Lib::kCount); ++lib)
      std::printf(" %5.1f%%", r->server_shares.share[lib] * 100);
    std::printf(" |");
    for (int lib = 0; lib < static_cast<int>(perf::Lib::kCount); ++lib)
      std::printf(" %5.1f%%", r->client_shares.share[lib] * 100);
    std::printf(" |\n");
  }
  return 0;
}
