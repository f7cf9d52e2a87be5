// Reproduces the section 5.5 analysis ("PQ TLS for Attack Scenarios"):
// the asymmetry levers an attacker could exploit — the server/client CPU
// cost ratio (algorithmic-complexity attacks) and the server/client data
// amplification factor (spoofed-request reflection; compare QUIC's mandated
// 3x anti-amplification limit). The main lever in both is the choice of SA.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pqtls;
  int samples = bench::sample_count(argc, argv, 8);

  struct Row {
    std::string sa;
    double amplification;
    double cpu_ratio;
  };
  std::vector<Row> rows;

  std::printf("Section 5.5: attack-surface analysis per SA (KA = x25519, %d "
              "samples each)\n\n",
              samples);
  std::printf("%-19s %10s %10s %8s | %9s %9s %8s\n", "SA", "Client(B)",
              "Server(B)", "Amplif.", "SrvCPU ms", "CliCPU ms", "CPUratio");

  for (const auto& sa_row : campaign::table2b_sas()) {
    testbed::ExperimentConfig config;
    config.ka = "x25519";
    config.sa = sa_row.name;
    config.white_box = true;
    config.sample_handshakes = samples;
    auto r = testbed::run_experiment(config);
    if (!r.ok) continue;
    double amp = static_cast<double>(r.server_bytes) /
                 static_cast<double>(r.client_bytes);
    double ratio = r.client_cpu_ms > 0 ? r.server_cpu_ms / r.client_cpu_ms : 0;
    std::printf("%-19s %10zu %10zu %7.1fx | %9.2f %9.2f %7.1fx\n",
                sa_row.name, r.client_bytes, r.server_bytes, amp,
                r.server_cpu_ms, r.client_cpu_ms, ratio);
    rows.push_back({sa_row.name, amp, ratio});
  }

  auto worst_amp = std::max_element(
      rows.begin(), rows.end(),
      [](const Row& a, const Row& b) { return a.amplification < b.amplification; });
  auto worst_cpu = std::max_element(
      rows.begin(), rows.end(),
      [](const Row& a, const Row& b) { return a.cpu_ratio < b.cpu_ratio; });
  if (worst_amp != rows.end() && worst_cpu != rows.end()) {
    std::printf("\nWorst amplification factor: %.1fx (%s); QUIC mandates "
                "at most 3x before address validation.\n",
                worst_amp->amplification, worst_amp->sa.c_str());
    std::printf("Worst server/client CPU asymmetry: %.1fx (%s).\n",
                worst_cpu->cpu_ratio, worst_cpu->sa.c_str());
  }
  return 0;
}
