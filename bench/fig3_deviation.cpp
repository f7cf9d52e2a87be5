// Reproduces Figure 3: the KA/SA independence analysis. For every
// non-hybrid KA x SA combination per NIST level group, take the handshake
// latency under (a) the default OpenSSL buffering behaviour and (b) the
// optimized immediate-push behaviour, compute the deviation from the
// independence prediction E(k,s) - M(k,s), and report the improvement of
// the optimized behaviour (Figure 3c).
//
// Runs the "fig3" campaign (each level group's grid plus its deviation
// baselines, under both bufferings) once through an in-memory sink; all
// three panels read the same medians.
#include <cmath>
#include <cstdio>
#include <map>

#include "analysis/deviation.hpp"
#include "bench_common.hpp"

namespace {

void print_header(const pqtls::campaign::LevelCombos& level) {
  std::printf("  %s:\n", level.label);
  std::printf("  %-14s", "");
  for (const char* sa : level.sas) std::printf(" %14s", sa);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pqtls;
  // Median total latency per buffering mode, keyed by (ka, sa); a failed
  // cell reads NaN.
  std::map<tls::Buffering, analysis::LatencyTable> tables;
  for (const auto& o : bench::run_measured("fig3", argc, argv, 9))
    tables[o.cell.config.buffering][{o.cell.config.ka, o.cell.config.sa}] =
        o.ok() ? o.result.median_total : std::nan("");

  for (auto buffering : {tls::Buffering::kDefault, tls::Buffering::kImmediate}) {
    const char* mode_label = buffering == tls::Buffering::kDefault
                                 ? "Figure 3a: default OpenSSL behaviour"
                                 : "Figure 3b: optimized behaviour";
    std::printf("\n%s (deviation E(k,s) - M(k,s) in ms; positive = "
                "faster than predicted)\n",
                mode_label);

    for (const auto& level : campaign::fig3_levels()) {
      std::vector<std::pair<std::string, std::string>> combos;
      for (const char* ka : level.kas)
        for (const char* sa : level.sas) combos.emplace_back(ka, sa);
      auto cells = analysis::deviation_analysis(tables[buffering], combos);
      print_header(level);
      std::size_t idx = 0;
      for (const char* ka : level.kas) {
        std::printf("  %-14s", ka);
        for (std::size_t s = 0; s < level.sas.size(); ++s)
          std::printf(" %+14.2f", cells[idx++].deviation * 1e3);
        std::printf("\n");
      }
    }
  }

  // Figure 3c: improvement of optimized over default behaviour per combo.
  std::printf("\nFigure 3c: improvement of the optimized behaviour "
              "(M_default - M_optimized in ms; positive = optimized faster)\n");
  const analysis::LatencyTable& def = tables[tls::Buffering::kDefault];
  const analysis::LatencyTable& opt = tables[tls::Buffering::kImmediate];
  for (const auto& level : campaign::fig3_levels()) {
    print_header(level);
    for (const char* ka : level.kas) {
      std::printf("  %-14s", ka);
      for (const char* sa : level.sas)
        std::printf(" %+14.2f", (def.at({ka, sa}) - opt.at({ka, sa})) * 1e3);
      std::printf("\n");
    }
  }
  return 0;
}
