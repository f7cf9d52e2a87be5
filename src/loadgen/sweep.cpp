#include "loadgen/sweep.hpp"

#include <algorithm>
#include <cmath>

#include "loadgen/fleet.hpp"

namespace pqtls::loadgen {

SweepResult run_sweep(const LoadConfig& base, const SweepOptions& options) {
  SweepResult result;
  std::uint64_t pki_seed = base.pki_seed ? base.pki_seed : base.seed;
  const HandshakeProfile& profile =
      calibrated_profile(base.ka, base.sa, pki_seed, /*resumed=*/false,
                         base.chain_profile, base.cert_mode, base.batch);
  result.analytic_capacity = analytic_capacity(base, profile);

  int points = std::max(1, options.points);
  for (int i = 1; i <= points; ++i) {
    SweepPoint point;
    point.config = base;
    if (base.arrival == Arrival::kPoisson) {
      point.config.load_factor = 0;
      point.config.offered_rate = result.analytic_capacity *
                                  options.max_load_factor *
                                  static_cast<double>(i) / points;
    } else {
      // Geometric client ladder 1 .. base.clients.
      double frac = static_cast<double>(i) / points;
      point.config.clients = std::max(
          1, static_cast<int>(std::lround(
                 std::pow(static_cast<double>(std::max(1, base.clients)),
                          frac))));
    }
    point.metrics = run_fleet(point.config);

    const LoadMetrics& m = point.metrics;
    double loss =
        m.arrivals > 0
            ? static_cast<double>(m.dropped + m.timed_out) / m.arrivals
            : 0;
    point.within_slo = m.ok && m.p99 <= options.slo_s &&
                       loss <= options.max_loss_fraction;
    if (point.within_slo && m.offered_rate > result.knee_offered) {
      result.knee_offered = m.offered_rate;
      result.knee_achieved = m.achieved_rate;
      result.knee_p99 = m.p99;
    }
    result.points.push_back(std::move(point));
  }
  return result;
}

}  // namespace pqtls::loadgen
