// Shared helpers for the table/figure reproduction binaries. The algorithm
// matrix itself lives in src/campaign/matrix.hpp and the cell matrices in
// src/campaign/campaign.cpp; the paper's tables without extra analysis run
// straight through `pqtls_campaign <name> --measured`.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "campaign/matrix.hpp"
#include "campaign/options.hpp"
#include "campaign/runner.hpp"
#include "campaign/sinks.hpp"
#include "crypto/catalog.hpp"
#include "testbed/testbed.hpp"

namespace pqtls::bench {

/// Sample count per configuration; override with argv[1] or PQTLS_SAMPLES.
/// Malformed overrides warn on stderr and keep `fallback` (never the old
/// silent atoi-zero).
inline int sample_count(int argc, char** argv, int fallback) {
  if (argc > 1)
    return campaign::positive_int_or(argv[1], fallback,
                                     "sample count (argv[1])");
  return campaign::env_samples(fallback);
}

/// Run a named campaign on the paper-fidelity measured clock and return
/// every cell outcome in campaign order: sample count from argv[1] or
/// PQTLS_SAMPLES (default `default_samples`), workers from PQTLS_WORKERS
/// (default 1). Failed cells come back with ok() false.
inline std::vector<campaign::CellOutcome> run_measured(
    const char* campaign_name, int argc, char** argv, int default_samples) {
  campaign::RunnerOptions opts;
  opts.samples = sample_count(argc, argv, default_samples);
  opts.workers = campaign::env_workers(1);
  opts.time_model = testbed::TimeModel::kMeasured;
  campaign::CollectSink collect;
  campaign::run_campaign(*campaign::find_campaign(campaign_name), opts,
                         {&collect});
  return collect.outcomes();
}

/// Render a proportional ASCII bar (the paper's tables embed bar charts).
inline std::string bar(double value, double max_value, int width = 12) {
  if (max_value <= 0) return "";
  int filled = static_cast<int>(value / max_value * width + 0.5);
  if (filled > width) filled = width;
  std::string out(filled, '#');
  out.resize(width, ' ');
  return out;
}

}  // namespace pqtls::bench
