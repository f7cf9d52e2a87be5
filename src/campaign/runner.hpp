// The campaign execution engine: a fixed-size thread pool pulls cells off a
// shared index, runs each experiment, and a reorder buffer hands completed
// outcomes to the result sinks strictly in cell order. Combined with the
// per-cell seed derivation and the testbed's modeled time mode this makes
// campaign output bit-identical at any worker count.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"

namespace pqtls::campaign {

struct RunnerOptions {
  int workers = 1;
  /// >0: override every cell's sample count (e.g. CI smoke runs).
  int samples = 0;
  /// Campaign identity: cells derive their seeds from this, and PKI
  /// generation is cached under it across all cells.
  std::uint64_t base_seed = 0x715b3d;
  /// Modeled time is the campaign default — it is what makes results
  /// reproducible across runs and worker counts. kMeasured restores the
  /// paper-fidelity wall-time clock.
  testbed::TimeModel time_model = testbed::TimeModel::kModeled;
  /// Per-cell wall-clock budget in seconds (0 = unlimited). A cell over
  /// budget is recorded as timed out; the campaign continues.
  double max_cell_seconds = 0;
  /// Live one-line-per-cell progress on stderr.
  bool progress = false;
  /// When non-empty, record a flight trace of the FIRST sample of every
  /// testbed cell and write `<id>.jsonl` (golden-schema JSONL) plus
  /// `<id>.trace.json` (Chrome trace-event JSON, loadable in Perfetto)
  /// into this directory; `/` and `:` in cell ids become `-`. Empty (the
  /// default) installs no recorder, keeping campaign rows byte-identical
  /// to an untraced run.
  std::string trace_dir;
};

struct CellOutcome {
  std::string campaign;
  /// The cell as executed: config has the derived seed, pinned pki_seed,
  /// time model, and any sample-count override applied.
  Cell cell;
  testbed::ExperimentResult result;
  /// Populated instead of `result` when the cell is a loadgen simulation.
  loadgen::LoadMetrics load;
  /// Resolved crypto backend the cell ran under (backend::active_name()).
  /// Metadata only — never part of the default row bytes, which are
  /// backend-independent; JsonlSink emits it in the opt-in meta line.
  std::string backend;
  std::string error;  // nonempty: what went wrong (exception or no samples)
  double wall_seconds = 0;

  bool ok() const {
    return error.empty() && (cell.loadgen ? load.ok : result.ok);
  }
};

/// Result consumer. Sinks run on the coordinating thread and receive cells
/// strictly in campaign order regardless of completion order.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void begin(const CampaignSpec& spec, const RunnerOptions& opts) {
    (void)spec;
    (void)opts;
  }
  virtual void cell(const CellOutcome& outcome) = 0;
  virtual void finish() {}
};

/// Deterministic per-cell seed: mixes the campaign base seed with a hash of
/// the cell id (FNV-1a 64 through a SplitMix64 finalizer), so a cell's
/// random stream depends only on (base_seed, id) — never on scheduling.
std::uint64_t derive_cell_seed(std::uint64_t base_seed,
                               std::string_view cell_id);

/// Run every cell of `spec` and stream outcomes to `sinks` in cell order.
/// Returns the number of cells that failed or timed out (a failing cell
/// never aborts the campaign).
int run_campaign(const CampaignSpec& spec, const RunnerOptions& opts,
                 const std::vector<Sink*>& sinks);

}  // namespace pqtls::campaign
