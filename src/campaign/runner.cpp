#include "campaign/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <thread>

#include "crypto/backend/backend.hpp"
#include "loadgen/fleet.hpp"
#include "trace/trace.hpp"

namespace pqtls::campaign {

std::uint64_t derive_cell_seed(std::uint64_t base_seed,
                               std::string_view cell_id) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (char ch : cell_id) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  std::uint64_t z = base_seed ^ h;
  z += 0x9e3779b97f4a7c15ull;  // SplitMix64 finalizer
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

// Cell ids are paths like "x25519/rsa:2048/high-loss-10"; flatten them into
// portable single filenames ("x25519-rsa-2048-high-loss-10"): ':' is not
// allowed in file names on every platform or by every artifact uploader.
std::string trace_file_stem(std::string_view cell_id) {
  std::string stem;
  stem.reserve(cell_id.size());
  for (char ch : cell_id) stem.push_back(ch == '/' || ch == ':' ? '-' : ch);
  return stem;
}

void write_trace_files(const std::filesystem::path& dir,
                       std::string_view cell_id,
                       const trace::Recorder& recorder) {
  std::string stem = trace_file_stem(cell_id);
  std::ofstream jsonl(dir / (stem + ".jsonl"));
  recorder.write_jsonl(jsonl);
  std::ofstream chrome(dir / (stem + ".trace.json"));
  recorder.write_chrome_trace(chrome);
}

CellOutcome run_cell(const CampaignSpec& spec, const Cell& cell,
                     const RunnerOptions& opts) {
  CellOutcome out;
  out.campaign = spec.name;
  out.backend = std::string(crypto::backend::active_name());
  out.cell = cell;
  testbed::ExperimentConfig& config = out.cell.config;
  config.seed = derive_cell_seed(opts.base_seed, cell.id);
  config.pki_seed = opts.base_seed;
  config.time_model = opts.time_model;
  if (opts.samples > 0) config.sample_handshakes = opts.samples;
  if (opts.max_cell_seconds > 0) config.max_wall_seconds = opts.max_cell_seconds;
  if (out.cell.loadgen) {
    // Loadgen cells inherit the same scheduling-independent seed derivation
    // and PKI pinning; they always run in virtual time (the sample count
    // and wall budget knobs do not apply).
    out.cell.loadgen->seed = config.seed;
    out.cell.loadgen->pki_seed = opts.base_seed;
  }

  // Traced campaigns record the first sample of every testbed cell; each
  // worker-local recorder is written out right after its cell finishes.
  trace::Recorder recorder;
  bool traced = !opts.trace_dir.empty() && !out.cell.loadgen;
  if (traced) config.trace = &recorder;

  auto t0 = std::chrono::steady_clock::now();
  try {
    if (out.cell.loadgen) {
      out.load = loadgen::run_fleet(*out.cell.loadgen);
      if (!out.load.ok) out.error = "no handshake completed in the window";
    } else {
      out.result = testbed::run_experiment(config);
      if (!out.result.ok)
        out.error = out.result.timed_out
                        ? "cell exceeded its wall-clock budget"
                        : "no handshake sample completed";
      if (traced && !recorder.empty())
        write_trace_files(opts.trace_dir, cell.id, recorder);
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "unknown exception";
  }
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

}  // namespace

int run_campaign(const CampaignSpec& spec, const RunnerOptions& opts,
                 const std::vector<Sink*>& sinks) {
  // Created once, before the pool starts, so workers only ever write
  // distinct per-cell files into an existing directory.
  if (!opts.trace_dir.empty())
    std::filesystem::create_directories(opts.trace_dir);
  for (Sink* sink : sinks) sink->begin(spec, opts);

  const std::size_t n = spec.cells.size();
  // Reorder buffer: workers complete cells in any order; the coordinating
  // thread drains slot i only once it is filled, so sinks observe campaign
  // order (and therefore identical streams) at every worker count.
  std::vector<std::optional<CellOutcome>> done(n);
  std::mutex mu;
  std::condition_variable filled;
  std::atomic<std::size_t> next{0};

  auto work = [&] {
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      CellOutcome outcome = run_cell(spec, spec.cells[i], opts);
      {
        std::lock_guard<std::mutex> lock(mu);
        done[i] = std::move(outcome);
      }
      filled.notify_all();
    }
  };

  std::size_t workers = static_cast<std::size_t>(std::max(1, opts.workers));
  workers = std::min(workers, std::max<std::size_t>(n, 1));
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work);

  int failed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    CellOutcome outcome;
    {
      std::unique_lock<std::mutex> lock(mu);
      filled.wait(lock, [&] { return done[i].has_value(); });
      outcome = std::move(*done[i]);
      done[i].reset();  // free samples early on long campaigns
    }
    if (!outcome.ok()) ++failed;
    if (opts.progress)
      std::fprintf(stderr, "[%zu/%zu] %-40s %s (%.1fs)\n", i + 1, n,
                   outcome.cell.id.c_str(),
                   outcome.ok() ? "ok" : outcome.error.c_str(),
                   outcome.wall_seconds);
    for (Sink* sink : sinks) sink->cell(outcome);
  }
  for (std::thread& t : pool) t.join();

  for (Sink* sink : sinks) sink->finish();
  return failed;
}

}  // namespace pqtls::campaign
