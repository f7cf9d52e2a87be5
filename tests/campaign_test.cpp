// Campaign engine: seed derivation, registry well-formedness, defensive
// option parsing, and the headline guarantee — identical result streams at
// any worker count, with failing or slow cells recorded instead of
// aborting the campaign.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/matrix.hpp"
#include "campaign/options.hpp"
#include "campaign/runner.hpp"
#include "campaign/sinks.hpp"

namespace pqtls::campaign {
namespace {

TEST(CampaignSeed, StableAndDistinct) {
  EXPECT_EQ(derive_cell_seed(1, "x25519/rsa:2048"),
            derive_cell_seed(1, "x25519/rsa:2048"));
  EXPECT_NE(derive_cell_seed(1, "x25519/rsa:2048"),
            derive_cell_seed(1, "kyber512/rsa:2048"));
  EXPECT_NE(derive_cell_seed(1, "x25519/rsa:2048"),
            derive_cell_seed(2, "x25519/rsa:2048"));
}

TEST(CampaignSpecs, WellFormedRegistry) {
  ASSERT_NE(find_campaign("table2a"), nullptr);
  EXPECT_EQ(find_campaign("table2a")->cells.size(), 23u);
  EXPECT_EQ(find_campaign("table2b")->cells.size(), 23u);
  EXPECT_EQ(find_campaign("table3")->cells.size(), 8u);
  EXPECT_EQ(find_campaign("table4a")->cells.size(), 23u * 6u);
  EXPECT_EQ(find_campaign("table4b")->cells.size(), 24u * 6u);
  // fig3 = both bufferings x (level grids 30 + 15 + 16, plus 22 deviation
  // baselines: 6 KAs x rsa:2048 for level 1+2, whose x25519 row is in its
  // grid; 5 + 3 for level 3 and 4 + 4 for level 5, x25519/rsa:2048 shared).
  EXPECT_EQ(find_campaign("fig3")->cells.size(),
            2u * (30u + 15u + 16u + 22u));
  // fig4 = 23 KAs + 23 SAs minus the shared x25519/rsa:2048 cell.
  EXPECT_EQ(find_campaign("fig4")->cells.size(), 45u);
  EXPECT_EQ(find_campaign("nope"), nullptr);

  for (const auto& spec : campaigns()) {
    EXPECT_FALSE(spec.cells.empty()) << spec.name;
    std::set<std::string> ids;
    for (const auto& cell : spec.cells) {
      EXPECT_TRUE(ids.insert(cell.id).second)
          << spec.name << " duplicates " << cell.id;
      EXPECT_FALSE(cell.config.ka.empty());
      EXPECT_FALSE(cell.config.sa.empty());
      EXPECT_GT(cell.config.sample_handshakes, 0);
    }
  }
}

TEST(CampaignSpecs, ArtifactCampaigns) {
  const CampaignSpec* sphincs = find_campaign("sphincs");
  ASSERT_NE(sphincs, nullptr);
  ASSERT_EQ(sphincs->cells.size(), 6u);
  for (const auto& cell : sphincs->cells) {
    EXPECT_EQ(cell.config.ka, "x25519");
    EXPECT_EQ(cell.config.sa.rfind("sphincs", 0), 0u) << cell.id;
    EXPECT_EQ(cell.config.sample_handshakes, 3);
  }

  const CampaignSpec* smoke = find_campaign("trace_smoke");
  ASSERT_NE(smoke, nullptr);
  ASSERT_EQ(smoke->cells.size(), 5u);
  for (const auto& cell : smoke->cells) {
    EXPECT_EQ(cell.scenario, "High Loss (10%)");
    EXPECT_EQ(cell.config.netem.loss, 0.10);
    EXPECT_EQ(cell.config.netem.delay_s, 0.0);
    EXPECT_EQ(cell.config.netem.rate_bps, 0.0);
  }
}

// Figure 3's prediction E(k,s) = M(k, rsa:2048) + M(x25519, s) -
// M(x25519, rsa:2048) needs all three baselines next to every grid cell.
TEST(CampaignSpecs, Fig3CarriesEveryDeviationBaseline) {
  std::set<std::string> ids;
  for (const auto& cell : find_campaign("fig3")->cells) ids.insert(cell.id);
  for (const auto& level : fig3_levels()) {
    for (const char* mode : {"/buffered", "/immediate"}) {
      EXPECT_TRUE(ids.count(std::string("x25519/rsa:2048") + mode));
      for (const char* ka : level.kas) {
        EXPECT_TRUE(ids.count(ka + std::string("/rsa:2048") + mode)) << ka;
        for (const char* sa : level.sas) {
          EXPECT_TRUE(ids.count(std::string("x25519/") + sa + mode)) << sa;
          EXPECT_TRUE(ids.count(std::string(ka) + "/" + sa + mode))
              << ka << "/" << sa;
        }
      }
    }
  }
}

// `all` unions the paper campaigns only. sphincs and trace_smoke reuse some
// table2b/table4a ids at other sample counts, so each `all` cell must match
// the first non-artifact campaign that declares its id.
TEST(CampaignSpecs, AllLeavesOutArtifactCampaigns) {
  std::map<std::string, const Cell*> declared;
  for (const auto& spec : campaigns()) {
    if (spec.name == "all" || spec.name == "sphincs" ||
        spec.name == "trace_smoke")
      continue;
    for (const auto& cell : spec.cells) declared.emplace(cell.id, &cell);
  }
  for (const auto& cell : find_campaign("all")->cells) {
    auto it = declared.find(cell.id);
    ASSERT_NE(it, declared.end()) << cell.id;
    EXPECT_EQ(cell.config.sample_handshakes,
              it->second->config.sample_handshakes)
        << cell.id;
  }
}

TEST(CampaignSpecs, ScenarioSlugs) {
  EXPECT_EQ(scenario_slug("No Emulation"), "no-emulation");
  EXPECT_EQ(scenario_slug("High Loss (10%)"), "high-loss-10");
  EXPECT_EQ(scenario_slug("Low Bandwidth (1 Mbit/s)"),
            "low-bandwidth-1-mbit-s");
  EXPECT_EQ(scenario_slug("5G"), "5g");
}

TEST(CampaignOptions, RejectsNonPositiveInput) {
  EXPECT_EQ(positive_int_or("12", 5, "test"), 12);
  EXPECT_EQ(positive_int_or("abc", 5, "test"), 5);
  EXPECT_EQ(positive_int_or("7abc", 5, "test"), 5);  // trailing garbage
  EXPECT_EQ(positive_int_or("0", 5, "test"), 5);
  EXPECT_EQ(positive_int_or("-3", 5, "test"), 5);
  EXPECT_EQ(positive_int_or("", 5, "test"), 5);
  EXPECT_EQ(positive_int_or(nullptr, 5, "test"), 5);
  EXPECT_EQ(u64_or("0", 9, "test"), 0u);
  EXPECT_EQ(u64_or("junk", 9, "test"), 9u);
  EXPECT_EQ(double_or("2.5", 1, "test"), 2.5);
  EXPECT_EQ(double_or("0", 1, "test"), 0.0);
  EXPECT_EQ(double_or("abc", 1, "test"), 1.0);
  EXPECT_EQ(double_or("2.5s", 1, "test"), 1.0);  // trailing garbage
  EXPECT_EQ(double_or("-1", 1, "test"), 1.0);
  EXPECT_EQ(double_or("", 1, "test"), 1.0);
  EXPECT_EQ(double_or(nullptr, 1, "test"), 1.0);
  // strtod parses these; none is a usable duration, rate or budget.
  EXPECT_EQ(double_or("nan", 1, "test"), 1.0);
  EXPECT_EQ(double_or("-nan", 1, "test"), 1.0);
  EXPECT_EQ(double_or("inf", 1, "test"), 1.0);
  EXPECT_EQ(double_or("1e999", 1, "test"), 1.0);
}

CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.name = "tiny";
  spec.description = "fast 2x2 matrix for tests";
  for (const char* ka : {"x25519", "kyber512"}) {
    for (const char* sa : {"rsa:1024", "dilithium2"}) {
      Cell cell;
      cell.id = std::string(ka) + "/" + sa;
      cell.config.ka = ka;
      cell.config.sa = sa;
      cell.config.sample_handshakes = 2;
      spec.cells.push_back(std::move(cell));
    }
  }
  return spec;
}

std::string run_jsonl(const CampaignSpec& spec, int workers) {
  std::ostringstream out;
  JsonlSink sink(out);
  RunnerOptions opts;  // modeled time: the determinism-bearing default
  opts.workers = workers;
  EXPECT_EQ(run_campaign(spec, opts, {&sink}), 0);
  return out.str();
}

TEST(CampaignRunner, DeterministicAcrossWorkerCounts) {
  CampaignSpec spec = tiny_spec();
  std::string serial = run_jsonl(spec, 1);
  std::string parallel = run_jsonl(spec, 4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(serial.find("\"ok\":false"), std::string::npos);
}

TEST(CampaignRunner, FailingCellDoesNotAbortCampaign) {
  CampaignSpec spec;
  spec.name = "with-failure";
  Cell bad;
  bad.id = "nosuchkem/rsa:1024";
  bad.config.ka = "nosuchkem";
  bad.config.sa = "rsa:1024";
  bad.config.sample_handshakes = 1;
  Cell good;
  good.id = "x25519/rsa:1024";
  good.config.ka = "x25519";
  good.config.sa = "rsa:1024";
  good.config.sample_handshakes = 1;
  spec.cells = {bad, good};

  CollectSink collect;
  RunnerOptions opts;
  opts.workers = 2;
  EXPECT_EQ(run_campaign(spec, opts, {&collect}), 1);

  ASSERT_EQ(collect.outcomes().size(), 2u);
  // Sinks see campaign order, not completion order.
  EXPECT_EQ(collect.outcomes()[0].cell.id, "nosuchkem/rsa:1024");
  EXPECT_FALSE(collect.outcomes()[0].ok());
  EXPECT_NE(collect.outcomes()[0].error.find("unknown algorithm"),
            std::string::npos);
  EXPECT_TRUE(collect.outcomes()[1].ok());
}

TEST(CampaignRunner, CellTimeoutIsRecorded) {
  CampaignSpec spec;
  spec.name = "with-timeout";
  Cell slow;
  slow.id = "x25519/rsa:1024";
  slow.config.ka = "x25519";
  slow.config.sa = "rsa:1024";
  slow.config.sample_handshakes = 50;
  spec.cells = {slow};

  CollectSink collect;
  RunnerOptions opts;
  opts.max_cell_seconds = 1e-9;  // trips at the first between-sample check
  EXPECT_EQ(run_campaign(spec, opts, {&collect}), 1);

  ASSERT_EQ(collect.outcomes().size(), 1u);
  EXPECT_FALSE(collect.outcomes()[0].ok());
  EXPECT_TRUE(collect.outcomes()[0].result.timed_out);
  EXPECT_NE(collect.outcomes()[0].error.find("budget"), std::string::npos);
}

// RunnerOptions::trace_dir: one JSONL + Chrome trace pair per testbed cell,
// none for loadgen cells, portable file names, and rows byte-identical to
// an untraced run.
TEST(CampaignRunner, TraceDirWritesOnePairPerTestbedCell) {
  CampaignSpec spec = tiny_spec();
  spec.cells.resize(2);  // x25519/rsa:1024, x25519/dilithium2
  Cell load;
  load.id = "kyber512/dilithium2/loadgen-0.5x";
  load.config.ka = "kyber512";
  load.config.sa = "dilithium2";
  loadgen::LoadConfig lc;
  lc.ka = "kyber512";
  lc.sa = "dilithium2";
  lc.load_factor = 0.5;
  lc.duration_s = 0.5;
  lc.warmup_s = 0.1;
  load.loadgen = lc;
  spec.cells.push_back(load);

  namespace fs = std::filesystem;
  fs::path dir = fs::path(::testing::TempDir()) / "pqtls-campaign-trace-dir";
  fs::remove_all(dir);
  std::ostringstream traced, untraced;
  JsonlSink traced_sink(traced), untraced_sink(untraced);
  RunnerOptions opts;
  opts.workers = 2;
  EXPECT_EQ(run_campaign(spec, opts, {&untraced_sink}), 0);
  opts.trace_dir = dir.string();
  EXPECT_EQ(run_campaign(spec, opts, {&traced_sink}), 0);
  EXPECT_EQ(traced.str(), untraced.str());

  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find_first_of(":/"), std::string::npos) << name;
    EXPECT_GT(fs::file_size(entry.path()), 0u) << name;
    names.insert(name);
  }
  EXPECT_EQ(names, (std::set<std::string>{
                       "x25519-rsa-1024.jsonl", "x25519-rsa-1024.trace.json",
                       "x25519-dilithium2.jsonl",
                       "x25519-dilithium2.trace.json"}));
  fs::remove_all(dir);
}

TEST(CampaignRunner, SampleOverrideAndSeedPinning) {
  CampaignSpec spec = tiny_spec();
  spec.cells.resize(1);
  CollectSink collect;
  RunnerOptions opts;
  opts.samples = 3;
  opts.base_seed = 99;
  EXPECT_EQ(run_campaign(spec, opts, {&collect}), 0);
  ASSERT_EQ(collect.outcomes().size(), 1u);
  const auto& outcome = collect.outcomes()[0];
  EXPECT_EQ(outcome.result.samples.size(), 3u);
  EXPECT_EQ(outcome.cell.config.seed, derive_cell_seed(99, outcome.cell.id));
  EXPECT_EQ(outcome.cell.config.pki_seed, 99u);
}

}  // namespace
}  // namespace pqtls::campaign
