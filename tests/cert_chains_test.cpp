// End-to-end certificate-hierarchy subsystem tests: full handshakes over
// N-level chains with per-level signature placement, RFC 8879 compressed
// certificate flights, Merkle-tree certificate mode, server decline and
// post-HRR offer-drop fallbacks, the testbed and loadgen knob gating (the
// default configuration stays bit-identical to the pre-hierarchy engine),
// and the `cert_chains` campaign's golden rows.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/runner.hpp"
#include "campaign/sinks.hpp"
#include "crypto/catalog.hpp"
#include "crypto/drbg.hpp"
#include "loadgen/fleet.hpp"
#include "loadgen/loadgen.hpp"
#include "pki/merkle.hpp"
#include "testbed/testbed.hpp"
#include "tls/connection.hpp"
#include "tls/server_context.hpp"

namespace pqtls {
namespace {

using crypto::AlgorithmCatalog;
using crypto::Drbg;

// Same PKI seed as catalog_test/resumption_test so the expensive server
// contexts are shared through the process-wide cache.
constexpr std::uint64_t kSeed = 0xFEED;

struct WireTotals {
  std::size_t client = 0;
  std::size_t server = 0;
};

// Pump flights between the two endpoints until quiescent. Returns true when
// both sides completed the handshake.
bool pump(tls::ClientConnection& client, tls::ServerConnection& server,
          WireTotals* totals = nullptr) {
  std::vector<Bytes> to_server, to_client;
  client.start([&](BytesView d) {
    if (totals) totals->client += d.size();
    to_server.emplace_back(d.begin(), d.end());
  });
  for (int round = 0; round < 30; ++round) {
    if (to_server.empty() && to_client.empty()) break;
    std::vector<Bytes> in = std::move(to_server);
    to_server.clear();
    for (const Bytes& flight : in)
      server.on_data(flight, [&](BytesView d) {
        if (totals) totals->server += d.size();
        to_client.emplace_back(d.begin(), d.end());
      });
    in = std::move(to_client);
    to_client.clear();
    for (const Bytes& flight : in)
      client.on_data(flight, [&](BytesView d) {
        if (totals) totals->client += d.size();
        to_server.emplace_back(d.begin(), d.end());
      });
  }
  return client.handshake_complete() && server.handshake_complete();
}

// One handshake over `context` with both ends configured for `mode`;
// reports the wire volumes and whether the Merkle path authenticated.
struct ModeRun {
  bool ok = false;
  bool merkle_used = false;
  WireTotals totals;
};

ModeRun run_mode(const tls::ServerContext& context, tls::CertMode client_mode,
                 tls::CertMode server_mode, std::uint64_t rng_seed = 0x2024) {
  tls::ClientConfig ccfg = context.client_config();
  tls::ServerConfig scfg = context.server_config();
  ccfg.cert_mode = client_mode;
  scfg.cert_mode = server_mode;
  if (client_mode == tls::CertMode::kMerkle ||
      server_mode == tls::CertMode::kMerkle) {
    pki::MerkleBundle bundle =
        pki::pin_certificate(context.chain.certificates[0]);
    ccfg.merkle_root = bundle.root;
    scfg.merkle_proof = bundle.proof.encode();
  }
  tls::ClientConnection client(ccfg, Drbg(rng_seed));
  tls::ServerConnection server(scfg, Drbg(rng_seed + 1));
  ModeRun run;
  run.ok = pump(client, server, &run.totals);
  run.merkle_used = client.merkle_used();
  return run;
}

const tls::ServerContext& deep_context(const char* sa = "dilithium2") {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  pki::ChainProfile profile{"int2", "", {sa, sa}};
  return tls::server_context(*catalog.require_kem("kyber512").kem,
                             *catalog.require_signer(sa).signer, profile,
                             kSeed);
}

// ---------------------------------------------------------------------------
// Handshakes over hierarchies and transports.

TEST(CertChainHandshake, DeepChainFullModeCompletes) {
  ModeRun full =
      run_mode(deep_context(), tls::CertMode::kFull, tls::CertMode::kFull);
  ASSERT_TRUE(full.ok);
  EXPECT_FALSE(full.merkle_used);
  // The three-certificate chain dominates the downlink.
  const tls::ServerContext& context = deep_context();
  EXPECT_GT(full.totals.server, context.chain.encode().size());
}

TEST(CertChainHandshake, CompressedModeShrinksServerFlight) {
  ModeRun full =
      run_mode(deep_context(), tls::CertMode::kFull, tls::CertMode::kFull);
  ModeRun compressed = run_mode(deep_context(), tls::CertMode::kCompressed,
                                tls::CertMode::kCompressed);
  ASSERT_TRUE(full.ok);
  ASSERT_TRUE(compressed.ok);
  EXPECT_FALSE(compressed.merkle_used);
  EXPECT_LT(compressed.totals.server, full.totals.server);
  // The offer only adds a few extension bytes to the uplink.
  EXPECT_NEAR(static_cast<double>(compressed.totals.client),
              static_cast<double>(full.totals.client), 16.0);
}

TEST(CertChainHandshake, MerkleModeReplacesChainWithProof) {
  ModeRun full =
      run_mode(deep_context(), tls::CertMode::kFull, tls::CertMode::kFull);
  ModeRun compressed = run_mode(deep_context(), tls::CertMode::kCompressed,
                                tls::CertMode::kCompressed);
  ModeRun merkle = run_mode(deep_context(), tls::CertMode::kMerkle,
                            tls::CertMode::kMerkle);
  ASSERT_TRUE(full.ok);
  ASSERT_TRUE(merkle.ok);
  EXPECT_TRUE(merkle.merkle_used);
  // Intermediates never touch the wire: only the leaf plus a 8x32-byte
  // audit path, well below both the full and the compressed chain.
  EXPECT_LT(merkle.totals.server, compressed.totals.server);
  EXPECT_LT(merkle.totals.server, full.totals.server);
}

TEST(CertChainHandshake, MixedPlacementHierarchyCompletes) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  pki::ChainProfile profile{"dil-int", "dilithium2", {"dilithium2"}};
  const tls::ServerContext& context =
      tls::server_context(*catalog.require_kem("kyber512").kem,
                          *catalog.require_signer("falcon512").signer,
                          profile, kSeed);
  ModeRun full =
      run_mode(context, tls::CertMode::kFull, tls::CertMode::kFull);
  ASSERT_TRUE(full.ok);
  ModeRun merkle =
      run_mode(context, tls::CertMode::kMerkle, tls::CertMode::kMerkle);
  ASSERT_TRUE(merkle.ok);
  EXPECT_TRUE(merkle.merkle_used);
  EXPECT_LT(merkle.totals.server, full.totals.server);
}

TEST(CertChainHandshake, ServerDeclinesOfferWithPlainCertificate) {
  // A client offer against a kFull server falls back to the plain
  // Certificate flight — byte-identical to a no-offer downlink.
  ModeRun baseline =
      run_mode(deep_context(), tls::CertMode::kFull, tls::CertMode::kFull);
  ModeRun declined_compress = run_mode(
      deep_context(), tls::CertMode::kCompressed, tls::CertMode::kFull);
  ModeRun declined_merkle =
      run_mode(deep_context(), tls::CertMode::kMerkle, tls::CertMode::kFull);
  ASSERT_TRUE(baseline.ok);
  ASSERT_TRUE(declined_compress.ok);
  ASSERT_TRUE(declined_merkle.ok);
  EXPECT_FALSE(declined_compress.merkle_used);
  EXPECT_FALSE(declined_merkle.merkle_used);
  EXPECT_EQ(declined_compress.totals.server, baseline.totals.server);
  EXPECT_EQ(declined_merkle.totals.server, baseline.totals.server);
}

TEST(CertChainHandshake, ServerPreferenceWithoutOfferStaysPlain) {
  // The server's preference alone must not change the wire: kCompressed /
  // kMerkle take effect only when the client offered the extension.
  ModeRun baseline =
      run_mode(deep_context(), tls::CertMode::kFull, tls::CertMode::kFull);
  ModeRun srv_compress = run_mode(deep_context(), tls::CertMode::kFull,
                                  tls::CertMode::kCompressed);
  ModeRun srv_merkle =
      run_mode(deep_context(), tls::CertMode::kFull, tls::CertMode::kMerkle);
  ASSERT_TRUE(baseline.ok);
  ASSERT_TRUE(srv_compress.ok);
  ASSERT_TRUE(srv_merkle.ok);
  EXPECT_EQ(srv_compress.totals.server, baseline.totals.server);
  EXPECT_EQ(srv_merkle.totals.server, baseline.totals.server);
}

TEST(CertChainHandshake, HrrDropsOfferAndStillCompletes) {
  // Client guesses x25519, server insists on kyber512: the post-HRR retry
  // drops the certificate-flight offers, and the handshake completes over
  // the plain Certificate path.
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const tls::ServerContext& context = deep_context();
  for (tls::CertMode mode :
       {tls::CertMode::kCompressed, tls::CertMode::kMerkle}) {
    tls::ClientConfig ccfg = context.client_config();
    tls::ServerConfig scfg = context.server_config();
    ccfg.ka = catalog.require_kem("x25519").kem;
    ccfg.also_supported = {catalog.require_kem("kyber512").kem};
    ccfg.cert_mode = mode;
    scfg.cert_mode = mode;
    pki::MerkleBundle bundle =
        pki::pin_certificate(context.chain.certificates[0]);
    ccfg.merkle_root = bundle.root;
    scfg.merkle_proof = bundle.proof.encode();
    tls::ClientConnection client(ccfg, Drbg(0x488));
    tls::ServerConnection server(scfg, Drbg(0x489));
    ASSERT_TRUE(pump(client, server)) << "mode " << static_cast<int>(mode);
    EXPECT_FALSE(client.merkle_used());
  }
}

TEST(CertChainHandshake, MerkleRejectsWrongPinnedRoot) {
  const tls::ServerContext& context = deep_context();
  tls::ClientConfig ccfg = context.client_config();
  tls::ServerConfig scfg = context.server_config();
  ccfg.cert_mode = tls::CertMode::kMerkle;
  scfg.cert_mode = tls::CertMode::kMerkle;
  pki::MerkleBundle bundle =
      pki::pin_certificate(context.chain.certificates[0]);
  ccfg.merkle_root = bundle.root;
  ccfg.merkle_root[0] ^= 0x01;  // client pins a different tree head
  scfg.merkle_proof = bundle.proof.encode();
  tls::ClientConnection client(ccfg, Drbg(0x77));
  tls::ServerConnection server(scfg, Drbg(0x78));
  EXPECT_FALSE(pump(client, server));
  EXPECT_TRUE(client.failed());
}

// ---------------------------------------------------------------------------
// Testbed knob gating.

TEST(CertChainTestbed, DefaultConfigUnchangedAndKnobsTakeEffect) {
  testbed::ExperimentConfig base;
  base.ka = "kyber512";
  base.sa = "dilithium2";
  base.sample_handshakes = 3;
  base.pki_seed = kSeed;
  base.time_model = testbed::TimeModel::kModeled;

  testbed::ExperimentResult plain = run_experiment(base);
  testbed::ExperimentResult again = run_experiment(base);
  ASSERT_TRUE(plain.ok);
  // Modeled time + default knobs: bit-reproducible, and byte counts match
  // the historical leaf-only path.
  EXPECT_EQ(plain.server_bytes, again.server_bytes);
  EXPECT_EQ(plain.median_total, again.median_total);

  testbed::ExperimentConfig deep = base;
  deep.chain_profile = pki::ChainProfile{"int2", "", {"dilithium2",
                                                      "dilithium2"}};
  testbed::ExperimentResult chain = run_experiment(deep);
  ASSERT_TRUE(chain.ok);
  EXPECT_GT(chain.server_bytes, plain.server_bytes);

  testbed::ExperimentConfig compressed = deep;
  compressed.cert_mode = tls::CertMode::kCompressed;
  testbed::ExperimentResult comp = run_experiment(compressed);
  ASSERT_TRUE(comp.ok);
  EXPECT_LT(comp.server_bytes, chain.server_bytes);

  testbed::ExperimentConfig merkle = deep;
  merkle.cert_mode = tls::CertMode::kMerkle;
  testbed::ExperimentResult mk = run_experiment(merkle);
  ASSERT_TRUE(mk.ok);
  EXPECT_LT(mk.server_bytes, comp.server_bytes);
  // The proof replaces the two intermediates but still rides alongside the
  // leaf, so the win is against the deep chain, not the leaf-only baseline.
  EXPECT_LT(mk.server_bytes, chain.server_bytes);
}

// ---------------------------------------------------------------------------
// Loadgen calibration.

TEST(CertChainLoadgen, CalibratedProfileTracksHierarchyAndTransport) {
  pki::ChainProfile leaf;
  pki::ChainProfile int2{"int2", "", {"dilithium2", "dilithium2"}};
  const loadgen::HandshakeProfile& base =
      loadgen::calibrated_profile("kyber512", "dilithium2", kSeed);
  const loadgen::HandshakeProfile& base_again = loadgen::calibrated_profile(
      "kyber512", "dilithium2", kSeed, false, leaf, tls::CertMode::kFull);
  // Default arguments route to the same cached profile.
  EXPECT_EQ(&base, &base_again);

  const loadgen::HandshakeProfile& deep = loadgen::calibrated_profile(
      "kyber512", "dilithium2", kSeed, false, int2, tls::CertMode::kFull);
  // Two extra chain links: more downlink bytes and more client-side verify
  // CPU; the server's signing work is unchanged.
  EXPECT_GT(deep.server_bytes, base.server_bytes);
  EXPECT_GT(deep.client_finish_cpu, base.client_finish_cpu);

  const loadgen::HandshakeProfile& comp = loadgen::calibrated_profile(
      "kyber512", "dilithium2", kSeed, false, int2,
      tls::CertMode::kCompressed);
  EXPECT_LT(comp.server_bytes, deep.server_bytes);
  // Codec work is charged on both ends.
  EXPECT_GT(comp.server_flight_cpu, deep.server_flight_cpu);
  EXPECT_GT(comp.client_finish_cpu, deep.client_finish_cpu);

  const loadgen::HandshakeProfile& merkle = loadgen::calibrated_profile(
      "kyber512", "dilithium2", kSeed, false, int2, tls::CertMode::kMerkle);
  EXPECT_LT(merkle.server_bytes, comp.server_bytes);
  // One leaf verify plus a proof-walk KDF, instead of the 3-link walk.
  EXPECT_LT(merkle.client_finish_cpu, deep.client_finish_cpu);
}

TEST(CertChainLoadgen, RunLoadHonoursChainKnobs) {
  loadgen::LoadConfig cfg;
  cfg.ka = "kyber512";
  cfg.sa = "dilithium2";
  cfg.pki_seed = kSeed;
  cfg.load_factor = 0.5;
  cfg.duration_s = 2.0;
  cfg.warmup_s = 0.25;
  loadgen::LoadMetrics plain = loadgen::run_fleet(cfg);
  ASSERT_TRUE(plain.ok);

  cfg.chain_profile = pki::ChainProfile{"int2", "", {"dilithium2",
                                                     "dilithium2"}};
  loadgen::LoadMetrics deep = loadgen::run_fleet(cfg);
  ASSERT_TRUE(deep.ok);
  EXPECT_GT(deep.server_bytes, plain.server_bytes);

  cfg.cert_mode = tls::CertMode::kMerkle;
  loadgen::LoadMetrics merkle = loadgen::run_fleet(cfg);
  ASSERT_TRUE(merkle.ok);
  EXPECT_LT(merkle.server_bytes, deep.server_bytes);
}

// ---------------------------------------------------------------------------
// The `cert_chains` campaign: byte-identical rows at any worker count,
// locked against golden files, with the certificate-flight ordering
// assertions the placement matrix exists to demonstrate.

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(PQTLS_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CertChainsCampaign, GoldenRowsAndWorkerCountInvariance) {
  const campaign::CampaignSpec* spec = campaign::find_campaign("cert_chains");
  ASSERT_NE(spec, nullptr);
  // (full, comp, merkle) triples per (SA, profile) combination.
  ASSERT_EQ(spec->cells.size() % 3, 0u);

  auto run = [&](int workers, std::string* csv,
                 campaign::CollectSink* collect) {
    std::ostringstream jsonl_out, csv_out;
    campaign::JsonlSink jsonl(jsonl_out);
    campaign::CsvSink csv_sink(csv_out);
    campaign::RunnerOptions opts;  // defaults = the CLI's golden settings
    opts.workers = workers;
    std::vector<campaign::Sink*> sinks{&jsonl, &csv_sink};
    if (collect) sinks.push_back(collect);
    EXPECT_EQ(run_campaign(*spec, opts, sinks), 0);
    if (csv) *csv = csv_out.str();
    return jsonl_out.str();
  };

  campaign::CollectSink collect;
  std::string csv;
  std::string serial = run(1, &csv, &collect);
  std::string parallel = run(4, nullptr, nullptr);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, read_golden("cert_chains_rows.jsonl"));
  EXPECT_EQ(csv, read_golden("cert_chains_rows.csv"));

  const auto& rows = collect.outcomes();
  for (std::size_t i = 0; i + 2 < rows.size(); i += 3) {
    const auto& full = rows[i].result;
    const auto& comp = rows[i + 1].result;
    const auto& merkle = rows[i + 2].result;
    SCOPED_TRACE(rows[i].cell.id);
    // Merkle mode strips the intermediates on every hierarchy.
    EXPECT_LT(merkle.server_bytes, full.server_bytes);
    EXPECT_LE(comp.server_bytes, full.server_bytes);
    if (rows[i].cell.config.sa == "sphincs128") {
      // The paper's worst-case chains: the huge SPHINCS+ signatures make
      // both transports strict wins — merkle < compressed < full.
      EXPECT_LT(comp.server_bytes, full.server_bytes);
      EXPECT_LT(merkle.server_bytes, comp.server_bytes);
    }
  }
}

}  // namespace
}  // namespace pqtls
