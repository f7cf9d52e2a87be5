// Session-resumption subsystem tests: ticket codec/crypto round-trips, the
// client cache, KeySchedule wipe hygiene, resumed handshakes across the
// whole algorithm catalog (no Certificate/CertificateVerify on the wire),
// PSK-only and 0-RTT flows, the negative paths (bad binder, expired or
// forged tickets, early data against an unwilling server), testbed mixing,
// loadgen's resumed profile, and the `resumption` campaign's golden rows.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <set>
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
#include "session/session.hpp"
#include "session/ticket.hpp"
#include "testbed/testbed.hpp"
#include "tls/connection.hpp"
#include "tls/key_schedule.hpp"
#include "tls/server_context.hpp"

namespace pqtls {
namespace {

using crypto::AlgorithmCatalog;
using crypto::Drbg;

// Same PKI seed as catalog_test so the expensive server contexts
// (RSA/SPHINCS+ keygen) are shared through the process-wide cache.
constexpr std::uint64_t kSeed = 0xFEED;

struct WireTotals {
  std::size_t client = 0;  // client -> server flight bytes
  std::size_t server = 0;  // server -> client flight bytes
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

// Full handshake with request_ticket against `store`; returns the minted
// ticket and reports the server's wire volume through *server_bytes.
std::optional<session::SessionTicket> mint(const tls::ServerContext& context,
                                           session::TicketStore& store,
                                           std::uint64_t rng_seed,
                                           std::size_t* server_bytes = nullptr) {
  tls::ClientConfig ccfg = context.client_config();
  ccfg.request_ticket = true;
  tls::ServerConfig scfg = context.server_config();
  scfg.tickets = &store;
  tls::ClientConnection client(ccfg, Drbg(rng_seed));
  tls::ServerConnection server(scfg, Drbg(rng_seed + 1));
  WireTotals totals;
  if (!pump(client, server, &totals)) return std::nullopt;
  if (server_bytes) *server_bytes = totals.server;
  return client.take_ticket();
}

// ---------------------------------------------------------------------------
// Ticket codec and crypto.

TEST(SessionTicketCodec, StateRoundTripsAndRejectsTruncation) {
  session::TicketState state;
  state.ka = "kyber768";
  state.sa = "dilithium3";
  state.resumption_psk = Bytes(32, 0xAB);
  state.issued_at_ms = 1'800'000'000'000ull;
  state.lifetime_s = 7200;
  state.age_add = 0xDEADBEEF;
  state.nonce = {0, 1, 2, 3};

  Bytes wire = session::encode_ticket_state(state);
  auto back = session::parse_ticket_state(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->ka, state.ka);
  EXPECT_EQ(back->sa, state.sa);
  EXPECT_EQ(back->resumption_psk, state.resumption_psk);
  EXPECT_EQ(back->issued_at_ms, state.issued_at_ms);
  EXPECT_EQ(back->lifetime_s, state.lifetime_s);
  EXPECT_EQ(back->age_add, state.age_add);
  EXPECT_EQ(back->nonce, state.nonce);

  for (std::size_t len = 0; len < wire.size(); ++len)
    EXPECT_FALSE(
        session::parse_ticket_state(BytesView(wire.data(), len)).has_value())
        << "accepted truncation at " << len;
}

TEST(SessionTicketCodec, CryptoRejectsTamperingAndWrongKey) {
  Drbg rng(7);
  session::TicketCrypto crypto(rng.bytes(16));
  session::TicketState state;
  state.ka = "x25519";
  state.sa = "rsa:2048";
  state.resumption_psk = Bytes(32, 0x11);
  state.lifetime_s = 60;

  Bytes ticket = crypto.seal(state, rng);
  ASSERT_TRUE(crypto.open(ticket).has_value());

  for (std::size_t i = 0; i < ticket.size(); i += 7) {
    Bytes bad = ticket;
    bad[i] ^= 0x01;
    EXPECT_FALSE(crypto.open(bad).has_value()) << "flip at " << i;
  }
  session::TicketCrypto other(rng.bytes(16));
  EXPECT_FALSE(other.open(ticket).has_value());
}

TEST(SessionStore, ValidatesLifetimeWindow) {
  session::TicketStore store{Drbg(0x77)};
  Drbg rng(0x78);
  session::TicketState state;
  state.ka = "kyber512";
  state.sa = "dilithium2";
  state.resumption_psk = Bytes(32, 0x22);
  state.issued_at_ms = 1000;
  state.lifetime_s = 10;

  Bytes ticket = store.issue(state, rng);
  EXPECT_EQ(store.issued(), 1u);
  EXPECT_TRUE(store.validate(ticket, 5000).has_value());
  EXPECT_FALSE(store.validate(ticket, 500).has_value());    // before issue
  EXPECT_FALSE(store.validate(ticket, 11'000).has_value());  // expired
  EXPECT_FALSE(store.validate(Bytes(8, 0xFF), 5000).has_value());
  EXPECT_EQ(store.redeemed(), 1u);
  EXPECT_EQ(store.expired(), 2u);
  EXPECT_EQ(store.rejected(), 1u);
}

TEST(SessionCache, SingleUseFifoWithExpiry) {
  session::SessionCache cache;
  auto make = [](std::uint64_t received, std::uint32_t lifetime) {
    session::SessionTicket t;
    t.server_name = "pqtls.test";
    t.identity = Bytes(16, 0x44);  // put() drops identity-less tickets
    t.psk = Bytes(32, 0x33);
    t.received_at_ms = received;
    t.lifetime_s = lifetime;
    return t;
  };
  cache.put(make(1000, 10));   // expires at 11s
  cache.put(make(2000, 100));  // expires at 102s
  EXPECT_EQ(cache.size(), 2u);

  EXPECT_FALSE(cache.take("other.test", 3000).has_value());
  // At 50s the first ticket is stale: take() drops it and returns the
  // second, leaving the cache empty (single use).
  auto t = cache.take("pqtls.test", 50'000);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->received_at_ms, 2000u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.take("pqtls.test", 50'000).has_value());
}

// ---------------------------------------------------------------------------
// KeySchedule wipe hygiene (the satellite lock): wiping handshake secrets
// must not destroy what resumption still needs.

TEST(KeyScheduleWipe, ResumptionPskSurvivesExplicitWipe) {
  tls::KeySchedule ks;
  ks.update_transcript(Bytes{0x01, 0x02, 0x03});
  ks.derive_handshake_secrets(Bytes(32, 0x44));
  ks.update_transcript(Bytes{0x04, 0x05});
  ks.derive_application_secrets();
  ks.update_transcript(Bytes{0x06});
  ks.derive_resumption_master();
  ASSERT_TRUE(ks.has_resumption_master());

  Bytes nonce{0x00, 0x01};
  Bytes before = ks.resumption_psk(nonce);
  ASSERT_EQ(before.size(), 32u);
  ASSERT_NE(before, Bytes(32, 0));

  ks.wipe_handshake_secrets();
  EXPECT_TRUE(ks.has_resumption_master());
  EXPECT_EQ(ks.resumption_psk(nonce), before);
}

// ---------------------------------------------------------------------------
// Resumed handshakes across the whole catalog: every KA and every SA must
// complete a PSK+(EC)DHE resumption, and the resumed server flight must be
// strictly smaller than the full handshake's (no Certificate, no
// CertificateVerify on the wire).

void expect_resumes_without_certificates(const tls::ServerContext& context,
                                         const std::string& label) {
  session::TicketStore store{Drbg(0x5e55)};
  std::size_t full_server_bytes = 0;
  auto ticket = mint(context, store, 101, &full_server_bytes);
  ASSERT_TRUE(ticket.has_value()) << label;

  tls::ClientConfig ccfg = context.client_config();
  ccfg.resume = &*ticket;
  tls::ServerConfig scfg = context.server_config();
  scfg.tickets = &store;
  tls::ClientConnection client(ccfg, Drbg(103));
  tls::ServerConnection server(scfg, Drbg(104));
  WireTotals resumed;
  ASSERT_TRUE(pump(client, server, &resumed)) << label;
  EXPECT_TRUE(client.resumed()) << label;
  EXPECT_TRUE(server.resumed()) << label;
  // The certificate chain and CertificateVerify are gone; even with the
  // reissued NewSessionTicket the server sends strictly less.
  EXPECT_LT(resumed.server, full_server_bytes) << label;
}

TEST(ResumptionCatalog, EveryKeyAgreementResumesWithoutCertificates) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const sig::Signer& sa = *catalog.require_signer("dilithium2").signer;
  for (const auto& info : catalog.kems())
    expect_resumes_without_certificates(
        tls::server_context(*info.kem, sa, kSeed), info.name);
}

TEST(ResumptionCatalog, EverySignatureAlgorithmResumesWithoutCertificates) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const kem::Kem& ka = *catalog.require_kem("kyber768").kem;
  for (const auto& info : catalog.signers())
    expect_resumes_without_certificates(
        tls::server_context(ka, *info.signer, kSeed), info.name);
}

// ---------------------------------------------------------------------------
// Mode coverage: psk_ke, accepted 0-RTT, rejected 0-RTT.

TEST(ResumptionModes, PskOnlyCompletesWithoutKeyShare) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const tls::ServerContext& context =
      tls::server_context(*catalog.require_kem("kyber512").kem,
                          *catalog.require_signer("dilithium2").signer, kSeed);
  session::TicketStore store{Drbg(0x5e55)};
  auto ticket = mint(context, store, 111);
  ASSERT_TRUE(ticket.has_value());

  tls::ClientConfig ccfg = context.client_config();
  ccfg.resume = &*ticket;
  ccfg.psk_only = true;
  tls::ServerConfig scfg = context.server_config();
  scfg.tickets = &store;
  tls::ClientConnection client(ccfg, Drbg(113));
  tls::ServerConnection server(scfg, Drbg(114));
  ASSERT_TRUE(pump(client, server));
  EXPECT_TRUE(client.resumed());
  EXPECT_TRUE(server.resumed());
}

TEST(ResumptionModes, AcceptedZeroRttDeliversEarlyData) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const tls::ServerContext& context =
      tls::server_context(*catalog.require_kem("kyber512").kem,
                          *catalog.require_signer("dilithium2").signer, kSeed);
  session::TicketStore store{Drbg(0x5e55)};
  auto ticket = mint(context, store, 121);
  ASSERT_TRUE(ticket.has_value());

  tls::ClientConfig ccfg = context.client_config();
  ccfg.resume = &*ticket;
  ccfg.early_data = {0xDE, 0xAD, 0xBE, 0xEF};
  tls::ServerConfig scfg = context.server_config();
  scfg.tickets = &store;
  scfg.accept_early_data = true;
  tls::ClientConnection client(ccfg, Drbg(123));
  tls::ServerConnection server(scfg, Drbg(124));
  ASSERT_TRUE(pump(client, server));
  EXPECT_TRUE(client.resumed());
  EXPECT_TRUE(client.early_data_accepted());
  EXPECT_TRUE(server.early_data_accepted());
  EXPECT_EQ(server.early_data(), ccfg.early_data);
}

TEST(ResumptionModes, ZeroRttRejectedWhenServerDisablesEarlyData) {
  // The replayable flight is discarded: the server skips the undecryptable
  // 0-RTT records and the connection still completes as a plain resumption.
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const tls::ServerContext& context =
      tls::server_context(*catalog.require_kem("kyber512").kem,
                          *catalog.require_signer("dilithium2").signer, kSeed);
  session::TicketStore store{Drbg(0x5e55)};
  auto ticket = mint(context, store, 131);
  ASSERT_TRUE(ticket.has_value());

  tls::ClientConfig ccfg = context.client_config();
  ccfg.resume = &*ticket;
  ccfg.early_data = {0xDE, 0xAD, 0xBE, 0xEF};
  tls::ServerConfig scfg = context.server_config();
  scfg.tickets = &store;
  scfg.accept_early_data = false;
  tls::ClientConnection client(ccfg, Drbg(133));
  tls::ServerConnection server(scfg, Drbg(134));
  ASSERT_TRUE(pump(client, server));
  EXPECT_TRUE(client.resumed());
  EXPECT_FALSE(client.early_data_accepted());
  EXPECT_FALSE(server.early_data_accepted());
  EXPECT_TRUE(server.early_data().empty());
}

// ---------------------------------------------------------------------------
// Negative paths.

TEST(ResumptionNegative, CorruptedPskFailsWithFatalAlert) {
  // A wrong binder is an attack signal, not a cache miss: the server must
  // answer with a fatal alert (RFC 8446 4.2.11.2), never fall back.
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const tls::ServerContext& context =
      tls::server_context(*catalog.require_kem("kyber512").kem,
                          *catalog.require_signer("dilithium2").signer, kSeed);
  session::TicketStore store{Drbg(0x5e55)};
  auto ticket = mint(context, store, 141);
  ASSERT_TRUE(ticket.has_value());
  ticket->psk[0] ^= 0x01;  // binder now disagrees with the ticket's PSK

  tls::ClientConfig ccfg = context.client_config();
  ccfg.resume = &*ticket;
  tls::ServerConfig scfg = context.server_config();
  scfg.tickets = &store;
  tls::ClientConnection client(ccfg, Drbg(143));
  tls::ServerConnection server(scfg, Drbg(144));
  EXPECT_FALSE(pump(client, server));
  EXPECT_TRUE(server.failed());
  EXPECT_FALSE(server.handshake_complete());
  EXPECT_FALSE(client.handshake_complete());
}

TEST(ResumptionNegative, ExpiredTicketFallsBackToFullHandshake) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const tls::ServerContext& context =
      tls::server_context(*catalog.require_kem("kyber512").kem,
                          *catalog.require_signer("dilithium2").signer, kSeed);
  session::TicketStore store{Drbg(0x5e55)};
  auto ticket = mint(context, store, 151);
  ASSERT_TRUE(ticket.has_value());

  tls::ClientConfig ccfg = context.client_config();
  ccfg.resume = &*ticket;
  tls::ServerConfig scfg = context.server_config();
  scfg.tickets = &store;
  // Both clocks jump past the lifetime; the client still offers (the test
  // exercises the server-side validate path, so keep the offer alive).
  std::uint64_t later =
      ticket->received_at_ms + (ticket->lifetime_s + 10ull) * 1000;
  ccfg.now_ms = ticket->received_at_ms;  // client thinks it is fresh
  scfg.now_ms = later;                   // server knows it is not
  tls::ClientConnection client(ccfg, Drbg(153));
  tls::ServerConnection server(scfg, Drbg(154));
  ASSERT_TRUE(pump(client, server));
  EXPECT_FALSE(client.resumed());  // clean fallback, full handshake ran
  EXPECT_FALSE(server.resumed());
  EXPECT_EQ(store.expired(), 1u);
}

TEST(ResumptionNegative, ForgedIdentityFallsBackToFullHandshake) {
  const AlgorithmCatalog& catalog = AlgorithmCatalog::instance();
  const tls::ServerContext& context =
      tls::server_context(*catalog.require_kem("kyber512").kem,
                          *catalog.require_signer("dilithium2").signer, kSeed);
  session::TicketStore store{Drbg(0x5e55)};
  auto ticket = mint(context, store, 161);
  ASSERT_TRUE(ticket.has_value());
  for (auto& b : ticket->identity) b ^= 0x5A;  // unknown to the store

  tls::ClientConfig ccfg = context.client_config();
  ccfg.resume = &*ticket;
  tls::ServerConfig scfg = context.server_config();
  scfg.tickets = &store;
  tls::ClientConnection client(ccfg, Drbg(163));
  tls::ServerConnection server(scfg, Drbg(164));
  ASSERT_TRUE(pump(client, server));
  EXPECT_FALSE(client.resumed());
  EXPECT_FALSE(server.resumed());
  EXPECT_GE(store.rejected(), 1u);
}

// ---------------------------------------------------------------------------
// Testbed integration: the resumption_ratio knob.

TEST(TestbedResumption, ResumedCellBeatsFullCellOnWireAndLatency) {
  testbed::ExperimentConfig full;
  full.ka = "kyber512";
  full.sa = "dilithium2";
  full.sample_handshakes = 4;
  full.time_model = testbed::TimeModel::kModeled;
  testbed::ExperimentConfig resumed = full;
  resumed.resumption_ratio = 1.0;

  testbed::ExperimentResult rf = testbed::run_experiment(full);
  testbed::ExperimentResult rr = testbed::run_experiment(resumed);
  ASSERT_TRUE(rf.ok);
  ASSERT_TRUE(rr.ok);
  EXPECT_EQ(rr.samples.size(), 4u);
  EXPECT_LT(rr.server_bytes, rf.server_bytes);
  EXPECT_LT(rr.median_total, rf.median_total);
}

TEST(TestbedResumption, MixedRatioInterleavesDeterministically) {
  testbed::ExperimentConfig cfg;
  cfg.ka = "kyber512";
  cfg.sa = "dilithium2";
  cfg.sample_handshakes = 6;
  cfg.time_model = testbed::TimeModel::kModeled;
  cfg.resumption_ratio = 0.5;

  testbed::ExperimentResult a = testbed::run_experiment(cfg);
  testbed::ExperimentResult b = testbed::run_experiment(cfg);
  ASSERT_TRUE(a.ok);
  ASSERT_EQ(a.samples.size(), 6u);
  ASSERT_EQ(b.samples.size(), 6u);
  std::size_t resumed_count = 0;
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].server_bytes, b.samples[i].server_bytes) << i;
    EXPECT_EQ(a.samples[i].total, b.samples[i].total) << i;
    // floor((i+1)*0.5) > floor(i*0.5): odd samples resume.
    if (i % 2 == 1) ++resumed_count;
  }
  EXPECT_EQ(resumed_count, 3u);
  // The mixed run really contains two populations: per-sample server bytes
  // take exactly two distinct values.
  std::set<std::size_t> sizes;
  for (const auto& s : a.samples) sizes.insert(s.server_bytes);
  EXPECT_EQ(sizes.size(), 2u);
}

TEST(TestbedResumption, ZeroRttRunsEndToEnd) {
  testbed::ExperimentConfig cfg;
  cfg.ka = "kyber512";
  cfg.sa = "dilithium2";
  cfg.sample_handshakes = 3;
  cfg.time_model = testbed::TimeModel::kModeled;
  cfg.resumption_ratio = 1.0;
  cfg.early_data = true;
  testbed::ExperimentResult r = testbed::run_experiment(cfg);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.samples.size(), 3u);
}

// ---------------------------------------------------------------------------
// Loadgen integration: resumed profile and ratio mixing.

TEST(LoadgenResumption, ResumedProfileDropsCertificatesAndSignatureCpu) {
  const loadgen::HandshakeProfile& full =
      loadgen::calibrated_profile("kyber512", "dilithium2", kSeed);
  const loadgen::HandshakeProfile& resumed =
      loadgen::calibrated_profile("kyber512", "dilithium2", kSeed,
                                  /*resumed=*/true);
  EXPECT_LT(resumed.server_bytes, full.server_bytes);
  EXPECT_LT(resumed.server_cpu(), full.server_cpu());
  EXPECT_LT(resumed.client_finish_cpu, full.client_finish_cpu);
}

TEST(LoadgenResumption, RatioMixesMetricsDeterministically) {
  loadgen::LoadConfig cfg;
  cfg.ka = "kyber512";
  cfg.sa = "dilithium2";
  cfg.load_factor = 0.5;
  cfg.cores = 2;
  cfg.duration_s = 2.0;
  cfg.warmup_s = 0.25;
  cfg.pki_seed = kSeed;

  loadgen::LoadMetrics base = loadgen::run_fleet(cfg);
  ASSERT_TRUE(base.ok);

  cfg.resumption_ratio = 0.5;
  loadgen::LoadMetrics mixed = loadgen::run_fleet(cfg);
  loadgen::LoadMetrics again = loadgen::run_fleet(cfg);
  ASSERT_TRUE(mixed.ok);
  EXPECT_EQ(mixed.completed, again.completed);
  EXPECT_EQ(mixed.p99, again.p99);
  // Half the connections are cheaper on the server: the reported
  // per-handshake CPU and downlink bytes drop below the full-only run.
  EXPECT_LT(mixed.server_cpu_s, base.server_cpu_s);
  EXPECT_LT(mixed.server_bytes, base.server_bytes);

  cfg.resumption_ratio = 1.0;
  loadgen::LoadMetrics all_resumed = loadgen::run_fleet(cfg);
  ASSERT_TRUE(all_resumed.ok);
  EXPECT_LT(all_resumed.server_cpu_s, mixed.server_cpu_s);
}

// ---------------------------------------------------------------------------
// The `resumption` campaign: byte-identical rows at any worker count,
// locked against golden files, and every pair's resumed/0-RTT rows beat its
// full row on wire bytes and modeled latency.

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(PQTLS_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ResumptionCampaign, GoldenRowsAndWorkerCountInvariance) {
  const campaign::CampaignSpec* spec = campaign::find_campaign("resumption");
  ASSERT_NE(spec, nullptr);
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
  EXPECT_EQ(serial, read_golden("resumption_rows.jsonl"));
  EXPECT_EQ(csv, read_golden("resumption_rows.csv"));

  // Cells come in (full, resumed, 0rtt) triples per pair.
  const auto& rows = collect.outcomes();
  for (std::size_t i = 0; i + 2 < rows.size(); i += 3) {
    const auto& full = rows[i].result;
    SCOPED_TRACE(rows[i].cell.id);
    for (std::size_t k = 1; k <= 2; ++k) {
      const auto& cheap = rows[i + k].result;
      EXPECT_LT(cheap.server_bytes, full.server_bytes);
      EXPECT_LT(cheap.median_total, full.median_total);
    }
  }
}

}  // namespace
}  // namespace pqtls
