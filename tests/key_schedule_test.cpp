// Transcript-hash equivalence for the TLS key schedule: the running
// SHA-256 hashed by copy must match re-hashing the whole transcript from
// scratch, at every point, across the HRR conversion and for PSK binders.
#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "crypto/sha2.hpp"
#include "tls/key_schedule.hpp"
#include "tls/messages.hpp"

namespace pqtls::tls {
namespace {

// Handshake messages of uneven sizes, so updates land at every offset of a
// SHA-256 block; the largest spans many blocks like a PQ Certificate.
std::vector<Bytes> sample_messages() {
  crypto::Drbg rng(0x7153);
  std::vector<Bytes> messages;
  for (std::size_t len : {0, 1, 55, 56, 63, 64, 65, 200, 4000, 13000})
    messages.push_back(
        handshake_message(HandshakeType::kCertificate, rng.bytes(len)));
  return messages;
}

// RFC 8446 4.2.11.2 binder, rebuilt from the public HKDF pieces over a
// from-scratch hash of transcript || truncated ClientHello.
Bytes reference_binder(BytesView psk, BytesView transcript,
                       BytesView truncated_client_hello) {
  Bytes early_secret = crypto::hkdf_extract_sha256({}, psk);
  Bytes binder_key =
      derive_secret(early_secret, "res binder", crypto::sha256({}));
  Bytes finished_key = hkdf_expand_label(binder_key, "finished", {}, 32);
  return crypto::hmac_sha256(
      finished_key,
      crypto::sha256(concat(transcript, truncated_client_hello)));
}

TEST(KeyScheduleTranscript, HashIsIdempotentAndMatchesRehash) {
  KeySchedule ks;
  Bytes transcript;
  EXPECT_EQ(ks.transcript_hash(), crypto::sha256({}));
  for (const Bytes& message : sample_messages()) {
    ks.update_transcript(message);
    append(transcript, message);
    Bytes first = ks.transcript_hash();
    EXPECT_EQ(first, crypto::sha256(transcript)) << transcript.size();
    EXPECT_EQ(ks.transcript_hash(), first) << transcript.size();
  }
}

TEST(KeyScheduleTranscript, HrrConversionMatchesRehash) {
  auto messages = sample_messages();
  // Convert after every prefix length, including the empty transcript.
  for (std::size_t cut = 0; cut <= messages.size(); ++cut) {
    KeySchedule ks;
    Bytes transcript;
    for (std::size_t i = 0; i < cut; ++i) {
      ks.update_transcript(messages[i]);
      append(transcript, messages[i]);
    }
    ks.convert_to_hrr_transcript();
    Bytes rebuilt = {254 /* message_hash */, 0, 0, 32};
    append(rebuilt, crypto::sha256(transcript));
    EXPECT_EQ(ks.transcript_hash(), crypto::sha256(rebuilt)) << cut;
    for (std::size_t i = cut; i < messages.size(); ++i) {
      ks.update_transcript(messages[i]);
      append(rebuilt, messages[i]);
      EXPECT_EQ(ks.transcript_hash(), crypto::sha256(rebuilt)) << cut;
    }
  }
}

TEST(KeyScheduleTranscript, PskBinderMatchesRehash) {
  crypto::Drbg rng(0x8154);
  Bytes psk = rng.bytes(32);
  Bytes truncated_client_hello =
      handshake_message(HandshakeType::kClientHello, rng.bytes(300));
  KeySchedule ks;
  ks.set_psk(psk);
  Bytes transcript;
  // From the empty transcript of a first ClientHello to multi-block ones.
  EXPECT_EQ(ks.psk_binder(truncated_client_hello),
            reference_binder(psk, transcript, truncated_client_hello));
  for (const Bytes& message : sample_messages()) {
    ks.update_transcript(message);
    append(transcript, message);
    Bytes binder = ks.psk_binder(truncated_client_hello);
    EXPECT_EQ(binder,
              reference_binder(psk, transcript, truncated_client_hello))
        << transcript.size();
    // The binder must not disturb the running transcript.
    EXPECT_EQ(ks.transcript_hash(), crypto::sha256(transcript));
  }
}

}  // namespace
}  // namespace pqtls::tls
