// Known-answer tests for the hash/MAC/KDF primitives against published
// vectors (FIPS 180-4, FIPS 202, RFC 4231, RFC 5869), plus sponge split
// equivalence and misuse checks.
#include <gtest/gtest.h>

#include <stdexcept>

#include "crypto/bytes.hpp"
#include "crypto/keccak.hpp"
#include "crypto/sha2.hpp"

namespace pqtls::crypto {
namespace {

Bytes ascii(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(sha256(ascii("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(sha256(ascii(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes msg(317);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i);
  Sha256 h;
  h.update(BytesView{msg}.subspan(0, 100));
  h.update(BytesView{msg}.subspan(100, 17));
  h.update(BytesView{msg}.subspan(117));
  EXPECT_EQ(h.finish(), sha256(msg));
}

TEST(Sha384, Abc) {
  EXPECT_EQ(to_hex(sha384(ascii("abc"))),
            "cb00753f45a35e8bb5a03d699ac65007272c32ab0eded1631a8b605a43ff5bed"
            "8086072ba1e7cc2358baeca134c825a7");
}

TEST(Sha512, Abc) {
  EXPECT_EQ(to_hex(sha512(ascii("abc"))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlock) {
  EXPECT_EQ(
      to_hex(sha512(ascii("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghi"
                          "jklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrst"
                          "nopqrstu"))),
      "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
      "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha3, Abc256) {
  EXPECT_EQ(to_hex(sha3_256(ascii("abc"))),
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532");
}

TEST(Sha3, Empty256) {
  EXPECT_EQ(to_hex(sha3_256({})),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a");
}

TEST(Sha3, Abc512) {
  EXPECT_EQ(to_hex(sha3_512(ascii("abc"))),
            "b751850b1a57168a5693cd924b6b096e08f621827444f70d884f5d0240d2712e"
            "10e116e9192af3c91a7ec57647e3934057340b4cf408d5a56592f8274eec53f0");
}

TEST(Shake, Shake128Empty) {
  EXPECT_EQ(to_hex(shake128({}, 32)),
            "7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26");
}

TEST(Shake, Shake256Empty) {
  EXPECT_EQ(to_hex(shake256({}, 32)),
            "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f");
}

TEST(Shake, IncrementalSqueezeMatchesOneShot) {
  Bytes msg = ascii("incremental squeeze check");
  Bytes oneshot = shake256(msg, 100);
  Shake xof(256);
  xof.absorb(msg);
  Bytes a = xof.squeeze(1);
  Bytes b = xof.squeeze(42);
  Bytes c = xof.squeeze(57);
  Bytes joined = concat(a, b, c);
  EXPECT_EQ(joined, oneshot);
}

// ---- Multi-block sponge vectors and absorb/squeeze split equivalence ----

// Message bytes i % 251: a period that never lines up with a sponge rate.
Bytes pattern(std::size_t len) {
  Bytes m(len);
  for (std::size_t i = 0; i < len; ++i) m[i] = static_cast<std::uint8_t>(i % 251);
  return m;
}

struct SpongeKat {
  std::size_t len;
  const char* sha3_256;
  const char* sha3_512;
  const char* shake128_32;
  const char* shake256_32;
};

// Generated with Python's hashlib over pattern(len):
//   python3 -c 'import hashlib; m = bytes(i % 251 for i in range(L));
//               print(hashlib.sha3_256(m).hexdigest(), ...,
//                     hashlib.shake_128(m).hexdigest(32), ...)'
// The lengths straddle every rate boundary: 72 (SHA3-512), 136 (SHA3-256,
// SHAKE256) and 168 (SHAKE128).
constexpr SpongeKat kSpongeKats[] = {
    {0,
     "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a",
     "a69f73cca23a9ac5c8b567dc185a756e97c982164fe25859e0d1dcc1475c80a6"
     "15b2123af1f5f94c11e3e9402c3ac558f500199d95b6d3e301758586281dcd26",
     "7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26",
     "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"},
    {1,
     "5d53469f20fef4f8eab52b88044ede69c77a6a68a60728609fc4a65ff531e7d0",
     "7127aab211f82a18d06cf7578ff49d5089017944139aa60d8bee057811a15fb5"
     "5a53887600a3eceba004de51105139f32506fe5b53e1913bfa6b32e716fe97da",
     "0b784469a0628e03861cd8a196dfafa0e9e8056d04cddcc49f0746b9ad43ccb2",
     "b8d01df855f7075882c636f6ddeacf41e5de0bbf30042ef0a86e36f4b8600d54"},
    {71,
     "881ad9ffbd7f090efa51cbdfe93da23a0401f4446f7adf150d1c226851cbfff2",
     "3ccc850d53a1287af7b4560b2ef0d43eb5d9a80d62a0e9cf1dbc040135921104"
     "d4395168e90bfc871773ebb34bca1bd67056e1cc7dc7a48ff7c3167d389f117c",
     "87495b03cd07a1624df24a4dec4019d6e014094b334a33c53344feb7931464e9",
     "10b3b7dea36eb47f49a380bd01b0278e6a2ac94c9e13b4826bc77dfa558ca157"},
    {72,
     "fe58866b2893c6c40ee832ce40fb6eb4c70ff7c4794380d95c2ebeec62decd31",
     "5d63f2bbe971a983ac6847480106e4e1264ee3a0befd79954914e1d86e795b2e"
     "18238f12fc5e46cb9cc78efdec610a93647cc04e1c23d8caaa6a58c21dd26c07",
     "29cbc126c6e6ba6a53c0b6d2a556fcd13eddb6ebfff551b2405c51b4f0aaa45c",
     "2bb9aade91b40cfced14ad1fd7e26aa839b5140227fad20311d24db1578a8a55"},
    {73,
     "797061b3aad8e724740c79dc697ef3de4c96c4db4483dba4e56f852222c72474",
     "921d9b7b2b0f3066a1646dbb058c979cb3925dec0f8c269faaa7f9648e73465a"
     "e55ec527257d5d5e1cfdbf5d6799bea1004b6186f5108c74e3b92fe924166558",
     "05876deccc921922e3555320777779e6510935e9babb6d9b9eabe52fd9246f51",
     "1e0e36cd5d88fac489d6b411ed5e8d1fc969a2f73e1919b6bd2cb62b3a86191d"},
    {135,
     "fded8fd9d6551c601eeb3b7c6bc5e5cfd8aad1d015b7e9aaa9c9b9475231d5e2",
     "d942df0df09ac042cd3b641144c98d8fda0980bb037fc5c0e7f2e9a073b073dc"
     "4bb8a8c1f4cb5b45f5805c6523741ed0571d6779b15829b2faa280fc60b50645",
     "d11fafa27f42a8162b8ae013535771de81722c0abc8aa2bca01825462e2f8971",
     "c45dae624ad8a2f5aa7bac9d7557737fd91c96eedb70a6be5574d57a844eade0"},
    {136,
     "cf3ccff92480a29160c2d38317c430e14749bfee1788106957dfe73f8c4930e5",
     "ad8edff4f1b7aa1c63bbe49728ab9b165f7245b3d7102e6f99c261fc15d2d0bf"
     "6afef6a491720454a1349fbf5d848854875ac83a1156fd7f6e2a37af26c07fb2",
     "30bdfd69382cab028173fba7c6d53878ec18081358e52c955dc6f5d52b60b029",
     "b7ff4073b3f5a8eabd6e17705ca7f6761a31058f9df781a6a47e3a3063b9d67a"},
    {137,
     "ce9d7dc90913ee5d92745019479a5352c6d6279bef18ed07dc0a83ee8084daca",
     "3f827e5d7ddbd54ea1dba28cae0154eb5ff8d8d973770865861b7cdf5f091040"
     "889d55c0e74b672cead274fac1d4a559fd9185be898ab8969b5e78681527660d",
     "047a94427406b3ac81270fe1c3aafe1594f121bdca236dcb2c01cd977b41ee02",
     "01d90952c642a5eb2a8fc9d713f843a45d7ac05132dddcb2efc9bebc27e37bcb"},
    {167,
     "cac5458d48e6163cc843d5f18e263e3ce03290cbd5a866bd3b7d02dff2da413e",
     "77aeb7615194d38076e9cd4c4f7361d76e96d7856ff6cc8c0d88e198cb62445d"
     "4a2dba863dc5abbaefe09715c8a69a0a0b382febe29e64ac773a0a3d0ed05624",
     "1e552791cc4e93a0d4a8dc47ae49228c2faa869e40e628f6ace477aec3f1ca7a",
     "989a61fbdb26d1695f841faaef850de4e5ca0095ea4c7511c54f0b0a098e8fad"},
    {168,
     "369a33badfa618d58d16aaddeaff98d66b30a70c2deee42fc809b9721dc1c524",
     "9567f47a24e5c3b934777516554d4875de4b1d8a59e18b6983827dd9bf394414"
     "eefdccf8f6b10acd3c08afa951be34a31d11065ccd486e71b530f33b7ef263e0",
     "f15277eb61c4908d44a2853f3cde071ae2ed7a23461fbe162a1a98cf6875059c",
     "1687771440dbcdaa8af7049dd319414a12a702caa4809a0ded089cb659219ea4"},
    {169,
     "6d9ef22b871f8518d91fe5fd48baf514f1165eca0a145f8975eb4b40898dab7c",
     "90334a76f71e06e0be572822109e7595f5ebcedbc668a863e50667aa79f372ec"
     "108f2ecf760e9439f2f212fa2bda28dbe4f1c69750d7ddcae9df2cd8aa813cd9",
     "015be3338c986d9846affa0f94b4afc2a76bc289c709e1a596ec9eccf090a773",
     "d639f47fb6b6836625c047a8240313bba11e3b7e479595b43b48ecd35cc89e9e"},
    {1000,
     "48e66a01861d0eadaacdb7a6ae7db6b9ac79242ecced4154a9fbb33c4e3cc571",
     "b8030d306ae990bc794bfb3a6100f67851889d6c272257afac7d1077a18660d6"
     "ea8d0da5d2299c3ebaa0d34baf62cc58ac1fd4476506cf512a4897bb083a6fc4",
     "a72440f7f5aa7c14c8e0187420611da7e2ba62f5bb2e88a91b9c9448cac30078",
     "34833f03ed88bb5f083ce590c7ae5af93ede33e11f53c70e47916c7044746acb"},
    {16384,
     "8f8eeb8c5f4c7ca72654a2f6b8ee7c84e0367846655af46494e3e98f91208a43",
     "7e94924b09f131d8e32a1c6ed0f5340e55aae3bbfd3619cd297acf40730d1ebf"
     "92acd763a06a25d58e94d214cacca52542768e78851ba1d82f56c0154d2fd5c8",
     "574eb85d00d89dcce3cb796c00d17c63dd52ab4d15e595514df4526ee25919ea",
     "aa737331d168b3ffa1418122a3d7475937c0e0a9032cd55c5a324d7bab9f9fe7"},
};

TEST(Sha3, MultiBlockKnownAnswers) {
  for (const auto& kat : kSpongeKats) {
    Bytes m = pattern(kat.len);
    EXPECT_EQ(to_hex(sha3_256(m)), kat.sha3_256) << "len " << kat.len;
    EXPECT_EQ(to_hex(sha3_512(m)), kat.sha3_512) << "len " << kat.len;
    EXPECT_EQ(to_hex(shake128(m, 32)), kat.shake128_32) << "len " << kat.len;
    EXPECT_EQ(to_hex(shake256(m, 32)), kat.shake256_32) << "len " << kat.len;
  }
}

// Bytes [4064, 4096) of a 4096-byte squeeze: 25 (SHAKE128) and 31
// (SHAKE256) output permutations past the first block.
TEST(Shake, LongSqueezeKnownAnswers) {
  Bytes m = pattern(169);
  Bytes out128 = shake128(m, 4096);
  Bytes out256 = shake256(m, 4096);
  EXPECT_EQ(to_hex(BytesView{out128}.subspan(4064)),
            "4a7ce66e7a02aeb7d53385972b54adffa37f9a80c9f256b2a4ba9200295098ef");
  EXPECT_EQ(to_hex(BytesView{out256}.subspan(4064)),
            "46899af02df040f05d7fcd4f83ecb2afa0f975fd2e97db9911079b2f42fdb487");
}

struct SpongeShape {
  std::size_t rate;
  std::uint8_t domain;
};

// SHA3-512, SHA3-256 and SHAKE128 rates; SHAKE256 shares SHA3-256's rate.
constexpr SpongeShape kShapes[] = {{72, 0x06}, {136, 0x06}, {168, 0x1f}};

Bytes sponge_oneshot(SpongeShape shape, BytesView msg, std::size_t out_len) {
  KeccakSponge sponge(shape.rate, shape.domain);
  sponge.absorb(msg);
  return sponge.squeeze(out_len);
}

TEST(KeccakSponge, AbsorbSplitAtEveryOffsetMatchesOneShot) {
  for (auto shape : kShapes) {
    // Three blocks plus a tail: every split puts the head, the lane-wise
    // whole blocks and the tail at a different offset.
    Bytes msg = pattern(3 * shape.rate + 5);
    Bytes expected = sponge_oneshot(shape, msg, 64);
    for (std::size_t split = 0; split <= msg.size(); ++split) {
      KeccakSponge sponge(shape.rate, shape.domain);
      sponge.absorb(BytesView{msg}.subspan(0, split));
      sponge.absorb(BytesView{msg}.subspan(split));
      ASSERT_EQ(sponge.squeeze(64), expected)
          << "rate " << shape.rate << " split " << split;
    }
    // Byte-at-a-time never takes the lane path.
    KeccakSponge bytewise(shape.rate, shape.domain);
    for (std::uint8_t b : msg) bytewise.absorb({&b, 1});
    EXPECT_EQ(bytewise.squeeze(64), expected) << "rate " << shape.rate;
  }
}

TEST(KeccakSponge, SqueezeSplitAtEveryOffsetMatchesOneShot) {
  for (auto shape : kShapes) {
    Bytes msg = pattern(shape.rate + 3);
    std::size_t out_len = 3 * shape.rate + 5;
    Bytes expected = sponge_oneshot(shape, msg, out_len);
    for (std::size_t split = 0; split <= out_len; ++split) {
      KeccakSponge sponge(shape.rate, shape.domain);
      sponge.absorb(msg);
      Bytes head = sponge.squeeze(split);
      Bytes tail = sponge.squeeze(out_len - split);
      ASSERT_EQ(concat(head, tail), expected)
          << "rate " << shape.rate << " split " << split;
    }
  }
}

TEST(KeccakSponge, AbsorbAfterSqueezeThrows) {
  KeccakSponge sponge(136, 0x1f);
  sponge.absorb(ascii("abc"));
  sponge.squeeze(1);
  EXPECT_THROW(sponge.absorb(ascii("d")), std::logic_error);
  sponge.reset();  // reset re-opens absorbing
  EXPECT_NO_THROW(sponge.absorb(ascii("d")));

  Shake xof(128);
  xof.squeeze(1);
  EXPECT_THROW(xof.absorb(ascii("x")), std::logic_error);
}

TEST(Shake, RejectsUnsupportedSecurityLevels) {
  EXPECT_NO_THROW(Shake(128));
  EXPECT_NO_THROW(Shake(256));
  for (int bits : {0, 127, 129, 224, 255, 257, 384, 512, -128})
    EXPECT_THROW(Shake{bits}, std::invalid_argument) << bits;
}

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, ascii("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(ascii("Jefe"),
                               ascii("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231LongKey) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, ascii("Test Using Larger Than Block-Size Key - Hash Key "
                           "First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = from_hex("000102030405060708090a0b0c");
  Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  Bytes prk = hkdf_extract_sha256(salt, ikm);
  EXPECT_EQ(to_hex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  Bytes okm = hkdf_expand_sha256(prk, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// RFC 5869 2.3: L <= 255 * HashLen. The one-byte block counter used to wrap
// past that and return repeated, wrong output.
TEST(Hkdf, ExpandLengthLimit) {
  Bytes prk = hkdf_extract_sha256(ascii("salt"), ascii("ikm"));
  Bytes info = ascii("info");
  Bytes max = hkdf_expand_sha256(prk, info, 255 * 32);
  ASSERT_EQ(max.size(), 8160u);
  EXPECT_EQ(Bytes(max.begin(), max.begin() + 42),
            hkdf_expand_sha256(prk, info, 42));
  EXPECT_THROW(hkdf_expand_sha256(prk, info, 255 * 32 + 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace pqtls::crypto
