// Accumulator engine correctness — typed across all four engines
// (acc1/acc2 x BN254/mock), plus acc2-specific aggregation and the
// unforgeability game from Definition 8.1 played with tampered proofs.

#include <gtest/gtest.h>

#include "accum/acc1.h"
#include "accum/acc2.h"
#include "accum/engine.h"
#include "accum/mock.h"
#include "chain/transform.h"
#include "common/rand.h"

namespace vchain::accum {
namespace {

static_assert(AccumulatorEngine<Acc1Engine>);
static_assert(AccumulatorEngine<Acc2Engine>);
static_assert(AccumulatorEngine<MockAcc1Engine>);
static_assert(AccumulatorEngine<MockAcc2Engine>);

AccParams SmallParams() {
  AccParams p;
  p.universe_bits = 12;  // tiny universe keeps test key material cheap
  return p;
}

template <typename Engine>
Engine MakeEngine();

template <>
Acc1Engine MakeEngine<Acc1Engine>() {
  return Acc1Engine(KeyOracle::Create(/*seed=*/77, SmallParams()));
}
template <>
Acc2Engine MakeEngine<Acc2Engine>() {
  return Acc2Engine(KeyOracle::Create(/*seed=*/77, SmallParams()));
}
template <>
MockAcc1Engine MakeEngine<MockAcc1Engine>() {
  return MockAcc1Engine(KeyOracle::Create(/*seed=*/77, SmallParams()));
}
template <>
MockAcc2Engine MakeEngine<MockAcc2Engine>() {
  return MockAcc2Engine(KeyOracle::Create(/*seed=*/77, SmallParams()));
}

template <typename Engine>
class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : engine_(MakeEngine<Engine>()) {}
  Engine engine_;
};

using AllEngines =
    ::testing::Types<Acc1Engine, Acc2Engine, MockAcc1Engine, MockAcc2Engine>;
TYPED_TEST_SUITE(EngineTest, AllEngines);

TYPED_TEST(EngineTest, DisjointProofVerifies) {
  Multiset w{10, 20, 30};
  Multiset clause{40, 50};
  auto proof = this->engine_.ProveDisjoint(w, clause);
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  EXPECT_TRUE(this->engine_.VerifyDisjoint(this->engine_.Digest(w),
                                           this->engine_.QueryDigestOf(clause),
                                           proof.value()));
}

TYPED_TEST(EngineTest, IntersectingSetsRefuseProof) {
  Multiset w{10, 20, 30};
  Multiset clause{30, 50};
  auto proof = this->engine_.ProveDisjoint(w, clause);
  EXPECT_FALSE(proof.ok());
}

TYPED_TEST(EngineTest, ProofDoesNotVerifyAgainstWrongDigest) {
  Multiset w{10, 20, 30};
  Multiset other{11, 21};
  Multiset clause{40, 50};
  auto proof = this->engine_.ProveDisjoint(w, clause);
  ASSERT_TRUE(proof.ok());
  EXPECT_FALSE(this->engine_.VerifyDisjoint(
      this->engine_.Digest(other), this->engine_.QueryDigestOf(clause),
      proof.value()));
}

TYPED_TEST(EngineTest, ProofDoesNotVerifyAgainstWrongClause) {
  Multiset w{10, 20, 30};
  Multiset clause{40, 50};
  Multiset other_clause{60};
  auto proof = this->engine_.ProveDisjoint(w, clause);
  ASSERT_TRUE(proof.ok());
  EXPECT_FALSE(this->engine_.VerifyDisjoint(
      this->engine_.Digest(w), this->engine_.QueryDigestOf(other_clause),
      proof.value()));
}

TYPED_TEST(EngineTest, DigestDeterministic) {
  Multiset w{1, 2, 3, 3};
  EXPECT_EQ(this->engine_.Digest(w), this->engine_.Digest(w));
  Multiset w2{1, 2};
  EXPECT_FALSE(this->engine_.Digest(w) == this->engine_.Digest(w2));
}

TYPED_TEST(EngineTest, MultiplicityChangesDigest) {
  Multiset once{7};
  Multiset twice;
  twice.Add(7, 2);
  EXPECT_FALSE(this->engine_.Digest(once) == this->engine_.Digest(twice));
}

TYPED_TEST(EngineTest, MultisetWithMultiplicityStillProvable) {
  Multiset w;
  w.Add(10, 3);
  w.Add(20, 2);
  Multiset clause{40};
  auto proof = this->engine_.ProveDisjoint(w, clause);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(this->engine_.VerifyDisjoint(this->engine_.Digest(w),
                                           this->engine_.QueryDigestOf(clause),
                                           proof.value()));
}

TYPED_TEST(EngineTest, DigestSerdeRoundTrip) {
  Multiset w{5, 6, 7};
  auto d = this->engine_.Digest(w);
  ByteWriter bw;
  this->engine_.SerializeDigest(d, &bw);
  EXPECT_EQ(bw.size(), this->engine_.DigestByteSize());
  ByteReader br(ByteSpan(bw.bytes().data(), bw.bytes().size()));
  decltype(d) back;
  ASSERT_TRUE(this->engine_.DeserializeDigest(&br, &back).ok());
  EXPECT_EQ(back, d);
}

TYPED_TEST(EngineTest, ProofSerdeRoundTrip) {
  Multiset w{5, 6, 7};
  Multiset clause{9};
  auto proof = this->engine_.ProveDisjoint(w, clause);
  ASSERT_TRUE(proof.ok());
  ByteWriter bw;
  this->engine_.SerializeProof(proof.value(), &bw);
  EXPECT_EQ(bw.size(), this->engine_.ProofByteSize());
  ByteReader br(ByteSpan(bw.bytes().data(), bw.bytes().size()));
  typename TypeParam::Proof back;
  ASSERT_TRUE(this->engine_.DeserializeProof(&br, &back).ok());
  EXPECT_TRUE(this->engine_.VerifyDisjoint(
      this->engine_.Digest(w), this->engine_.QueryDigestOf(clause), back));
}

TYPED_TEST(EngineTest, RandomizedDisjointSweep) {
  Rng rng(99);
  for (int round = 0; round < 8; ++round) {
    Multiset w, clause;
    // Disjoint by construction: distinct ranges (mapped ids stay distinct in
    // the 12-bit universe because raw ids are < 2^12 - 1 here).
    int nw = static_cast<int>(rng.Range(1, 12));
    int nc = static_cast<int>(rng.Range(1, 4));
    for (int i = 0; i < nw; ++i) w.Add(rng.Range(1, 1000), rng.Range(1, 3));
    for (int i = 0; i < nc; ++i) clause.Add(rng.Range(1001, 2000));
    auto proof = this->engine_.ProveDisjoint(w, clause);
    ASSERT_TRUE(proof.ok());
    EXPECT_TRUE(this->engine_.VerifyDisjoint(
        this->engine_.Digest(w), this->engine_.QueryDigestOf(clause),
        proof.value()));
  }
}

// --- acc2-only aggregation (paper §6.3) -------------------------------------

template <typename Engine>
class AggregationTest : public ::testing::Test {
 protected:
  AggregationTest() : engine_(MakeEngine<Engine>()) {}
  Engine engine_;
};

using AggEngines = ::testing::Types<Acc2Engine, MockAcc2Engine>;
TYPED_TEST_SUITE(AggregationTest, AggEngines);

TYPED_TEST(AggregationTest, SumDigestsEqualsDigestOfSum) {
  Multiset a{1, 2, 3};
  Multiset b{2, 4};
  Multiset c{9};
  auto sum = this->engine_.SumDigests(
      {this->engine_.Digest(a), this->engine_.Digest(b),
       this->engine_.Digest(c)});
  EXPECT_EQ(sum, this->engine_.Digest(a.SumWith(b).SumWith(c)));
}

TYPED_TEST(AggregationTest, ProofSumVerifiesAgainstSummedDigest) {
  Multiset a{1, 2, 3};
  Multiset b{2, 4};
  Multiset clause{100, 200};
  auto pa = this->engine_.ProveDisjoint(a, clause);
  auto pb = this->engine_.ProveDisjoint(b, clause);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  auto agg_proof = this->engine_.SumProofs({pa.value(), pb.value()});
  auto agg_digest = this->engine_.SumDigests(
      {this->engine_.Digest(a), this->engine_.Digest(b)});
  EXPECT_TRUE(this->engine_.VerifyDisjoint(
      agg_digest, this->engine_.QueryDigestOf(clause), agg_proof));
}

TYPED_TEST(AggregationTest, AggregatedProofRejectsForeignDigest) {
  Multiset a{1, 2, 3};
  Multiset b{2, 4};
  Multiset clause{100, 200};
  auto pa = this->engine_.ProveDisjoint(a, clause);
  ASSERT_TRUE(pa.ok());
  auto agg_digest = this->engine_.SumDigests(
      {this->engine_.Digest(a), this->engine_.Digest(b)});
  // Proof covering only `a` must not verify for the digest of a+b.
  EXPECT_FALSE(this->engine_.VerifyDisjoint(
      agg_digest, this->engine_.QueryDigestOf(clause), pa.value()));
}

// --- unforgeability spot-checks (Definition 8.1 adversary) ------------------

TEST(UnforgeabilityTest, Acc1TamperedProofRejected) {
  Acc1Engine engine = MakeEngine<Acc1Engine>();
  Multiset w{10, 20};
  Multiset clause{30};
  auto proof = engine.ProveDisjoint(w, clause);
  ASSERT_TRUE(proof.ok());
  Acc1Engine::Proof bad = proof.value();
  bad.f1 = crypto::G2Mul(Fr::FromUint64(12345)).ToAffine();
  EXPECT_FALSE(
      engine.VerifyDisjoint(engine.Digest(w), engine.QueryDigestOf(clause), bad));
}

TEST(UnforgeabilityTest, Acc2ProofForIntersectingSetsFailsVerification) {
  // Even if an adversary hands us a "proof" computed as A*B for
  // intersecting multisets via the trusted path, verification against the
  // honest digests of *different* claimed sets must fail.
  auto oracle = KeyOracle::Create(/*seed=*/77, SmallParams());
  Acc2Engine engine(oracle);
  Multiset w{10, 20, 30};
  Multiset clause{40};
  // Forge: proof for (w', clause) with w' != w.
  Multiset w_prime{11, 21};
  Acc2Engine trusted(oracle, ProverMode::kTrustedFast);
  auto forged = trusted.ProveDisjoint(w_prime, clause);
  ASSERT_TRUE(forged.ok());
  EXPECT_FALSE(engine.VerifyDisjoint(engine.Digest(w),
                                     engine.QueryDigestOf(clause),
                                     forged.value()));
}

// --- trusted fast path must be byte-identical --------------------------------

TEST(ProverModeTest, Acc1FastDigestMatchesHonest) {
  auto oracle = KeyOracle::Create(/*seed=*/123, SmallParams());
  Acc1Engine honest(oracle, ProverMode::kHonest);
  Acc1Engine fast(oracle, ProverMode::kTrustedFast);
  Multiset w;
  Rng rng(5);
  for (int i = 0; i < 9; ++i) w.Add(rng.Next(), rng.Range(1, 3));
  EXPECT_EQ(honest.Digest(w), fast.Digest(w));
  Multiset clause{123, 456};
  auto ph = honest.ProveDisjoint(w, clause);
  auto pf = fast.ProveDisjoint(w, clause);
  ASSERT_TRUE(ph.ok());
  ASSERT_TRUE(pf.ok());
  EXPECT_EQ(ph.value(), pf.value());
}

TEST(ProverModeTest, Acc2FastDigestMatchesHonest) {
  auto oracle = KeyOracle::Create(/*seed=*/123, SmallParams());
  Acc2Engine honest(oracle, ProverMode::kHonest);
  Acc2Engine fast(oracle, ProverMode::kTrustedFast);
  Multiset w;
  Rng rng(6);
  for (int i = 0; i < 9; ++i) w.Add(rng.Next(), rng.Range(1, 3));
  EXPECT_EQ(honest.Digest(w), fast.Digest(w));
  Multiset clause{EncodeKeyword("a"), EncodeKeyword("b")};
  auto ph = honest.ProveDisjoint(w, clause);
  auto pf = fast.ProveDisjoint(w, clause);
  if (ph.ok() && pf.ok()) {
    EXPECT_EQ(ph.value(), pf.value());
  } else {
    // Mapped collision between w and clause: both paths must agree.
    EXPECT_EQ(ph.ok(), pf.ok());
  }
}

// The same equality at realistic size: hundreds of distinct elements against
// a 9-keyword clause and a range-cover clause, i.e. thousands of cross terms
// served through the oracle's batch call.
TEST(ProverModeTest, Acc2FastProofMatchesHonestAtRealisticSize) {
  auto oracle = KeyOracle::Create(/*seed=*/124);  // q = 2^16, as deployed
  Acc2Engine honest(oracle, ProverMode::kHonest);
  Acc2Engine fast(oracle, ProverMode::kTrustedFast);
  chain::NumericSchema schema;
  int proved = 0;
  for (uint64_t seed : {21ULL, 22ULL, 23ULL}) {
    Rng rng(seed);
    Multiset w;
    while (w.DistinctSize() < 300) w.Add(rng.Next(), rng.Range(1, 3));
    EXPECT_EQ(honest.Digest(w), fast.Digest(w)) << "seed=" << seed;

    Multiset keywords;
    for (int i = 0; i < 9; ++i) {
      keywords.Add(EncodeKeyword("kw" + std::to_string(rng.Next())));
    }
    uint64_t lo = rng.Below(schema.DomainSize() / 2);
    uint64_t hi = lo + rng.Below(schema.DomainSize() / 2);
    Multiset range;
    for (Element e : chain::RangeCoverElements(lo, hi, /*dim=*/0, schema)) {
      range.Add(e);
    }
    for (const Multiset* clause : {&keywords, &range}) {
      auto ph = honest.ProveDisjoint(w, *clause);
      auto pf = fast.ProveDisjoint(w, *clause);
      ASSERT_EQ(ph.ok(), pf.ok()) << "seed=" << seed;
      if (!ph.ok()) continue;  // mapped collision: both refused
      EXPECT_EQ(ph.value(), pf.value()) << "seed=" << seed;
      ++proved;
    }
  }
  EXPECT_GE(proved, 4);  // collisions stay the exception at q = 2^16
}

TEST(MappedIntersectsTest, UsesEngineMapping) {
  auto oracle = KeyOracle::Create(/*seed=*/1, SmallParams());
  Acc2Engine acc2(oracle);
  uint64_t q = oracle->params().UniverseSize();
  // Two raw ids that collide mod (q-1).
  Element a = 5;
  Element b = 5 + (q - 1);
  EXPECT_EQ(acc2.MapElement(a), acc2.MapElement(b));
  Multiset w{a};
  Multiset clause{b};
  EXPECT_TRUE(MappedIntersects(acc2, w, clause));
  EXPECT_FALSE(w.Intersects(clause));
  // acc1 maps identically, so no collision there.
  Acc1Engine acc1(oracle);
  EXPECT_FALSE(MappedIntersects(acc1, w, clause));
}

TEST(KeyOracleTest, PowersAreConsistent) {
  auto oracle = KeyOracle::Create(/*seed=*/9, SmallParams());
  // g^{s^j} must equal commit(s^j) for dense and sparse paths.
  oracle->WarmupG1(8);
  for (uint64_t j : {0ULL, 1ULL, 5ULL, 8ULL, 1000ULL}) {
    crypto::G1Affine p = oracle->G1PowerOf(j);
    crypto::G1Affine expect = oracle->CommitG1(oracle->SecretPow(j)).ToAffine();
    EXPECT_EQ(p, expect) << "j=" << j;
  }
  for (uint64_t j : {0ULL, 3ULL, 700ULL}) {
    crypto::G2Affine p = oracle->G2PowerOf(j);
    crypto::G2Affine expect = oracle->CommitG2(oracle->SecretPow(j)).ToAffine();
    EXPECT_EQ(p, expect) << "j=" << j;
  }
}

// Signed 8-bit digits: 128 is the largest positive digit, 129 and 255 borrow
// from the next window, and all-0x80 / all-0x7F / all-0xFF byte patterns
// drive the carry through every window.
std::vector<U256> DigitEdgeScalars() {
  U256 r_minus_1 = (Fr::Zero() - Fr::One()).ToCanonical();
  std::vector<U256> out = {U256(0),   U256(1),   U256(127), U256(128),
                           U256(129), U256(255), U256(256), r_minus_1};
  for (uint64_t byte : {0x80ULL, 0x7FULL, 0xFFULL}) {
    uint64_t limb = byte * 0x0101010101010101ULL;
    // Top byte cleared keeps the value below r, so CommitG1 sees it as is.
    out.push_back(U256(limb, limb, limb, limb >> 8));
  }
  return out;
}

TEST(KeyOracleTest, FixedBaseMatchesScalarMul) {
  auto oracle = KeyOracle::Create(/*seed=*/10, SmallParams());
  Rng rng(11);
  for (int i = 0; i < 10; ++i) {
    Fr k = Fr::FromU256Reduce(
        crypto::U256(rng.Next(), rng.Next(), rng.Next(), 0));
    EXPECT_TRUE(oracle->CommitG1(k).Equal(crypto::G1Mul(k)));
  }
  G1 g1 = G1::FromAffine(crypto::G1Generator());
  G2 g2 = G2::FromAffine(crypto::G2Generator());
  for (const U256& k : DigitEdgeScalars()) {
    Fr v = Fr::FromU256Reduce(k);
    ASSERT_EQ(v.ToCanonical(), k);
    EXPECT_TRUE(oracle->CommitG1(v).Equal(g1.ScalarMul(k)))
        << crypto::U256ToDecimal(k);
    EXPECT_TRUE(oracle->CommitG2(v).Equal(g2.ScalarMul(k)))
        << crypto::U256ToDecimal(k);
  }
  // Full 256-bit patterns (>= 2^255 for 0x80 and 0xFF) carry into the top
  // window, which no Fr scalar reaches; drive the tables directly.
  FixedBaseTable<crypto::Fp> t1(crypto::G1Generator());
  FixedBaseTable<crypto::Fp2> t2(crypto::G2Generator());
  std::vector<U256> wide = {U256(5, 0, 0, 0x8100000000000000ULL)};
  for (uint64_t byte : {0x80ULL, 0x7FULL, 0xFFULL}) {
    uint64_t limb = byte * 0x0101010101010101ULL;
    wide.push_back(U256(limb, limb, limb, limb));
  }
  for (const U256& k : wide) {
    EXPECT_TRUE(t1.Mul(k).Equal(g1.ScalarMul(k))) << crypto::U256ToDecimal(k);
    EXPECT_TRUE(t2.Mul(k).Equal(g2.ScalarMul(k))) << crypto::U256ToDecimal(k);
  }
}

TEST(KeyOracleTest, BatchPowersMatchSinglePowers) {
  auto oracle = KeyOracle::Create(/*seed=*/13, SmallParams());
  uint64_t top = 2 * oracle->params().UniverseSize() - 2;
  std::vector<G1Affine> out(2);
  oracle->G1PowersOfUncached({}, &out);
  EXPECT_TRUE(out.empty());
  std::vector<uint64_t> js = {0, 7, 7, top, 1, 0, top - 1, 4096, 7};
  oracle->G1PowersOfUncached(js, &out);
  ASSERT_EQ(out.size(), js.size());
  for (size_t i = 0; i < js.size(); ++i) {
    EXPECT_EQ(out[i], oracle->CommitG1(oracle->SecretPow(js[i])).ToAffine())
        << "j=" << js[i];
  }
}

}  // namespace
}  // namespace vchain::accum
