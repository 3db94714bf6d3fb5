// Query model: CNF transformation, mapped matching, LocalMatch oracle
// consistency, and the SP proof cache.

#include <gtest/gtest.h>

#include "accum/mock.h"
#include "common/rand.h"
#include "core/proof_cache.h"
#include "core/query.h"
#include "workload/datasets.h"

namespace vchain::core {
namespace {

using accum::AccParams;
using accum::KeyOracle;
using accum::MockAcc1Engine;
using accum::MockAcc2Engine;

NumericSchema Schema() { return NumericSchema{2, 8}; }

TEST(TransformQueryTest, ClauseCountAndOrder) {
  Query q;
  q.ranges = {{0, 10, 20}, {1, 0, 255}};
  q.keyword_cnf = {{"a", "b"}, {"c"}};
  TransformedQuery tq = TransformQuery(q, Schema());
  // 2 range clauses followed by 2 keyword clauses.
  ASSERT_EQ(tq.clauses.size(), 4u);
  EXPECT_TRUE(tq.clauses[2].Contains(accum::EncodeKeyword("a")));
  EXPECT_TRUE(tq.clauses[2].Contains(accum::EncodeKeyword("b")));
  EXPECT_TRUE(tq.clauses[3].Contains(accum::EncodeKeyword("c")));
  // Full-domain range clause is the root prefix only.
  ASSERT_EQ(tq.clauses[1].DistinctSize(), 1u);
}

TEST(TransformQueryTest, MatchEquivalenceWithLocalMatch) {
  // For identity-mapping engines, mapped CNF matching over W' must agree
  // exactly with LocalMatch on attributes (time handled separately).
  auto oracle = KeyOracle::Create(1, AccParams{16});
  MockAcc1Engine engine(oracle);
  NumericSchema schema = Schema();
  Rng rng(9);
  for (int round = 0; round < 200; ++round) {
    Object o;
    o.numeric = {rng.Below(256), rng.Below(256)};
    if (rng.Chance(0.5)) o.keywords.push_back("red");
    if (rng.Chance(0.5)) o.keywords.push_back("blue");
    Query q;
    uint64_t a = rng.Below(256), b = rng.Below(256);
    q.ranges = {{0, std::min(a, b), std::max(a, b)}};
    if (rng.Chance(0.7)) q.keyword_cnf = {{"red"}};
    TransformedQuery tq = TransformQuery(q, schema);
    MappedQueryView view(engine, tq);
    Multiset w = chain::TransformObject(o, schema);
    EXPECT_EQ(view.Matches(engine, w), LocalMatch(o, q, schema))
        << o.ToString() << " vs " << q.ToString();
  }
}

TEST(MappedQueryViewTest, FindDisjointClause) {
  auto oracle = KeyOracle::Create(2, AccParams{16});
  MockAcc1Engine engine(oracle);
  Query q;
  q.keyword_cnf = {{"x"}, {"y", "z"}};
  TransformedQuery tq = TransformQuery(q, Schema());
  MappedQueryView view(engine, tq);

  Multiset has_x{accum::EncodeKeyword("x")};
  EXPECT_EQ(view.FindDisjointClause(engine, has_x), 1);  // misses {y,z}
  Multiset has_both{accum::EncodeKeyword("x"), accum::EncodeKeyword("z")};
  EXPECT_EQ(view.FindDisjointClause(engine, has_both), -1);
  EXPECT_TRUE(view.Matches(engine, has_both));
  EXPECT_FALSE(view.Matches(engine, has_x));
}

TEST(MappedQueryViewTest, Acc2MappingCollisionsRespected) {
  auto oracle = KeyOracle::Create(3, AccParams{10});  // tiny universe
  MockAcc2Engine engine(oracle);
  uint64_t q_minus_1 = oracle->params().UniverseSize() - 1;
  Query q;
  q.keyword_cnf = {{"probe"}};
  TransformedQuery tq = TransformQuery(q, Schema());
  MappedQueryView view(engine, tq);
  // An element congruent to the probe keyword modulo (q-1) must count as a
  // match under the acc2 view even though the raw ids differ.
  accum::Element probe = accum::EncodeKeyword("probe");
  Multiset collider{probe + q_minus_1};
  EXPECT_TRUE(view.Matches(engine, collider));
  MockAcc1Engine identity(oracle);
  MappedQueryView view1(identity, tq);
  EXPECT_FALSE(view1.Matches(identity, collider));
}

TEST(ProofCacheTest, HitsOnRepeatedRequests) {
  auto oracle = KeyOracle::Create(4, AccParams{16});
  MockAcc2Engine engine(oracle);
  ProofCache<MockAcc2Engine> cache;
  Multiset w{1, 2, 3};
  Multiset clause{50, 60};
  auto p1 = cache.GetOrProve(engine, w, clause);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  auto p2 = cache.GetOrProve(engine, w, clause);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(p1.value(), p2.value());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ProofCacheTest, DistinctKeysDoNotCollide) {
  auto oracle = KeyOracle::Create(5, AccParams{16});
  MockAcc2Engine engine(oracle);
  ProofCache<MockAcc2Engine> cache;
  Multiset w1{1, 2};
  Multiset w2{3, 4};
  Multiset clause{99};
  auto pa = cache.GetOrProve(engine, w1, clause);
  auto pb = cache.GetOrProve(engine, w2, clause);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(pa.value() == pb.value());
}

TEST(ProofCacheTest, IntersectionErrorNotCached) {
  auto oracle = KeyOracle::Create(6, AccParams{16});
  MockAcc2Engine engine(oracle);
  ProofCache<MockAcc2Engine> cache;
  Multiset w{7};
  Multiset clause{7};
  auto p = cache.GetOrProve(engine, w, clause);
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(QueryToStringTest, ReadableForm) {
  Query q;
  q.time_start = 5;
  q.time_end = 9;
  q.ranges = {{0, 1, 2}};
  q.keyword_cnf = {{"a", "b"}, {"c"}};
  std::string s = q.ToString();
  EXPECT_NE(s.find("[5,9]"), std::string::npos);
  EXPECT_NE(s.find("(a OR b)"), std::string::npos);
  EXPECT_NE(s.find("AND"), std::string::npos);
}

}  // namespace
}  // namespace vchain::core
