#include "rdf/triple_store.h"

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace sofos {
namespace {

Term Iri(const std::string& s) { return Term::Iri("http://t/" + s); }

class SmallStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // s1 -p1-> o1, o2 ; s2 -p1-> o1 ; s2 -p2-> o3 ; s3 -p2-> o3
    store_.Add(Iri("s1"), Iri("p1"), Iri("o1"));
    store_.Add(Iri("s1"), Iri("p1"), Iri("o2"));
    store_.Add(Iri("s2"), Iri("p1"), Iri("o1"));
    store_.Add(Iri("s2"), Iri("p2"), Iri("o3"));
    store_.Add(Iri("s3"), Iri("p2"), Iri("o3"));
    store_.Finalize();
  }

  TermId Id(const std::string& s) {
    return store_.mutable_dictionary()->Intern(Iri(s));
  }

  TripleStore store_;
};

TEST_F(SmallStoreTest, CountsAndBasics) {
  EXPECT_EQ(store_.NumTriples(), 5u);
  EXPECT_TRUE(store_.finalized());
  EXPECT_EQ(store_.NumPredicates(), 2u);
}

TEST_F(SmallStoreTest, FullScan) {
  EXPECT_EQ(store_.Scan(kNullTermId, kNullTermId, kNullTermId).size(), 5u);
}

TEST_F(SmallStoreTest, ScanBySubject) {
  EXPECT_EQ(store_.Scan(Id("s1"), kNullTermId, kNullTermId).size(), 2u);
  EXPECT_EQ(store_.Scan(Id("s2"), kNullTermId, kNullTermId).size(), 2u);
  EXPECT_EQ(store_.Scan(Id("s3"), kNullTermId, kNullTermId).size(), 1u);
}

TEST_F(SmallStoreTest, ScanByPredicate) {
  EXPECT_EQ(store_.Scan(kNullTermId, Id("p1"), kNullTermId).size(), 3u);
  EXPECT_EQ(store_.Scan(kNullTermId, Id("p2"), kNullTermId).size(), 2u);
}

TEST_F(SmallStoreTest, ScanByObject) {
  EXPECT_EQ(store_.Scan(kNullTermId, kNullTermId, Id("o1")).size(), 2u);
  EXPECT_EQ(store_.Scan(kNullTermId, kNullTermId, Id("o3")).size(), 2u);
}

TEST_F(SmallStoreTest, ScanBoundPairs) {
  EXPECT_EQ(store_.Scan(Id("s1"), Id("p1"), kNullTermId).size(), 2u);
  EXPECT_EQ(store_.Scan(Id("s1"), kNullTermId, Id("o2")).size(), 1u);
  EXPECT_EQ(store_.Scan(kNullTermId, Id("p2"), Id("o3")).size(), 2u);
}

TEST_F(SmallStoreTest, ScanFullyBound) {
  EXPECT_TRUE(store_.Contains(Id("s1"), Id("p1"), Id("o1")));
  EXPECT_FALSE(store_.Contains(Id("s1"), Id("p2"), Id("o1")));
}

TEST_F(SmallStoreTest, ScanMissesReturnEmpty) {
  TermId ghost = store_.mutable_dictionary()->Intern(Iri("ghost"));
  EXPECT_EQ(store_.Scan(ghost, kNullTermId, kNullTermId).size(), 0u);
  EXPECT_TRUE(store_.Scan(ghost, kNullTermId, kNullTermId).empty());
}

TEST_F(SmallStoreTest, DuplicatesRemovedOnFinalize) {
  store_.Add(Iri("s1"), Iri("p1"), Iri("o1"));  // duplicate
  EXPECT_FALSE(store_.finalized());
  store_.Finalize();
  EXPECT_EQ(store_.NumTriples(), 5u);
}

TEST_F(SmallStoreTest, PredicateStats) {
  const PredicateStats* p1 = store_.StatsFor(Id("p1"));
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(p1->triples, 3u);
  EXPECT_EQ(p1->distinct_subjects, 2u);  // s1, s2
  EXPECT_EQ(p1->distinct_objects, 2u);   // o1, o2

  const PredicateStats* p2 = store_.StatsFor(Id("p2"));
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p2->triples, 2u);
  EXPECT_EQ(p2->distinct_subjects, 2u);  // s2, s3
  EXPECT_EQ(p2->distinct_objects, 1u);   // o3

  EXPECT_EQ(store_.StatsFor(Id("nosuch")), nullptr);
}

TEST_F(SmallStoreTest, NodeCountExcludesPredicates) {
  // Nodes: s1 s2 s3 o1 o2 o3 = 6 (p1/p2 appear only as predicates).
  EXPECT_EQ(store_.NumNodes(), 6u);
}

TEST_F(SmallStoreTest, IncrementalAddAndRefinalize) {
  store_.Add(Iri("s4"), Iri("p1"), Iri("o1"));
  store_.Finalize();
  EXPECT_EQ(store_.NumTriples(), 6u);
  EXPECT_EQ(store_.Scan(kNullTermId, Id("p1"), kNullTermId).size(), 4u);
  EXPECT_EQ(store_.StatsFor(Id("p1"))->distinct_subjects, 3u);
}

TEST_F(SmallStoreTest, MemoryBytesPositiveAndGrows) {
  uint64_t before = store_.MemoryBytes();
  EXPECT_GT(before, 0u);
  for (int i = 0; i < 100; ++i) {
    store_.Add(Iri("bulk" + std::to_string(i)), Iri("p1"), Iri("o1"));
  }
  store_.Finalize();
  EXPECT_GT(store_.MemoryBytes(), before);
}

TEST(TripleStoreTest, EmptyStoreFinalizes) {
  TripleStore store;
  store.Finalize();
  EXPECT_EQ(store.NumTriples(), 0u);
  EXPECT_EQ(store.NumNodes(), 0u);
  EXPECT_EQ(store.Scan(kNullTermId, kNullTermId, kNullTermId).size(), 0u);
}

TEST(TripleStoreTest, FinalizeIsIdempotent) {
  TripleStore store;
  store.Add(Iri("a"), Iri("b"), Iri("c"));
  store.Finalize();
  store.Finalize();
  EXPECT_EQ(store.NumTriples(), 1u);
}

TEST(TripleStoreTest, LiteralObjectsAreNodes) {
  TripleStore store;
  store.Add(Iri("a"), Iri("p"), Term::Integer(5));
  store.Add(Iri("b"), Iri("p"), Term::Integer(5));
  store.Finalize();
  // Nodes: a, b, "5" → 3.
  EXPECT_EQ(store.NumNodes(), 3u);
}

/// Ordered brute-force oracle over an independent model of the graph: the
/// matching triples sorted by the field priority of the index Scan()
/// serves that bound-set from.
std::vector<std::tuple<TermId, TermId, TermId>> OracleScan(
    const std::set<Triple>& model, TermId s, TermId p, TermId o) {
  const TripleIdPattern pattern{s, p, o};
  const std::array<int, 3> order = TripleStore::ScanFieldOrder(
      s != kNullTermId, p != kNullTermId, o != kNullTermId);
  auto key = [&order](const Triple& t) {
    const TermId f[3] = {t.s, t.p, t.o};
    return std::make_tuple(f[order[0]], f[order[1]], f[order[2]]);
  };
  std::vector<Triple> matches;
  for (const Triple& t : model) {
    if (pattern.Matches(t)) matches.push_back(t);
  }
  std::sort(matches.begin(), matches.end(),
            [&key](const Triple& a, const Triple& b) { return key(a) < key(b); });
  std::vector<std::tuple<TermId, TermId, TermId>> out;
  for (const Triple& t : matches) out.emplace_back(t.s, t.p, t.o);
  return out;
}

std::vector<std::tuple<TermId, TermId, TermId>> Image(
    const Triple* begin, const Triple* end) {
  std::vector<std::tuple<TermId, TermId, TermId>> out;
  for (const Triple* t = begin; t != end; ++t) out.emplace_back(t->s, t->p, t->o);
  return out;
}

/// Which probe shapes the oracle comparison actually exercised.
struct ShapesSeen {
  int spo_hits = 0;          // s and p bound, non-empty
  int sop_hits = 0;          // s and o bound, p free, non-empty
  int past_end_misses = 0;   // s above the largest subject id
};

/// Checks Scan() (exact order), Count() and NumNodes() against `model`,
/// probing ids from the graph, the largest subject and the one above it,
/// arbitrary interned ids, and ids past the end of the dictionary.
void ExpectMatchesOracle(const TripleStore& store, const std::set<Triple>& model,
                         Rng* rng, ShapesSeen* seen) {
  ASSERT_EQ(Image(store.triples().data(),
                  store.triples().data() + store.triples().size()),
            OracleScan(model, kNullTermId, kNullTermId, kNullTermId));
  std::set<TermId> nodes;
  for (const Triple& t : model) {
    nodes.insert(t.s);
    nodes.insert(t.o);
  }
  EXPECT_EQ(store.NumNodes(), nodes.size());

  const std::vector<Triple> all(model.begin(), model.end());
  const TermId max_subject = all.empty() ? 0 : all.back().s;
  const TermId num_terms = static_cast<TermId>(store.NumTerms());
  auto pick = [&](int field) -> TermId {
    switch (rng->Uniform(6)) {
      case 0:
        return num_terms + 1 + static_cast<TermId>(rng->Uniform(4));
      case 1:
        return static_cast<TermId>(1 + rng->Uniform(num_terms));
      case 2:
        return max_subject + static_cast<TermId>(rng->Uniform(2));
      default: {
        const Triple& t = all[rng->Uniform(all.size())];
        return field == 0 ? t.s : field == 1 ? t.p : t.o;
      }
    }
  };
  for (int trial = 0; trial < 200; ++trial) {
    const uint64_t mask = rng->Uniform(8);
    const TermId s = (mask & 1) ? pick(0) : kNullTermId;
    const TermId p = (mask & 2) ? pick(1) : kNullTermId;
    const TermId o = (mask & 4) ? pick(2) : kNullTermId;
    const auto expected = OracleScan(model, s, p, o);
    const TripleStore::ScanRange range = store.Scan(s, p, o);
    EXPECT_EQ(Image(range.begin(), range.end()), expected)
        << "s=" << s << " p=" << p << " o=" << o;
    EXPECT_EQ(store.Count(s, p, o), expected.size())
        << "s=" << s << " p=" << p << " o=" << o;

    if (s != kNullTermId && p != kNullTermId && !expected.empty()) {
      ++seen->spo_hits;
    }
    if (s != kNullTermId && p == kNullTermId && o != kNullTermId &&
        !expected.empty()) {
      ++seen->sop_hits;
    }
    if (s != kNullTermId && s > max_subject) {
      EXPECT_TRUE(expected.empty());
      ++seen->past_end_misses;
    }
  }
}

/// Property test: for random graphs, at shard counts {1, 2, 8} in both
/// layouts, every Scan()/Count() result equals the ordered
/// brute-force oracle — on a fresh Finalize() and after seeded ApplyDelta()
/// batches that add a subject above the largest subject id, delete every
/// triple of some subject (sometimes the largest), and churn random triples.
class ScanPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScanPropertyTest, ScanMatchesBruteForce) {
  ShapesSeen seen;
  for (const bool compact : {false, true}) {
    for (const size_t shards : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::string(compact ? "compact" : "sorted") +
                   " shard_count=" + std::to_string(shards));
      Rng rng(GetParam());
      TripleStore store;
      store.SetShardCount(shards);
      store.SetCompactLayout(compact);
      const int kSubjects = 20, kPredicates = 5, kObjects = 15;
      auto random_triple = [&rng, &store] {
        return Triple{
            store.Intern(Iri("s" + std::to_string(rng.Uniform(kSubjects)))),
            store.Intern(Iri("p" + std::to_string(rng.Uniform(kPredicates)))),
            store.Intern(Iri("o" + std::to_string(rng.Uniform(kObjects))))};
      };
      std::set<Triple> model;
      for (int i = 0; i < 200; ++i) {
        const Triple t = random_triple();
        store.Add(t.s, t.p, t.o);
        model.insert(t);
      }
      store.Finalize();
      ExpectMatchesOracle(store, model, &rng, &seen);

      for (int batch = 0; batch < 4; ++batch) {
        SCOPED_TRACE("delta batch " + std::to_string(batch));
        std::vector<Triple> adds, deletes;
        // A fresh subject interns above every existing id.
        const TermId fresh = store.Intern(
            Iri("fresh" + std::to_string(batch)));
        for (int i = 0; i < 3; ++i) {
          const Triple t = random_triple();
          adds.push_back(Triple{fresh, t.p, t.o});
        }
        // Drop a whole subject — every other batch the largest one, so
        // the directory shrinks.
        const TermId victim = batch % 2 == 1
                                  ? model.rbegin()->s
                                  : random_triple().s;
        for (const Triple& t : model) {
          if (t.s == victim) deletes.push_back(t);
        }
        for (int i = 0; i < 10; ++i) {
          (rng.Uniform(2) == 0 ? adds : deletes).push_back(random_triple());
        }
        // The store's semantics: (G \ deletes) ∪ adds.
        for (const Triple& t : adds) store.StageAdd(t.s, t.p, t.o);
        for (const Triple& t : deletes) {
          store.StageDelete(t.s, t.p, t.o);
          model.erase(t);
        }
        model.insert(adds.begin(), adds.end());
        store.ApplyDelta();
        ExpectMatchesOracle(store, model, &rng, &seen);
      }
    }
  }
  // The comparison above must have covered every directory shape.
  EXPECT_GT(seen.spo_hits, 0);
  EXPECT_GT(seen.sop_hits, 0);
  EXPECT_GT(seen.past_end_misses, 0);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ScanPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 1234));

}  // namespace
}  // namespace sofos
