/// Tests for the concurrency layer (common/thread_pool.h, common/parallel.h)
/// and the determinism contract of the parallel offline pipeline and the
/// batched workload runner: every engine result with N threads must equal
/// the num_threads=1 run (timing fields excepted).

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "rdf/dictionary.h"
#include "tests/core_test_util.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace sofos {
namespace {

using core::SofosEngine;
using testing::ExpectSameAnswers;
using testing::SetUpEngine;

TEST(ThreadPoolTest, SubmitReturnsValues) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, SubmitFromInsideTask) {
  ThreadPool pool(2);
  auto outer = pool.Submit([&pool] {
    // Fire-and-forget style nested submission must not deadlock as long as
    // the outer task does not block on the inner one.
    return pool.Submit([] { return 7; });
  });
  EXPECT_EQ(outer.get().get(), 7);
}

TEST(ParallelTest, ChunkIndexRangesCoverExactly) {
  for (size_t n : {0u, 1u, 2u, 7u, 16u, 61u}) {
    for (size_t chunks : {1u, 2u, 5u, 100u}) {
      auto ranges = ChunkIndexRanges(n, chunks);
      size_t covered = 0;
      size_t expect_begin = 0;
      for (const IndexRange& range : ranges) {
        EXPECT_EQ(range.begin, expect_begin);
        EXPECT_GT(range.end, range.begin);  // never empty
        covered += range.size();
        expect_begin = range.end;
      }
      EXPECT_EQ(covered, n);
      if (n > 0) {
        EXPECT_LE(ranges.size(), std::min(n, chunks));
      }
    }
  }
}

TEST(ParallelTest, ParallelForTouchesEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ParallelFor(&pool, kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelTest, ParallelForEachTouchesEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 333;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ParallelForEach(&pool, kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelTest, NullPoolRunsInlineInOrder) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 10, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
  order.clear();
  ParallelForEach(nullptr, 10, [&](size_t i) { order.push_back(i); });
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

/// Hammers Dictionary::Intern from many tasks with heavily overlapping term
/// sets while readers decode concurrently — the exact shape of parallel
/// aggregate-literal interning during batched query execution. Besides
/// that, every fourth task interns by value (InternInteger, InternDouble)
/// and reads the numeric column (Numbers), while another quarter interns
/// fresh terms, so the column and the value table grow under those readers.
TEST(DictionaryTest, ConcurrentInternIsRaceFree) {
  Dictionary dict;
  // Pre-intern a base vocabulary, as the store does before execution.
  for (int i = 0; i < 50; ++i) {
    dict.Intern(Term::Integer(i));
  }
  ThreadPool pool(8);
  constexpr int kTasks = 32;
  constexpr int kTermsPerTask = 200;
  constexpr int64_t kFresh = 100000;  // above every base value
  std::vector<std::vector<TermId>> ids(kTasks);
  ParallelForEach(&pool, kTasks, [&](size_t t) {
    for (int i = 0; i < kTermsPerTask; ++i) {
      // Overlapping ranges: every value is interned by several tasks.
      int value = (static_cast<int>(t) * 37 + i) % 300;
      Term term = Term::Integer(value);
      TermId id = dict.Intern(term);
      ids[t].push_back(id);
      // Concurrent read-back while other tasks intern.
      EXPECT_EQ(dict.term(id), term);
      EXPECT_EQ(dict.Lookup(term).value_or(kNullTermId), id);
      switch (t % 4) {
        case 0: {  // by value, then the whole column so far
          EXPECT_EQ(dict.InternInteger(value), id);
          std::vector<TermNumber> numbers(ids[t].size());
          dict.Numbers(ids[t].data(), ids[t].size(), numbers.data());
          for (size_t k = 0; k < numbers.size(); ++k) {
            EXPECT_EQ(numbers[k].kind, TermNumber::Kind::kInteger);
            EXPECT_EQ(numbers[k].integer,
                      (static_cast<int>(t) * 37 + static_cast<int>(k)) % 300);
          }
          break;
        }
        case 1: {  // doubles by value, overlapping across tasks
          const double half = value + 0.5;
          const TermId d = dict.InternDouble(half);
          EXPECT_EQ(dict.term(d), Term::Double(half));
          TermNumber number;
          dict.Numbers(&d, 1, &number);
          EXPECT_EQ(number.kind, TermNumber::Kind::kDouble);
          EXPECT_EQ(number.real, half);
          break;
        }
        case 2:  // fresh terms, numeric and not
          dict.Intern(Term::String("fresh " + std::to_string(t) + " " +
                                   std::to_string(i)));
          dict.Intern(Term::Integer(kFresh + static_cast<int64_t>(t) *
                                                 kTermsPerTask + i));
          break;
        default:
          break;
      }
    }
  });
  // Same term ⇒ same id across all tasks.
  std::set<TermId> distinct;
  std::set<int> halves;
  size_t fresh = 0;
  for (int t = 0; t < kTasks; ++t) {
    for (int i = 0; i < kTermsPerTask; ++i) {
      int value = (t * 37 + i) % 300;
      EXPECT_EQ(ids[t][i], dict.Lookup(Term::Integer(value)).value())
          << "task " << t << " item " << i;
      distinct.insert(ids[t][i]);
      if (t % 4 == 1) halves.insert(value);
      if (t % 4 == 2) {
        const int64_t v = kFresh + static_cast<int64_t>(t) * kTermsPerTask + i;
        EXPECT_EQ(dict.InternInteger(v), dict.Lookup(Term::Integer(v)).value());
        fresh += 2;
      }
    }
  }
  for (int value : halves) {
    EXPECT_EQ(dict.InternDouble(value + 0.5),
              dict.Lookup(Term::Double(value + 0.5)).value());
  }
  EXPECT_EQ(distinct.size(), 300u);
  // 0..49 pre-interned ⊂ 0..299, plus the halves and the fresh terms.
  EXPECT_EQ(dict.size(), 300u + halves.size() + fresh);
}

void ExpectSameViewStats(const core::LatticeProfile& a,
                         const core::LatticeProfile& b,
                         const std::string& context) {
  ASSERT_EQ(a.views.size(), b.views.size()) << context;
  EXPECT_EQ(a.base_triples, b.base_triples) << context;
  EXPECT_EQ(a.base_nodes, b.base_nodes) << context;
  EXPECT_EQ(a.base_pattern_rows, b.base_pattern_rows) << context;
  for (size_t mask = 0; mask < a.views.size(); ++mask) {
    const core::ViewStats& va = a.views[mask];
    const core::ViewStats& vb = b.views[mask];
    EXPECT_EQ(va.mask, vb.mask) << context << " mask " << mask;
    EXPECT_EQ(va.result_rows, vb.result_rows) << context << " mask " << mask;
    EXPECT_EQ(va.encoded_triples, vb.encoded_triples)
        << context << " mask " << mask;
    EXPECT_EQ(va.encoded_nodes, vb.encoded_nodes)
        << context << " mask " << mask;
    EXPECT_EQ(va.encoded_bytes, vb.encoded_bytes)
        << context << " mask " << mask;
    EXPECT_EQ(va.estimated, vb.estimated) << context << " mask " << mask;
    // eval_micros is timing metadata and legitimately differs.
  }
}

class ParallelEquivalenceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelEquivalenceTest, ProfileMatchesSerial) {
  const std::string dataset = GetParam();
  for (core::ProfileMode mode :
       {core::ProfileMode::kExact, core::ProfileMode::kSampled}) {
    SofosEngine serial_engine;
    SetUpEngine(&serial_engine, dataset);
    serial_engine.SetNumThreads(1);
    core::ProfileOptions options;
    options.mode = mode;
    auto serial = serial_engine.Profile(options);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    SofosEngine parallel_engine;
    SetUpEngine(&parallel_engine, dataset);
    parallel_engine.SetNumThreads(4);
    EXPECT_EQ(parallel_engine.num_threads(), 4u);
    auto parallel = parallel_engine.Profile(options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

    ExpectSameViewStats(
        **serial, **parallel,
        dataset + (mode == core::ProfileMode::kExact ? "/exact" : "/sampled"));
  }
}

TEST_P(ParallelEquivalenceTest, SelectViewsMatchesSerial) {
  const std::string dataset = GetParam();
  SofosEngine serial_engine;
  SetUpEngine(&serial_engine, dataset);
  serial_engine.SetNumThreads(1);
  SOFOS_ASSERT_OK(serial_engine.Profile().status());

  SofosEngine parallel_engine;
  SetUpEngine(&parallel_engine, dataset);
  parallel_engine.SetNumThreads(4);
  SOFOS_ASSERT_OK(parallel_engine.Profile().status());

  for (core::CostModelKind kind :
       {core::CostModelKind::kRandom, core::CostModelKind::kTripleCount,
        core::CostModelKind::kAggValueCount, core::CostModelKind::kNodeCount}) {
    SOFOS_ASSERT_OK_AND_ASSIGN(auto serial_model, serial_engine.MakeModel(kind));
    SOFOS_ASSERT_OK_AND_ASSIGN(auto parallel_model,
                               parallel_engine.MakeModel(kind));
    for (size_t k : {1u, 3u, 7u}) {
      SOFOS_ASSERT_OK_AND_ASSIGN(auto serial_sel,
                                 serial_engine.SelectViews(*serial_model, k));
      SOFOS_ASSERT_OK_AND_ASSIGN(
          auto parallel_sel, parallel_engine.SelectViews(*parallel_model, k));
      const std::string context = dataset + "/" + serial_model->name() +
                                  "/k=" + std::to_string(k);
      EXPECT_EQ(serial_sel.views, parallel_sel.views) << context;
      // Bit-identical benefits, not just approximately equal: the parallel
      // reduction must replay the serial argmax exactly.
      ASSERT_EQ(serial_sel.benefits.size(), parallel_sel.benefits.size())
          << context;
      for (size_t i = 0; i < serial_sel.benefits.size(); ++i) {
        EXPECT_EQ(serial_sel.benefits[i], parallel_sel.benefits[i])
            << context << " pick " << i;
      }
    }
  }
}

TEST_P(ParallelEquivalenceTest, RunWorkloadMatchesSerial) {
  const std::string dataset = GetParam();

  auto run = [&](unsigned num_threads) -> core::WorkloadReport {
    SofosEngine engine;
    SetUpEngine(&engine, dataset);
    engine.SetNumThreads(num_threads);
    EXPECT_TRUE(engine.Profile().ok());
    auto model = engine.MakeModel(core::CostModelKind::kTripleCount);
    EXPECT_TRUE(model.ok());
    auto selection = engine.SelectViews(**model, 3);
    EXPECT_TRUE(selection.ok());
    EXPECT_TRUE(engine.MaterializeSelection(*selection).ok());

    workload::WorkloadGenerator generator(&engine.facet(), engine.store());
    workload::WorkloadOptions options;
    options.num_queries = 12;
    options.seed = 11;
    auto queries = generator.Generate(options);
    EXPECT_TRUE(queries.ok());
    auto report = engine.RunWorkload(*queries, /*allow_views=*/true);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(report).value();
  };

  core::WorkloadReport serial = run(1);
  core::WorkloadReport parallel = run(4);

  ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
  EXPECT_EQ(serial.view_hits, parallel.view_hits);
  EXPECT_EQ(serial.total_rows_scanned, parallel.total_rows_scanned);
  for (size_t i = 0; i < serial.outcomes.size(); ++i) {
    const core::QueryOutcome& a = serial.outcomes[i];
    const core::QueryOutcome& b = parallel.outcomes[i];
    // Stable merge order: outcome i corresponds to input query i.
    EXPECT_EQ(a.query_id, b.query_id) << i;
    EXPECT_EQ(a.used_view, b.used_view) << i;
    EXPECT_EQ(a.view_mask, b.view_mask) << i;
    EXPECT_EQ(a.executed_sparql, b.executed_sparql) << i;
    EXPECT_EQ(a.rows_scanned, b.rows_scanned) << i;
    EXPECT_EQ(a.result_rows, b.result_rows) << i;
    ExpectSameAnswers(a.result, b.result,
                      dataset + " outcome " + std::to_string(i));
  }
  // Wall vs. aggregate CPU are reported separately and both populated.
  EXPECT_GT(serial.wall_micros, 0.0);
  EXPECT_GT(parallel.wall_micros, 0.0);
  EXPECT_GT(parallel.total_micros, 0.0);
  EXPECT_NE(serial.Summary().find("wall="), std::string::npos);
  EXPECT_NE(serial.Summary().find("cpu="), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Datasets, ParallelEquivalenceTest,
                         ::testing::Values("swdf", "lubm"));

}  // namespace
}  // namespace sofos
