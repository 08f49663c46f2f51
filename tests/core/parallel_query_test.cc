// Parallel query driver: correctness of concurrent execution against one
// shared, read-only TAR-tree. The contract under test: per-query answers
// are exactly the single-threaded answers regardless of worker count or
// scheduling, individual failures don't poison the batch, and the shared
// buffer pool stays structurally intact.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/parallel_query.h"
#include "core/tar_tree.h"

namespace tar {
namespace {

std::uint32_t Mix(std::uint32_t x) { return x * 2654435761u; }

void BuildFixture(TarTree* tree, int num_pois) {
  constexpr int kEpochs = 16;
  for (int i = 0; i < num_pois; ++i) {
    Poi poi;
    poi.id = static_cast<PoiId>(i);
    std::uint32_t hx = Mix(static_cast<std::uint32_t>(i) * 2 + 1);
    std::uint32_t hy = Mix(static_cast<std::uint32_t>(i) * 2 + 2);
    poi.pos = {(i % 12) * 5.0 + (hx % 100) / 25.0,
               (i / 12) * 5.0 + (hy % 100) / 25.0};
    std::vector<std::int32_t> history(kEpochs, 0);
    for (int e = 0; e < kEpochs; ++e) {
      std::uint32_t h = Mix(static_cast<std::uint32_t>(i * kEpochs + e));
      history[e] = (h % 4 == 0) ? 0 : static_cast<std::int32_t>(h % 25 + 1);
    }
    ASSERT_TRUE(tree->InsertPoi(poi, history).ok());
  }
}

std::vector<KnntaQuery> MakeQueries(std::size_t n) {
  std::vector<KnntaQuery> queries;
  queries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t h = Mix(static_cast<std::uint32_t>(i) + 101);
    KnntaQuery q;
    q.point = {(h % 640) / 10.0, ((h >> 10) % 640) / 10.0};
    std::int64_t first = (h >> 20) % 10;
    q.interval = {first * 7 * kSecondsPerDay,
                  (first + 6) * 7 * kSecondsPerDay - 1};
    q.k = 1 + h % 8;
    q.alpha0 = 0.2 + (h % 7) * 0.1;
    queries.push_back(q);
  }
  return queries;
}

TEST(ParallelQueryTest, MatchesSingleThreadedResults) {
  TarTreeOptions opt;
  opt.grid = EpochGrid(0, 7 * kSecondsPerDay);
  TarTree tree(opt);
  BuildFixture(&tree, 150);

  const std::vector<KnntaQuery> queries = MakeQueries(400);

  std::vector<std::vector<KnntaResult>> expected(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(tree.Query(queries[i], &expected[i]).ok());
  }

  for (std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ParallelQueryOptions popt;
    popt.num_threads = threads;
    ParallelQueryReport report;
    ASSERT_TRUE(RunParallelQueries(tree, queries, popt, &report).ok());
    ASSERT_EQ(report.results.size(), queries.size());
    EXPECT_EQ(report.queries_ok, queries.size());
    EXPECT_EQ(report.queries_failed, 0u);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(report.results[i].size(), expected[i].size());
      for (std::size_t j = 0; j < expected[i].size(); ++j) {
        EXPECT_EQ(report.results[i][j].poi, expected[i][j].poi);
        EXPECT_DOUBLE_EQ(report.results[i][j].score, expected[i][j].score);
        EXPECT_EQ(report.results[i][j].aggregate, expected[i][j].aggregate);
      }
    }
    EXPECT_GT(report.total_stats.NodeAccesses(), 0u);
    EXPECT_GT(report.wall_micros, 0.0);
    EXPECT_TRUE(tree.tia_buffer_pool()->CheckIntegrity().ok());
  }
}

TEST(ParallelQueryTest, ConcurrentBatchOnSharedTreeUnderContention) {
  // The TSan workhorse: a large batch from 8 workers with all queries
  // funneling through the same shards of the same pool.
  TarTreeOptions opt;
  opt.grid = EpochGrid(0, 7 * kSecondsPerDay);
  opt.tia_buffer_slots = 4;  // tight quota -> heavy LRU churn
  TarTree tree(opt);
  BuildFixture(&tree, 120);

  // Drop the build-phase counters so the accounting cross-check below
  // compares the query phase alone.
  tree.tia_buffer_pool()->ResetCounters();

  const std::vector<KnntaQuery> queries = MakeQueries(1500);
  ParallelQueryOptions popt;
  popt.num_threads = 8;
  ParallelQueryReport report;
  ASSERT_TRUE(RunParallelQueries(tree, queries, popt, &report).ok());
  EXPECT_EQ(report.queries_ok, queries.size());
  EXPECT_EQ(report.queries_failed, 0u);
  EXPECT_TRUE(tree.tia_buffer_pool()->CheckIntegrity().ok());
  // Every pool fetch is either a hit or a charged miss, never both/neither.
  EXPECT_EQ(report.total_stats.tia_page_reads +
                report.total_stats.tia_buffer_hits,
            tree.tia_buffer_pool()->hits() + tree.tia_buffer_pool()->misses());
}

TEST(ParallelQueryTest, BadQueriesFailIndividually) {
  TarTreeOptions opt;
  opt.grid = EpochGrid(0, 7 * kSecondsPerDay);
  TarTree tree(opt);
  BuildFixture(&tree, 40);

  std::vector<KnntaQuery> queries = MakeQueries(10);
  queries[3].k = 0;             // invalid
  queries[7].alpha0 = 1.5;      // invalid
  ParallelQueryOptions popt;
  popt.num_threads = 4;
  ParallelQueryReport report;
  ASSERT_TRUE(RunParallelQueries(tree, queries, popt, &report).ok());
  EXPECT_EQ(report.queries_ok, 8u);
  EXPECT_EQ(report.queries_failed, 2u);
  EXPECT_TRUE(report.statuses[3].IsInvalidArgument());
  EXPECT_TRUE(report.statuses[7].IsInvalidArgument());
  EXPECT_TRUE(report.statuses[0].ok());
}

TEST(ParallelQueryTest, BudgetTripsAreTimeoutsNotLatencySamples) {
  TarTreeOptions opt;
  opt.grid = EpochGrid(0, 7 * kSecondsPerDay);
  TarTree tree(opt);
  BuildFixture(&tree, 150);

  const std::vector<KnntaQuery> queries = MakeQueries(16);
  ParallelQueryOptions popt;
  popt.num_threads = 4;
  popt.budget.max_node_visits = 1;  // trips before any leaf is reached
  ParallelQueryReport report;
  ASSERT_TRUE(RunParallelQueries(tree, queries, popt, &report).ok());

  EXPECT_EQ(report.timeouts, queries.size());
  EXPECT_EQ(report.queries_ok, 0u);
  EXPECT_EQ(report.queries_failed, queries.size());
  EXPECT_EQ(report.failures_by_code[Status::Code::kDeadlineExceeded],
            queries.size());
  EXPECT_EQ(report.latency.count, 0u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(report.statuses[i].IsDeadlineExceeded());
    EXPECT_TRUE(report.results[i].empty());
  }
}

TEST(ParallelQueryTest, AllowPartialDegradesInsteadOfFailing) {
  TarTreeOptions opt;
  opt.grid = EpochGrid(0, 7 * kSecondsPerDay);
  TarTree tree(opt);
  BuildFixture(&tree, 150);

  const std::vector<KnntaQuery> queries = MakeQueries(16);
  ParallelQueryOptions popt;
  popt.num_threads = 4;
  popt.budget.max_node_visits = 1;
  popt.allow_partial = true;
  ParallelQueryReport report;
  ASSERT_TRUE(RunParallelQueries(tree, queries, popt, &report).ok());

  ASSERT_EQ(report.partial_info.size(), queries.size());
  EXPECT_EQ(report.partials, queries.size());
  EXPECT_EQ(report.timeouts, 0u);
  EXPECT_EQ(report.queries_ok, queries.size());
  EXPECT_EQ(report.queries_failed, 0u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(report.statuses[i].ok());
    EXPECT_FALSE(report.partial_info[i].completed);
    EXPECT_TRUE(report.partial_info[i].cause.IsDeadlineExceeded())
        << report.partial_info[i].cause.ToString();
  }
  // A degraded prefix is not a completed service: keep it out of the
  // latency percentiles.
  EXPECT_EQ(report.latency.count, 0u);
}

TEST(ParallelQueryTest, CancelTokenAbortsEveryQuery) {
  TarTreeOptions opt;
  opt.grid = EpochGrid(0, 7 * kSecondsPerDay);
  TarTree tree(opt);
  BuildFixture(&tree, 150);

  const std::vector<KnntaQuery> queries = MakeQueries(12);
  CancelToken cancel;
  cancel.Cancel("client disconnected");
  ParallelQueryOptions popt;
  popt.num_threads = 4;
  popt.cancel = &cancel;
  ParallelQueryReport report;
  ASSERT_TRUE(RunParallelQueries(tree, queries, popt, &report).ok());

  EXPECT_EQ(report.cancels, queries.size());
  EXPECT_EQ(report.latency.count, 0u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(report.statuses[i].IsCancelled());
    EXPECT_EQ(report.statuses[i].message(), "client disconnected");
  }
}

TEST(ParallelQueryTest, RejectsZeroThreads) {
  TarTreeOptions opt;
  opt.grid = EpochGrid(0, 7 * kSecondsPerDay);
  TarTree tree(opt);
  ParallelQueryOptions popt;
  popt.num_threads = 0;
  ParallelQueryReport report;
  EXPECT_TRUE(
      RunParallelQueries(tree, {}, popt, &report).IsInvalidArgument());
}

}  // namespace
}  // namespace tar
