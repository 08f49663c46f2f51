#include "temporal/tia.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/random.h"

namespace tar {
namespace {

struct Fixture {
  Fixture() : file(1024), pool(&file, 10), tia(&file, &pool, /*owner=*/7) {}
  PageFile file;
  BufferPool pool;
  Tia tia;
};

TimeInterval Epoch(std::int64_t i, std::int64_t len = 7 * kSecondsPerDay) {
  return {i * len, (i + 1) * len - 1};
}

TEST(TiaTest, EmptyAggregateIsZero) {
  Fixture fx;
  auto res = fx.tia.Aggregate({0, 1000});
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.ValueOrDie(), 0);
  EXPECT_EQ(fx.tia.total(), 0);
}

TEST(TiaTest, AggregateSumsContainedEpochsOnly) {
  Fixture fx;
  ASSERT_TRUE(fx.tia.Append(Epoch(0), 3).ok());
  ASSERT_TRUE(fx.tia.Append(Epoch(1), 5).ok());
  ASSERT_TRUE(fx.tia.Append(Epoch(3), 4).ok());  // epoch 2 has no check-ins

  // Whole history.
  EXPECT_EQ(fx.tia.Aggregate({Epoch(0).start, Epoch(3).end}).ValueOrDie(), 12);
  // Only epoch 1.
  EXPECT_EQ(fx.tia.Aggregate(Epoch(1)).ValueOrDie(), 5);
  // Interval covering epochs 1..2 (2 is empty).
  EXPECT_EQ(fx.tia.Aggregate({Epoch(1).start, Epoch(2).end}).ValueOrDie(), 5);
  // Interval that clips epoch 1 (starts mid-epoch): epoch 1 not contained.
  EXPECT_EQ(
      fx.tia.Aggregate({Epoch(1).start + 1, Epoch(3).end}).ValueOrDie(), 4);
  EXPECT_EQ(fx.tia.total(), 12);
  EXPECT_EQ(fx.tia.num_records(), 3u);
}

TEST(TiaTest, RejectsNonPositiveAggregatesAndBadExtents) {
  Fixture fx;
  EXPECT_TRUE(fx.tia.Append(Epoch(0), 0).IsInvalidArgument());
  EXPECT_TRUE(fx.tia.Append(Epoch(0), -2).IsInvalidArgument());
  EXPECT_TRUE(fx.tia.Append({100, 50}, 1).IsInvalidArgument());
}

TEST(TiaTest, VariedEpochLengths) {
  // Epochs of one hour, two hours, four hours back to back — the TIA indexes
  // intervals, unlike a B-tree over fixed timestamps (Section 2).
  Fixture fx;
  ASSERT_TRUE(fx.tia.Append({0, 3599}, 2).ok());
  ASSERT_TRUE(fx.tia.Append({3600, 10799}, 3).ok());
  ASSERT_TRUE(fx.tia.Append({10800, 25199}, 9).ok());
  EXPECT_EQ(fx.tia.Aggregate({0, 25199}).ValueOrDie(), 14);
  EXPECT_EQ(fx.tia.Aggregate({0, 10799}).ValueOrDie(), 5);
  EXPECT_EQ(fx.tia.Aggregate({3600, 25199}).ValueOrDie(), 12);
}

TEST(TiaTest, RaiseToKeepsPerEpochMaximum) {
  Fixture fx;
  ASSERT_TRUE(fx.tia.RaiseTo(Epoch(0), 4).ok());
  EXPECT_EQ(fx.tia.Aggregate(Epoch(0)).ValueOrDie(), 4);
  // Lower value: no-op.
  ASSERT_TRUE(fx.tia.RaiseTo(Epoch(0), 2).ok());
  EXPECT_EQ(fx.tia.Aggregate(Epoch(0)).ValueOrDie(), 4);
  // Higher value: replace.
  ASSERT_TRUE(fx.tia.RaiseTo(Epoch(0), 9).ok());
  EXPECT_EQ(fx.tia.Aggregate(Epoch(0)).ValueOrDie(), 9);
  EXPECT_EQ(fx.tia.total(), 9);
  EXPECT_EQ(fx.tia.num_records(), 1u);
}

TEST(TiaTest, RecordsReturnsTimeOrderedHistory) {
  Fixture fx;
  ASSERT_TRUE(fx.tia.Append(Epoch(0), 1).ok());
  ASSERT_TRUE(fx.tia.Append(Epoch(2), 7).ok());
  ASSERT_TRUE(fx.tia.Append(Epoch(5), 2).ok());
  std::vector<TiaRecord> records;
  ASSERT_TRUE(fx.tia.Records(&records).ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], (TiaRecord{Epoch(0), 1}));
  EXPECT_EQ(records[1], (TiaRecord{Epoch(2), 7}));
  EXPECT_EQ(records[2], (TiaRecord{Epoch(5), 2}));
}

TEST(TiaTest, AggregateChargesPageReadsThroughBufferPool) {
  Fixture fx;
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(fx.tia.Append(Epoch(i), 1 + i % 5).ok());
  }
  AccessStats cold, warm;
  ASSERT_TRUE(fx.tia.Aggregate({Epoch(0).start, Epoch(119).end}, &cold).ok());
  ASSERT_TRUE(fx.tia.Aggregate({Epoch(0).start, Epoch(119).end}, &warm).ok());
  EXPECT_GT(cold.tia_page_reads, 0u);
  EXPECT_GT(warm.tia_buffer_hits, 0u);
  EXPECT_EQ(cold.aggregate_calls, 1u);
}

TEST(TiaTest, LongHistoryMatchesNaiveSum) {
  Fixture fx;
  Rng rng(17);
  std::vector<std::int64_t> per_epoch(400, 0);
  for (int i = 0; i < 400; ++i) {
    if (rng.Uniform() < 0.6) {
      per_epoch[i] = rng.UniformInt(1, 50);
      ASSERT_TRUE(fx.tia.Append(Epoch(i), per_epoch[i]).ok());
    }
  }
  for (int trial = 0; trial < 50; ++trial) {
    std::int64_t a = rng.UniformInt(0, 399);
    std::int64_t b = rng.UniformInt(0, 399);
    if (a > b) std::swap(a, b);
    std::int64_t naive = 0;
    for (std::int64_t i = a; i <= b; ++i) naive += per_epoch[i];
    EXPECT_EQ(fx.tia.Aggregate({Epoch(a).start, Epoch(b).end}).ValueOrDie(),
              naive)
        << "epochs [" << a << "," << b << "]";
  }
}

// A history of varied epoch lengths with gaps, long enough to span several
// pages of either backend at a 512-byte page, with RaiseTo rewrites mixed
// in (on MVBT those close old record versions).
void FillVariedHistory(Tia* tia, Rng* rng) {
  std::int64_t t = 0;
  for (int i = 0; i < 300; ++i) {
    const std::int64_t len = kSecondsPerDay * rng->UniformInt(1, 7);
    const TimeInterval extent{t, t + len - 1};
    t += len;
    if (rng->Uniform() < 0.3) continue;  // an epoch without check-ins
    ASSERT_TRUE(tia->Append(extent, rng->UniformInt(1, 50)).ok());
    if (rng->Uniform() < 0.2) {
      ASSERT_TRUE(tia->RaiseTo(extent, rng->UniformInt(1, 80)).ok());
    }
  }
}

TEST(TiaTest, AggregateMatchesRecordsBruteForce) {
  // Page-access counts of this exact sequence, pinned: the streaming
  // aggregate must touch the same pages, hit or miss, as a scan that
  // collects its records first.
  struct Pinned {
    TiaBackend backend;
    std::uint64_t hits;
    std::uint64_t page_reads;
  };
  for (const Pinned& pin : {Pinned{TiaBackend::kMvbt, 24, 3660},
                            Pinned{TiaBackend::kBpTree, 84, 1265}}) {
    SCOPED_TRACE(ToString(pin.backend));
    PageFile file(512);
    BufferPool pool(&file, 3);
    Tia tia(&file, &pool, /*owner=*/7, pin.backend);
    Rng rng(23);
    ASSERT_NO_FATAL_FAILURE(FillVariedHistory(&tia, &rng));
    std::vector<TiaRecord> records;
    ASSERT_TRUE(tia.Records(&records).ok());
    ASSERT_EQ(records.size(), tia.num_records());
    const std::int64_t first = records.front().extent.start;
    const std::int64_t last = records.back().extent.end;
    const std::int64_t far = 100 * kSecondsPerDay;
    const TimeInterval epoch = records[5].extent;

    std::vector<TimeInterval> queries = {
        {first, last},               // whole history
        epoch,                       // a single epoch
        {epoch.start, epoch.start},  // an instant: holds no epoch
        {last + 1, last + far},      // beyond history
        {first - far, first - 1},    // before history
        {first, epoch.end - 1},      // clips its last epoch
    };
    for (int i = 0; i < 200; ++i) {
      std::int64_t a = rng.UniformInt(first, last);
      std::int64_t b = rng.UniformInt(first, last);
      if (a > b) std::swap(a, b);
      queries.push_back({a, b});
    }

    pool.Clear();
    AccessStats stats;
    for (const TimeInterval& iq : queries) {
      std::int64_t expected = 0;
      for (const TiaRecord& rec : records) {
        if (iq.start <= rec.extent.start && rec.extent.end <= iq.end) {
          expected += rec.aggregate;
        }
      }
      auto got = tia.Aggregate(iq, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.ValueOrDie(), expected)
          << "Iq [" << iq.start << ", " << iq.end << "]";
    }
    EXPECT_EQ(stats.aggregate_calls, queries.size());
    EXPECT_EQ(stats.tia_buffer_hits, pin.hits);
    EXPECT_EQ(stats.tia_page_reads, pin.page_reads);
  }
}

TEST(TiaTest, PageBudgetTripsInsideOneAggregate) {
  for (TiaBackend backend : {TiaBackend::kMvbt, TiaBackend::kBpTree}) {
    SCOPED_TRACE(ToString(backend));
    PageFile file(512);
    BufferPool pool(&file, 10);
    Tia tia(&file, &pool, /*owner=*/7, backend);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(tia.Append(Epoch(i), 1 + i % 5).ok());
    }
    pool.Clear();  // cold: every page of the scan is a read

    QueryBudget budget;
    budget.max_tia_page_reads = 1;
    QueryDeadline deadline(budget);
    auto res = tia.Aggregate({Epoch(0).start, Epoch(199).end}, nullptr,
                             &deadline);
    EXPECT_TRUE(res.status().IsDeadlineExceeded()) << res.status().ToString();
    EXPECT_NE(res.status().message().find("TIA page-read budget"),
              std::string::npos);
    EXPECT_GT(deadline.tia_page_reads(), 1u);
  }
}

}  // namespace
}  // namespace tar
