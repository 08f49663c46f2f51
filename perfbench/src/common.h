// Shared pieces of the kNNTA serving benchmark: command-line options,
// the generated data set, timing and sample statistics, and the result
// line every run ends with.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dataset.h"
#include "core/tar_tree.h"

namespace perfbench {

using tar::KnntaQuery;
using tar::KnntaResult;
using tar::PoiId;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// \brief What one invocation was asked to do.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// GW preset scale; 0.08 gives 6,088 effective POIs.
  double scale = 0.08;
  /// Scratch directory for durable stores and the span dump.
  std::string work_dir = ".";
};

/// \brief The GW data set bucketed into epochs, split into the preloaded
/// first half and the epoch batches streamed after it.
struct Data {
  tar::Dataset dataset;
  tar::EpochGrid grid;
  tar::EpochCounts counts;
  std::vector<PoiId> effective;
  std::int64_t preload_epochs = 0;

  struct Batch {
    std::int64_t epoch = 0;
    std::unordered_map<PoiId, std::int64_t> aggs;
  };
  std::vector<Batch> stream;

  /// History of an effective POI cut to the preloaded epochs.
  std::vector<std::int32_t> PreloadHistory(PoiId id) const;
};

/// Generates the GW preset at `scale` (the generator seed is the preset's
/// own, so every workload seed sees the same data) with `epoch_days`-day
/// epochs; the paper's effective-POI threshold of 100 check-ins applies.
std::unique_ptr<Data> MakeData(double scale, int epoch_days);

/// The paper query mix (points drawn from the POIs, k = 10, alpha0 = 0.3,
/// Iq from 2^0 to 2^9 days) from the workload seed.
std::vector<KnntaQuery> MakeQueryPool(const Data& data, std::size_t n,
                                      std::uint64_t seed);

/// FNV-1a digest of a query pool (the self-test compares it across seeds).
std::uint64_t DigestQueries(const std::vector<KnntaQuery>& queries);

/// Bit-exact equality of two answers (scores and distances by memcmp).
bool SameAnswer(const std::vector<KnntaResult>& a,
                const std::vector<KnntaResult>& b);

/// Exact percentile (`q` in [0, 1], linear interpolation); 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// \brief The counts every run reports next to its metrics.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed + shed + wrong answers
  bool correct = true;
};

/// \brief A named metric with its unit, in report order.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The last line of a run: {"correct", "attempted", "failed", "metrics"}.
/// Every value must be finite (main refuses to print it otherwise).
std::string ResultLine(const Tally& tally, const std::vector<Metric>& metrics);

/// A human-readable line (prefixed with "# ") before the result line.
void Note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
