// Query-level observability: a low-overhead metrics registry and per-query
// traces.
//
// The paper's evaluation currency is per-query cost (node accesses, CPU
// time; Figures 6-16), and the production north star adds latency
// percentiles and hit rates under concurrent load. This layer provides
// both without perturbing the measured system:
//
//   * MetricsRegistry — named counters, gauges and fixed-bucket latency
//     histograms (p50/p95/p99 extraction), all lock-free on the update
//     path, with JSON and human-readable exporters.
//   * QueryTrace — a per-query record of phase timings (context/gmax,
//     best-first search, TIA aggregates), per-phase node-access
//     breakdowns and heap push/pop counts.
//
// Overhead guarantee: collection is DISABLED by default. When disabled,
// every instrumented hot path costs exactly one relaxed atomic load plus
// one predictable branch (`if (MetricsEnabled())`), and no clock is read.
// The determinism test (tests/core/determinism_test.cc) pins that the
// disabled configuration is bit-identical to the pre-instrumentation
// build. Enabled collection adds relaxed atomic increments and, where a
// latency is recorded, two steady_clock reads; it never takes a lock on
// the hot path (the registry mutex guards only name -> metric resolution,
// which callers do once and cache).
//
// QueryTrace is thread-private by design: a trace belongs to one query on
// one thread, so tracing needs no synchronization at all. Registry metrics
// are shared and atomic, safe from any number of threads.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/stats.h"
#include "common/thread_annotations.h"

namespace tar {

/// True when registry collection is on (off by default). One relaxed load.
bool MetricsEnabled();

/// Flips registry collection globally (e.g. `tartool stress` turns it on;
/// libraries never do). Safe to call from any thread.
void SetMetricsEnabled(bool enabled);

/// \brief A monotonically increasing event count.
///
/// Striped: each thread adds to one of kStripes cache-line-padded slots
/// (picked once per thread, round robin), so threads that bump the same
/// hot counter (every buffer-pool hit, with metrics on) do not contend
/// for one cache line. value() sums the slots, so the count stays exact.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    stripes_[ThreadStripe()].value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const Stripe& s : stripes_) {
      sum += s.value.load(std::memory_order_relaxed);
    }
    return sum;
  }
  void Reset() {
    for (Stripe& s : stripes_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kStripes = 8;

  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };

  /// This thread's stripe, assigned on its first increment.
  static std::size_t ThreadStripe() {
    static thread_local std::size_t stripe = kStripes;
    if (stripe == kStripes) stripe = NextStripe();
    return stripe;
  }
  static std::size_t NextStripe();

  std::array<Stripe, kStripes> stripes_{};
};

/// \brief A last-write-wins instantaneous value (e.g. resident pages).
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Number of fixed histogram buckets. Bucket 0 holds [0, 1) microseconds;
/// bucket i >= 1 holds [2^(i-1), 2^i) microseconds; the last bucket is
/// open-ended. 2^46 us ~ 2.2 years, so real latencies never saturate.
constexpr std::size_t kLatencyBuckets = 48;

/// Bucket index of a latency in microseconds.
std::size_t LatencyBucketOf(double micros);

/// Inclusive-exclusive bounds [lo, hi) of a bucket, in microseconds.
double LatencyBucketLower(std::size_t bucket);
double LatencyBucketUpper(std::size_t bucket);

/// \brief A plain (non-atomic) latency distribution.
///
/// Used directly as a thread-private accumulator (each parallel-query
/// worker records into its own and the driver merges them) and as the
/// consistent snapshot type of the atomic LatencyHistogram.
struct LatencySnapshot {
  std::array<std::uint64_t, kLatencyBuckets> buckets{};
  std::uint64_t count = 0;
  double sum_micros = 0.0;
  double min_micros = 0.0;
  double max_micros = 0.0;

  void Record(double micros);

  /// Merges another distribution into this one (bucket-wise).
  LatencySnapshot& operator+=(const LatencySnapshot& o);

  double Mean() const {
    return count > 0 ? sum_micros / static_cast<double>(count) : 0.0;
  }

  /// Latency at quantile `q` in [0, 1] (0.5 = p50), linearly interpolated
  /// inside the containing bucket and clamped to the observed min/max, so
  /// the bucket granularity never reports a value outside the data range.
  double Percentile(double q) const;

  double P50() const { return Percentile(0.50); }
  double P95() const { return Percentile(0.95); }
  double P99() const { return Percentile(0.99); }

  /// {"count":...,"mean_us":...,"p50_us":...,...} (one JSON object).
  std::string ToJson() const;
};

/// \brief A latency histogram safe for concurrent recording.
class LatencyHistogram {
 public:
  void Record(double micros);
  LatencySnapshot Snapshot() const;
  void Reset();

 private:
  std::array<std::atomic<std::uint64_t>, kLatencyBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_nanos_{0};
  std::atomic<std::uint64_t> min_nanos_{UINT64_MAX};
  std::atomic<std::uint64_t> max_nanos_{0};
};

/// \brief Process-wide named metrics.
///
/// Resolution (GetCounter/GetGauge/GetHistogram) takes the registry mutex
/// and is meant to be done once per site and cached (the returned pointers
/// are stable for the registry's lifetime); updates through the returned
/// objects are lock-free.
class MetricsRegistry {
 public:
  /// The process-wide registry (never destroyed, so cached metric
  /// pointers stay valid during static teardown).
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name) TAR_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) TAR_EXCLUDES(mu_);
  LatencyHistogram* GetHistogram(const std::string& name) TAR_EXCLUDES(mu_);

  /// Zeroes every registered metric (the metrics stay registered).
  void ResetAll() TAR_EXCLUDES(mu_);

  /// {"counters":{...},"gauges":{...},"histograms":{...}} — stable key
  /// order (sorted by name), parseable by any JSON tool.
  std::string ToJson() const TAR_EXCLUDES(mu_);

  /// Aligned human-readable dump, one metric per line.
  std::string ToText() const TAR_EXCLUDES(mu_);

 private:
  mutable Mutex mu_{LockRank::kMetricsRegistry, "metrics.registry"};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      TAR_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ TAR_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_
      TAR_GUARDED_BY(mu_);
};

/// \brief Per-query execution trace.
///
/// A trace is requested by passing a QueryTrace* to TarTree::Query (or the
/// MWA / collective entry points); it is filled regardless of the global
/// metrics flag, since the caller asked for this specific query. Each
/// phase carries its own wall time, node-access breakdown, heap traffic
/// and the time spent inside TIA aggregate computation.
///
/// Reconciliation invariant: when both a trace and an AccessStats* are
/// passed, the sum of the per-phase stats equals what the query added to
/// the caller's AccessStats — Totals().NodeAccesses() matches
/// AccessStats::NodeAccesses() exactly (tested in
/// tests/core/query_trace_test.cc).
struct QueryTrace {
  struct Phase {
    std::string name;
    double micros = 0.0;      ///< wall time of the phase
    double tia_micros = 0.0;  ///< time inside TIA aggregate computation
    std::uint64_t heap_pushes = 0;
    std::uint64_t heap_pops = 0;
    AccessStats stats;  ///< accesses charged during this phase
  };

  std::vector<Phase> phases;
  double total_micros = 0.0;
  std::size_t num_results = 0;

  /// Invoked (when set) with the phase name at every AddPhase call —
  /// i.e. at each phase transition of a traced query. Tracing is already
  /// a cold, caller-opted path, so the indirect call costs nothing on
  /// untraced queries; tests use it to trip a CancelToken at a chosen
  /// transition and probe the abort path of every query engine.
  std::function<void(const std::string&)> on_phase;

  Phase* AddPhase(std::string name);

  /// Sum of the per-phase access stats.
  AccessStats Totals() const;

  /// Sum of the per-phase TIA aggregate time.
  double TiaMicros() const;

  /// One JSON object with a "phases" array; parseable by any JSON tool.
  std::string ToJson() const;

  /// Aligned per-phase breakdown for terminals (tartool query --trace).
  std::string ToText() const;
};

}  // namespace tar
