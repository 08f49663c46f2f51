// The three served workloads and the building blocks the untraced and
// traced runs share: set-up, the ingest writer, closed-loop readers and
// the answer checks.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/scan_baseline.h"
#include "core/serve.h"
#include "core/sharded_store.h"

namespace perfbench {

/// Queries in a run's pool (every reader cycles it from its own offset).
constexpr std::size_t kPoolSize = 1024;
/// Pool indices whose answers every run checks bit for bit.
constexpr std::size_t kCheckSample = 64;

/// \brief The shape of one workload (see README.md for why each exists).
struct WorkloadSpec {
  std::string name;
  int epoch_days = 7;
  std::size_t shards = 4;
  /// Durable shards (snapshot + WAL files, group commit of 32 records,
  /// flushed to the OS cache without fsync, no checkpoints).
  bool durable = false;
  /// Readers run beside the ingest writer (nproc - 1 of them) instead of
  /// in read-only phases after it.
  bool readers_beside_ingest = false;
  /// Run a nproc-reader slice after each one-reader slice.
  bool nproc_phase = false;
  /// Rounds of set-up, stream and read slices sized from --seconds;
  /// otherwise a few set-ups, the stream after the last one only, and
  /// then one reader for --seconds. setup_s is the median set-up.
  bool stream_every_setup = true;
};

/// cold-tia's floor on buffer-pool misses per query: below it the TIAs no
/// longer overflow the 10-slot pools.
constexpr double kColdMissesPerQuery = 1000.0;

/// The spec named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// \brief A sharded store with a started server in front of it.
struct Served {
  std::unique_ptr<tar::ShardedStore> store;
  std::unique_ptr<tar::ShardedServer> server;
  std::string prefix;      ///< durable file prefix ("" in memory)
  std::size_t shards = 0;  ///< shard files under `prefix`

  Served() = default;
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  /// Stops the server, closes the store and removes its files.
  ~Served();
};

tar::ShardedStoreOptions StoreOptions(const WorkloadSpec& spec,
                                      const Data& data,
                                      const std::string& prefix);

/// Removes the files a durable store with `prefix` and `shards` may leave.
void RemoveStoreFiles(const std::string& prefix, std::size_t shards);

/// Opens the store and preloads the first half of every effective POI's
/// history. `prefix` is used when spec.durable.
tar::Status OpenStore(const WorkloadSpec& spec, const Data& data,
                      const std::string& prefix, Served* out);

/// OpenStore, then starts a server with default ServeOptions (no
/// admission cap, no deadline, no checkpoints).
tar::Status SetUp(const WorkloadSpec& spec, const Data& data,
                  const std::string& prefix, Served* out);

/// Prints the workload's shape and the digest of its query pool.
void NoteWorkload(const WorkloadSpec& spec, const Data& data,
                  const std::vector<KnntaQuery>& pool);

/// Prints the workload self-check: serve-read's hit rate, cold-tia's
/// misses per query, ingest-mixed's reads completed during applies.
void NoteSelfCheck(const WorkloadSpec& spec, double hit_rate,
                   double misses_per_query, std::uint64_t reads_during_write);

/// \brief Per-reader-group outcome of a read phase.
struct ReadStats {
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  double window_s = 0.0;
  std::vector<double> latency_us;  ///< completed reads
  /// p99 of each closed reader window (see CloseWindow).
  std::vector<double> window_p99_us;
  /// First answer seen for each sampled pool index.
  std::map<std::size_t, std::vector<KnntaResult>> sampled;

  double Qps() const {
    return window_s > 0.0 ? static_cast<double>(ok) / window_s : 0.0;
  }
  /// Records the p99 of the latencies gathered so far as one reader
  /// window's (call once, on the stats of a single window).
  void CloseWindow();
  void Add(ReadStats&& o);
};

/// \brief Closed-loop readers: each thread sends its next query as soon
/// as the previous one returns, cycling the pool from its own offset.
class ReaderGroup {
 public:
  /// `query` answers one query; the group times it.
  using QueryFn = std::function<tar::Status(const KnntaQuery&,
                                            std::vector<KnntaResult>*)>;

  ReaderGroup(QueryFn query, const std::vector<KnntaQuery>* pool,
              const std::vector<std::size_t>* sample);
  ~ReaderGroup();
  ReaderGroup(const ReaderGroup&) = delete;
  ReaderGroup& operator=(const ReaderGroup&) = delete;

  /// Reader t starts at pool index offset + t * pool / threads; with
  /// `cpu` >= 0 every reader is pinned to that CPU.
  void Start(std::size_t threads, std::size_t offset = 0, int cpu = -1);
  /// Signals the readers, joins them and returns the merged stats; the
  /// window runs from Start until the last reader finished.
  ReadStats Stop();

 private:
  void Loop(std::size_t first, ReadStats* out);

  QueryFn query_;
  const std::vector<KnntaQuery>* pool_;
  const std::vector<std::size_t>* sample_;
  std::atomic<bool> stop_{false};
  int cpu_ = -1;
  Clock::time_point start_;
  std::vector<ReadStats> per_thread_;
  std::vector<std::thread> threads_;
};

/// Readers against `server` for `seconds`, one closed reader window,
/// starting at `*cursor` in the pool; `*cursor` advances past the queries
/// each reader sent, so a phase split into slices keeps walking the pool
/// instead of restarting it.
ReadStats ReadFor(tar::ShardedServer* server,
                  const std::vector<KnntaQuery>& pool,
                  const std::vector<std::size_t>& sample,
                  std::size_t threads, double seconds, std::size_t* cursor);

/// \brief What the ingest writer measured.
struct IngestStats {
  std::vector<double> apply_ms;  ///< SubmitEpoch until applied, per epoch
  double writer_s = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t failed = 0;
};

/// Submits every batch of `data.stream` through ShardedServer::SubmitEpoch
/// and waits for each to apply before the next.
IngestStats IngestThroughServer(tar::ShardedServer* server, const Data& data);

/// Scan baseline over the full history of the effective POIs.
std::unique_ptr<tar::ScanBaseline> BuildScan(const Data& data);

/// Checks every sampled answer against the scan; returns the mismatches.
std::uint64_t CheckAgainstScan(const tar::ScanBaseline& scan,
                               const std::vector<KnntaQuery>& pool,
                               const ReadStats& reads,
                               std::uint64_t* checked);

/// The sharded-vs-unsharded differential: an unsharded TarTree built from
/// the same preload and epochs must answer every sampled query bit for
/// bit like the store. Returns the mismatches (failed queries count).
std::uint64_t CheckAgainstTwin(const Data& data, const tar::ShardedStore& store,
                               const std::vector<KnntaQuery>& pool,
                               const std::vector<std::size_t>& sample);

/// Seeded sample of pool indices whose answers are checked.
std::vector<std::size_t> SampleIndices(std::size_t pool, std::size_t n,
                                       std::uint64_t seed);

/// \brief Cumulative buffer-pool and page-file counters summed over the
/// live replica of every shard; per-phase figures are differences.
struct PoolReading {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t page_reads = 0;

  PoolReading operator-(const PoolReading& o) const {
    return {hits - o.hits, misses - o.misses, page_reads - o.page_reads};
  }
  PoolReading& operator+=(const PoolReading& o) {
    hits += o.hits;
    misses += o.misses;
    page_reads += o.page_reads;
    return *this;
  }
  double HitRate() const {
    return hits + misses > 0 ? static_cast<double>(hits) /
                                   static_cast<double>(hits + misses)
                             : 0.0;
  }
};

PoolReading ReadPools(const tar::ShardedStore& store);

/// CPUs this process may run on ({-1} when unknown).
std::vector<int> AllowedCpus();

/// CPUs this process may run on: nproc (at least 1).
std::size_t HardwareThreads();

/// Untraced run of `spec`: every end-to-end metric.
tar::Status RunWorkload(const WorkloadSpec& spec, const Options& options,
                        std::vector<Metric>* metrics, Tally* tally);

}  // namespace perfbench
