#include "workloads.h"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>

#include "common/random.h"

namespace perfbench {

namespace {

/// Workloads that stream after every set-up repeat set-up + the whole
/// second half of the history + their read slices this many times per
/// 10 s of --seconds (at least once), so every metric is sampled across
/// the whole run: a host that changes speed mid-run shifts all of them
/// alike instead of one phase. The stream is sized by epoch count, never
/// by how fast the writer goes.
constexpr double kRoundsPer10s = 5.0;
/// Set-ups of a workload that streams only after the last one.
constexpr std::size_t kSetupsStreamOnce = 3;
/// Share of --seconds ingest-mixed spends in its quiescent one-reader
/// slices (one after each round).
constexpr double kQuiescentShare = 0.6;
/// Share of serve-read's read time given to the one-reader slices (the
/// nproc readers are the headline phase, so they get the longer half).
constexpr double kOneReaderShare = 0.4;

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v(3);
    v[0].name = "serve-read";
    v[0].epoch_days = 7;
    v[0].shards = 4;
    v[0].nproc_phase = true;
    v[1].name = "cold-tia";
    v[1].epoch_days = 1;
    v[1].shards = 1;
    // 300 daily epochs take about 9 s to stream: once per run.
    v[1].stream_every_setup = false;
    v[2].name = "ingest-mixed";
    v[2].epoch_days = 7;
    v[2].shards = 4;
    v[2].durable = true;
    v[2].readers_beside_ingest = true;
    return v;
  }();
  return specs;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);
  return cpus;
}

std::size_t HardwareThreads() {
  const std::vector<int> cpus = AllowedCpus();
  return cpus.front() < 0
             ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
             : cpus.size();
}

Served::~Served() {
  if (server) server->Stop();
  server.reset();
  store.reset();
  if (!prefix.empty()) RemoveStoreFiles(prefix, shards);
}

tar::ShardedStoreOptions StoreOptions(const WorkloadSpec& spec,
                                      const Data& data,
                                      const std::string& prefix) {
  tar::ShardedStoreOptions opt;
  opt.num_shards = spec.shards;
  opt.tree.grid = data.grid;
  opt.tree.space = data.dataset.bounds;
  if (spec.durable) {
    opt.store_prefix = prefix;
    // Group commit of 32 records (or 256 KiB), written to the OS cache
    // with no fsync; the server takes no checkpoints.
    opt.wal.group_commit_records = 32;
  }
  return opt;
}

void RemoveStoreFiles(const std::string& prefix, std::size_t shards) {
  for (std::size_t i = 0; i < shards; ++i) {
    const std::string base = prefix + ".shard" + std::to_string(i);
    for (const char* ext : {".snapshot", ".snapshot.tmp", ".wal", ".redo"}) {
      std::remove((base + ext).c_str());
    }
  }
}

tar::Status OpenStore(const WorkloadSpec& spec, const Data& data,
                      const std::string& prefix, Served* out) {
  if (spec.durable) {
    out->prefix = prefix;
    out->shards = spec.shards;
    RemoveStoreFiles(prefix, spec.shards);
  }
  auto opened = tar::ShardedStore::Open(StoreOptions(spec, data, prefix));
  if (!opened.ok()) return opened.status();
  out->store = std::move(opened).ValueOrDie();
  for (PoiId id : data.effective) {
    TAR_RETURN_NOT_OK(
        out->store->InsertPoi(data.dataset.pois[id], data.PreloadHistory(id)));
  }
  return tar::Status::OK();
}

tar::Status SetUp(const WorkloadSpec& spec, const Data& data,
                  const std::string& prefix, Served* out) {
  TAR_RETURN_NOT_OK(OpenStore(spec, data, prefix, out));
  out->server = std::make_unique<tar::ShardedServer>(out->store.get(),
                                                     tar::ServeOptions{});
  out->server->Start();
  return tar::Status::OK();
}

void ReadStats::CloseWindow() {
  window_p99_us.assign(1, Percentile(latency_us, 0.99));
}

void ReadStats::Add(ReadStats&& o) {
  ok += o.ok;
  failed += o.failed;
  shed += o.shed;
  window_s += o.window_s;
  latency_us.insert(latency_us.end(), o.latency_us.begin(),
                    o.latency_us.end());
  window_p99_us.insert(window_p99_us.end(), o.window_p99_us.begin(),
                       o.window_p99_us.end());
  for (auto& [qi, res] : o.sampled) sampled.emplace(qi, std::move(res));
}

ReaderGroup::ReaderGroup(QueryFn query, const std::vector<KnntaQuery>* pool,
                         const std::vector<std::size_t>* sample)
    : query_(std::move(query)), pool_(pool), sample_(sample) {}

ReaderGroup::~ReaderGroup() {
  if (!threads_.empty()) Stop();
}

void ReaderGroup::Start(std::size_t threads, std::size_t offset, int cpu) {
  cpu_ = cpu;
  stop_.store(false);
  per_thread_.assign(threads, ReadStats());
  start_ = Clock::now();
  for (std::size_t t = 0; t < threads; ++t) {
    threads_.emplace_back(&ReaderGroup::Loop, this,
                          offset + t * pool_->size() / threads,
                          &per_thread_[t]);
  }
}

ReadStats ReaderGroup::Stop() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  // Each reader stores its own finish time in window_s; the group window
  // ends when the last one finished.
  ReadStats merged;
  double window = 0.0;
  for (ReadStats& s : per_thread_) {
    window = std::max(window, s.window_s);
    s.window_s = 0.0;
    merged.Add(std::move(s));
  }
  merged.window_s = window;
  per_thread_.clear();
  return merged;
}

void ReaderGroup::Loop(std::size_t first, ReadStats* out) {
  if (cpu_ >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu_, &set);
    // Best effort: an unpinned reader still measures correctly.
    (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
  const std::size_t n = pool_->size();
  std::vector<bool> in_sample(n, false);
  for (std::size_t qi : *sample_) in_sample[qi] = true;
  std::size_t next = first;
  std::vector<KnntaResult> results;
  out->latency_us.reserve(1 << 15);
  while (!stop_.load(std::memory_order_relaxed)) {
    const std::size_t qi = next++ % n;
    const Clock::time_point t0 = Clock::now();
    const tar::Status st = query_((*pool_)[qi], &results);
    const Clock::time_point t1 = Clock::now();
    if (st.ok()) {
      ++out->ok;
      out->latency_us.push_back(MicrosBetween(t0, t1));
      if (in_sample[qi] && out->sampled.count(qi) == 0) {
        out->sampled.emplace(qi, results);
      }
    } else if (st.IsUnavailable()) {
      ++out->shed;
    } else {
      ++out->failed;
    }
  }
  out->window_s = SecondsSince(start_);
}

ReadStats ReadFor(tar::ShardedServer* server,
                  const std::vector<KnntaQuery>& pool,
                  const std::vector<std::size_t>& sample,
                  std::size_t threads, double seconds, std::size_t* cursor) {
  // A lone reader runs on one CPU at a time, and on a shared host the
  // CPUs do not run equally fast: its window is split evenly over the
  // CPUs this process may use, one slice pinned to each.
  const std::vector<int> cpus =
      threads == 1 ? AllowedCpus() : std::vector<int>{-1};
  ReadStats out;
  for (int cpu : cpus) {
    ReaderGroup group(
        [server](const KnntaQuery& q, std::vector<KnntaResult>* r) {
          return server->Query(q, r);
        },
        &pool, &sample);
    group.Start(threads, *cursor, cpu);
    std::this_thread::sleep_for(std::chrono::duration<double>(
        seconds / static_cast<double>(cpus.size())));
    ReadStats slice = group.Stop();
    *cursor = (*cursor + (slice.ok + slice.failed + slice.shed) / threads) %
              pool.size();
    out.Add(std::move(slice));
  }
  out.CloseWindow();
  return out;
}

IngestStats IngestThroughServer(tar::ShardedServer* server, const Data& data) {
  IngestStats out;
  const Clock::time_point start = Clock::now();
  for (const Data::Batch& batch : data.stream) {
    std::unordered_map<PoiId, std::int64_t> aggs = batch.aggs;
    ++out.submitted;
    const Clock::time_point t0 = Clock::now();
    if (!server->SubmitEpoch(batch.epoch, std::move(aggs)).ok()) {
      ++out.failed;
      continue;
    }
    server->WaitForIngest();
    if (!server->ingest_status().ok()) {
      ++out.failed;
      continue;
    }
    out.apply_ms.push_back(MicrosBetween(t0, Clock::now()) / 1000.0);
  }
  out.writer_s = SecondsSince(start);
  return out;
}

std::unique_ptr<tar::ScanBaseline> BuildScan(const Data& data) {
  auto scan =
      std::make_unique<tar::ScanBaseline>(data.grid, data.dataset.bounds);
  for (PoiId id : data.effective) {
    if (!scan->AddPoi(data.dataset.pois[id], data.counts.counts[id]).ok()) {
      return nullptr;
    }
  }
  return scan;
}

std::uint64_t CheckAgainstScan(const tar::ScanBaseline& scan,
                               const std::vector<KnntaQuery>& pool,
                               const ReadStats& reads,
                               std::uint64_t* checked) {
  std::uint64_t wrong = 0;
  std::vector<KnntaResult> expected;
  for (const auto& [qi, got] : reads.sampled) {
    ++*checked;
    if (!scan.Query(pool[qi], &expected).ok() || !SameAnswer(got, expected)) {
      ++wrong;
    }
  }
  return wrong;
}

std::uint64_t CheckAgainstTwin(const Data& data, const tar::ShardedStore& store,
                               const std::vector<KnntaQuery>& pool,
                               const std::vector<std::size_t>& sample) {
  tar::TarTree twin(store.options().tree);
  for (PoiId id : data.effective) {
    if (!twin.InsertPoi(data.dataset.pois[id], data.PreloadHistory(id)).ok()) {
      return sample.size();
    }
  }
  for (const Data::Batch& batch : data.stream) {
    if (!twin.AppendEpoch(batch.epoch, batch.aggs).ok()) return sample.size();
  }
  std::uint64_t wrong = 0;
  std::vector<KnntaResult> a;
  std::vector<KnntaResult> b;
  for (std::size_t qi : sample) {
    if (!store.Query(pool[qi], &a).ok() || !twin.Query(pool[qi], &b).ok() ||
        !SameAnswer(a, b)) {
      ++wrong;
    }
  }
  return wrong;
}

std::vector<std::size_t> SampleIndices(std::size_t pool, std::size_t n,
                                       std::uint64_t seed) {
  std::vector<std::size_t> all(pool);
  for (std::size_t i = 0; i < pool; ++i) all[i] = i;
  tar::Rng rng(seed ^ 0x5eedc0ffeeull);
  std::shuffle(all.begin(), all.end(), rng.engine());
  all.resize(std::min(n, pool));
  std::sort(all.begin(), all.end());
  return all;
}

PoolReading ReadPools(const tar::ShardedStore& store) {
  PoolReading r;
  for (std::size_t i = 0; i < store.num_shards(); ++i) {
    tar::TreeSnapshot snap = store.shard(i)->Acquire();
    const tar::BufferPool* pool = snap.tree().tia_buffer_pool();
    r.hits += pool->hits();
    r.misses += pool->misses();
    r.page_reads += pool->file()->physical_reads();
  }
  return r;
}

void NoteWorkload(const WorkloadSpec& spec, const Data& data,
                  const std::vector<KnntaQuery>& pool) {
  Note("workload %s: %zu effective POIs, %lld epochs of %d day(s), "
       "%lld preloaded, %zu streamed, %zu shard(s)%s",
       spec.name.c_str(), data.effective.size(),
       static_cast<long long>(data.counts.num_epochs), spec.epoch_days,
       static_cast<long long>(data.preload_epochs), data.stream.size(),
       spec.shards,
       spec.durable ? ", durable (WAL group commit 32 records, flushed "
                      "to the OS cache, no fsync, no checkpoints)"
                    : ", in memory");
  Note("queries fnv1a=%016llx pool=%zu",
       static_cast<unsigned long long>(DigestQueries(pool)), pool.size());
}

void NoteSelfCheck(const WorkloadSpec& spec, double hit_rate,
                   double misses_per_query, std::uint64_t reads_during_write) {
  if (spec.name == "serve-read") {
    Note("self-check serve-read buffer_pool.hit_rate %.5f >= 0.99: %s",
         hit_rate, hit_rate >= 0.99 ? "ok" : "FAILED");
  } else if (spec.name == "cold-tia") {
    // The pool must overflow: over 1,000 misses per query and a hit rate
    // under 0.5 (run.py --check-workloads also compares with serve-read).
    const bool cold = misses_per_query > kColdMissesPerQuery && hit_rate < 0.5;
    Note("self-check cold-tia buffer_pool.misses/query %.1f > %.0f and "
         "hit_rate %.5f < 0.5: %s",
         misses_per_query, kColdMissesPerQuery, hit_rate,
         cold ? "ok" : "FAILED");
  } else {
    Note("self-check ingest-mixed reads completed while epochs applied=%llu "
         "> 0: %s",
         static_cast<unsigned long long>(reads_during_write),
         reads_during_write > 0 ? "ok" : "FAILED");
  }
}

tar::Status RunWorkload(const WorkloadSpec& spec, const Options& options,
                        std::vector<Metric>* metrics, Tally* tally) {
  const std::size_t nproc = HardwareThreads();
  const std::size_t side_readers = std::max<std::size_t>(1, nproc - 1);
  const std::size_t setups =
      spec.stream_every_setup
          ? std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       options.seconds / 10.0 * kRoundsPer10s + 0.5))
          : kSetupsStreamOnce;
  // Read time of each round's slices.
  const double round_s = options.seconds / static_cast<double>(setups);

  std::vector<double> setup_s;
  std::vector<double> data_s;  // the data-generation part of each set-up
  IngestStats ingest;
  ReadStats beside;  // reads beside the writer (ingest-mixed)
  std::vector<KnntaQuery> pool;
  std::vector<std::size_t> sample;
  std::unique_ptr<Data> data;
  std::unique_ptr<Served> served;
  std::uint64_t reads_during_write = 0;
  ReadStats one;   // one closed-loop reader
  ReadStats many;  // nproc readers (serve-read)
  std::size_t cursor_one = 0;
  std::size_t cursor_many = 0;
  std::size_t cursor_beside = 0;
  // Buffer-pool counter advance over the read-only phases.
  PoolReading pool_delta;
  auto read_one_reader = [&](Served* s, double seconds) {
    const PoolReading before = ReadPools(*s->store);
    ReadStats r =
        ReadFor(s->server.get(), pool, sample, 1, seconds, &cursor_one);
    pool_delta += ReadPools(*s->store) - before;
    return r;
  };

  for (std::size_t round = 0; round < setups; ++round) {
    served.reset();  // the previous round's store goes before the next
    const Clock::time_point t0 = Clock::now();
    data = MakeData(options.scale, spec.epoch_days);
    data_s.push_back(SecondsSince(t0));
    served = std::make_unique<Served>();
    const std::string prefix = options.work_dir + "/" + spec.name + "-" +
                               std::to_string(getpid()) + "-" +
                               std::to_string(round);
    TAR_RETURN_NOT_OK(SetUp(spec, *data, prefix, served.get()));
    setup_s.push_back(SecondsSince(t0));
    if (pool.empty()) {
      pool = MakeQueryPool(*data, kPoolSize, options.seed);
      sample = SampleIndices(pool.size(), kCheckSample, options.seed);
      NoteWorkload(spec, *data, pool);
    }
    IngestStats round_ingest;
    if (!spec.stream_every_setup && round + 1 < setups) continue;
    if (spec.readers_beside_ingest) {
      tar::ShardedServer* server = served->server.get();
      ReaderGroup group(
          [server](const KnntaQuery& q, std::vector<KnntaResult>* r) {
            return server->Query(q, r);
          },
          &pool, &sample);
      const std::uint64_t before = server->stats().reads_during_write;
      group.Start(side_readers, cursor_beside);
      round_ingest = IngestThroughServer(server, *data);
      ReadStats r = group.Stop();
      r.CloseWindow();
      cursor_beside = (cursor_beside + (r.ok + r.failed + r.shed) /
                                           side_readers) %
                      pool.size();
      beside.Add(std::move(r));
      reads_during_write += server->stats().reads_during_write - before;
    } else {
      round_ingest = IngestThroughServer(served->server.get(), *data);
    }
    ingest.apply_ms.insert(ingest.apply_ms.end(),
                           round_ingest.apply_ms.begin(),
                           round_ingest.apply_ms.end());
    ingest.writer_s += round_ingest.writer_s;
    ingest.submitted += round_ingest.submitted;
    ingest.failed += round_ingest.failed;
    // Read slices on the round's store, the full history now in and no
    // writes: one reader (read_qps_1t), then on serve-read nproc readers.
    if (spec.readers_beside_ingest) {
      one.Add(read_one_reader(served.get(), round_s * kQuiescentShare));
    } else if (spec.nproc_phase) {
      one.Add(read_one_reader(served.get(), round_s * kOneReaderShare));
      const PoolReading before = ReadPools(*served->store);
      many.Add(ReadFor(served->server.get(), pool, sample, nproc,
                       round_s * (1.0 - kOneReaderShare), &cursor_many));
      pool_delta += ReadPools(*served->store) - before;
    }
  }
  if (!spec.stream_every_setup) {
    one = read_one_reader(served.get(), options.seconds);
  }

  // The headline read phase: nproc readers (serve-read), the readers
  // beside the writer (ingest-mixed), or the single reader (cold-tia).
  const ReadStats& head = spec.nproc_phase              ? many
                          : spec.readers_beside_ingest ? beside
                                                        : one;

  // Correctness: sampled answers of the read-only phases against the scan
  // baseline; ingest-mixed's final store against the unsharded twin.
  std::uint64_t wrong = 0;
  std::uint64_t checked = 0;
  std::unique_ptr<tar::ScanBaseline> scan = BuildScan(*data);
  if (scan == nullptr) return tar::Status::Corruption("scan baseline build");
  wrong += CheckAgainstScan(*scan, pool, one, &checked);
  if (spec.nproc_phase) wrong += CheckAgainstScan(*scan, pool, many, &checked);
  if (spec.readers_beside_ingest) {
    wrong += CheckAgainstTwin(*data, *served->store, pool, sample);
    checked += sample.size();
  }

  const std::uint64_t reads_attempted = one.ok + one.failed + one.shed +
                                        (spec.nproc_phase
                                             ? many.ok + many.failed + many.shed
                                             : 0) +
                                        beside.ok + beside.failed + beside.shed;
  const std::uint64_t read_errors = one.failed + one.shed + beside.failed +
                                    beside.shed +
                                    (spec.nproc_phase ? many.failed + many.shed
                                                      : 0);
  tally->attempted += reads_attempted + ingest.submitted;
  tally->failed += read_errors + wrong + ingest.failed;
  tally->correct = tally->correct && wrong == 0 && ingest.failed == 0 &&
                   read_errors == 0;

  const std::uint64_t reads_in_phases =
      one.ok + (spec.nproc_phase ? many.ok : 0);
  const double misses_per_query =
      reads_in_phases > 0 ? static_cast<double>(pool_delta.misses) /
                                static_cast<double>(reads_in_phases)
                          : 0.0;
  const double ingest_eps =
      ingest.writer_s > 0.0
          ? static_cast<double>(ingest.apply_ms.size()) / ingest.writer_s
          : 0.0;

  Note("setups=%zu median=%.3f s (data generation %.3f s); epochs "
       "applied=%zu in %.3f s",
       setup_s.size(), Median(setup_s), Median(data_s),
       ingest.apply_ms.size(), ingest.writer_s);
  Note("read phase 1 reader: %llu reads in %.3f s; headline phase: %llu "
       "reads in %.3f s over %zu reader(s); latency samples=%zu in %zu "
       "reader windows",
       static_cast<unsigned long long>(one.ok), one.window_s,
       static_cast<unsigned long long>(head.ok), head.window_s,
       spec.nproc_phase ? nproc
                        : (spec.readers_beside_ingest ? side_readers : 1),
       head.latency_us.size(), head.window_p99_us.size());
  Note("answers checked bit-exact=%llu wrong=%llu; error_rate=%.6f "
       "(failed+shed+wrong over %llu reads and epochs)",
       static_cast<unsigned long long>(checked),
       static_cast<unsigned long long>(wrong),
       tally->attempted > 0 ? static_cast<double>(tally->failed) /
                                  static_cast<double>(tally->attempted)
                            : 0.0,
       static_cast<unsigned long long>(tally->attempted));
  Note("buffer_pool over the read-only phases: hits=%llu misses=%llu "
       "hit_rate=%.5f misses/query=%.3f",
       static_cast<unsigned long long>(pool_delta.hits),
       static_cast<unsigned long long>(pool_delta.misses),
       pool_delta.HitRate(), misses_per_query);
  NoteSelfCheck(spec, pool_delta.HitRate(), misses_per_query,
                reads_during_write);
  // Printed, not declared: a lone reader's rate drifts about twice as much
  // as nproc readers' between runs on a shared host, too close to the
  // largest regression bound to gate on.
  Note("read_qps_1t %.4f ops/s (one reader, %.3f s window; the 1 end of "
       "the 1 -> nproc curve)",
       one.Qps(), one.window_s);

  *metrics = {
      {"setup_s", "s", Median(setup_s)},
      {"read_qps", "ops/s", head.Qps()},
      // p50 over every completed read of the headline phase; p99 the
      // median of each reader window's p99 (thousands of reads a window on
      // serve-read and ingest-mixed), so a host stall that hits one window
      // does not set the tail.
      {"read_p50_us", "us", Percentile(head.latency_us, 0.50)},
      {"read_p99_us", "us", Median(head.window_p99_us)},
      {"ingest_epochs_per_s", "epochs/s", ingest_eps},
      {"ingest_apply_p50_ms", "ms", Percentile(ingest.apply_ms, 0.50)},
      {"ingest_apply_p95_ms", "ms", Percentile(ingest.apply_ms, 0.95)},
      {"peak_rss_mb", "MB", PeakRssMb()},
  };
  return tar::Status::OK();
}

}  // namespace perfbench
