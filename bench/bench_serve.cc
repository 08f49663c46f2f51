// Mixed read/write serving bench: a ShardedServer preloaded with the
// first half of the GW history serves reader threads while the second
// half streams through the asynchronous ingestion queue. Reports read
// throughput, read latency percentiles, write throughput and — the
// number this bench exists to watch — reads_during_write: how many
// queries completed while an epoch batch was being applied. Snapshot
// isolation keeps that number close to reads_ok; a reader-excluding
// writer would drive it (and read throughput during ingestion) to zero.
//
//   bench_serve [--json [--out FILE]] [--duration-ms D] [--threads T]
//
// --json writes a machine-readable report (default BENCH_serve.json,
// validated in CI with `python3 -m json.tool`) instead of the table.
// Scale honours TAR_BENCH_SCALE.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/failpoint.h"
#include "core/serve.h"

using namespace tar;
using namespace tar::bench;

namespace {

struct RunResult {
  std::size_t shards = 0;
  std::size_t threads = 0;
  MixedLoadReport report;
};

/// The set-up both runs share: opens a store with `sopt` (grid and space
/// filled in from `bd`), preloads the first half of the history, and
/// fills `mopt` with the rest as the paced write stream plus the paper
/// queries clamped into the preloaded history. Returns null on failure.
std::unique_ptr<ShardedStore> OpenPreloaded(const BenchData& bd,
                                            ShardedStoreOptions sopt,
                                            std::size_t threads,
                                            double duration_ms,
                                            MixedLoadOptions* mopt) {
  const std::int64_t preload =
      std::max<std::int64_t>(1, bd.counts.num_epochs / 2);
  sopt.tree.grid = bd.grid;
  sopt.tree.space = bd.data.bounds;
  auto opened = ShardedStore::Open(sopt);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return nullptr;
  }
  std::unique_ptr<ShardedStore> store = std::move(opened).ValueOrDie();
  for (PoiId id : bd.effective) {
    std::vector<std::int32_t> h = bd.counts.counts[id];
    if (h.size() > static_cast<std::size_t>(preload)) h.resize(preload);
    if (!store->InsertPoi(bd.data.pois[id], h).ok()) return nullptr;
  }

  mopt->reader_threads = threads;
  mopt->duration_ms = duration_ms;
  mopt->first_epoch = preload;
  mopt->write_interval_ms = 2.0;
  for (std::int64_t e = preload; e < bd.counts.num_epochs; ++e) {
    std::unordered_map<PoiId, std::int64_t> batch;
    for (PoiId id : bd.effective) {
      const std::vector<std::int32_t>& h = bd.counts.counts[id];
      if (static_cast<std::size_t>(e) < h.size() && h[e] > 0) {
        batch[id] = h[e];
      }
    }
    if (!batch.empty()) mopt->epoch_batches.push_back(std::move(batch));
  }
  if (mopt->epoch_batches.empty()) return nullptr;
  mopt->queries = PaperQueries(bd, 64);
  for (KnntaQuery& q : mopt->queries) {
    // Clamp the workload into the preloaded history so every query has
    // indexed data to rank.
    q.interval.end = std::min(q.interval.end, bd.grid.EpochEnd(preload - 1));
    if (q.interval.start > q.interval.end) {
      q.interval.start = bd.grid.EpochStart(0);
    }
  }
  return store;
}

/// One serving run: preload, then duration_ms of readers vs. the paced
/// write stream. Returns false on a setup or ingestion failure.
bool RunOne(const BenchData& bd, std::size_t shards, std::size_t threads,
            double duration_ms, RunResult* out) {
  ShardedStoreOptions sopt;
  sopt.num_shards = shards;
  MixedLoadOptions mopt;
  std::unique_ptr<ShardedStore> store =
      OpenPreloaded(bd, sopt, threads, duration_ms, &mopt);
  if (store == nullptr) return false;

  ShardedServer server(store.get(), ServeOptions{});
  server.Start();
  Status st = RunMixedLoad(&server, mopt, &out->report);
  server.Stop();
  if (!st.ok()) {
    std::fprintf(stderr, "mixed load failed: %s\n", st.ToString().c_str());
    return false;
  }
  out->shards = store->num_shards();
  out->threads = threads;
  return out->report.reads_ok > 0;
}

/// Availability-during-fault run: the same mixed load against a durable
/// 4-shard store in partial-coverage mode with the repair worker on,
/// while a side thread tears shard 1's WAL for a window mid-run. The
/// payload's reads_during_quarantine / reads_partial / quarantines /
/// repairs fields quantify what a single-shard fault cost: reads keep
/// completing (healthy shards never stop serving) and the shard heals
/// online.
bool RunKill(const BenchData& bd, std::size_t threads, double duration_ms,
             RunResult* out) {
  fail::FaultInjector& injector = fail::FaultInjector::Global();
  injector.Clear();
  const std::string prefix = "bench_serve.kill";
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string base = prefix + ".shard" + std::to_string(i);
    std::remove((base + ".snapshot").c_str());
    std::remove((base + ".wal").c_str());
    std::remove((base + ".redo").c_str());
  }
  ShardedStoreOptions sopt;
  sopt.num_shards = 4;
  sopt.store_prefix = prefix;
  sopt.wal.group_commit_records = 1;
  sopt.fault.retry_backoff_ms = 0.1;
  sopt.fault.repair_backoff_ms = 2.0;
  sopt.fault.repair_backoff_max_ms = 50.0;
  MixedLoadOptions mopt;
  std::unique_ptr<ShardedStore> store =
      OpenPreloaded(bd, sopt, threads, duration_ms, &mopt);
  if (store == nullptr) return false;

  ServeOptions vopt;
  vopt.partial_coverage = true;
  vopt.auto_repair = true;
  vopt.repair_poll_ms = 1.0;
  ShardedServer server(store.get(), vopt);
  server.Start();

  // The killer: a third of the way in, tear shard 1's WAL for a third of
  // the run, then lift the fault and let the repair worker heal it.
  std::thread killer([&] {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(duration_ms * 0.3));
    (void)injector.Configure("wal.torn=torn@shard:1");
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(duration_ms * 0.35));
    injector.Clear();
  });
  Status st = RunMixedLoad(&server, mopt, &out->report);
  killer.join();
  injector.Clear();

  // Let the self-heal finish so the payload reports the repaired state.
  const auto heal_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < heal_deadline &&
         !store->AllHealthy()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.Stop();
  if (!st.ok()) {
    std::fprintf(stderr, "shard-kill load failed: %s\n",
                 st.ToString().c_str());
    return false;
  }
  // The repair typically lands after the load window closes; fold the
  // final fault counters into the payload so it reflects the whole run.
  const ServerStats stats = server.stats();
  out->report.reads_partial = stats.reads_partial;
  out->report.reads_during_quarantine = stats.reads_during_quarantine;
  out->report.quarantines = stats.fault.quarantines;
  out->report.repairs = stats.fault.repairs;
  out->report.repair_latency = stats.fault.repair_latency;
  out->shards = store->num_shards();
  out->threads = threads;

  for (std::size_t i = 0; i < 4; ++i) {
    const std::string base = prefix + ".shard" + std::to_string(i);
    std::remove((base + ".snapshot").c_str());
    std::remove((base + ".wal").c_str());
    std::remove((base + ".redo").c_str());
  }
  if (!store->AllHealthy()) {
    std::fprintf(stderr, "shard never healed after the kill window\n");
    return false;
  }
  // Availability: reads completed while the shard was down.
  return out->report.reads_ok > 0 && out->report.reads_failed == 0 &&
         out->report.quarantines > 0 &&
         out->report.reads_during_quarantine > 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string out_path = "BENCH_serve.json";
  double duration_ms = 1500.0;
  std::size_t threads =
      std::min<std::size_t>(4, std::max<std::size_t>(
                                   2, std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--duration-ms") == 0 && i + 1 < argc) {
      duration_ms = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoll(argv[++i]);
    }
  }

  BenchData bd = PrepareGw();
  std::vector<RunResult> runs;
  std::vector<std::string> labels;
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    RunResult r;
    if (!RunOne(bd, shards, threads, duration_ms, &r)) {
      std::fprintf(stderr, "serve bench failed at %zu shard(s)\n", shards);
      return 1;
    }
    runs.push_back(std::move(r));
    labels.push_back("mixed-load");
  }
  {
    RunResult r;
    if (!RunKill(bd, threads, duration_ms, &r)) {
      std::fprintf(stderr, "serve bench failed in the shard-kill run\n");
      return 1;
    }
    runs.push_back(std::move(r));
    labels.push_back("shard-kill");
  }

  if (json) {
    std::string doc = "{\"bench\":\"serve\"";
    doc += ",\"scale\":" + Table::Num(ScaleFromEnv(), 3);
    doc += ",\"dataset\":\"" + bd.name + "\"";
    doc += ",\"runs\":[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (i > 0) doc += ",";
      doc += runs[i].report.ToJson(labels[i], runs[i].shards,
                                   runs[i].threads);
    }
    doc += "]}\n";
    std::ofstream out(out_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    out << doc;
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
  }

  Table table("mixed read/write serving (" + bd.name + ")",
              {"run", "shards", "readers", "reads/s", "writes/s", "p50 us",
               "p95 us", "p99 us", "during write", "during fault"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    const MixedLoadReport& rep = r.report;
    table.AddRow({labels[i], std::to_string(r.shards),
                  std::to_string(r.threads), Table::Num(rep.read_qps, 0),
                  Table::Num(rep.write_qps, 1),
                  Table::Num(rep.read_latency.P50(), 1),
                  Table::Num(rep.read_latency.P95(), 1),
                  Table::Num(rep.read_latency.P99(), 1),
                  std::to_string(rep.reads_during_write),
                  std::to_string(rep.reads_during_quarantine)});
  }
  table.Print();
  return 0;
}
