// The traced run. Every call the benchmark makes into a layer is wrapped
// in a span (name, start, end, parent, op id = query index or epoch);
// spans stay in memory and are written out at the end, and every
// per-layer metric is computed from them. Nothing inside src/ is
// instrumented: the read side times the real ShardedServer::Query and
// ShardedStore::Query, then replays the fan-out through the same public
// calls ShardedStore::Query makes (SnapshotStore::Acquire,
// TarTree::MaxAggregate, TarTree::QueryWithContext with a QueryTrace,
// merge) and requires the replayed top-k to equal the real answer bit
// for bit. The write side times the server's apply latency and, on
// standalone twins fed the same epochs, ShardedStore::AppendEpoch, the
// three SnapshotStore staged phases (with readers pinning the store),
// TarTree::PrevalidateRecord / AppendEpoch and WalWriter::Append.
#include "layers.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>

#include "core/ranking.h"
#include "storage/snapshot_store.h"
#include "storage/wal.h"

namespace perfbench {

namespace {

/// Queries of the traced read pass (a fixed count, not a duration, so two
/// runs with one seed replay identical work and identical counts).
constexpr std::size_t kTracedQueries = 128;
/// Rounds of the traced read passes (one per position a call can take in
/// the rotation); per-layer figures average over them.
constexpr std::size_t kTracedRounds = 3;
/// Streamed epochs the write-side spans cover (the first ones; all of a
/// weekly stream, the first nine weeks of cold-tia's daily one).
constexpr std::size_t kTracedEpochs = 64;

/// \brief One timed call into a layer.
struct Span {
  const char* name = "";
  double start_us = 0.0;  ///< since the log's origin
  double end_us = 0.0;
  int parent = -1;        ///< index into the log; -1 = a root span
  std::int64_t op = 0;    ///< query index (reads) or epoch (writes)

  double Micros() const { return end_us - start_us; }
};

/// \brief Spans of one run, recorded by one thread, kept in memory.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  int Open(const char* name, std::int64_t op, int parent = -1) {
    spans_.push_back(Span{name, Now(), 0.0, parent, op});
    return static_cast<int>(spans_.size() - 1);
  }
  void Close(int span) { spans_[span].end_us = Now(); }

  /// A span whose duration is known but not its placement (the TIA time a
  /// QueryTrace sums up): laid at the start of its parent.
  void AddSummed(const char* name, std::int64_t op, int parent,
                 double micros) {
    const double start = spans_[parent].start_us;
    spans_.push_back(Span{name, start, start + micros, parent, op});
  }

  void Rename(int span, const char* name) { spans_[span].name = name; }

  /// \brief Per span name: count, total duration and total self time
  /// (duration minus the time its child spans cover).
  struct Totals {
    std::uint64_t count = 0;
    double micros = 0.0;
    double self_micros = 0.0;
    std::vector<double> durations;
  };
  std::map<std::string, Totals> Summarize() const {
    std::vector<double> child_micros(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_micros[s.parent] += s.Micros();
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      ++t.count;
      t.micros += spans_[i].Micros();
      t.self_micros += spans_[i].Micros() - child_micros[i];
      t.durations.push_back(spans_[i].Micros());
    }
    return out;
  }

  /// One JSON object per line: id, name, start_us, end_us, parent, op.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                   "\"end_us\":%.3f,\"parent\":%d,\"op\":%lld}\n",
                   i, s.name, s.start_us, s.end_us, s.parent,
                   static_cast<long long>(s.op));
    }
    return std::fclose(f) == 0;
  }

  std::size_t size() const { return spans_.size(); }

 private:
  double Now() const { return MicrosBetween(origin_, Clock::now()); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// \brief Read-side counts summed over the traced queries.
struct ReadCounts {
  tar::AccessStats stats;  ///< from the real ShardedStore::Query
  std::uint64_t heap_pushes = 0;
  std::uint64_t heap_pops = 0;
  std::uint64_t tia_calls = 0;  ///< QueryTrace, best-first phase
  PoolReading pool;
  std::uint64_t mismatches = 0;  ///< replay or scan disagreements
  std::uint64_t errors = 0;
};

/// The replay of ShardedStore::Query for one query: the same public calls
/// in the same order, each in its own span under `replay`.
tar::Status ReplayCalls(const tar::ShardedStore& store, const KnntaQuery& q,
                        std::int64_t op, int replay, SpanLog* log,
                        ReadCounts* counts, tar::AccessStats* stats,
                        std::vector<KnntaResult>* out) {
  std::vector<tar::TreeSnapshot> snaps(store.num_shards());
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const int s = log->Open("snapshot_store.acquire", op, replay);
    snaps[i] = store.shard(i)->Acquire();
    log->Close(s);
  }
  tar::TarTree::QueryContext ctx;
  ctx.q = q.point;
  ctx.interval = store.options().tree.grid.AlignOutward(q.interval);
  ctx.alpha0 = q.alpha0;
  ctx.alpha1 = 1.0 - q.alpha0;
  ctx.dmax = tar::SpatialNormalizer(store.options().tree.space);
  std::int64_t gmax = 0;
  for (tar::TreeSnapshot& snap : snaps) {
    const int s = log->Open("tar_tree.gmax", op, replay);
    auto r = snap.tree().MaxAggregate(ctx.interval, stats);
    log->Close(s);
    if (!r.ok()) return r.status();
    gmax = std::max(gmax, r.ValueOrDie());
  }
  ctx.gmax = tar::AggregateNormalizer(gmax);
  std::vector<KnntaResult> merged;
  std::vector<KnntaResult> part;
  for (tar::TreeSnapshot& snap : snaps) {
    tar::QueryTrace trace;
    const int s = log->Open("tar_tree.search", op, replay);
    const tar::Status st =
        snap.tree().QueryWithContext(q, ctx, &part, stats, &trace);
    log->Close(s);
    TAR_RETURN_NOT_OK(st);
    log->AddSummed("tia.aggregate", op, s, trace.TiaMicros());
    for (const tar::QueryTrace::Phase& p : trace.phases) {
      counts->heap_pushes += p.heap_pushes;
      counts->heap_pops += p.heap_pops;
      counts->tia_calls += p.stats.aggregate_calls;
    }
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const KnntaResult& a, const KnntaResult& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.poi < b.poi;  // the store's uniform tie-break
            });
  if (merged.size() > q.k) merged.resize(q.k);
  *out = std::move(merged);
  return tar::Status::OK();
}

/// ReplayCalls inside a "sharded_store.replay" span.
tar::Status ReplayFanOut(const tar::ShardedStore& store, const KnntaQuery& q,
                         std::int64_t op, SpanLog* log, ReadCounts* counts,
                         tar::AccessStats* stats,
                         std::vector<KnntaResult>* out) {
  const int replay = log->Open("sharded_store.replay", op);
  const tar::Status st =
      ReplayCalls(store, q, op, replay, log, counts, stats, out);
  log->Close(replay);
  return st;
}

bool SameStats(const tar::AccessStats& a, const tar::AccessStats& b) {
  return a.rtree_node_reads == b.rtree_node_reads &&
         a.rtree_leaf_reads == b.rtree_leaf_reads &&
         a.entries_scanned == b.entries_scanned &&
         a.aggregate_calls == b.aggregate_calls;
}

/// The traced read pass over the first kTracedQueries of the pool, one
/// reader, quiescent store. After a warm-up pass, each round runs every
/// query three times back to back: through the server, through the store,
/// and as a replay. The order rotates with the round, so each call takes
/// each position once per query: machine drift and the cache warmth a
/// call leaves for the next cancel out of the differences between them.
/// Pool counters are read around the first of the three calls. The TIA
/// pools are LRU, so a query run again right away leaves them as one run
/// would, and after the warm-up every first call sees the state one pass
/// over the sequence leaves: the same hits and misses in every round.
void TracedReads(tar::ShardedServer* server, const tar::ShardedStore& store,
                 const std::vector<KnntaQuery>& queries, SpanLog* log,
                 ReadCounts* counts,
                 std::vector<std::vector<KnntaResult>>* answers) {
  std::vector<KnntaResult> results;
  for (const KnntaQuery& q : queries) {
    if (!server->Query(q, &results).ok()) ++counts->errors;
  }
  answers->assign(queries.size(), {});
  std::vector<KnntaResult> served;
  std::vector<KnntaResult> replayed;
  for (std::size_t round = 0; round < kTracedRounds; ++round) {
    tar::AccessStats round_stats;
    tar::AccessStats replay_stats;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const KnntaQuery& q = queries[i];
      const auto op = static_cast<std::int64_t>(i);
      std::vector<KnntaResult>& answer = (*answers)[i];
      auto serve_call = [&] {
        const int s = log->Open("serve.query", op);
        const tar::Status st = server->Query(q, &served);
        log->Close(s);
        return st;
      };
      auto store_call = [&] {
        const int s = log->Open("sharded_store.query", op);
        const tar::Status st = store.Query(q, &answer, &round_stats);
        log->Close(s);
        return st;
      };
      auto replay_call = [&] {
        return ReplayFanOut(store, q, op, log, counts, &replay_stats,
                            &replayed);
      };
      const std::function<tar::Status()> calls[3] = {serve_call, store_call,
                                                     replay_call};
      const std::size_t first = (i + round) % 3;
      for (std::size_t k = 0; k < 3; ++k) {
        const PoolReading before = k == 0 ? ReadPools(store) : PoolReading{};
        if (!calls[(first + k) % 3]().ok()) ++counts->errors;
        if (k == 0) counts->pool += ReadPools(store) - before;
      }
      if (!SameAnswer(served, answer) || !SameAnswer(replayed, answer)) {
        ++counts->mismatches;
      }
    }
    if (!SameStats(replay_stats, round_stats)) {
      Note("replay access counts differ from ShardedStore::Query: replay "
           "%s, real %s",
           replay_stats.ToString().c_str(), round_stats.ToString().c_str());
      ++counts->mismatches;
    }
    counts->stats += round_stats;
  }
}

/// Sorted (poi, aggregate) pairs: the WAL record of an epoch batch.
tar::WalRecord EpochRecord(const Data::Batch& batch) {
  std::vector<std::pair<std::uint32_t, std::int64_t>> aggs(batch.aggs.begin(),
                                                           batch.aggs.end());
  std::sort(aggs.begin(), aggs.end());
  return tar::WalRecord::MakeAppendEpoch(batch.epoch, std::move(aggs));
}

/// Readers that keep pinning `store` (Acquire, then a query on the pinned
/// replica) while the standalone staged mutations run.
class PinningReaders {
 public:
  PinningReaders(const tar::SnapshotStore* store,
                 const std::vector<KnntaQuery>* pool, std::size_t threads)
      : store_(store), pool_(pool) {
    for (std::size_t t = 0; t < threads; ++t) {
      threads_.emplace_back([this, t, threads] {
        std::vector<KnntaResult> r;
        std::size_t next = t * pool_->size() / threads;
        while (!stop_.load(std::memory_order_relaxed)) {
          tar::TreeSnapshot snap = store_->Acquire();
          if (!snap.tree().Query((*pool_)[next++ % pool_->size()], &r).ok()) {
            failed_.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }
  ~PinningReaders() { Stop(); }
  PinningReaders(const PinningReaders&) = delete;
  PinningReaders& operator=(const PinningReaders&) = delete;

  /// Joins the readers; returns how many of their queries failed.
  std::uint64_t Stop() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    return failed_.load();
  }

 private:
  const tar::SnapshotStore* store_;
  const std::vector<KnntaQuery>* pool_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> failed_{0};
  std::vector<std::thread> threads_;
};

/// \brief Write-side outcome besides the spans.
struct WriteCounts {
  std::uint64_t epochs = 0;     ///< per pass
  std::uint64_t failed = 0;
  std::uint64_t wal_bytes = 0;  ///< standalone WAL file size at the end
};

tar::Status TracedSnapshotStore(const Data& data,
                                const std::vector<Data::Batch>& batches,
                                const std::vector<KnntaQuery>& pool,
                                std::size_t readers,
                                const std::string& prefix, SpanLog* log,
                                WriteCounts* counts) {
  tar::SnapshotStoreOptions opt;
  opt.tree.grid = data.grid;
  opt.tree.space = data.dataset.bounds;
  opt.snapshot_path = prefix + ".snapshot";
  opt.wal_path = prefix + ".wal";
  opt.wal.group_commit_records = 32;
  std::remove(opt.snapshot_path.c_str());
  std::remove(opt.wal_path.c_str());
  tar::Status result = [&]() -> tar::Status {
    auto opened = tar::SnapshotStore::Open(opt);
    if (!opened.ok()) return opened.status();
    std::unique_ptr<tar::SnapshotStore> store = std::move(opened).ValueOrDie();
    for (PoiId id : data.effective) {
      TAR_RETURN_NOT_OK(
          store->InsertPoi(data.dataset.pois[id], data.PreloadHistory(id)));
    }
    PinningReaders pinning(store.get(), &pool, readers);
    for (const Data::Batch& batch : batches) {
      int s = log->Open("snapshot_store.stage", batch.epoch);
      tar::Status st = store->StageEpoch(batch.epoch, batch.aggs);
      log->Close(s);
      if (st.ok()) {
        s = log->Open("snapshot_store.publish", batch.epoch);
        st = store->PublishStaged();
        log->Close(s);
      }
      if (st.ok()) {
        s = log->Open("snapshot_store.catchup", batch.epoch);
        st = store->CatchUpStaged();
        log->Close(s);
      }
      if (!st.ok()) {
        ++counts->failed;
        pinning.Stop();
        return st;
      }
    }
    counts->failed += pinning.Stop();
    return tar::Status::OK();
  }();
  std::remove(opt.snapshot_path.c_str());
  std::remove(opt.wal_path.c_str());
  return result;
}

tar::Status TracedTarTree(const Data& data,
                          const std::vector<Data::Batch>& batches,
                          const tar::TarTreeOptions& opt, SpanLog* log) {
  tar::TarTree tree(opt);
  for (PoiId id : data.effective) {
    TAR_RETURN_NOT_OK(
        tree.InsertPoi(data.dataset.pois[id], data.PreloadHistory(id)));
  }
  for (const Data::Batch& batch : batches) {
    const tar::WalRecord record = EpochRecord(batch);
    int s = log->Open("tar_tree.prevalidate", batch.epoch);
    tar::Status st = tree.PrevalidateRecord(record);
    log->Close(s);
    TAR_RETURN_NOT_OK(st);
    s = log->Open("tar_tree.apply", batch.epoch);
    st = tree.AppendEpoch(batch.epoch, batch.aggs);
    log->Close(s);
    TAR_RETURN_NOT_OK(st);
  }
  return tar::Status::OK();
}

tar::Status TracedWal(const std::vector<Data::Batch>& batches,
                      const std::string& path, SpanLog* log,
                      WriteCounts* counts) {
  std::remove(path.c_str());
  tar::WalWriterOptions opt;
  opt.group_commit_records = 32;
  tar::Status result = [&]() -> tar::Status {
    auto opened = tar::WalWriter::Open(path, opt);
    if (!opened.ok()) return opened.status();
    std::unique_ptr<tar::WalWriter> wal = std::move(opened).ValueOrDie();
    for (const Data::Batch& batch : batches) {
      const tar::WalRecord record = EpochRecord(batch);
      const tar::Lsn synced = wal->last_synced_lsn();
      const int s = log->Open("wal.append", batch.epoch);
      auto appended = wal->Append(record);
      log->Close(s);
      if (!appended.ok()) return appended.status();
      // An Append that crossed the group-commit threshold also wrote the
      // batch to the OS cache: that call is the group-commit sync.
      if (wal->last_synced_lsn() != synced) log->Rename(s, "wal.sync");
    }
    TAR_RETURN_NOT_OK(wal->Sync());
    return tar::Status::OK();
  }();
  std::error_code ec;
  const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
  counts->wal_bytes = ec ? 0 : bytes;
  std::remove(path.c_str());
  return result;
}

}  // namespace

tar::Status RunTraced(const WorkloadSpec& spec, const Options& options,
                      std::vector<Metric>* metrics, Tally* tally) {
  const std::size_t side_readers =
      std::max<std::size_t>(1, HardwareThreads() - 1);
  std::unique_ptr<Data> data = MakeData(options.scale, spec.epoch_days);
  const std::vector<KnntaQuery> pool =
      MakeQueryPool(*data, kPoolSize, options.seed);
  const std::vector<std::size_t> sample =
      SampleIndices(pool.size(), kCheckSample, options.seed);
  const std::vector<KnntaQuery> traced(
      pool.begin(),
      pool.begin() + static_cast<std::ptrdiff_t>(
                         std::min(kTracedQueries, pool.size())));
  const std::vector<Data::Batch> batches(
      data->stream.begin(),
      data->stream.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(kTracedEpochs, data->stream.size())));
  NoteWorkload(spec, *data, pool);
  const std::string base = options.work_dir + "/" + spec.name + "-" +
                           std::to_string(getpid()) + "-traced";

  SpanLog log;
  ReadCounts reads;
  WriteCounts writes;
  std::uint64_t wrong = 0;
  std::uint64_t checked = 0;
  std::uint64_t reads_during_write = 0;
  ReadStats beside;

  // The served store and a twin fed the same epochs directly, side by
  // side: per traced epoch one goes through ShardedServer::SubmitEpoch and
  // the other through ShardedStore::AppendEpoch, in alternating order, so
  // machine drift cancels out of serve.ingest_wait_ms. Readers beside the
  // writer (ingest-mixed) alternate between the two stores. Then the
  // traced reads on the served store, which holds the full history.
  {
    Served served;
    TAR_RETURN_NOT_OK(SetUp(spec, *data, base + "-served", &served));
    tar::ShardedServer* server = served.server.get();
    {
      Served twin;
      TAR_RETURN_NOT_OK(OpenStore(spec, *data, base + "-twin", &twin));
      tar::ShardedStore* twin_store = twin.store.get();
      ReaderGroup group(
          [server, twin_store](const KnntaQuery& q,
                               std::vector<KnntaResult>* r) {
            thread_local bool to_twin = false;
            to_twin = !to_twin;
            return to_twin ? twin_store->Query(q, r) : server->Query(q, r);
          },
          &pool, &sample);
      if (spec.readers_beside_ingest) group.Start(side_readers);
      // The whole stream goes through the server (the reads need the full
      // history); the first batches.size() epochs are traced.
      for (std::size_t e = 0; e < data->stream.size(); ++e) {
        const Data::Batch& batch = data->stream[e];
        const bool traced_epoch = e < batches.size();
        auto via_server = [&] {
          std::unordered_map<PoiId, std::int64_t> aggs = batch.aggs;
          const int s =
              traced_epoch ? log.Open("serve.apply", batch.epoch) : -1;
          tar::Status st = server->SubmitEpoch(batch.epoch, std::move(aggs));
          if (st.ok()) {
            server->WaitForIngest();
            st = server->ingest_status();
          }
          if (s >= 0) log.Close(s);
          return st;
        };
        auto direct = [&] {
          if (!traced_epoch) return tar::Status::OK();
          const int s = log.Open("sharded_store.append", batch.epoch);
          const tar::Status st =
              twin_store->AppendEpoch(batch.epoch, batch.aggs);
          log.Close(s);
          return st;
        };
        ++writes.epochs;
        const bool server_first = e % 2 == 0;
        if (!(server_first ? via_server() : direct()).ok()) ++writes.failed;
        if (!(server_first ? direct() : via_server()).ok()) ++writes.failed;
      }
      if (spec.readers_beside_ingest) {
        beside = group.Stop();
        reads_during_write = server->stats().reads_during_write;
      }
    }

    std::vector<std::vector<KnntaResult>> answers;
    TracedReads(server, *served.store, traced, &log, &reads, &answers);
    std::unique_ptr<tar::ScanBaseline> scan = BuildScan(*data);
    if (scan == nullptr) return tar::Status::Corruption("scan baseline build");
    std::vector<KnntaResult> expected;
    for (std::size_t qi : sample) {
      if (qi >= traced.size()) continue;
      ++checked;
      if (!scan->Query(traced[qi], &expected).ok() ||
          !SameAnswer(answers[qi], expected)) {
        ++wrong;
      }
    }
    if (spec.readers_beside_ingest) {
      wrong += CheckAgainstTwin(*data, *served.store, pool, sample);
      checked += sample.size();
    }
  }

  TAR_RETURN_NOT_OK(TracedSnapshotStore(*data, batches, pool, side_readers,
                                        base + "-snapshot", &log, &writes));
  TAR_RETURN_NOT_OK(TracedTarTree(*data, batches,
                                  StoreOptions(spec, *data, "").tree, &log));
  TAR_RETURN_NOT_OK(
      TracedWal(batches, base + "-standalone.wal", &log, &writes));

  const std::string spans_path = options.work_dir + "/spans-" + spec.name +
                                 "-" + std::to_string(options.seed) +
                                 ".jsonl";
  if (!log.WriteJsonLines(spans_path)) {
    return tar::Status::IoError("cannot write " + spans_path);
  }
  Note("%zu spans written to %s", log.size(), spans_path.c_str());

  // --- Per-layer metrics from the spans. ---
  std::map<std::string, SpanLog::Totals> t = log.Summarize();
  // Read-side spans and counts cover kTracedRounds passes over the set.
  const double nq = static_cast<double>(traced.size() * kTracedRounds);
  const double ne = static_cast<double>(batches.size());
  auto per_query = [&](const char* name) { return t[name].micros / nq; };
  auto per_epoch = [&](const char* name) { return t[name].micros / ne; };
  auto per_call = [&](const char* name) {
    return t[name].count > 0
               ? t[name].micros / static_cast<double>(t[name].count)
               : 0.0;
  };
  auto count_per_query = [&](std::uint64_t c) {
    return static_cast<double>(c) / nq;
  };

  const double serve_us = per_query("serve.query");
  const double store_us = per_query("sharded_store.query");
  const double serve_self_us = serve_us - store_us;
  const double store_self_us = t["sharded_store.replay"].self_micros / nq;
  const double acquire_us = per_query("snapshot_store.acquire");
  const double gmax_us = per_query("tar_tree.gmax");
  const double search_us = per_query("tar_tree.search");
  const double search_self_us = t["tar_tree.search"].self_micros / nq;
  const double tia_us = per_query("tia.aggregate");
  const double unattributed_us = serve_us - (serve_self_us + store_self_us +
                                             acquire_us + gmax_us +
                                             search_self_us + tia_us);
  const double trace_overhead =
      Median(t["sharded_store.replay"].durations) /
      Median(t["sharded_store.query"].durations);

  const double apply_ms = per_epoch("serve.apply") / 1000.0;
  const double append_ms = per_epoch("sharded_store.append") / 1000.0;
  const double catchup_ms = per_epoch("snapshot_store.catchup") / 1000.0;
  const double tree_apply_ms = per_epoch("tar_tree.apply") / 1000.0;

  *metrics = {
      {"serve.self_us", "us", serve_self_us},
      {"serve.ingest_wait_ms", "ms", apply_ms - append_ms},
      {"sharded_store.query_us", "us", store_us},
      {"sharded_store.self_us", "us", store_self_us},
      {"sharded_store.append_ms", "ms", append_ms},
      {"snapshot_store.acquire_us", "us", acquire_us},
      {"snapshot_store.stage_ms", "ms",
       per_epoch("snapshot_store.stage") / 1000.0},
      {"snapshot_store.publish_us", "us", per_epoch("snapshot_store.publish")},
      {"snapshot_store.catchup_ms", "ms", catchup_ms},
      {"snapshot_store.drain_wait_ms", "ms", catchup_ms - tree_apply_ms},
      {"tar_tree.gmax_us", "us", gmax_us},
      {"tar_tree.search_us", "us", search_us},
      {"tar_tree.node_reads", "count",
       count_per_query(reads.stats.rtree_node_reads)},
      {"tar_tree.entries_scanned", "count",
       count_per_query(reads.stats.entries_scanned)},
      {"tar_tree.prevalidate_us", "us", per_epoch("tar_tree.prevalidate")},
      {"tar_tree.apply_ms", "ms", tree_apply_ms},
      {"knnta.heap_pushes", "count", count_per_query(reads.heap_pushes)},
      {"knnta.heap_pops", "count", count_per_query(reads.heap_pops)},
      {"tia.aggregate_calls", "count", count_per_query(reads.tia_calls)},
      {"tia.aggregate_us", "us", tia_us},
      {"buffer_pool.hits", "count", count_per_query(reads.pool.hits)},
      {"buffer_pool.misses", "count", count_per_query(reads.pool.misses)},
      {"buffer_pool.hit_rate", "ratio", reads.pool.HitRate()},
      {"page_file.reads", "count", count_per_query(reads.pool.page_reads)},
      {"wal.append_us", "us", per_call("wal.append")},
      {"wal.sync_us", "us", per_call("wal.sync")},
      {"wal.bytes_per_epoch", "bytes", static_cast<double>(writes.wal_bytes) / ne},
      {"unattributed_us", "us", unattributed_us},
      {"trace_overhead", "ratio", trace_overhead},
  };

  Note("traced queries=%zu x %zu rounds (one reader, quiescent store); "
       "replay mismatches=%llu errors=%llu; sampled answers checked against "
       "the scan=%llu wrong=%llu",
       traced.size(), kTracedRounds, static_cast<unsigned long long>(reads.mismatches),
       static_cast<unsigned long long>(reads.errors),
       static_cast<unsigned long long>(checked),
       static_cast<unsigned long long>(wrong));
  Note("reconciliation per query: serve.query %.1f us = serve %.1f + "
       "sharded_store %.1f + snapshot_store %.1f + tar_tree %.1f + tia %.1f "
       "+ unattributed %.1f",
       serve_us, serve_self_us, store_self_us, acquire_us,
       gmax_us + search_self_us, tia_us, unattributed_us);
  Note("write side per epoch: serve.apply %.3f ms = sharded_store.append "
       "%.3f + serve.ingest_wait %.3f; catch-up %.3f = tar_tree.apply %.3f "
       "+ drain wait %.3f",
       apply_ms, append_ms, apply_ms - append_ms, catchup_ms, tree_apply_ms,
       catchup_ms - tree_apply_ms);
  NoteSelfCheck(spec, reads.pool.HitRate(),
                count_per_query(reads.pool.misses), reads_during_write);

  const std::uint64_t beside_errors = beside.failed + beside.shed;
  tally->attempted += traced.size() * kTracedRounds + writes.epochs + beside.ok +
                      beside_errors;
  tally->failed += reads.errors + reads.mismatches + wrong + writes.failed +
                   beside_errors;
  tally->correct = tally->correct && tally->failed == 0;
  return tar::Status::OK();
}

}  // namespace perfbench
