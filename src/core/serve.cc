#include "core/serve.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

namespace tar {

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void SleepMs(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Requeue budget for a batch bounced off a full redo buffer: repair
/// should drain the backlog well within this many poll cycles; past it
/// the fault is treated as permanent and ingestion parks.
constexpr int kMaxBatchRequeues = 256;

}  // namespace

double EstimateRetryAfterMs(std::size_t backlog, std::size_t num_threads,
                            double observed_query_ms, double deadline_ms) {
  double per_query_ms = observed_query_ms;
  if (per_query_ms <= 0.0) per_query_ms = deadline_ms;
  if (per_query_ms <= 0.0) per_query_ms = kRetryHintFloorPerQueryMs;
  const double threads =
      static_cast<double>(std::max<std::size_t>(1, num_threads));
  const double drain_ms =
      static_cast<double>(backlog) * per_query_ms / threads;
  return std::min(kRetryHintMaxMs, std::max(kRetryHintMinMs, drain_ms));
}

ShardedServer::ShardedServer(ShardedStore* store, const ServeOptions& options)
    : store_(store), options_(options) {}

ShardedServer::~ShardedServer() { Stop(); }

void ShardedServer::Start() {
  if (started_.exchange(true)) return;
  {
    MutexLock lock(&queue_mu_);
    stopping_ = false;  // re-open submission after a previous Stop
  }
  stop_.store(false, std::memory_order_release);
  ingest_thread_ = std::thread([this] { IngestLoop(); });
  if (options_.auto_repair) {
    repair_thread_ = std::thread([this] { RepairLoop(); });
  }
}

void ShardedServer::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  // Close the door before draining: without this, a thread that keeps
  // calling SubmitEpoch would extend the drain forever.
  {
    MutexLock lock(&queue_mu_);
    stopping_ = true;
  }
  WaitForIngest();
  stop_.store(true, std::memory_order_release);
  if (ingest_thread_.joinable()) ingest_thread_.join();
  // Join the repair worker after the ingest drain: a repair in flight
  // finishes (or fails) before Stop returns, so no re-admission can land
  // on a server the caller believes is down.
  if (repair_thread_.joinable()) repair_thread_.join();
  started_.store(false, std::memory_order_release);
}

Status ShardedServer::Query(const KnntaQuery& query,
                            std::vector<KnntaResult>* results) {
  // Admission: claim a slot before doing any work; over the cap, shed
  // with a drain estimate from the rolling observed latency (the PR-8
  // contract — kUnavailable means "back off retry-after-ms, then retry").
  const std::int64_t inflight =
      inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // Compared as unsigned: `inflight` is at least 1 here, while a cap
  // above INT64_MAX would turn negative as a signed value and shed all.
  if (options_.max_inflight > 0 &&
      static_cast<std::uint64_t>(inflight) > options_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    double observed_ms = 0.0;
    {
      MutexLock lock(&stats_mu_);
      ++stats_.queries_shed;
      observed_ms = stats_.latency.Mean() / 1000.0;
    }
    const double retry_ms = EstimateRetryAfterMs(
        /*backlog=*/options_.max_inflight, /*num_threads=*/
        options_.max_inflight, observed_ms, options_.budget.deadline_ms);
    char hint[96];
    std::snprintf(hint, sizeof(hint),
                  "server at max-inflight (%zu); retry-after-ms=%.0f",
                  options_.max_inflight, retry_ms);
    results->clear();
    return Status::Unavailable(hint);
  }

  const auto start = Clock::now();
  QueryDeadline deadline(options_.budget, /*cancel=*/nullptr);
  QueryDeadline* dptr = deadline.armed() ? &deadline : nullptr;
  // Strict mode passes no coverage (a quarantined shard fails the query
  // fast); partial mode degrades and annotates instead.
  ShardCoverage coverage;
  ShardCoverage* cptr = options_.partial_coverage ? &coverage : nullptr;
  const bool shard_down = store_->num_unhealthy() > 0;
  Status st = store_->Query(query, results, /*stats=*/nullptr, dptr, cptr);
  const bool overlapped = write_in_flight_.load(std::memory_order_acquire);
  const double micros = MillisSince(start) * 1000.0;
  inflight_.fetch_sub(1, std::memory_order_acq_rel);

  MutexLock lock(&stats_mu_);
  if (st.ok()) {
    ++stats_.queries_ok;
    stats_.latency.Record(micros);
    if (overlapped) ++stats_.reads_during_write;
    if (shard_down) ++stats_.reads_during_quarantine;
    if (cptr != nullptr && !coverage.complete) ++stats_.reads_partial;
  } else {
    ++stats_.queries_failed;
    if (st.IsUnavailable()) ++stats_.reads_unavailable;
  }
  return st;
}

Status ShardedServer::SubmitEpoch(
    std::int64_t epoch, std::unordered_map<PoiId, std::int64_t> aggs) {
  MutexLock lock(&queue_mu_);
  TAR_RETURN_NOT_OK(ingest_status_);
  if (stopping_) {
    return Status::Unavailable("server stopping; epoch batch rejected");
  }
  queue_.push_back(EpochBatch{epoch, std::move(aggs)});
  ++queued_or_applying_;
  return Status::OK();
}

void ShardedServer::WaitForIngest() {
  int spins = 0;
  for (;;) {
    {
      MutexLock lock(&queue_mu_);
      if (queued_or_applying_ == 0 || !ingest_status_.ok()) return;
    }
    // Applying a batch takes WAL syncs and reader drains; after a brief
    // optimistic phase, poll at the ingest loop's idle cadence instead
    // of burning a core for the whole drain.
    if (++spins <= 64) {
      std::this_thread::yield();
    } else {
      SleepMs(0.2);
    }
  }
}

void ShardedServer::IngestLoop() {
  std::uint64_t since_checkpoint = 0;
  while (true) {
    EpochBatch batch;
    bool have = false;
    {
      MutexLock lock(&queue_mu_);
      if (!queue_.empty() && ingest_status_.ok()) {
        batch = std::move(queue_.front());
        queue_.pop_front();
        have = true;
      }
    }
    if (!have) {
      if (stop_.load(std::memory_order_acquire)) return;
      SleepMs(0.2);
      continue;
    }
    // Apply outside the queue latch: AppendEpoch takes the cross-shard
    // writer latch and can block on reader drain.
    write_in_flight_.store(true, std::memory_order_release);
    Status st = store_->AppendEpoch(batch.epoch, batch.aggs);
    if (st.ok()) {
      ++since_checkpoint;
      if (options_.checkpoint_every > 0 &&
          since_checkpoint >= options_.checkpoint_every &&
          !store_->options().store_prefix.empty()) {
        st = store_->Checkpoint();
        if (st.ok()) {
          since_checkpoint = 0;
          MutexLock lock(&stats_mu_);
          ++stats_.checkpoints;
        }
      }
    }
    write_in_flight_.store(false, std::memory_order_release);
    if (st.ok()) {
      MutexLock lock(&stats_mu_);
      ++stats_.epochs_ingested;
    }
    // kUnavailable means the batch was refused without mutating anything
    // (a quarantined shard's redo buffer is full): requeue it at the
    // front and let the repair worker drain the backlog, instead of
    // killing ingestion over a fault the server can heal. The budget
    // bounds the wait so an unrepairable shard still parks the writer
    // with the root cause.
    if (st.IsUnavailable() && batch.requeues < kMaxBatchRequeues) {
      ++batch.requeues;
      {
        MutexLock lock(&queue_mu_);
        queue_.push_front(std::move(batch));
      }
      SleepMs(options_.repair_poll_ms);
      continue;
    }
    MutexLock lock(&queue_mu_);
    --queued_or_applying_;
    if (!st.ok() && ingest_status_.ok()) ingest_status_ = st;
  }
}

void ShardedServer::RepairLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    if (store_->num_unhealthy() > 0) {
      // RepairTick honors each shard's circuit breaker, so polling fast
      // here never hot-spins a failing repair.
      (void)store_->RepairTick();
    }
    SleepMs(options_.repair_poll_ms);
  }
}

ServerStats ShardedServer::stats() const {
  ServerStats out;
  {
    MutexLock lock(&stats_mu_);
    out = stats_;
  }
  // Merged outside stats_mu_: fault_stats takes the store's health latch.
  out.fault = store_->fault_stats();
  return out;
}

Status ShardedServer::ingest_status() const {
  MutexLock lock(&queue_mu_);
  return ingest_status_;
}

std::string MixedLoadReport::ToJson(const std::string& label,
                                    std::size_t shards,
                                    std::size_t reader_threads) const {
  std::ostringstream out;
  out << "{\"name\":\"" << label << "\""
      << ",\"shards\":" << shards
      << ",\"reader_threads\":" << reader_threads
      << ",\"wall_ms\":" << wall_ms
      << ",\"drain_ms\":" << drain_ms
      << ",\"reads_ok\":" << reads_ok
      << ",\"reads_shed\":" << reads_shed
      << ",\"reads_failed\":" << reads_failed
      << ",\"writes\":" << writes
      << ",\"reads_during_write\":" << reads_during_write
      << ",\"checkpoints\":" << checkpoints
      << ",\"reads_partial\":" << reads_partial
      << ",\"reads_unavailable\":" << reads_unavailable
      << ",\"reads_during_quarantine\":" << reads_during_quarantine
      << ",\"quarantines\":" << quarantines
      << ",\"repairs\":" << repairs
      << ",\"read_qps\":" << read_qps
      << ",\"write_qps\":" << write_qps
      << ",\"read_latency\":" << read_latency.ToJson()
      << ",\"repair_latency\":" << repair_latency.ToJson() << "}";
  return out.str();
}

Status RunMixedLoad(ShardedServer* server, const MixedLoadOptions& options,
                    MixedLoadReport* report) {
  *report = MixedLoadReport{};
  if (options.queries.empty()) {
    return Status::InvalidArgument("mixed load needs at least one query");
  }
  if (options.reader_threads == 0) {
    return Status::InvalidArgument("reader_threads must be >= 1");
  }
  const ServerStats before = server->stats();
  const auto start = Clock::now();
  std::atomic<bool> done{false};

  // The paced write stream: cycle the batches with strictly increasing
  // epoch indices so every submission digests a fresh epoch.
  std::thread writer([&] {
    std::int64_t epoch = options.first_epoch;
    std::size_t i = 0;
    while (!done.load(std::memory_order_acquire) &&
           !options.epoch_batches.empty()) {
      Status st = server->SubmitEpoch(
          epoch++, options.epoch_batches[i % options.epoch_batches.size()]);
      if (!st.ok()) break;  // ingestion died; readers keep going
      ++i;
      SleepMs(options.write_interval_ms);
    }
  });

  // Each reader times its own successful queries, so the report holds
  // this run's reads only (the server's histogram spans its lifetime).
  std::vector<LatencySnapshot> latencies(options.reader_threads);
  std::vector<std::thread> readers;
  readers.reserve(options.reader_threads);
  for (std::size_t t = 0; t < options.reader_threads; ++t) {
    readers.emplace_back([&, t] {
      std::vector<KnntaResult> results;
      std::size_t i = t;  // stagger the starting query per thread
      while (MillisSince(start) < options.duration_ms) {
        const auto query_start = Clock::now();
        const Status st = server->Query(
            options.queries[i % options.queries.size()], &results);
        if (st.ok()) latencies[t].Record(MillisSince(query_start) * 1000.0);
        ++i;
      }
    });
  }
  for (std::thread& t : readers) t.join();
  report->wall_ms = MillisSince(start);
  const auto drain_start = Clock::now();
  done.store(true, std::memory_order_release);
  writer.join();
  server->WaitForIngest();
  report->drain_ms = MillisSince(drain_start);

  const ServerStats after = server->stats();
  report->reads_ok = after.queries_ok - before.queries_ok;
  report->reads_shed = after.queries_shed - before.queries_shed;
  report->reads_failed = after.queries_failed - before.queries_failed;
  report->writes = after.epochs_ingested - before.epochs_ingested;
  report->reads_during_write =
      after.reads_during_write - before.reads_during_write;
  report->checkpoints = after.checkpoints - before.checkpoints;
  report->reads_partial = after.reads_partial - before.reads_partial;
  report->reads_unavailable =
      after.reads_unavailable - before.reads_unavailable;
  report->reads_during_quarantine =
      after.reads_during_quarantine - before.reads_during_quarantine;
  report->quarantines = after.fault.quarantines - before.fault.quarantines;
  report->repairs = after.fault.repairs - before.fault.repairs;
  for (const LatencySnapshot& l : latencies) report->read_latency += l;
  report->repair_latency = after.fault.repair_latency;
  if (report->wall_ms > 0.0) {
    report->read_qps =
        1e3 * static_cast<double>(report->reads_ok) / report->wall_ms;
    report->write_qps = 1e3 * static_cast<double>(report->writes) /
                        (report->wall_ms + report->drain_ms);
  }
  return server->ingest_status();
}

}  // namespace tar
