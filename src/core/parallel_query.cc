#include "core/parallel_query.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/mutex.h"

namespace tar {

namespace {

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Status RunParallelQueries(const TarTree& tree,
                          const std::vector<KnntaQuery>& queries,
                          const ParallelQueryOptions& options,
                          ParallelQueryReport* report) {
  if (options.num_threads == 0) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  *report = ParallelQueryReport{};
  report->results.resize(queries.size());
  report->statuses.assign(queries.size(), Status::OK());
  report->query_micros.assign(queries.size(), 0.0);
  if (options.allow_partial) {
    report->partial_info.assign(queries.size(), PartialResult{});
  }

  // Claimed-index work queue: each worker owns the slots it claims, so the
  // per-query vectors need no lock. Only the merged totals do.
  std::atomic<std::size_t> next{0};
  Mutex merge_mu{LockRank::kParallelMerge, "parallel_query.merge"};
  AccessStats total;  // guarded by merge_mu (locals can't carry the
                      // attribute through lambda captures)
  LatencySnapshot latency;  // guarded by merge_mu, same as `total`

  const BufferPool::CounterSnapshot pool_before =
      tree.tia_buffer_pool()->Snapshot();
  const auto batch_start = std::chrono::steady_clock::now();
  auto worker = [&]() {
    AccessStats local;
    LatencySnapshot local_latency;
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < queries.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      const auto start = std::chrono::steady_clock::now();
      QueryDeadline deadline(options.budget, options.cancel);
      QueryDeadline* dptr = deadline.armed() ? &deadline : nullptr;
      PartialResult* pptr =
          options.allow_partial ? &report->partial_info[i] : nullptr;
      report->statuses[i] = tree.Query(queries[i], &report->results[i],
                                       &local, nullptr, dptr, pptr);
      report->query_micros[i] = MicrosSince(start);
      if (report->statuses[i].ok() &&
          (pptr == nullptr || pptr->completed)) {
        local_latency.Record(report->query_micros[i]);
      }
    }
    MutexLock lock(&merge_mu);
    total += local;
    latency += local_latency;
  };

  const std::size_t num_workers =
      std::min(options.num_threads,
               std::max<std::size_t>(1, queries.size()));
  if (num_workers == 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_workers);
    for (std::size_t t = 0; t < num_workers; ++t) {
      threads.emplace_back(worker);
    }
    for (std::thread& t : threads) t.join();
  }
  report->wall_micros = MicrosSince(batch_start);
  report->pool_delta =
      tree.tia_buffer_pool()->Snapshot().DeltaSince(pool_before);

  {
    MutexLock lock(&merge_mu);
    report->total_stats = total;
    report->latency = latency;
  }
  double sum_micros = 0.0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Status& st = report->statuses[i];
    if (st.ok()) {
      ++report->queries_ok;
      if (options.allow_partial && !report->partial_info[i].completed) {
        ++report->partials;
      }
    } else {
      ++report->queries_failed;
      ++report->failures_by_code[st.code()];
      if (st.IsDeadlineExceeded()) {
        ++report->timeouts;
      } else if (st.IsCancelled()) {
        ++report->cancels;
      }
    }
    sum_micros += report->query_micros[i];
    report->max_query_micros =
        std::max(report->max_query_micros, report->query_micros[i]);
  }
  if (!queries.empty()) {
    report->mean_query_micros =
        sum_micros / static_cast<double>(queries.size());
  }
  if (MetricsEnabled()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    static Counter* const timeouts_metric =
        registry.GetCounter("query.timeouts");
    static Counter* const cancels_metric =
        registry.GetCounter("query.cancels");
    static Counter* const partials_metric =
        registry.GetCounter("query.partials");
    timeouts_metric->Increment(report->timeouts);
    cancels_metric->Increment(report->cancels);
    partials_metric->Increment(report->partials);
  }
  return Status::OK();
}

}  // namespace tar
