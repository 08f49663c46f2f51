// kNNTA latency bench: drives the paper workload through the parallel
// query driver and reports wall time, throughput, latency percentiles
// (p50/p95/p99 from the merged per-query histogram) and per-batch
// buffer-pool hit rates along a thread-scaling curve: 1, 2, 4, ... threads
// and finally hardware concurrency (nproc).
//
//   bench_knnta [--json [--out FILE]]
//
// --json writes a machine-readable report (default BENCH_knnta.json,
// validated in CI with `python3 -m json.tool`) instead of the tables.
// Scale and query count honour TAR_BENCH_SCALE / TAR_BENCH_QUERIES.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/parallel_query.h"

using namespace tar;
using namespace tar::bench;

namespace {

struct RunResult {
  std::size_t threads = 0;
  ParallelQueryReport report;
};

std::string Num(double v) { return Table::Num(v, 3); }

std::string RunJson(const BenchData& bd, const RunResult& r) {
  const ParallelQueryReport& rep = r.report;
  const double n = rep.results.empty()
                       ? 1.0
                       : static_cast<double>(rep.results.size());
  std::string out = "{";
  out += "\"dataset\":\"" + bd.name + "\"";
  out += ",\"threads\":" + std::to_string(r.threads);
  out += ",\"queries\":" + std::to_string(rep.results.size());
  out += ",\"queries_ok\":" + std::to_string(rep.queries_ok);
  out += ",\"queries_failed\":" + std::to_string(rep.queries_failed);
  out += ",\"wall_ms\":" + Num(rep.wall_micros / 1000.0);
  out += ",\"throughput_qps\":" + Num(rep.Throughput());
  out += ",\"latency\":" + rep.latency.ToJson();
  out += ",\"node_accesses_per_query\":" +
         Num(static_cast<double>(rep.total_stats.NodeAccesses()) / n);
  out += ",\"pool\":{\"fetches\":" +
         std::to_string(rep.pool_delta.Fetches());
  out += ",\"hits\":" + std::to_string(rep.pool_delta.hits);
  out += ",\"misses\":" + std::to_string(rep.pool_delta.misses);
  out += ",\"hit_rate\":" + Num(rep.pool_delta.HitRate()) + "}";
  out += "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string out_path = "BENCH_knnta.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  BenchData bd = PrepareGw();
  std::unique_ptr<TarTree> tree =
      BuildTree(bd, GroupingStrategy::kIntegral3D);
  std::vector<KnntaQuery> queries = PaperQueries(bd, QueriesFromEnv());

  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> curve;
  for (std::size_t t = 1; t < hw; t *= 2) curve.push_back(t);
  curve.push_back(hw);
  std::vector<RunResult> runs;
  for (std::size_t threads : curve) {
    ParallelQueryOptions opt;
    opt.num_threads = threads;
    RunResult r;
    r.threads = threads;
    Status st = RunParallelQueries(*tree, queries, opt, &r.report);
    if (!st.ok()) {
      std::fprintf(stderr, "bench run failed: %s\n", st.ToString().c_str());
      return 1;
    }
    runs.push_back(std::move(r));
  }

  if (json) {
    std::string doc = "{\"bench\":\"knnta\"";
    doc += ",\"scale\":" + Num(ScaleFromEnv());
    doc += ",\"runs\":[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (i > 0) doc += ",";
      doc += RunJson(bd, runs[i]);
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

  Table table("kNNTA latency (" + bd.name + ")",
              {"threads", "wall ms", "q/s", "mean us", "p50 us", "p95 us",
               "p99 us", "max us", "hit rate"});
  for (const RunResult& r : runs) {
    const ParallelQueryReport& rep = r.report;
    table.AddRow({std::to_string(r.threads),
                  Table::Num(rep.wall_micros / 1000.0, 1),
                  Table::Num(rep.Throughput(), 0),
                  Table::Num(rep.mean_query_micros, 1),
                  Table::Num(rep.latency.P50(), 1),
                  Table::Num(rep.latency.P95(), 1),
                  Table::Num(rep.latency.P99(), 1),
                  Table::Num(rep.latency.max_micros, 1),
                  Table::Num(rep.pool_delta.HitRate(), 3)});
  }
  table.Print();
  return 0;
}
