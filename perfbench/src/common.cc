#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "data/generator.h"
#include "data/workload.h"

namespace perfbench {

std::vector<std::int32_t> Data::PreloadHistory(PoiId id) const {
  std::vector<std::int32_t> h = counts.counts[id];
  if (h.size() > static_cast<std::size_t>(preload_epochs)) {
    h.resize(static_cast<std::size_t>(preload_epochs));
  }
  return h;
}

std::unique_ptr<Data> MakeData(double scale, int epoch_days) {
  auto d = std::make_unique<Data>();
  tar::GeneratorConfig cfg = tar::GwConfig(scale);
  // The bench presets boost the power-law tail so a few thousand POIs
  // clear the threshold of 100 check-ins at laptop scale (EXPERIMENTS.md).
  cfg.tail_fraction = 0.08;
  d->dataset = tar::GenerateLbsn(cfg);
  d->grid = tar::EpochGrid(0, epoch_days * tar::kSecondsPerDay);
  d->counts = tar::BuildEpochCounts(d->dataset, d->grid);
  d->effective = tar::EffectivePois(d->counts, cfg.effective_threshold);
  d->preload_epochs = std::max<std::int64_t>(1, d->counts.num_epochs / 2);
  for (std::int64_t e = d->preload_epochs; e < d->counts.num_epochs; ++e) {
    Data::Batch batch;
    batch.epoch = e;
    for (PoiId id : d->effective) {
      const std::vector<std::int32_t>& h = d->counts.counts[id];
      if (static_cast<std::size_t>(e) < h.size() && h[e] > 0) {
        batch.aggs[id] = h[e];
      }
    }
    if (!batch.aggs.empty()) d->stream.push_back(std::move(batch));
  }
  return d;
}

std::vector<KnntaQuery> MakeQueryPool(const Data& data, std::size_t n,
                                      std::uint64_t seed) {
  tar::WorkloadConfig wl;
  wl.num_queries = n;
  wl.seed = seed;
  return tar::MakeQueries(data.dataset, wl);
}

std::uint64_t DigestQueries(const std::vector<KnntaQuery>& queries) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, std::size_t len) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  for (const KnntaQuery& q : queries) {
    mix(&q.point.x, sizeof(q.point.x));
    mix(&q.point.y, sizeof(q.point.y));
    mix(&q.interval.start, sizeof(q.interval.start));
    mix(&q.interval.end, sizeof(q.interval.end));
    mix(&q.k, sizeof(q.k));
    mix(&q.alpha0, sizeof(q.alpha0));
  }
  return h;
}

bool SameAnswer(const std::vector<KnntaResult>& a,
                const std::vector<KnntaResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].poi != b[i].poi || a[i].aggregate != b[i].aggregate ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0 ||
        std::memcmp(&a[i].dist, &b[i].dist, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ResultLine(const Tally& tally,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

void Note(const char* fmt, ...) {
  std::printf("# ");
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace perfbench
