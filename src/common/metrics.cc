#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace tar {

namespace {

std::atomic<bool> g_metrics_enabled{false};

/// Fixed-point helpers for the atomic histogram: durations are carried as
/// integer nanoseconds so min/max/sum can use plain atomics.
std::uint64_t ToNanos(double micros) {
  if (micros <= 0.0) return 0;
  return static_cast<std::uint64_t>(micros * 1e3);
}

double ToMicros(std::uint64_t nanos) {
  return static_cast<double>(nanos) / 1e3;
}

void AtomicMin(std::atomic<std::uint64_t>* target, std::uint64_t v) {
  std::uint64_t cur = target->load(std::memory_order_relaxed);
  while (v < cur && !target->compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<std::uint64_t>* target, std::uint64_t v) {
  std::uint64_t cur = target->load(std::memory_order_relaxed);
  while (v > cur && !target->compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// Escapes a metric name for use as a JSON key. Names are plain
/// dotted identifiers in practice; quotes and backslashes are escaped so
/// the output is valid JSON for any input.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

std::size_t LatencyBucketOf(double micros) {
  if (micros < 1.0) return 0;
  // Bucket i >= 1 covers [2^(i-1), 2^i) us.
  std::size_t bucket = 1;
  double upper = 2.0;
  while (bucket + 1 < kLatencyBuckets && micros >= upper) {
    upper *= 2.0;
    ++bucket;
  }
  return bucket;
}

double LatencyBucketLower(std::size_t bucket) {
  if (bucket == 0) return 0.0;
  return std::ldexp(1.0, static_cast<int>(bucket) - 1);
}

double LatencyBucketUpper(std::size_t bucket) {
  return std::ldexp(1.0, static_cast<int>(bucket));
}

void LatencySnapshot::Record(double micros) {
  if (micros < 0.0) micros = 0.0;
  ++buckets[LatencyBucketOf(micros)];
  if (count == 0 || micros < min_micros) min_micros = micros;
  if (micros > max_micros) max_micros = micros;
  ++count;
  sum_micros += micros;
}

LatencySnapshot& LatencySnapshot::operator+=(const LatencySnapshot& o) {
  if (o.count == 0) return *this;
  for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
    buckets[i] += o.buckets[i];
  }
  if (count == 0 || o.min_micros < min_micros) min_micros = o.min_micros;
  max_micros = std::max(max_micros, o.max_micros);
  count += o.count;
  sum_micros += o.sum_micros;
  return *this;
}

double LatencySnapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile (1-based, nearest-rank rounded up).
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] >= rank) {
      // Interpolate linearly inside the bucket by the rank's position
      // among the bucket's samples.
      const double lo = LatencyBucketLower(i);
      const double hi = LatencyBucketUpper(i);
      const double within = (static_cast<double>(rank - seen) - 0.5) /
                            static_cast<double>(buckets[i]);
      const double value = lo + (hi - lo) * within;
      return std::clamp(value, min_micros, max_micros);
    }
    seen += buckets[i];
  }
  return max_micros;
}

std::string LatencySnapshot::ToJson() const {
  std::string out = "{";
  out += "\"count\":" + std::to_string(count);
  out += ",\"mean_us\":" + FormatDouble(Mean());
  out += ",\"min_us\":" + FormatDouble(min_micros);
  out += ",\"p50_us\":" + FormatDouble(P50());
  out += ",\"p95_us\":" + FormatDouble(P95());
  out += ",\"p99_us\":" + FormatDouble(P99());
  out += ",\"max_us\":" + FormatDouble(max_micros);
  out += "}";
  return out;
}

void LatencyHistogram::Record(double micros) {
  if (micros < 0.0) micros = 0.0;
  buckets_[LatencyBucketOf(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t nanos = ToNanos(micros);
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  AtomicMin(&min_nanos_, nanos);
  AtomicMax(&max_nanos_, nanos);
}

LatencySnapshot LatencyHistogram::Snapshot() const {
  LatencySnapshot snap;
  for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_micros = ToMicros(sum_nanos_.load(std::memory_order_relaxed));
  const std::uint64_t min_nanos =
      min_nanos_.load(std::memory_order_relaxed);
  snap.min_micros = min_nanos == UINT64_MAX ? 0.0 : ToMicros(min_nanos);
  snap.max_micros = ToMicros(max_nanos_.load(std::memory_order_relaxed));
  return snap;
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_nanos_.store(0, std::memory_order_relaxed);
  min_nanos_.store(UINT64_MAX, std::memory_order_relaxed);
  max_nanos_.store(0, std::memory_order_relaxed);
}

std::size_t Counter::NextStripe() {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kStripes;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return slot.get();
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(&mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(&mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + h->Snapshot().ToJson();
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::ToText() const {
  MutexLock lock(&mu_);
  std::string out;
  char buf[256];
  for (const auto& [name, c] : counters_) {
    std::snprintf(buf, sizeof(buf), "%-36s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(c->value()));
    out += buf;
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(buf, sizeof(buf), "%-36s %lld\n", name.c_str(),
                  static_cast<long long>(g->value()));
    out += buf;
  }
  for (const auto& [name, h] : histograms_) {
    const LatencySnapshot snap = h->Snapshot();
    std::snprintf(buf, sizeof(buf),
                  "%-36s n=%llu mean=%.1fus p50=%.1fus p95=%.1fus "
                  "p99=%.1fus max=%.1fus\n",
                  name.c_str(),
                  static_cast<unsigned long long>(snap.count), snap.Mean(),
                  snap.P50(), snap.P95(), snap.P99(), snap.max_micros);
    out += buf;
  }
  return out;
}

QueryTrace::Phase* QueryTrace::AddPhase(std::string name) {
  if (on_phase) on_phase(name);
  phases.emplace_back();
  phases.back().name = std::move(name);
  return &phases.back();
}

AccessStats QueryTrace::Totals() const {
  AccessStats total;
  for (const Phase& p : phases) total += p.stats;
  return total;
}

double QueryTrace::TiaMicros() const {
  double total = 0.0;
  for (const Phase& p : phases) total += p.tia_micros;
  return total;
}

std::string QueryTrace::ToJson() const {
  std::string out = "{\"total_us\":" + FormatDouble(total_micros);
  out += ",\"tia_us\":" + FormatDouble(TiaMicros());
  out += ",\"num_results\":" + std::to_string(num_results);
  const AccessStats totals = Totals();
  out += ",\"node_accesses\":" + std::to_string(totals.NodeAccesses());
  out += ",\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Phase& p = phases[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"" + JsonEscape(p.name) + "\"";
    out += ",\"us\":" + FormatDouble(p.micros);
    out += ",\"tia_us\":" + FormatDouble(p.tia_micros);
    out += ",\"heap_pushes\":" + std::to_string(p.heap_pushes);
    out += ",\"heap_pops\":" + std::to_string(p.heap_pops);
    out += ",\"rtree_node_reads\":" +
           std::to_string(p.stats.rtree_node_reads);
    out += ",\"tia_page_reads\":" + std::to_string(p.stats.tia_page_reads);
    out += ",\"tia_buffer_hits\":" +
           std::to_string(p.stats.tia_buffer_hits);
    out += ",\"entries_scanned\":" +
           std::to_string(p.stats.entries_scanned);
    out += ",\"aggregate_calls\":" +
           std::to_string(p.stats.aggregate_calls);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string QueryTrace::ToText() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "query trace: %.1f us total (%.1f us in TIA aggregates), "
                "%zu results\n",
                total_micros, TiaMicros(), num_results);
  out += buf;
  for (const Phase& p : phases) {
    std::snprintf(buf, sizeof(buf), "  %-16s %9.1f us  %s\n",
                  p.name.c_str(), p.micros, p.stats.ToString().c_str());
    out += buf;
    if (p.heap_pushes > 0 || p.heap_pops > 0) {
      std::snprintf(buf, sizeof(buf),
                    "  %-16s               heap_pushes=%llu heap_pops=%llu "
                    "tia=%.1f us\n",
                    "", static_cast<unsigned long long>(p.heap_pushes),
                    static_cast<unsigned long long>(p.heap_pops),
                    p.tia_micros);
      out += buf;
    }
  }
  const AccessStats totals = Totals();
  std::snprintf(buf, sizeof(buf), "  %-16s               %s\n", "total",
                totals.ToString().c_str());
  out += buf;
  return out;
}

}  // namespace tar
