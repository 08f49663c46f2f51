// tartool — command-line front end for the TAR-tree library.
//
//   tartool generate --preset gw --scale 0.05 --out checkins.tsv
//       Synthesizes a Gowalla-style data set and writes it in the SNAP
//       check-in format (the same format as the public Gowalla dump).
//
//   tartool build --input checkins.tsv --out index.tart
//           [--strategy tar|spa|agg] [--threshold N] [--epoch-days 7]
//           [--node-bytes 1024] [--backend mvbt|bptree]
//       Buckets the check-ins into epochs, selects the effective POIs and
//       builds a persistent index.
//
//   tartool info --index index.tart
//   tartool check index.tart [--samples N] [--shallow]
//       fsck for a persisted index: loads it with verify-on-load and runs
//       the full structure verifier (MVBT/B+-tree invariants, MBR and
//       aggregate-bound containment, TIA cross-checks, buffer pool).
//   tartool query --index index.tart --x LON --y LAT --days 30
//           [--k 10] [--alpha 0.3] [--mwa] [--fallback-scan] [--trace]
//       --fallback-scan degrades gracefully: if the index traversal fails
//       (e.g. an unreadable TIA page), the query is re-answered by a
//       sequential scan rebuilt from the tree's leaf TIAs.
//       --trace prints a per-phase breakdown (wall time, TIA time, heap
//       traffic, node accesses) of the query, and of the MWA when --mwa
//       is also given.
//
//   tartool ingest --input checkins.tsv --store PREFIX
//           [--strategy tar|spa|agg] [--threshold N] [--epoch-days 7]
//           [--node-bytes 1024] [--backend mvbt|bptree]
//           [--checkpoint-every K] [--metrics]
//       Online ingestion against a WAL-backed store (PREFIX.tart is the
//       checkpoint snapshot, PREFIX.wal the write-ahead log). A fresh
//       store is checkpointed empty, then new POIs and finished epochs
//       are streamed through the log-before-mutate path with a checkpoint
//       every K mutations. Rerunning against an existing store recovers
//       it first and ingests only what is new (POIs already indexed are
//       skipped; epochs resume after the last digested one). --metrics
//       dumps the registry, including the wal.* counters, after the run.
//
//   tartool recover --store PREFIX [--checkpoint] [--shallow]
//       Recovers a store: loads the checkpoint, replays the log's valid
//       prefix, reports what was replayed/skipped and how the log tail
//       ended, and runs the full structure verifier on the result.
//       --checkpoint then re-checkpoints the recovered tree and truncates
//       the log. Exit 0 on a verified recovery, 1 otherwise.
//
//   tartool crashtest [--rounds 4] [--seed 42] [--scale 0.02] [--path P]
//       Randomized crash-recovery harness. Each round builds an index,
//       then (via the failpoint subsystem) tears the save at every frame,
//       fails the final rename, truncates at every section boundary and
//       flips sampled bits, checking that every faulted save leaves the
//       previous good file intact and every corrupt artifact is rejected
//       with a clean Status. Each round then runs the online-ingestion
//       matrix: a WAL-backed store is built from a deterministic workload
//       (with a checkpoint whose truncation is deliberately skipped), and
//       the log is truncated at every frame boundary, cut mid-frame,
//       bit-flipped at sampled positions, its checkpoint torn mid-save
//       and its sync torn mid-batch — after every attack, recovery must
//       pass the structure verifier and answer a probe query batch
//       bit-identically to an uninterrupted run of the same prefix.
//       Exit 0: all faults handled; 1: a fault was detected but
//       mishandled (good file lost, corrupt bytes accepted, recovery
//       refused); 2: an undetected divergence (recovery silently answered
//       wrong) or a setup error. See docs/internals.md, "Failure model".
//
//   tartool stress --index index.tart --threads 8 --queries 10000
//           [--k 10] [--days 30] [--alpha 0.3] [--seed 42] [--metrics]
//       Drives a batch of random kNNTA queries through the parallel query
//       driver against one shared tree and reports throughput, latency
//       percentiles (p50/p95/p99), the per-batch buffer-pool hit rate and
//       aggregate node-access cost, then checks buffer-pool integrity.
//       --metrics additionally enables the global metrics registry and
//       dumps it after the run.
//
//   tartool chaos [--seed N | --seeds N] [--threads T] [--deadline-ms D]
//           [--delay-ms M] [--path P]
//       Deadline/overload storm harness. Every seed deterministically
//       expands into a small store, its sequential-scan oracle and a
//       query batch, then runs the batch through the parallel driver
//       under injected slow-I/O delays (failpoint delay action) with
//       per-query deadlines, partial degradation on alternating seeds
//       and a mid-batch cancellation on every third seed. Checks: every
//       query completes bit-identically to the oracle, returns a labeled
//       partial whose prefix and score bound the oracle verifies, or
//       fails with kDeadlineExceeded/kCancelled — within deadline+eps,
//       never hanging, never an unlabeled truncation. Each round also
//       streams a concurrent WAL ingest under append delays and proves
//       the store recovers bit-identically; the metrics registry must
//       account for every timeout/cancel/partial. Exit 0: clean sweep;
//       1: a violation; 2: setup error.
//
//   tartool chaos --shard-kill [--seed N | --seeds N] [--shards S]
//           [--threads T] [--window-ms W] [--path P]
//       Shard fault-containment storm. Every seed runs a durable sharded
//       store behind a partial-coverage server with the background
//       repair worker on, plus an in-memory fault-free twin. A fault
//       scoped to shard seed%S — a torn WAL sync on even seeds, failing
//       page fetches on odd — is armed for a window while readers hammer
//       and epoch batches keep streaming. Checks: reads never drop to
//       zero during the window (healthy shards keep serving), the victim
//       quarantines and returns to HEALTHY via background repair (redo
//       replay + StructureVerifier gate, no restart), and the healed
//       store answers every probe bit-identically to the twin. Exit 0:
//       clean sweep; 1: a contained violation; 2: undetected divergence
//       or setup error.
//
//   tartool serve [--shards N] [--threads T] [--duration-ms D]
//           [--scale S] [--seed N] [--threshold N] [--deadline-ms D]
//           [--max-inflight M] [--checkpoint-every K] [--store PREFIX]
//           [--write-interval-ms W] [--partial] [--metrics] [--json]
//           [--out FILE]
//       Long-running sharded server under a mixed read/write load:
//       synthesizes a Gowalla-style dataset, preloads the first half of
//       its history into N snapshot-isolated shards, then serves T
//       reader threads while the second half streams through the
//       asynchronous ingestion queue (checkpointing every K batches when
//       --store makes the shards durable). Reports read/write
//       throughput, latency percentiles and reads_during_write — the
//       count of queries that completed while an epoch batch was being
//       applied, the direct evidence that snapshot reads are never
//       excluded by the writer. --partial serves degraded (annotated)
//       results instead of failing fast while a shard is quarantined;
//       --metrics additionally prints the per-shard health/fault JSON
//       (serve.fault) and the global metrics registry. --json emits the
//       BENCH_serve.json payload (to FILE with --out). Exit 0 on a
//       healthy run: reads completed, none failed, ingestion alive to
//       the end.
//
//   tartool audit [--seed N | --seeds N] [--queries M] [--pois P]
//           [--epochs E]
//       Query-soundness oracle sweep. Every seed deterministically
//       expands into a dataset, a bulk-built TAR-tree, a streamed twin
//       and a sequential-scan oracle, plus a query workload; results are
//       cross-checked bit-for-bit and against metamorphic properties
//       (top-k prefix, alpha-degenerate orders, MaxAggregate exactness
//       and monotonicity, MWA equivalence, epoch-append invariance — see
//       docs/internals.md, "Query-soundness oracle"). In audited (debug)
//       builds every pruning certificate is additionally proven. --seed
//       runs one seed, --seeds N (default 50) sweeps 1..N; each failure
//       prints a one-line repro command. Exit 0 when all seeds pass.
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/query_checker.h"
#include "analysis/structure_verifier.h"
#include "common/crc32c.h"
#include "common/deadline.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/mwa.h"
#include "core/parallel_query.h"
#include "core/recovery.h"
#include "core/scan_baseline.h"
#include "core/serve.h"
#include "core/tar_tree.h"
#include "data/generator.h"
#include "data/loader.h"
#include "storage/wal.h"

using namespace tar;

namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    std::string key = arg.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[key] = argv[++i];
    } else {
      flags[key] = "1";
    }
  }
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags,
                 const std::string& key, const std::string& def) {
  auto it = flags.find(key);
  return it == flags.end() ? def : it->second;
}

/// Parses the count flag `key` (a thread, query or shard count) into
/// `*out`. atoll into a size_t would wrap "-1" to SIZE_MAX, which passes
/// every "== 0" check and then asks for that many threads; a negative or
/// non-numeric count is refused with a message instead, before anything
/// starts. Returns false after printing the message.
bool ParseCount(const std::map<std::string, std::string>& flags,
                const char* verb, const std::string& key,
                const std::string& def, std::size_t* out) {
  const std::string text = Flag(flags, key, def);
  // strtoull itself accepts a leading sign or space, so the first
  // character must be a digit.
  const bool digit_first = !text.empty() && text[0] >= '0' && text[0] <= '9';
  char* end = nullptr;
  errno = 0;
  const unsigned long long value =
      digit_first ? std::strtoull(text.c_str(), &end, 10) : 0;
  if (!digit_first || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr,
                 "%s: --%s must be a non-negative integer, got '%s'\n", verb,
                 key.c_str(), text.c_str());
    return false;
  }
  *out = static_cast<std::size_t>(value);
  return true;
}

/// Parses the seed range of a sweep verb (chaos, chaos --shard-kill,
/// audit): `--seed N` runs seed N alone, otherwise `--seeds N` (default
/// `def_seeds`) sweeps 1..N. Both parse with ParseCount, so "-1" is
/// refused instead of wrapping to a sweep of ~2^64 seeds. Returns false
/// after printing the message.
bool ParseSeedRange(const std::map<std::string, std::string>& flags,
                    const char* verb, const std::string& def_seeds,
                    std::uint64_t* first, std::uint64_t* last) {
  std::size_t n = 0;
  const bool one = flags.count("seed") != 0;
  if (!ParseCount(flags, verb, one ? "seed" : "seeds", one ? "1" : def_seeds,
                  &n)) {
    return false;
  }
  *first = one ? n : 1;
  *last = n;
  return true;
}

/// The end of the indexed history: the extent end of the global TIA's
/// last record, or 0 for an index with no digested epochs. A failed read
/// is returned, never replaced by a guess: a query window anchored at a
/// made-up end returns plausible-but-wrong answers.
Result<Timestamp> IndexedHistoryEnd(const TarTree& tree) {
  std::vector<TiaRecord> records;
  TAR_RETURN_NOT_OK(tree.global_tia().Records(&records));
  return records.empty() ? Timestamp{0} : records.back().extent.end;
}

/// Civil date from days since the Unix epoch (Howard Hinnant's algorithm;
/// the inverse of the loader's parser).
void CivilFromDays(std::int64_t z, int* y, int* m, int* d) {
  z += 719468;
  std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  std::int64_t doe = z - era * 146097;
  std::int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  std::int64_t year = yoe + era * 400;
  std::int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  std::int64_t mp = (5 * doy + 2) / 153;
  *d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  *m = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  *y = static_cast<int>(year + (*m <= 2));
}

int Generate(const std::map<std::string, std::string>& flags) {
  std::string preset = Flag(flags, "preset", "gw");
  double scale = std::atof(Flag(flags, "scale", "0.05").c_str());
  std::string out_path = Flag(flags, "out", "checkins.tsv");
  std::uint64_t seed = std::atoll(Flag(flags, "seed", "42").c_str());

  GeneratorConfig cfg;
  if (preset == "nyc") {
    cfg = NycConfig(scale, seed);
  } else if (preset == "la") {
    cfg = LaConfig(scale, seed);
  } else if (preset == "gs") {
    cfg = GsConfig(scale, seed);
  } else {
    cfg = GwConfig(scale, seed);
    cfg.tail_fraction = 0.08;
  }
  Dataset data = GenerateLbsn(cfg);

  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  // SNAP format; timestamps anchored at 2009-01-01T00:00:00Z.
  constexpr std::int64_t kAnchor = 1230768000;
  for (const CheckIn& c : data.checkins) {
    std::int64_t t = kAnchor + c.time;
    int y, m, d;
    CivilFromDays(t / 86400, &y, &m, &d);
    std::int64_t s = t % 86400;
    const Vec2& pos = data.pois[c.poi].pos;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "0\t%04d-%02d-%02dT%02lld:%02lld:%02lldZ\t%.6f\t%.6f\t%u\n",
                  y, m, d, static_cast<long long>(s / 3600),
                  static_cast<long long>((s / 60) % 60),
                  static_cast<long long>(s % 60), pos.y, pos.x, c.poi);
    out << line;
  }
  std::printf("wrote %zu check-ins at %zu venues (%s preset, scale %.3f) "
              "to %s\n",
              data.checkins.size(), data.pois.size(), cfg.name.c_str(),
              scale, out_path.c_str());
  return 0;
}

int Build(const std::map<std::string, std::string>& flags) {
  std::string input = Flag(flags, "input", "checkins.tsv");
  std::string out_path = Flag(flags, "out", "index.tart");
  std::string strategy = Flag(flags, "strategy", "tar");
  std::string backend = Flag(flags, "backend", "mvbt");
  std::int64_t threshold = std::atoll(Flag(flags, "threshold", "50").c_str());
  int epoch_days = std::atoi(Flag(flags, "epoch-days", "7").c_str());
  std::size_t node_bytes =
      std::atoll(Flag(flags, "node-bytes", "1024").c_str());

  auto loaded = LoadSnapCheckinsFile(input);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  Dataset data = std::move(loaded).ValueOrDie();
  EpochGrid grid(0, epoch_days * kSecondsPerDay);
  EpochCounts counts = BuildEpochCounts(data, grid);
  std::vector<PoiId> effective = EffectivePois(counts, threshold);

  TarTreeOptions opt;
  opt.strategy = strategy == "spa"   ? GroupingStrategy::kSpatial
                 : strategy == "agg" ? GroupingStrategy::kAggregate
                                     : GroupingStrategy::kIntegral3D;
  opt.tia_backend =
      backend == "bptree" ? TiaBackend::kBpTree : TiaBackend::kMvbt;
  opt.node_size_bytes = node_bytes;
  opt.grid = grid;
  opt.space = data.bounds;
  TarTree tree(opt);
  std::int64_t max_total = 0;
  for (PoiId id : effective) {
    max_total = std::max(max_total, counts.Total(id));
  }
  tree.SeedMaxTotal(max_total);
  for (PoiId id : effective) {
    Status st = tree.InsertPoi(data.pois[id], counts.counts[id]);
    if (!st.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  Status st = tree.SaveToFile(out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("indexed %zu / %zu venues (threshold %lld), %zu nodes, "
              "height %zu, %s grouping, %s TIAs -> %s\n",
              effective.size(), data.pois.size(),
              static_cast<long long>(threshold), tree.num_nodes(),
              tree.height(), ToString(opt.strategy),
              ToString(opt.tia_backend), out_path.c_str());
  return 0;
}

int Info(const std::map<std::string, std::string>& flags) {
  auto loaded = TarTree::LoadFromFile(Flag(flags, "index", "index.tart"));
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const TarTree& tree = *loaded.ValueOrDie();
  const TarTreeOptions& opt = tree.options();
  std::printf("POIs:      %zu\n", tree.num_pois());
  std::printf("nodes:     %zu (height %zu, capacity %zu)\n",
              tree.num_nodes(), tree.height(), tree.capacity());
  std::printf("strategy:  %s\n", ToString(opt.strategy));
  std::printf("backend:   %s\n", ToString(opt.tia_backend));
  std::printf("epoch:     %lld days\n",
              static_cast<long long>(opt.grid.epoch_length() /
                                     kSecondsPerDay));
  std::printf("max total: %lld check-ins\n",
              static_cast<long long>(tree.max_total()));
  Status st = tree.CheckInvariants();
  std::printf("invariants: %s\n", st.ok() ? "OK" : st.ToString().c_str());
  return st.ok() ? 0 : 1;
}

int Check(const std::map<std::string, std::string>& flags,
          const std::string& positional) {
  std::string path = positional.empty()
                         ? Flag(flags, "index", "index.tart")
                         : positional;

  analysis::VerifyOptions vopt;
  vopt.tia_sample_intervals =
      std::atoll(Flag(flags, "samples", "4").c_str());
  vopt.deep_tia = flags.count("shallow") == 0;

  // Load with basic verify-on-load; the deep pass runs explicitly below so
  // its coverage report can be printed.
  TarTree::LoadOptions load_options;
  load_options.verify = true;
  auto loaded = TarTree::LoadFromFile(path, load_options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s: FAILED (load): %s\n", path.c_str(),
                 loaded.status().ToString().c_str());
    return 1;
  }
  const TarTree& tree = *loaded.ValueOrDie();
  analysis::StructureVerifier verifier(vopt);
  analysis::VerifyReport report;
  Status st = verifier.VerifyTarTree(tree, &report);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: FAILED: %s\n", path.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::printf("%s: OK (%zu POIs; checked %s)\n", path.c_str(),
              tree.num_pois(), report.ToString().c_str());
  return 0;
}

int QueryCmd(const std::map<std::string, std::string>& flags) {
  auto loaded = TarTree::LoadFromFile(Flag(flags, "index", "index.tart"));
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const TarTree& tree = *loaded.ValueOrDie();

  KnntaQuery q;
  q.point = {std::atof(Flag(flags, "x", "0").c_str()),
             std::atof(Flag(flags, "y", "0").c_str())};
  std::int64_t days = std::atoll(Flag(flags, "days", "30").c_str());
  // "The last N days": anchored at the end of the indexed history.
  const Result<Timestamp> history_end = IndexedHistoryEnd(tree);
  if (!history_end.ok()) {
    std::fprintf(stderr, "cannot read indexed history: %s\n",
                 history_end.status().ToString().c_str());
    return 1;
  }
  const Timestamp t_end = *history_end;
  q.interval = {std::max<Timestamp>(0, t_end - days * kSecondsPerDay),
                t_end};
  q.k = std::atoll(Flag(flags, "k", "10").c_str());
  q.alpha0 = std::atof(Flag(flags, "alpha", "0.3").c_str());

  const bool want_trace = flags.count("trace") != 0;
  QueryBudget budget;
  budget.deadline_ms = std::atof(Flag(flags, "deadline-ms", "0").c_str());
  const bool allow_partial = flags.count("allow-partial") != 0;
  QueryDeadline deadline(budget);
  QueryDeadline* dptr = deadline.armed() ? &deadline : nullptr;
  std::vector<KnntaResult> results;
  AccessStats stats;
  QueryTrace trace;
  PartialResult partial;
  bool degraded = false;
  Status st = tree.Query(q, &results, &stats, want_trace ? &trace : nullptr,
                         dptr, allow_partial ? &partial : nullptr);
  // A deadline trip must not degrade to a full sequential scan — that
  // would spend strictly more time than the traversal it cut short.
  if (!st.ok() && !st.IsInvalidArgument() && !st.IsDeadlineExceeded() &&
      !st.IsCancelled() && flags.count("fallback-scan") != 0) {
    // Graceful degradation: answer by sequential scan over the leaf TIAs.
    std::fprintf(stderr,
                 "index query failed (%s); degrading to sequential scan\n",
                 st.ToString().c_str());
    auto fallback = BuildScanBaselineFromTree(tree);
    if (!fallback.ok()) {
      std::fprintf(stderr, "scan fallback unavailable: %s\n",
                   fallback.status().ToString().c_str());
      return 1;
    }
    st = fallback.ValueOrDie()->Query(q, &results);
    degraded = st.ok();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "query failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("top %zu near (%.4f, %.4f), last %lld days, alpha0=%.2f%s:\n",
              results.size(), q.point.x, q.point.y,
              static_cast<long long>(days), q.alpha0,
              degraded ? " [sequential-scan fallback]" : "");
  for (const KnntaResult& r : results) {
    std::printf("  venue %-8u dist=%9.4f visits=%6lld score=%.4f\n", r.poi,
                r.dist, static_cast<long long>(r.aggregate), r.score);
  }
  if (allow_partial && !partial.completed) {
    std::printf("[partial: %zu of %zu requested; every unreported venue "
                "scores >= %.4f; cause: %s]\n",
                results.size(), static_cast<std::size_t>(q.k),
                partial.score_bound, partial.cause.ToString().c_str());
  }
  std::printf("(%s)\n", stats.ToString().c_str());
  if (want_trace && !degraded) {
    std::printf("%s", trace.ToText().c_str());
  }

  if (flags.count("mwa") != 0) {
    MwaResult mwa;
    QueryTrace mwa_trace;
    st = ComputeMwaPruning(tree, q, &mwa, nullptr,
                           want_trace ? &mwa_trace : nullptr);
    if (!st.ok()) {
      std::fprintf(stderr, "MWA failed: %s\n", st.ToString().c_str());
      return 1;
    }
    if (want_trace) {
      std::printf("MWA %s", mwa_trace.ToText().c_str());
    }
    if (mwa.lower) {
      std::printf("results change below alpha0 = %.4f\n", *mwa.lower);
    }
    if (mwa.upper) {
      std::printf("results change above alpha0 = %.4f\n", *mwa.upper);
    }
    if (!mwa.lower && !mwa.upper) {
      std::printf("no weight adjustment changes the results\n");
    }
  }
  return 0;
}

int Stress(const std::map<std::string, std::string>& flags) {
  ParallelQueryOptions opt;
  std::size_t num_queries = 0;
  if (!ParseCount(flags, "stress", "threads", "4", &opt.num_threads) ||
      !ParseCount(flags, "stress", "queries", "1000", &num_queries)) {
    return 2;
  }
  auto loaded = TarTree::LoadFromFile(Flag(flags, "index", "index.tart"));
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const TarTree& tree = *loaded.ValueOrDie();

  // Global metrics collection is opt-in; the registry dump at the end
  // then shows the storage-layer counters alongside the batch report.
  const bool metrics = flags.count("metrics") != 0;
  if (metrics) SetMetricsEnabled(true);

  std::size_t k = std::atoll(Flag(flags, "k", "10").c_str());
  std::int64_t days = std::atoll(Flag(flags, "days", "30").c_str());
  double alpha0 = std::atof(Flag(flags, "alpha", "0.3").c_str());
  Rng rng(std::atoll(Flag(flags, "seed", "42").c_str()));

  // Query points are uniform over the data space; intervals are windows of
  // `days` days with uniform starts over the indexed history.
  const Result<Timestamp> history_end = IndexedHistoryEnd(tree);
  if (!history_end.ok()) {
    std::fprintf(stderr, "stress: cannot read indexed history: %s\n",
                 history_end.status().ToString().c_str());
    return 1;
  }
  const Timestamp t_end = *history_end;
  const Box2& space = tree.options().space;
  const Timestamp window = days * kSecondsPerDay;
  std::vector<KnntaQuery> queries;
  queries.reserve(num_queries);
  for (std::size_t i = 0; i < num_queries; ++i) {
    KnntaQuery q;
    q.point = {rng.Uniform(space.lo[0], space.hi[0]),
               rng.Uniform(space.lo[1], space.hi[1])};
    Timestamp latest_start = std::max<Timestamp>(0, t_end - window);
    Timestamp start = rng.UniformInt(0, latest_start);
    q.interval = {start, std::min(t_end, start + window - 1)};
    q.k = k;
    q.alpha0 = alpha0;
    queries.push_back(q);
  }

  ParallelQueryReport report;
  Status st = RunParallelQueries(tree, queries, opt, &report);
  if (!st.ok()) {
    std::fprintf(stderr, "stress failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("%zu queries, %zu threads: %zu ok, %zu failed\n",
              num_queries, opt.num_threads, report.queries_ok,
              report.queries_failed);
  for (const auto& [code, count] : report.failures_by_code) {
    std::printf("  failed with %s: %zu\n", StatusCodeName(code), count);
  }
  std::printf("wall %.1f ms, %.0f queries/s, latency mean %.1f us, "
              "max %.1f us\n",
              report.wall_micros / 1000.0, report.Throughput(),
              report.mean_query_micros, report.max_query_micros);
  std::printf("latency p50 %.1f us, p95 %.1f us, p99 %.1f us\n",
              report.latency.P50(), report.latency.P95(),
              report.latency.P99());
  std::printf("aggregate cost: %s\n", report.total_stats.ToString().c_str());
  // Per-batch pool behaviour: the delta between the snapshots taken
  // around the batch, not the cumulative counters (those include the
  // index load and would drift across repeated batches).
  std::printf("batch buffer pool: %llu fetches, %llu hits, %llu misses, "
              "hit rate %.1f%%\n",
              static_cast<unsigned long long>(report.pool_delta.Fetches()),
              static_cast<unsigned long long>(report.pool_delta.hits),
              static_cast<unsigned long long>(report.pool_delta.misses),
              100.0 * report.pool_delta.HitRate());

  // Post-run concurrent-consistency check of the shared buffer pool; the
  // fetch accounting is internal to the tree, so only structural integrity
  // and the miss/physical-read relation are checkable here.
  analysis::StructureVerifier verifier;
  st = verifier.VerifyBufferPool(*tree.tia_buffer_pool());
  if (!st.ok()) {
    std::fprintf(stderr, "buffer pool corrupted by concurrent run: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf("buffer pool integrity after run: OK (%llu hits, %llu "
              "misses cumulative)\n",
              static_cast<unsigned long long>(tree.tia_buffer_pool()->hits()),
              static_cast<unsigned long long>(
                  tree.tia_buffer_pool()->misses()));
  if (metrics) {
    std::printf("metrics registry:\n%s",
                MetricsRegistry::Global().ToText().c_str());
  }
  return report.queries_failed == 0 ? 0 : 1;
}

// --------------------------------------------------------------------------
// ingest / recover: online ingestion against a WAL-backed store.

/// The write path of every logged tree in this tool: log `record`
/// (LogRecord validates, then appends), then apply the logged record.
Status LogAndApply(TarTree* tree, WalWriter* wal, WalRecord record) {
  TAR_RETURN_NOT_OK(LogRecord(*tree, wal, &record));
  return tree->ApplyWalRecord(record);
}

int Ingest(const std::map<std::string, std::string>& flags) {
  const std::string input = Flag(flags, "input", "checkins.tsv");
  const std::string store = Flag(flags, "store", "store");
  const std::string snap = store + ".tart";
  const std::string walp = store + ".wal";
  const std::string strategy = Flag(flags, "strategy", "tar");
  const std::string backend = Flag(flags, "backend", "mvbt");
  const std::int64_t threshold =
      std::atoll(Flag(flags, "threshold", "50").c_str());
  const int epoch_days = std::atoi(Flag(flags, "epoch-days", "7").c_str());
  const std::size_t node_bytes =
      std::atoll(Flag(flags, "node-bytes", "1024").c_str());
  const std::size_t checkpoint_every =
      std::atoll(Flag(flags, "checkpoint-every", "64").c_str());
  const bool metrics = flags.count("metrics") != 0;
  if (metrics) SetMetricsEnabled(true);

  auto loaded = LoadSnapCheckinsFile(input);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  Dataset data = std::move(loaded).ValueOrDie();
  EpochGrid grid(0, epoch_days * kSecondsPerDay);
  EpochCounts counts = BuildEpochCounts(data, grid);
  std::vector<PoiId> effective = EffectivePois(counts, threshold);

  std::unique_ptr<TarTree> tree;
  if (std::ifstream(snap, std::ios::binary).good()) {
    RecoveryReport report;
    auto rec = Recover(snap, walp, TarTree::LoadOptions(), &report);
    if (!rec.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   rec.status().ToString().c_str());
      return 1;
    }
    tree = std::move(rec).ValueOrDie();
    std::printf("resumed store %s: %s\n", store.c_str(),
                report.ToString().c_str());
  } else {
    TarTreeOptions opt;
    opt.strategy = strategy == "spa"   ? GroupingStrategy::kSpatial
                   : strategy == "agg" ? GroupingStrategy::kAggregate
                                       : GroupingStrategy::kIntegral3D;
    opt.tia_backend =
        backend == "bptree" ? TiaBackend::kBpTree : TiaBackend::kMvbt;
    opt.node_size_bytes = node_bytes;
    opt.grid = grid;
    opt.space = data.bounds;
    tree = std::make_unique<TarTree>(opt);
    std::int64_t max_total = 0;
    for (PoiId id : effective) {
      max_total = std::max(max_total, counts.Total(id));
    }
    tree->SeedMaxTotal(max_total);
    // The initial (empty) checkpoint: recovery always has a snapshot to
    // replay the log on top of.
    Status st = tree->SaveToFile(snap);
    if (!st.ok()) {
      std::fprintf(stderr, "initial checkpoint failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  auto wres = WalWriter::Open(walp, WalWriterOptions(), tree->applied_lsn());
  if (!wres.ok()) {
    std::fprintf(stderr, "cannot open WAL %s: %s\n", walp.c_str(),
                 wres.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<WalWriter> wal = std::move(wres).ValueOrDie();

  std::size_t since_checkpoint = 0;
  auto after_op = [&]() -> Status {
    if (checkpoint_every == 0 || ++since_checkpoint < checkpoint_every) {
      return Status::OK();
    }
    since_checkpoint = 0;
    return Checkpoint(*tree, snap, wal.get());
  };

  // Stream the new POIs first (empty history: a freshly appearing POI has
  // no digested epochs yet), then digest each finished epoch that is not
  // in the store already — the global TIA's last record marks where the
  // indexed history ends. POIs the store already knows are skipped, so
  // rerunning over the same (or an extended) input is incremental.
  std::size_t inserted = 0;
  std::size_t already = 0;
  for (PoiId id : effective) {
    if (tree->poi_snapshot(id).has_value()) {
      ++already;
      continue;
    }
    const Poi& poi = data.pois[id];
    Status st = LogAndApply(
        tree.get(), wal.get(),
        WalRecord::MakeInsertPoi(poi.id, poi.pos.x, poi.pos.y, {}));
    if (!st.ok()) {
      // A dead WAL writer gates every later mutation with the same root
      // cause attached (kFailedPrecondition); print it once and stop
      // instead of one error per remaining record.
      if (st.IsFailedPrecondition()) {
        std::fprintf(stderr, "ingest aborted at POI %u: %s\n", id,
                     st.ToString().c_str());
      } else {
        std::fprintf(stderr, "insert of POI %u failed: %s\n", id,
                     st.ToString().c_str());
      }
      return 1;
    }
    ++inserted;
    st = after_op();
    if (!st.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  std::int64_t first_epoch = 0;
  {
    std::vector<TiaRecord> records;
    Status st = tree->global_tia().Records(&records);
    if (!st.ok()) {
      std::fprintf(stderr, "cannot read indexed history: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    if (!records.empty()) {
      first_epoch = grid.EpochOf(records.back().extent.start) + 1;
    }
  }
  std::int64_t appended = 0;
  for (std::int64_t e = first_epoch; e < counts.num_epochs; ++e) {
    std::unordered_map<PoiId, std::int64_t> aggs;
    for (PoiId id : effective) {
      const std::vector<std::int32_t>& h = counts.counts[id];
      if (static_cast<std::size_t>(e) < h.size() && h[e] > 0) {
        aggs[id] = h[e];
      }
    }
    if (aggs.empty()) continue;
    Status st = LogAndApply(tree.get(), wal.get(),
                            WalRecord::MakeEpochBatch(e, aggs));
    if (!st.ok()) {
      if (st.IsFailedPrecondition()) {
        std::fprintf(stderr, "ingest aborted at epoch %lld: %s\n",
                     static_cast<long long>(e), st.ToString().c_str());
      } else {
        std::fprintf(stderr, "epoch %lld digest failed: %s\n",
                     static_cast<long long>(e), st.ToString().c_str());
      }
      return 1;
    }
    ++appended;
    st = after_op();
    if (!st.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  Status st = Checkpoint(*tree, snap, wal.get());
  if (!st.ok()) {
    std::fprintf(stderr, "final checkpoint failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf("ingested %zu new POIs (%zu already indexed), %lld epochs "
              "-> %s + %s (applied LSN %llu)\n",
              inserted, already, static_cast<long long>(appended),
              snap.c_str(), walp.c_str(),
              static_cast<unsigned long long>(tree->applied_lsn()));
  if (metrics) {
    std::printf("metrics registry:\n%s",
                MetricsRegistry::Global().ToText().c_str());
  }
  return 0;
}

int RecoverCmd(const std::map<std::string, std::string>& flags) {
  const std::string store = Flag(flags, "store", "store");
  const std::string snap = store + ".tart";
  const std::string walp = store + ".wal";

  RecoveryReport report;
  auto rec = Recover(snap, walp, TarTree::LoadOptions(), &report);
  if (!rec.ok()) {
    std::fprintf(stderr, "%s: recovery FAILED: %s\n", store.c_str(),
                 rec.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<TarTree> tree = std::move(rec).ValueOrDie();
  std::printf("%s: recovered (%s)\n", store.c_str(),
              report.ToString().c_str());

  analysis::VerifyOptions vopt;
  vopt.deep_tia = flags.count("shallow") == 0;
  analysis::StructureVerifier verifier(vopt);
  analysis::VerifyReport vreport;
  Status st = verifier.VerifyTarTree(*tree, &vreport);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: verification FAILED: %s\n", store.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::printf("%s: OK (%zu POIs; checked %s)\n", store.c_str(),
              tree->num_pois(), vreport.ToString().c_str());

  if (flags.count("checkpoint") != 0) {
    auto wres =
        WalWriter::Open(walp, WalWriterOptions(), tree->applied_lsn());
    if (!wres.ok()) {
      std::fprintf(stderr, "cannot open WAL %s: %s\n", walp.c_str(),
                   wres.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<WalWriter> wal = std::move(wres).ValueOrDie();
    st = Checkpoint(*tree, snap, wal.get());
    if (!st.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("%s: checkpointed at LSN %llu; log truncated\n",
                store.c_str(),
                static_cast<unsigned long long>(tree->applied_lsn()));
  }
  return 0;
}

// --------------------------------------------------------------------------
// crashtest: randomized crash-recovery harness over the persistence layer.

int Usage();

/// Builds a small deterministic index for one crashtest round.
std::unique_ptr<TarTree> BuildCrashTree(std::uint64_t seed, double scale,
                                        TiaBackend backend) {
  Dataset data = GenerateLbsn(GwConfig(scale, seed));
  EpochGrid grid(0, 7 * kSecondsPerDay);
  EpochCounts counts = BuildEpochCounts(data, grid);
  std::vector<PoiId> effective = EffectivePois(counts, 20);
  if (effective.empty()) return nullptr;

  TarTreeOptions opt;
  opt.node_size_bytes = 512;
  opt.tia_backend = backend;
  opt.grid = grid;
  opt.space = data.bounds;
  auto tree = std::make_unique<TarTree>(opt);
  std::int64_t max_total = 0;
  for (PoiId id : effective) {
    max_total = std::max(max_total, counts.Total(id));
  }
  tree->SeedMaxTotal(max_total);
  for (PoiId id : effective) {
    if (!tree->InsertPoi(data.pois[id], counts.counts[id]).ok()) {
      return nullptr;
    }
  }
  return tree;
}

/// Byte offsets where each frame starts (walked from the clean bytes).
std::vector<std::size_t> FrameBoundaries(const std::string& bytes) {
  std::vector<std::size_t> cuts;
  std::size_t off = 8;  // past magic + version
  while (off + 12 <= bytes.size()) {
    cuts.push_back(off);
    std::uint32_t tag = 0;
    std::uint64_t len = 0;
    std::memcpy(&tag, bytes.data() + off, sizeof(tag));
    std::memcpy(&len, bytes.data() + off + 4, sizeof(len));
    off += 12 + len + 4;
    if (tag == 0xF00Fu) break;
  }
  return cuts;
}

/// Loads serialized bytes, expecting a clean rejection. Returns true when
/// the load fails with a non-OK status (graceful); false when the corrupt
/// artifact is accepted.
bool RejectsCleanly(const std::string& bytes, const char* what,
                    std::size_t detail) {
  std::stringstream in(bytes);
  auto res = TarTree::Load(in);
  if (res.ok()) {
    std::fprintf(stderr, "  NOT REJECTED: %s (at %zu) loaded fine\n", what,
                 detail);
    return false;
  }
  return true;
}

// --------------------------------------------------------------------------
// crashtest, part two: the online-ingestion matrix (WAL + recovery).

/// One logged mutation of the deterministic ingestion workload.
struct IngestOp {
  bool is_insert = false;
  Poi poi;
  std::int64_t epoch = 0;
  std::unordered_map<PoiId, std::int64_t> aggs;
};

/// Mixed workload: rounds of POI inserts, each followed by an epoch digest
/// over everything inserted so far.
std::vector<IngestOp> MakeIngestOps(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<IngestOp> ops;
  PoiId next_id = 1;
  std::vector<PoiId> known;
  for (std::int64_t round = 0; round < 6; ++round) {
    for (int i = 0; i < 4; ++i) {
      IngestOp op;
      op.is_insert = true;
      op.poi.id = next_id++;
      op.poi.pos = {rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
      known.push_back(op.poi.id);
      ops.push_back(std::move(op));
    }
    IngestOp digest;
    digest.epoch = round;
    for (PoiId id : known) {
      digest.aggs[id] = rng.UniformInt(1, 50);
    }
    ops.push_back(std::move(digest));
  }
  return ops;
}

TarTreeOptions IngestMatrixOptions(TiaBackend backend) {
  TarTreeOptions opt;
  opt.node_size_bytes = 512;
  opt.tia_backend = backend;
  opt.grid = EpochGrid(0, 7 * kSecondsPerDay);
  opt.space.lo = {0.0, 0.0};
  opt.space.hi = {100.0, 100.0};
  return opt;
}

/// Applies `op` through the direct in-memory doors.
Status ApplyIngestOp(TarTree* tree, const IngestOp& op) {
  if (op.is_insert) return tree->InsertPoi(op.poi);
  return tree->AppendEpoch(op.epoch, op.aggs);
}

/// Logs `op` through `wal`, then applies the logged record.
Status LogIngestOp(TarTree* tree, WalWriter* wal, const IngestOp& op) {
  return LogAndApply(
      tree, wal,
      op.is_insert ? WalRecord::MakeInsertPoi(op.poi.id, op.poi.pos.x,
                                              op.poi.pos.y, {})
                   : WalRecord::MakeEpochBatch(op.epoch, op.aggs));
}

/// Reference state after the first `count` ops: an uninterrupted run
/// through the direct doors, never logged, so comparing a recovered store
/// against it pits the log-and-replay path against the direct one.
std::unique_ptr<TarTree> IngestRefTree(const TarTreeOptions& opt,
                                       const std::vector<IngestOp>& ops,
                                       std::size_t count) {
  auto tree = std::make_unique<TarTree>(opt);
  for (std::size_t i = 0; i < count; ++i) {
    if (!ApplyIngestOp(tree.get(), ops[i]).ok()) return nullptr;
  }
  return tree;
}

/// Fixed probe batch over the workload's space and epoch range.
std::vector<KnntaQuery> IngestQueryBatch(const EpochGrid& grid) {
  Rng rng(7);
  std::vector<KnntaQuery> queries;
  for (int i = 0; i < 8; ++i) {
    KnntaQuery q;
    q.point = {rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    const std::int64_t first = rng.UniformInt(0, 3);
    const std::int64_t last = rng.UniformInt(first, 6);
    q.interval = {grid.EpochStart(first), grid.EpochEnd(last)};
    q.k = 5;
    q.alpha0 = 0.3;
    queries.push_back(q);
  }
  return queries;
}

/// Bit-identical result comparison (scores and distances via memcmp; the
/// read path must be deterministic down to the double representation).
bool SameResults(const std::vector<KnntaResult>& a,
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

/// True when `got` answers the probe batch bit-identically to `want`.
bool SameQueryAnswers(const TarTree& got, const TarTree& want,
                      const char* what, std::size_t detail) {
  for (const KnntaQuery& q : IngestQueryBatch(got.grid())) {
    std::vector<KnntaResult> rg;
    std::vector<KnntaResult> rw;
    if (!got.Query(q, &rg).ok() || !want.Query(q, &rw).ok() ||
        !SameResults(rg, rw)) {
      std::fprintf(stderr,
                   "  DIVERGED: %s (at %zu): recovered answers differ\n",
                   what, detail);
      return false;
    }
  }
  return true;
}

/// One complete, CRC-valid WAL frame: the byte offset just past it and the
/// running count of non-checkpoint (mutation) records up to it.
struct WalCut {
  std::size_t end = 0;
  std::size_t mutations = 0;
};

/// Frame-by-frame walk of raw WAL bytes, trusting only the per-frame
/// CRC-32C — deliberately independent of ScanWal, which is itself under
/// test here.
std::vector<WalCut> WalFrameCuts(const std::string& bytes) {
  std::vector<WalCut> cuts;
  std::size_t off = 0;
  std::size_t mutations = 0;
  while (off + 20 <= bytes.size()) {
    std::uint32_t type = 0;
    std::uint32_t len = 0;
    std::memcpy(&type, bytes.data() + off + 8, sizeof(type));
    std::memcpy(&len, bytes.data() + off + 12, sizeof(len));
    if (type == 0) break;  // zero padding: clean end of log
    const std::size_t end = off + 16 + len + 4;
    if (end > bytes.size()) break;
    std::uint32_t stored = 0;
    std::memcpy(&stored, bytes.data() + off + 16 + len, sizeof(stored));
    if (stored != Crc32c(bytes.data() + off, 16 + len)) break;
    if (type != 3) ++mutations;  // 3 = checkpoint marker
    cuts.push_back(WalCut{end, mutations});
    off = end;
  }
  return cuts;
}

/// Online-ingestion crash matrix for one crashtest round. Builds a store
/// (snapshot + WAL) from the deterministic workload with a mid-run
/// checkpoint whose truncation is deliberately skipped (so recovery must
/// prove the LSN gate skips already-applied records), then attacks the
/// log. After every attack, recovery must pass the structure verifier and
/// answer the probe batch bit-identically to an uninterrupted run of the
/// same prefix. Mishandled-but-detected faults bump *violations; silently
/// wrong answers bump *divergences. Returns non-zero on setup errors.
int IngestCrashMatrix(const std::string& base, std::uint64_t rseed,
                      TiaBackend backend,
                      analysis::StructureVerifier* verifier,
                      int* violations, int* divergences) {
  const std::string snap = base + ".tart";
  const std::string walp = base + ".wal";
  const std::string cutp = base + ".cut";
  const TarTreeOptions opt = IngestMatrixOptions(backend);
  const std::vector<IngestOp> ops = MakeIngestOps(rseed);
  const std::size_t mid = ops.size() / 2;
  std::remove(snap.c_str());
  std::remove(walp.c_str());

  std::map<std::size_t, std::unique_ptr<TarTree>> refs;
  auto ref = [&](std::size_t count) -> TarTree* {
    auto it = refs.find(count);
    if (it == refs.end()) {
      it = refs.emplace(count, IngestRefTree(opt, ops, count)).first;
    }
    return it->second.get();
  };

  // Build the store. Every op becomes its own synced frame; the mid-run
  // checkpoint writes the snapshot and the synced marker but skips the
  // truncation, modeling a crash between checkpoint steps (2) and (3).
  {
    TarTree tree(opt);
    if (!tree.SaveToFile(snap).ok()) {
      std::fprintf(stderr, "ingest matrix: initial checkpoint failed\n");
      return 2;
    }
    WalWriterOptions wopt;
    wopt.group_commit_records = 1;
    auto wres = WalWriter::Open(walp, wopt);
    if (!wres.ok()) {
      std::fprintf(stderr, "ingest matrix: cannot open WAL\n");
      return 2;
    }
    std::unique_ptr<WalWriter> wal = std::move(wres).ValueOrDie();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (i == mid) {
        if (!tree.SaveToFile(snap).ok() ||
            !wal->Append(WalRecord::MakeCheckpoint(tree.applied_lsn()))
                 .ok() ||
            !wal->Sync().ok()) {
          std::fprintf(stderr, "ingest matrix: mid-run checkpoint failed\n");
          return 2;
        }
      }
      if (!LogIngestOp(&tree, wal.get(), ops[i]).ok()) {
        std::fprintf(stderr, "ingest matrix: op %zu failed\n", i);
        return 2;
      }
    }
    if (!wal->Sync().ok()) return 2;
  }

  std::string wal_bytes;
  {
    std::ifstream in(walp, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    wal_bytes = buf.str();
  }
  const std::vector<WalCut> cuts = WalFrameCuts(wal_bytes);
  if (cuts.size() != ops.size() + 1 ||
      cuts.back().end != wal_bytes.size()) {  // +1: the checkpoint marker
    std::fprintf(stderr, "ingest matrix: unexpected log shape (%zu frames)\n",
                 cuts.size());
    return 2;
  }

  // The snapshot holds ops[0..mid); a log prefix with m mutation frames
  // therefore recovers to max(mid, m) applied ops.
  auto recover_and_check = [&](const std::string& bytes,
                               std::size_t want_ops, bool want_clean,
                               const char* what, std::size_t detail) {
    {
      std::ofstream out(cutp, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    RecoveryReport report;
    auto rec = Recover(snap, cutp, TarTree::LoadOptions(), &report);
    if (!rec.ok()) {
      std::fprintf(stderr, "  RECOVERY FAILED: %s (at %zu): %s\n", what,
                   detail, rec.status().ToString().c_str());
      ++*violations;
      return;
    }
    std::unique_ptr<TarTree> tree = std::move(rec).ValueOrDie();
    if (want_clean != (report.tail == WalTail::kClean)) {
      std::fprintf(stderr, "  TAIL MISCLASSIFIED: %s (at %zu): got %s\n",
                   what, detail, ToString(report.tail));
      ++*violations;
    }
    if (!verifier->VerifyTarTree(*tree, nullptr).ok()) {
      std::fprintf(stderr, "  STRUCTURE BROKEN: %s (at %zu)\n", what,
                   detail);
      ++*violations;
      return;
    }
    TarTree* want = ref(want_ops);
    if (want == nullptr) {
      std::fprintf(stderr, "  ingest matrix: reference build failed\n");
      ++*violations;
      return;
    }
    if (!SameQueryAnswers(*tree, *want, what, detail)) ++*divergences;
  };

  // (e1) Truncation at every frame boundary (and the empty log): a clean
  // tail, recovering exactly the mutations before the cut.
  recover_and_check(std::string(), mid, true, "log truncation", 0);
  for (const WalCut& cut : cuts) {
    recover_and_check(wal_bytes.substr(0, cut.end),
                      std::max(mid, cut.mutations), true, "log truncation",
                      cut.end);
  }

  // (e2) Mid-frame cuts: a torn tail (a crashed append), recovering the
  // complete frames before it.
  std::size_t before = 0;
  for (const WalCut& cut : cuts) {
    recover_and_check(wal_bytes.substr(0, cut.end - 7), std::max(mid, before),
                      false, "torn append", cut.end - 7);
    before = cut.mutations;
  }

  // (e3) Sampled bit flips: the flipped frame fails its CRC (or breaks
  // framing), so the tail is non-clean and recovery stops before it.
  {
    Rng rng(rseed + 17);
    for (int i = 0; i < 48; ++i) {
      const std::size_t pos = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(wal_bytes.size()) - 1));
      std::size_t frame = 0;
      while (cuts[frame].end <= pos) ++frame;
      const std::size_t intact = frame == 0 ? 0 : cuts[frame - 1].mutations;
      std::string flipped = wal_bytes;
      flipped[pos] ^= static_cast<char>(1u << (i % 8));
      recover_and_check(flipped, std::max(mid, intact), false, "bit flip",
                        pos);
    }
  }

  fail::FaultInjector& injector = fail::FaultInjector::Global();

  // (e4) Torn checkpoint: the snapshot rewrite is atomic, so a checkpoint
  // that tears mid-save must fail while both the old snapshot and the log
  // survive — recovery afterwards still yields the full state.
  {
    auto rec = Recover(snap, walp, TarTree::LoadOptions());
    if (!rec.ok()) {
      std::fprintf(stderr, "ingest matrix: pre-tear recovery failed\n");
      return 2;
    }
    std::unique_ptr<TarTree> tree = std::move(rec).ValueOrDie();
    auto wres =
        WalWriter::Open(walp, WalWriterOptions(), tree->applied_lsn());
    if (!wres.ok()) return 2;
    std::unique_ptr<WalWriter> wal = std::move(wres).ValueOrDie();
    const std::string spec =
        "persist.write=torn@2;seed=" + std::to_string(rseed);
    if (!injector.Configure(spec).ok()) return 2;
    if (Checkpoint(*tree, snap, wal.get()).ok()) {
      std::fprintf(stderr, "  torn checkpoint reported OK\n");
      ++*violations;
    }
    injector.Clear();
    auto again = Recover(snap, walp, TarTree::LoadOptions());
    if (!again.ok() ||
        !verifier->VerifyTarTree(*again.ValueOrDie(), nullptr).ok()) {
      std::fprintf(stderr, "  store damaged by torn checkpoint\n");
      ++*violations;
    } else if (ref(ops.size()) == nullptr) {
      std::fprintf(stderr, "  ingest matrix: reference build failed\n");
      ++*violations;
    } else if (!SameQueryAnswers(*again.ValueOrDie(), *ref(ops.size()),
                                 "torn checkpoint", 0)) {
      ++*divergences;
    }
  }

  // (e5) Torn WAL sync mid-ingestion on a fresh store: the writer dies on
  // the torn batch, the acknowledged ops must all be on disk as valid
  // frames, and recovery yields exactly the acknowledged prefix.
  {
    const std::string snap2 = base + "2.tart";
    const std::string wal2 = base + "2.wal";
    std::remove(snap2.c_str());
    std::remove(wal2.c_str());
    TarTree tree(opt);
    if (!tree.SaveToFile(snap2).ok()) return 2;
    WalWriterOptions wopt;
    wopt.group_commit_records = 1;
    auto wres = WalWriter::Open(wal2, wopt);
    if (!wres.ok()) return 2;
    std::unique_ptr<WalWriter> wal = std::move(wres).ValueOrDie();
    const std::size_t tear = 2 + rseed % (ops.size() - 2);
    const std::string spec = "wal.torn=torn@" + std::to_string(tear) +
                             ";seed=" + std::to_string(rseed);
    if (!injector.Configure(spec).ok()) return 2;
    std::size_t acked = 0;
    bool failed = false;
    for (const IngestOp& op : ops) {
      if (!LogIngestOp(&tree, wal.get(), op).ok()) {
        failed = true;
        break;
      }
      ++acked;
    }
    injector.Clear();
    if (!failed || tree.poisoned()) {
      // The append failed before any page was touched, so the in-memory
      // tree must stay clean (unmutated), not poisoned.
      std::fprintf(stderr, "  torn sync: writer survived or tree poisoned\n");
      ++*violations;
    }
    std::string bytes2;
    {
      std::ifstream in(wal2, std::ios::binary);
      std::stringstream buf;
      buf << in.rdbuf();
      bytes2 = buf.str();
    }
    const std::vector<WalCut> cuts2 = WalFrameCuts(bytes2);
    const std::size_t logged = cuts2.empty() ? 0 : cuts2.back().mutations;
    if (logged != acked) {
      std::fprintf(stderr,
                   "  torn sync: %zu ops acknowledged but %zu on disk\n",
                   acked, logged);
      ++*violations;
    }
    auto rec = Recover(snap2, wal2, TarTree::LoadOptions());
    if (!rec.ok() ||
        !verifier->VerifyTarTree(*rec.ValueOrDie(), nullptr).ok()) {
      std::fprintf(stderr, "  torn sync: recovery failed\n");
      ++*violations;
    } else if (ref(acked) == nullptr) {
      std::fprintf(stderr, "  ingest matrix: reference build failed\n");
      ++*violations;
    } else if (!SameQueryAnswers(*rec.ValueOrDie(), *ref(acked),
                                 "torn sync", tear)) {
      ++*divergences;
    }
    std::remove(snap2.c_str());
    std::remove(wal2.c_str());
  }

  std::remove(snap.c_str());
  std::remove(walp.c_str());
  std::remove(cutp.c_str());
  std::printf("  ingest matrix (%s): %zu boundary cuts, %zu torn cuts, "
              "48 flips, torn checkpoint, torn sync\n",
              ToString(backend), cuts.size() + 1, cuts.size());
  return 0;
}

int CrashTest(const std::map<std::string, std::string>& flags) {
  const int rounds = std::atoi(Flag(flags, "rounds", "4").c_str());
  const std::uint64_t seed = std::atoll(Flag(flags, "seed", "42").c_str());
  const double scale = std::atof(Flag(flags, "scale", "0.02").c_str());
  const std::string path = Flag(flags, "path", "crashtest.tart");
  if (rounds <= 0 || scale <= 0.0) return Usage();

  fail::FaultInjector& injector = fail::FaultInjector::Global();
  int violations = 0;
  int divergences = 0;
  analysis::StructureVerifier verifier;

  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t rseed = seed + static_cast<std::uint64_t>(round);
    const TiaBackend backend =
        round % 2 == 0 ? TiaBackend::kMvbt : TiaBackend::kBpTree;
    injector.Clear();
    auto tree = BuildCrashTree(rseed, scale, backend);
    if (tree == nullptr) {
      std::fprintf(stderr, "round %d: cannot build test index\n", round);
      return 2;
    }

    // Clean baseline: save, reload, verify.
    std::stringstream clean_stream;
    if (!tree->Save(clean_stream).ok()) {
      std::fprintf(stderr, "round %d: clean save failed\n", round);
      return 2;
    }
    const std::string clean = clean_stream.str();
    {
      std::stringstream in(clean);
      auto res = TarTree::Load(in);
      if (!res.ok() ||
          !verifier.VerifyTarTree(*res.ValueOrDie(), nullptr).ok()) {
        std::fprintf(stderr, "round %d: clean reload failed\n", round);
        return 2;
      }
    }
    if (!tree->SaveToFile(path).ok()) {
      std::fprintf(stderr, "round %d: cannot write %s\n", round,
                   path.c_str());
      return 2;
    }

    const std::vector<std::size_t> frames = FrameBoundaries(clean);

    // (a) Torn write at every frame: the save must fail, the torn prefix
    // must be rejected, and the good file on disk must survive the
    // attempted overwrite.
    for (std::size_t k = 1; k <= frames.size(); ++k) {
      const std::string spec = "persist.write=torn@" + std::to_string(k) +
                               ";seed=" + std::to_string(rseed);
      if (!injector.Configure(spec).ok()) return 2;
      std::stringstream torn;
      if (tree->Save(torn).ok()) {
        std::fprintf(stderr, "round %d: torn@%zu save reported OK\n", round,
                     k);
        ++violations;
      }
      if (!RejectsCleanly(torn.str(), "torn frame", k)) ++violations;

      // Re-arm: the nth-hit trigger was consumed by the stream save above.
      if (!injector.Configure(spec).ok()) return 2;
      if (tree->SaveToFile(path).ok()) {
        std::fprintf(stderr, "round %d: torn@%zu SaveToFile reported OK\n",
                     round, k);
        ++violations;
      }
      injector.Clear();
      auto still = TarTree::LoadFromFile(path);
      if (!still.ok() ||
          !verifier.VerifyTarTree(*still.ValueOrDie(), nullptr).ok()) {
        std::fprintf(stderr,
                     "round %d: good file destroyed by torn@%zu save\n",
                     round, k);
        ++violations;
      }
    }

    // (b) Failed atomic rename: same survival requirement, and no stray
    // temp file left behind.
    if (!injector.Configure("persist.rename=err").ok()) return 2;
    if (tree->SaveToFile(path).ok()) {
      std::fprintf(stderr, "round %d: rename-faulted save reported OK\n",
                   round);
      ++violations;
    }
    injector.Clear();
    if (std::ifstream(path + ".tmp").good()) {
      std::fprintf(stderr, "round %d: temp file left behind\n", round);
      ++violations;
    }
    {
      auto still = TarTree::LoadFromFile(path);
      if (!still.ok()) {
        std::fprintf(stderr, "round %d: good file lost on rename fault\n",
                     round);
        ++violations;
      }
    }

    // (c) Truncation at (and just after) every frame boundary.
    for (std::size_t cut : frames) {
      for (std::size_t at : {cut, cut + 1, cut + 12}) {
        if (at >= clean.size()) continue;
        if (!RejectsCleanly(clean.substr(0, at), "truncation", at)) {
          ++violations;
        }
      }
    }

    // (d) Sampled single-bit flips: every one must be rejected (each
    // payload byte is under a section CRC, the rest under the file CRC or
    // structural checks).
    Rng rng(rseed);
    const std::size_t samples =
        std::min<std::size_t>(256, clean.size());
    for (std::size_t i = 0; i < samples; ++i) {
      const std::size_t pos = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(clean.size()) - 1));
      std::string flipped = clean;
      flipped[pos] ^= static_cast<char>(1u << (i % 8));
      if (!RejectsCleanly(flipped, "bit flip", pos)) ++violations;
    }

    // (e) Online-ingestion matrix: WAL truncations and flips, torn
    // checkpoint, torn sync (see the header comment and docs/internals.md,
    // "Failure model").
    const int rc = IngestCrashMatrix(path + ".ingest", rseed, backend,
                                     &verifier, &violations, &divergences);
    if (rc != 0) return rc;

    std::printf("round %d (%s): %zu frames torn, %zu cuts, %zu flips -> %s\n",
                round, ToString(backend), frames.size(), 3 * frames.size(),
                samples,
                violations == 0 && divergences == 0 ? "OK" : "VIOLATIONS");
  }

  injector.Clear();
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  if (divergences > 0) {
    // The one thing this harness exists to rule out: recovery silently
    // answering differently from the uninterrupted run.
    std::fprintf(stderr, "crashtest: %d undetected divergence(s)\n",
                 divergences);
    return 2;
  }
  if (violations > 0) {
    std::fprintf(stderr, "crashtest: %d violation(s)\n", violations);
    return 1;
  }
  std::printf("crashtest: all injected faults handled cleanly\n");
  return 0;
}

// ----------------------------------------------------------------------
// chaos: seeded slow-I/O storms against deadline-aware query execution.
// ----------------------------------------------------------------------

/// Run-wide outcome tally, cross-checked against the metrics registry at
/// the end of the sweep.
struct ChaosTally {
  std::size_t completed = 0;
  std::size_t timeouts = 0;
  std::size_t cancels = 0;
  std::size_t partials = 0;
};

/// Seeded probe batch over the deterministic ingest workload's space.
std::vector<KnntaQuery> ChaosQueryBatch(const EpochGrid& grid,
                                        std::uint64_t seed) {
  Rng rng(seed * 977 + 11);
  std::vector<KnntaQuery> queries;
  for (int i = 0; i < 24; ++i) {
    KnntaQuery q;
    q.point = {rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    const std::int64_t first = rng.UniformInt(0, 3);
    const std::int64_t last = rng.UniformInt(first, 6);
    q.interval = {grid.EpochStart(first), grid.EpochEnd(last)};
    q.k = static_cast<std::size_t>(rng.UniformInt(1, 8));
    q.alpha0 = 0.2 + 0.1 * static_cast<double>(rng.UniformInt(0, 5));
    queries.push_back(q);
  }
  return queries;
}

/// Audits one storm's report against the fault-free oracle answers. Every
/// query must either complete bit-identically, return a *labeled* partial
/// whose prefix and score bound are verified against the oracle, or fail
/// with kDeadlineExceeded / kCancelled — and no query may overrun its
/// deadline by more than `eps_ms`. RunParallelQueries sheds nothing, so
/// a kUnavailable here is as unexpected as any other failure.
void CheckChaosReport(const ParallelQueryReport& report,
                      const std::vector<std::vector<KnntaResult>>& expected,
                      const ParallelQueryOptions& popt, double eps_ms,
                      const char* what, std::uint64_t rseed, int* violations,
                      ChaosTally* tally) {
  const unsigned long long rs = static_cast<unsigned long long>(rseed);
  std::size_t timeouts = 0;
  std::size_t cancels = 0;
  std::size_t partials = 0;
  for (std::size_t i = 0; i < report.statuses.size(); ++i) {
    const Status& st = report.statuses[i];
    if (!st.ok()) {
      if (st.IsDeadlineExceeded()) {
        ++timeouts;
      } else if (st.IsCancelled()) {
        ++cancels;
      } else {
        std::fprintf(stderr,
                     "  %s seed %llu query %zu: unexpected failure: %s\n",
                     what, rs, i, st.ToString().c_str());
        ++*violations;
      }
      if (!report.results[i].empty()) {
        std::fprintf(stderr,
                     "  %s seed %llu query %zu: failed query carries %zu "
                     "results\n",
                     what, rs, i, report.results[i].size());
        ++*violations;
      }
    } else {
      const bool partial =
          !report.partial_info.empty() && !report.partial_info[i].completed;
      const std::vector<KnntaResult>& got = report.results[i];
      const std::vector<KnntaResult>& want = expected[i];
      if (!partial) {
        // A completed query must match the oracle bit-for-bit; a size
        // mismatch here is exactly the unlabeled truncation the harness
        // exists to rule out.
        if (!SameResults(got, want)) {
          std::fprintf(stderr,
                       "  %s seed %llu query %zu: completed result "
                       "diverges from oracle (%zu vs %zu results)\n",
                       what, rs, i, got.size(), want.size());
          ++*violations;
        }
      } else {
        ++partials;
        if (report.partial_info[i].cause.ok()) {
          std::fprintf(stderr,
                       "  %s seed %llu query %zu: partial without a "
                       "cause\n",
                       what, rs, i);
          ++*violations;
        }
        if (got.size() > want.size()) {
          std::fprintf(stderr,
                       "  %s seed %llu query %zu: partial longer than the "
                       "oracle answer\n",
                       what, rs, i);
          ++*violations;
        } else {
          const std::vector<KnntaResult> prefix(want.begin(),
                                                want.begin() + got.size());
          if (!SameResults(got, prefix)) {
            std::fprintf(stderr,
                         "  %s seed %llu query %zu: partial prefix "
                         "diverges from oracle\n",
                         what, rs, i);
            ++*violations;
          }
          // Property-1 soundness of the cut: every unreported POI must
          // score at or above the reported frontier bound.
          const double bound = report.partial_info[i].score_bound;
          for (std::size_t j = got.size(); j < want.size(); ++j) {
            if (want[j].score < bound) {
              std::fprintf(stderr,
                           "  %s seed %llu query %zu: unsound partial "
                           "bound %.17g > hidden score %.17g\n",
                           what, rs, i, bound, want[j].score);
              ++*violations;
              break;
            }
          }
        }
      }
    }
    if (popt.budget.deadline_ms > 0.0 &&
        report.query_micros[i] >
            (popt.budget.deadline_ms + eps_ms) * 1000.0) {
      std::fprintf(stderr,
                   "  %s seed %llu query %zu: overran deadline: %.0f us > "
                   "(%.0f + %.0f) ms\n",
                   what, rs, i, report.query_micros[i],
                   popt.budget.deadline_ms, eps_ms);
      ++*violations;
    }
  }
  if (report.timeouts != timeouts || report.cancels != cancels ||
      report.partials != partials) {
    std::fprintf(stderr,
                 "  %s seed %llu: report counters (%zu/%zu/%zu) "
                 "disagree with statuses (%zu/%zu/%zu)\n",
                 what, rs, report.timeouts, report.cancels, report.partials,
                 timeouts, cancels, partials);
    ++*violations;
  }
  tally->completed += report.queries_ok - partials;
  tally->timeouts += timeouts;
  tally->cancels += cancels;
  tally->partials += partials;
}

/// One chaos round: a deterministic store, its sequential-scan oracle, a
/// delay storm over the TIA read path with per-query deadlines and (on
/// alternating seeds) partial degradation or mid-batch cancellation —
/// then a concurrent-ingest storm whose store must recover bit-identically
/// to an uninterrupted run.
int ChaosRound(std::uint64_t rseed, std::size_t threads, double deadline_ms,
               double delay_ms, const std::string& base, int* violations,
               ChaosTally* tally) {
  const unsigned long long rs = static_cast<unsigned long long>(rseed);
  fail::FaultInjector& injector = fail::FaultInjector::Global();
  const TiaBackend backend =
      rseed % 2 == 0 ? TiaBackend::kMvbt : TiaBackend::kBpTree;
  const TarTreeOptions opt = IngestMatrixOptions(backend);
  const std::vector<IngestOp> ops = MakeIngestOps(rseed);
  std::unique_ptr<TarTree> tree = IngestRefTree(opt, ops, ops.size());
  if (tree == nullptr) {
    std::fprintf(stderr, "chaos seed %llu: cannot build tree\n", rs);
    return 2;
  }

  // Fault-free oracle answers from the sequential-scan baseline, which
  // answers bit-identically to the tree (the audit verb's differential
  // guarantee).
  auto bres = BuildScanBaselineFromTree(*tree);
  if (!bres.ok()) {
    std::fprintf(stderr, "chaos seed %llu: cannot build oracle\n", rs);
    return 2;
  }
  std::unique_ptr<ScanBaseline> baseline = std::move(bres).ValueOrDie();
  const std::vector<KnntaQuery> queries =
      ChaosQueryBatch(tree->grid(), rseed);
  std::vector<std::vector<KnntaResult>> expected(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!baseline->Query(queries[i], &expected[i]).ok()) return 2;
  }

  // Worst cooperative-check slack: up to one clock stride of polls, each
  // of which may sit behind a delayed page fetch, plus generous headroom
  // for a loaded CI machine.
  const double eps_ms = 500.0 + 64.0 * delay_ms;

  // Storm A: slow TIA reads + per-query deadlines.
  {
    const double probability =
        0.3 + 0.1 * static_cast<double>(rseed % 5);  // 0.3 .. 0.7
    char spec[96];
    std::snprintf(spec, sizeof(spec),
                  "buffer_pool.fetch=delay@%.1f@%.1f;seed=%llu", delay_ms,
                  probability, rs);
    if (!injector.Configure(spec).ok()) return 2;
    ParallelQueryOptions popt;
    popt.num_threads = threads;
    popt.budget.deadline_ms = deadline_ms;
    popt.allow_partial = rseed % 2 == 1;
    CancelToken cancel;
    std::thread canceller;
    if (rseed % 3 == 0) {
      popt.cancel = &cancel;
      canceller = std::thread([&cancel, deadline_ms] {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(deadline_ms / 2.0));
        cancel.Cancel("chaos mid-batch cancel");
      });
    }
    ParallelQueryReport report;
    Status st = RunParallelQueries(*tree, queries, popt, &report);
    injector.Clear();
    if (canceller.joinable()) canceller.join();
    if (!st.ok()) {
      std::fprintf(stderr, "chaos seed %llu: batch driver failed: %s\n", rs,
                   st.ToString().c_str());
      return 2;
    }
    CheckChaosReport(report, expected, popt, eps_ms, "storm", rseed,
                     violations, tally);
  }

  // Storm B: concurrent WAL ingest under an append-delay storm while
  // deadline readers run against the shared-registry process state; the
  // store must then recover bit-identically to an uninterrupted run.
  {
    const std::string snap = base + ".tart";
    const std::string walp = base + ".wal";
    std::remove(snap.c_str());
    std::remove(walp.c_str());
    TarTree store(opt);
    if (!store.SaveToFile(snap).ok()) return 2;
    WalWriterOptions wopt;
    wopt.group_commit_records = 1;
    auto wres = WalWriter::Open(walp, wopt);
    if (!wres.ok()) return 2;
    std::unique_ptr<WalWriter> wal = std::move(wres).ValueOrDie();
    char spec[96];
    std::snprintf(spec, sizeof(spec), "wal.append=delay@%.1f@0.3;seed=%llu",
                  delay_ms / 4.0, rs + 1);
    if (!injector.Configure(spec).ok()) return 2;
    Status ingest_st = Status::OK();
    std::thread ingester([&] {
      for (const IngestOp& op : ops) {
        Status ap = LogIngestOp(&store, wal.get(), op);
        if (!ap.ok()) {
          ingest_st = ap;
          return;
        }
      }
      ingest_st = wal->Sync();
    });
    ParallelQueryOptions popt;
    popt.num_threads = threads;
    popt.budget.deadline_ms = deadline_ms;
    popt.allow_partial = true;
    ParallelQueryReport report;
    Status st = RunParallelQueries(*tree, queries, popt, &report);
    ingester.join();
    injector.Clear();
    if (!st.ok() || !ingest_st.ok()) {
      std::fprintf(stderr, "chaos seed %llu: concurrent ingest failed: %s\n",
                   rs, (!st.ok() ? st : ingest_st).ToString().c_str());
      return 2;
    }
    CheckChaosReport(report, expected, popt, eps_ms, "ingest-storm", rseed,
                     violations, tally);

    auto rec = Recover(snap, walp, TarTree::LoadOptions());
    if (!rec.ok()) {
      std::fprintf(stderr, "chaos seed %llu: recovery failed: %s\n", rs,
                   rec.status().ToString().c_str());
      ++*violations;
    } else if (!SameQueryAnswers(*rec.ValueOrDie(), *tree, "chaos recovery",
                                 rseed)) {
      ++*violations;
    }
    std::remove(snap.c_str());
    std::remove(walp.c_str());
  }
  return 0;
}

// ----------------------------------------------------------------------
// chaos --shard-kill: single-shard fault storms with online self-healing.
// ----------------------------------------------------------------------

void RemoveShardKillFiles(const std::string& prefix, std::size_t shards) {
  for (std::size_t i = 0; i < shards; ++i) {
    const std::string base = prefix + ".shard" + std::to_string(i);
    std::remove((base + ".snapshot").c_str());
    std::remove((base + ".wal").c_str());
    std::remove((base + ".redo").c_str());
  }
}

/// One shard-kill round. Deterministic in `seed`: a durable victim store
/// behind a partial-coverage server with the repair worker on, an
/// in-memory fault-free twin, reader threads hammering both the kill
/// window and the heal, and a WAL fault (even seeds) or a page-fetch
/// fault (odd seeds) scoped to shard seed%shards. Checks: (a) reads keep
/// completing while the fault is armed — healthy shards never drop to
/// zero; (b) the shard quarantines and returns to HEALTHY via background
/// repair, no restart; (c) the healed store answers every probe
/// bit-identically to the twin. Returns 0 clean, 1 on a contained
/// violation, 2 on undetected divergence or a setup error.
int ShardKillRound(std::uint64_t seed, std::size_t shards,
                   std::size_t threads, double window_ms,
                   const std::string& base, int* violations) {
  fail::FaultInjector& injector = fail::FaultInjector::Global();
  injector.Clear();
  const unsigned long long rs = static_cast<unsigned long long>(seed);
  const std::string prefix = base + ".kill" + std::to_string(seed);
  RemoveShardKillFiles(prefix, shards);

  const EpochGrid grid(0, 7 * kSecondsPerDay);
  ShardedStoreOptions sopt;
  sopt.num_shards = shards;
  sopt.tree.node_size_bytes = 512;
  sopt.tree.grid = grid;
  sopt.tree.space =
      Box2::Union(Box2::FromPoint({0, 0}), Box2::FromPoint({100, 100}));
  sopt.fault.retry_backoff_ms = 0.1;
  sopt.fault.repair_backoff_ms = 2.0;
  sopt.fault.repair_backoff_max_ms = 50.0;
  sopt.fault.breaker_seed = seed;
  // Re-admission is gated on the full structural check: MBR containment,
  // aggregate dominance, TIA consistency, the works.
  sopt.fault.repair_verifier = [](const TarTree& tree) {
    return analysis::StructureVerifier().VerifyTarTree(tree);
  };

  ShardedStoreOptions ropt = sopt;  // the fault-free twin, in memory
  auto ref_opened = ShardedStore::Open(ropt);
  sopt.store_prefix = prefix;
  sopt.wal.group_commit_records = 1;
  auto opened = ShardedStore::Open(sopt);
  if (!opened.ok() || !ref_opened.ok()) {
    std::fprintf(stderr, "shard-kill seed %llu: cannot open stores\n", rs);
    return 2;
  }
  std::unique_ptr<ShardedStore> store = std::move(opened).ValueOrDie();
  std::unique_ptr<ShardedStore> twin = std::move(ref_opened).ValueOrDie();

  Rng rng(seed * 977 + 13);
  constexpr std::int64_t kPreloadEpochs = 6;
  constexpr std::int64_t kLiveEpochs = 8;
  for (PoiId id = 1; id <= 48; ++id) {
    Poi p{id, {rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)}};
    std::vector<std::int32_t> h(kPreloadEpochs);
    for (std::int64_t e = 0; e < kPreloadEpochs; ++e) {
      h[e] = static_cast<std::int32_t>(rng.UniformInt(1, 20));
    }
    if (!store->InsertPoi(p, h).ok() || !twin->InsertPoi(p, h).ok()) {
      std::fprintf(stderr, "shard-kill seed %llu: preload failed\n", rs);
      return 2;
    }
  }
  auto epoch_batch = [&](std::int64_t epoch) {
    std::unordered_map<PoiId, std::int64_t> batch;
    for (PoiId id = 1; id <= 48; ++id) {
      if ((id + epoch + seed) % 3 != 0) {
        batch[id] = (id * 7 + epoch + seed) % 11 + 1;
      }
    }
    return batch;
  };

  ServeOptions vopt;
  vopt.partial_coverage = true;
  vopt.auto_repair = true;
  vopt.repair_poll_ms = 1.0;
  ShardedServer server(store.get(), vopt);
  server.Start();

  const std::int64_t total_epochs = kPreloadEpochs + kLiveEpochs;
  std::vector<KnntaQuery> probes;
  for (int i = 0; i < 16; ++i) {
    KnntaQuery q;
    q.point = {rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    q.interval = {grid.EpochStart(rng.UniformInt(0, kPreloadEpochs - 1)),
                  grid.EpochEnd(total_epochs - 1)};
    q.k = 10;
    q.alpha0 = 0.25 + 0.05 * (i % 5);
    probes.push_back(q);
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reader_failures{0};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      std::vector<KnntaResult> results;
      std::size_t i = t;
      while (!stop.load(std::memory_order_acquire)) {
        if (!server.Query(probes[i++ % probes.size()], &results).ok()) {
          reader_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  int rc = 0;
  auto fail = [&](const char* what) {
    std::fprintf(stderr, "shard-kill seed %llu: %s\n", rs, what);
    ++*violations;
    if (rc < 1) rc = 1;
  };

  // A few healthy live epochs, then the kill window.
  std::int64_t epoch = kPreloadEpochs;
  for (int i = 0; i < 2; ++i, ++epoch) {
    if (!server.SubmitEpoch(epoch, epoch_batch(epoch)).ok()) {
      fail("healthy submit rejected");
    }
  }
  server.WaitForIngest();

  const std::size_t victim = seed % shards;
  // Even seeds tear the shard's WAL sync (a write-path fault that kills
  // the writer); odd seeds fail its page fetches (a read-path fault that
  // walks SUSPECT -> QUARANTINED via the strike counter).
  const std::string spec =
      (seed % 2 == 0 ? std::string("wal.torn=torn")
                     : std::string("buffer_pool.fetch=err")) +
      "@shard:" + std::to_string(victim);
  const std::uint64_t reads_before = server.stats().queries_ok;
  if (!injector.Configure(spec + ";seed=" + std::to_string(seed)).ok()) {
    std::fprintf(stderr, "shard-kill seed %llu: cannot arm %s\n", rs,
                 spec.c_str());
    server.Stop();
    return 2;
  }
  // Mutations keep flowing during the window: the victim's sub-batches
  // defer into its redo journal once it quarantines.
  const auto window_end =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double, std::milli>(window_ms);
  while (std::chrono::steady_clock::now() < window_end) {
    if (epoch < kPreloadEpochs + kLiveEpochs - 2) {
      if (!server.SubmitEpoch(epoch, epoch_batch(epoch)).ok()) {
        fail("submit rejected during the kill window");
      }
      ++epoch;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::uint64_t reads_during =
      server.stats().queries_ok - reads_before;
  injector.Clear();

  // (a) Healthy-shard availability: reads completed during the window.
  if (reads_during == 0) fail("reads dropped to zero during the fault");
  // The fault must actually have contained something.
  if (store->fault_stats().quarantines == 0) {
    fail("fault window produced no quarantine");
  }

  // (b) Online self-healing: the repair worker brings every shard back
  // without a restart, and the queued epochs finish draining.
  const auto heal_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < heal_deadline &&
         !store->AllHealthy()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!store->AllHealthy()) fail("shard never returned to HEALTHY");
  for (; epoch < kPreloadEpochs + kLiveEpochs; ++epoch) {
    if (!server.SubmitEpoch(epoch, epoch_batch(epoch)).ok()) {
      fail("submit rejected after heal");
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  server.Stop();
  if (!server.ingest_status().ok()) fail("ingestion died");
  if (reader_failures.load() > 0) {
    fail("partial-coverage reads failed during the storm");
  }

  // The twin replays the same epoch stream fault-free.
  for (std::int64_t e = kPreloadEpochs; e < total_epochs; ++e) {
    if (!twin->AppendEpoch(e, epoch_batch(e)).ok()) {
      std::fprintf(stderr, "shard-kill seed %llu: twin append failed\n", rs);
      return 2;
    }
  }

  // (c) Bit-identity: every probe, strict mode, against the twin. A
  // mismatch here is undetected divergence — the hard exit.
  for (const KnntaQuery& q : probes) {
    std::vector<KnntaResult> got;
    std::vector<KnntaResult> want;
    const Status gs = store->Query(q, &got);
    const Status ws = twin->Query(q, &want);
    if (!gs.ok() || !ws.ok()) {
      std::fprintf(stderr, "shard-kill seed %llu: final query failed: %s\n",
                   rs, (!gs.ok() ? gs : ws).ToString().c_str());
      return 2;
    }
    if (!SameResults(got, want)) {
      std::fprintf(stderr,
                   "shard-kill seed %llu: healed store diverged from the "
                   "fault-free reference (probe at %.2f,%.2f: %zu vs %zu "
                   "results)\n",
                   rs, q.point.x, q.point.y, got.size(), want.size());
      for (std::size_t i = 0; i < got.size() || i < want.size(); ++i) {
        const char* mark =
            (i < got.size() && i < want.size() && got[i].poi == want[i].poi &&
             got[i].aggregate == want[i].aggregate &&
             std::memcmp(&got[i].score, &want[i].score, sizeof(double)) == 0)
                ? " "
                : "*";
        if (i < got.size()) {
          std::fprintf(stderr,
                       "  %s got  [%zu] poi=%lld score=%.17g agg=%lld\n",
                       mark, i, static_cast<long long>(got[i].poi),
                       got[i].score,
                       static_cast<long long>(got[i].aggregate));
        }
        if (i < want.size()) {
          std::fprintf(stderr,
                       "  %s want [%zu] poi=%lld score=%.17g agg=%lld\n",
                       mark, i, static_cast<long long>(want[i].poi),
                       want[i].score,
                       static_cast<long long>(want[i].aggregate));
        }
      }
      // Post-mortem: name the exact (poi, epoch) cells that differ so the
      // lost or duplicated update is identifiable from the log alone.
      for (std::int64_t e = 0; e < total_epochs; ++e) {
        KnntaQuery all = q;
        all.k = 48;
        all.interval = {grid.EpochStart(e), grid.EpochEnd(e)};
        std::vector<KnntaResult> ga;
        std::vector<KnntaResult> wa;
        if (!store->Query(all, &ga).ok() || !twin->Query(all, &wa).ok()) {
          continue;
        }
        std::map<PoiId, std::int64_t> gm;
        std::map<PoiId, std::int64_t> wm;
        for (const KnntaResult& r : ga) gm[r.poi] = r.aggregate;
        for (const KnntaResult& r : wa) wm[r.poi] = r.aggregate;
        for (const auto& [poi, agg] : wm) {
          if (gm[poi] != agg) {
            std::fprintf(stderr,
                         "  epoch %lld poi %lld: got agg %lld, want %lld\n",
                         static_cast<long long>(e),
                         static_cast<long long>(poi),
                         static_cast<long long>(gm[poi]),
                         static_cast<long long>(agg));
          }
        }
      }
      std::fprintf(stderr, "  fault stats: %s\n",
                   store->fault_stats().ToJson().c_str());
      return 2;
    }
  }

  RemoveShardKillFiles(prefix, shards);
  return rc;
}

int ShardKillChaos(const std::map<std::string, std::string>& flags) {
  std::uint64_t first = 1;
  std::uint64_t last = 0;
  std::size_t shards = 0;
  std::size_t threads = 0;
  if (!ParseSeedRange(flags, "chaos --shard-kill", "6", &first, &last) ||
      !ParseCount(flags, "chaos --shard-kill", "shards", "4", &shards) ||
      !ParseCount(flags, "chaos --shard-kill", "threads", "3", &threads)) {
    return 2;
  }
  const double window_ms =
      std::atof(Flag(flags, "window-ms", "150").c_str());
  const std::string base = Flag(flags, "path", "chaos.store");
  if (last < first || shards == 0 || threads == 0 || window_ms <= 0.0) {
    std::fprintf(stderr, "chaos --shard-kill: bad flags\n");
    return 2;
  }

  SetMetricsEnabled(true);
  MetricsRegistry::Global().ResetAll();
  int violations = 0;
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const int before = violations;
    const int rc =
        ShardKillRound(seed, shards, threads, window_ms, base, &violations);
    if (rc == 2) return 2;
    if (violations > before) {
      std::fprintf(stderr,
                   "chaos --shard-kill: FAILED\n  reproduce with: tartool "
                   "chaos --shard-kill --seed %llu --shards %zu --threads "
                   "%zu --window-ms %.0f\n",
                   static_cast<unsigned long long>(seed), shards, threads,
                   window_ms);
    }
  }
  // Containment must be visible in monitoring: every round quarantined
  // at least one shard and repaired it.
  const std::uint64_t rounds = last - first + 1;
  MetricsRegistry& reg = MetricsRegistry::Global();
  if (reg.GetCounter("sharded_store.quarantines")->value() < rounds) {
    std::fprintf(stderr, "chaos --shard-kill: quarantine counter under "
                         "one per round\n");
    ++violations;
  }
  if (reg.GetCounter("sharded_store.repairs")->value() < rounds) {
    std::fprintf(stderr,
                 "chaos --shard-kill: repair counter under one per round\n");
    ++violations;
  }
  std::printf("chaos --shard-kill: %llu seed(s), %llu quarantine(s), %llu "
              "repair(s), %llu repair failure(s)\n",
              static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(
                  reg.GetCounter("sharded_store.quarantines")->value()),
              static_cast<unsigned long long>(
                  reg.GetCounter("sharded_store.repairs")->value()),
              static_cast<unsigned long long>(
                  reg.GetCounter("sharded_store.repair_failures")->value()));
  if (violations > 0) {
    std::fprintf(stderr, "chaos --shard-kill: %d violation(s)\n",
                 violations);
    return 1;
  }
  return 0;
}

int Chaos(const std::map<std::string, std::string>& flags) {
  if (flags.count("shard-kill") != 0) return ShardKillChaos(flags);
  std::uint64_t first = 1;
  std::uint64_t last = 0;
  std::size_t threads = 0;
  if (!ParseSeedRange(flags, "chaos", "8", &first, &last) ||
      !ParseCount(flags, "chaos", "threads", "4", &threads)) {
    return 2;
  }
  const double deadline_ms =
      std::atof(Flag(flags, "deadline-ms", "25").c_str());
  const double delay_ms = std::atof(Flag(flags, "delay-ms", "15").c_str());
  const std::string base = Flag(flags, "path", "chaos.store");
  if (last < first || threads == 0 || deadline_ms <= 0.0 ||
      delay_ms <= 0.0) {
    std::fprintf(stderr, "chaos: bad flags\n");
    return 2;
  }

  // The registry assertions below need collection on, and a clean slate.
  SetMetricsEnabled(true);
  MetricsRegistry::Global().ResetAll();
  int violations = 0;
  ChaosTally tally;
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const int before = violations;
    const int rc = ChaosRound(seed, threads, deadline_ms, delay_ms, base,
                              &violations, &tally);
    if (rc != 0) return rc;
    if (violations > before) {
      std::fprintf(stderr,
                   "chaos: FAILED\n  reproduce with: tartool chaos --seed "
                   "%llu --threads %zu --deadline-ms %.0f --delay-ms %.0f\n",
                   static_cast<unsigned long long>(seed), threads,
                   deadline_ms, delay_ms);
    }
  }

  // Overload must be visible in monitoring, not silent: the registry has
  // to account for every outcome the run observed.
  MetricsRegistry& reg = MetricsRegistry::Global();
  const struct {
    const char* name;
    std::size_t want;
  } counters[] = {{"query.timeouts", tally.timeouts},
                  {"query.cancels", tally.cancels},
                  {"query.partials", tally.partials}};
  for (const auto& c : counters) {
    const std::uint64_t got = reg.GetCounter(c.name)->value();
    if (got != c.want) {
      std::fprintf(stderr, "chaos: metrics %s = %llu, observed %zu\n",
                   c.name, static_cast<unsigned long long>(got), c.want);
      ++violations;
    }
  }
  if (tally.timeouts + tally.partials == 0 && last > first) {
    // A sweep whose storms never produced deadline pressure proves
    // nothing about degradation behaviour.
    std::fprintf(stderr, "chaos: storms produced no deadline pressure\n");
    ++violations;
  }

  std::printf("chaos: %llu seed(s): %zu completed, %zu partial, %zu timed "
              "out, %zu cancelled\n",
              static_cast<unsigned long long>(last - first + 1),
              tally.completed, tally.partials, tally.timeouts, tally.cancels);
  if (violations > 0) {
    std::fprintf(stderr, "chaos: %d violation(s)\n", violations);
    return 1;
  }
  return 0;
}

// ----------------------------------------------------------------------
// audit: differential/metamorphic query-soundness sweep.
// ----------------------------------------------------------------------

int Audit(const std::map<std::string, std::string>& flags) {
  analysis::QueryCheckOptions opt;
  std::size_t epochs = 0;
  std::uint64_t first = 1;
  std::uint64_t last = 0;
  if (!ParseCount(flags, "audit", "queries", "10", &opt.num_queries) ||
      !ParseCount(flags, "audit", "pois", "48", &opt.num_pois) ||
      !ParseCount(flags, "audit", "epochs", "10", &epochs) ||
      !ParseSeedRange(flags, "audit", "50", &first, &last)) {
    return 2;
  }
  opt.num_epochs = static_cast<std::int64_t>(epochs);
  if (last < first || opt.num_queries == 0 || opt.num_pois == 0 ||
      opt.num_epochs <= 0) {
    std::fprintf(stderr, "audit: bad flags\n");
    return 2;
  }

  int failures = 0;
  analysis::QueryCheckReport totals;
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    opt.seed = seed;
    analysis::QueryCheckReport rep;
    Status st = analysis::RunQuerySoundnessCheck(opt, &rep);
    totals.queries += rep.queries;
    totals.differential_checks += rep.differential_checks;
    totals.metamorphic_checks += rep.metamorphic_checks;
    totals.audit.queries += rep.audit.queries;
    totals.audit.certificates += rep.audit.certificates;
    totals.audit.bound_certs += rep.audit.bound_certs;
    totals.audit.dominance_certs += rep.audit.dominance_certs;
    totals.audit.subtree_pois += rep.audit.subtree_pois;
    if (!st.ok()) {
      ++failures;
      std::fprintf(stderr,
                   "audit: FAILED: %s\n"
                   "  reproduce with: tartool audit --seed %llu --queries "
                   "%zu --pois %zu --epochs %lld\n",
                   st.ToString().c_str(),
                   static_cast<unsigned long long>(seed), opt.num_queries,
                   opt.num_pois, static_cast<long long>(opt.num_epochs));
    }
  }
  std::printf("audit: %llu seed(s): %s\n",
              static_cast<unsigned long long>(last - first + 1),
              totals.ToString().c_str());
  if (failures > 0) {
    std::fprintf(stderr, "audit: %d seed(s) failed\n", failures);
    return 1;
  }
  return 0;
}

// ----------------------------------------------------------------------
// serve: sharded server under a mixed read/write load.
// ----------------------------------------------------------------------

int Serve(const std::map<std::string, std::string>& flags) {
  std::size_t shards = 0;
  std::size_t threads = 0;
  std::size_t max_inflight = 0;
  std::size_t checkpoint_every = 0;
  if (!ParseCount(flags, "serve", "shards", "4", &shards) ||
      !ParseCount(flags, "serve", "threads", "4", &threads) ||
      !ParseCount(flags, "serve", "max-inflight", "0", &max_inflight) ||
      !ParseCount(flags, "serve", "checkpoint-every", "0",
                  &checkpoint_every)) {
    return 2;
  }
  const double duration_ms =
      std::atof(Flag(flags, "duration-ms", "2000").c_str());
  const double scale = std::atof(Flag(flags, "scale", "0.02").c_str());
  const std::uint64_t seed = std::atoll(Flag(flags, "seed", "42").c_str());
  const std::int64_t threshold =
      std::atoll(Flag(flags, "threshold", "20").c_str());
  const double deadline_ms =
      std::atof(Flag(flags, "deadline-ms", "0").c_str());
  const std::string store_prefix = Flag(flags, "store", "");
  const double write_interval_ms =
      std::atof(Flag(flags, "write-interval-ms", "5").c_str());
  const bool json = flags.count("json") != 0;
  const bool metrics = flags.count("metrics") != 0;
  const bool partial = flags.count("partial") != 0;
  const std::string out_path = Flag(flags, "out", "");
  if (shards == 0 || threads == 0 || duration_ms <= 0.0 || scale <= 0.0) {
    std::fprintf(stderr, "serve: bad flags\n");
    return 2;
  }
  if (metrics) SetMetricsEnabled(true);

  GeneratorConfig cfg = GwConfig(scale, seed);
  cfg.tail_fraction = 0.08;
  Dataset data = GenerateLbsn(cfg);
  EpochGrid grid(0, 7 * kSecondsPerDay);
  EpochCounts counts = BuildEpochCounts(data, grid);
  std::vector<PoiId> effective = EffectivePois(counts, threshold);
  if (effective.empty() || counts.num_epochs < 2) {
    std::fprintf(stderr,
                 "serve: generated dataset too small (%zu effective POIs, "
                 "%lld epochs); raise --scale or lower --threshold\n",
                 effective.size(),
                 static_cast<long long>(counts.num_epochs));
    return 2;
  }

  // Preload the first half of the history; the second half becomes the
  // live write stream the ingestion thread applies during serving.
  const std::int64_t preload =
      std::max<std::int64_t>(1, counts.num_epochs / 2);
  ShardedStoreOptions sopt;
  sopt.num_shards = shards;
  sopt.tree.grid = grid;
  sopt.tree.space = data.bounds;
  sopt.store_prefix = store_prefix;
  auto opened = ShardedStore::Open(sopt);
  if (!opened.ok()) {
    std::fprintf(stderr, "serve: cannot open store: %s\n",
                 opened.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<ShardedStore> store = std::move(opened).ValueOrDie();
  for (PoiId id : effective) {
    std::vector<std::int32_t> h = counts.counts[id];
    if (h.size() > static_cast<std::size_t>(preload)) h.resize(preload);
    Status st = store->InsertPoi(data.pois[id], h);
    if (!st.ok()) {
      std::fprintf(stderr, "serve: preload of POI %u failed: %s\n", id,
                   st.ToString().c_str());
      return 2;
    }
  }

  MixedLoadOptions mopt;
  mopt.reader_threads = threads;
  mopt.duration_ms = duration_ms;
  mopt.write_interval_ms = write_interval_ms;
  mopt.first_epoch = preload;
  for (std::int64_t e = preload; e < counts.num_epochs; ++e) {
    std::unordered_map<PoiId, std::int64_t> batch;
    for (PoiId id : effective) {
      const std::vector<std::int32_t>& h = counts.counts[id];
      if (static_cast<std::size_t>(e) < h.size() && h[e] > 0) {
        batch[id] = h[e];
      }
    }
    if (!batch.empty()) mopt.epoch_batches.push_back(std::move(batch));
  }
  if (mopt.epoch_batches.empty()) {
    // Degenerate split (all check-ins in the first half): keep the write
    // stream alive with single-visit batches at a few preloaded venues.
    std::unordered_map<PoiId, std::int64_t> batch;
    for (std::size_t i = 0; i < std::min<std::size_t>(8, effective.size());
         ++i) {
      batch[effective[i]] = 1;
    }
    mopt.epoch_batches.push_back(std::move(batch));
  }

  // Query mix over the preloaded history, uniform over the data space.
  Rng rng(seed);
  for (int i = 0; i < 64; ++i) {
    KnntaQuery q;
    q.point = {rng.Uniform(data.bounds.lo[0], data.bounds.hi[0]),
               rng.Uniform(data.bounds.lo[1], data.bounds.hi[1])};
    const std::int64_t first = rng.UniformInt(0, preload - 1);
    q.interval = {grid.EpochStart(first), grid.EpochEnd(preload - 1)};
    q.k = 10;
    q.alpha0 = 0.3;
    mopt.queries.push_back(q);
  }

  ServeOptions vopt;
  vopt.max_inflight = max_inflight;
  vopt.budget.deadline_ms = deadline_ms;
  vopt.checkpoint_every = checkpoint_every;
  vopt.partial_coverage = partial;
  ShardedServer server(store.get(), vopt);
  server.Start();
  MixedLoadReport report;
  Status st = RunMixedLoad(&server, mopt, &report);
  server.Stop();
  if (!st.ok()) {
    std::fprintf(stderr, "serve: ingestion failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }

  std::printf("serve: %zu shards, %zu readers, %.0f ms: %llu reads "
              "(%.0f/s), %llu shed, %llu failed\n",
              store->num_shards(), threads, report.wall_ms,
              static_cast<unsigned long long>(report.reads_ok),
              report.read_qps,
              static_cast<unsigned long long>(report.reads_shed),
              static_cast<unsigned long long>(report.reads_failed));
  std::printf("       %llu epochs ingested (%.1f/s, %.0f ms drain after "
              "the readers), %llu checkpoints, %llu reads completed during "
              "writes\n",
              static_cast<unsigned long long>(report.writes),
              report.write_qps, report.drain_ms,
              static_cast<unsigned long long>(report.checkpoints),
              static_cast<unsigned long long>(report.reads_during_write));
  std::printf("       read latency p50 %.1f us, p95 %.1f us, p99 %.1f us\n",
              report.read_latency.P50(), report.read_latency.P95(),
              report.read_latency.P99());
  const ServerStats sstats = server.stats();
  if (sstats.fault.quarantines > 0 || sstats.reads_partial > 0) {
    std::printf("       %llu quarantine(s), %llu repair(s), %llu partial "
                "read(s), %llu reads during quarantine\n",
                static_cast<unsigned long long>(sstats.fault.quarantines),
                static_cast<unsigned long long>(sstats.fault.repairs),
                static_cast<unsigned long long>(sstats.reads_partial),
                static_cast<unsigned long long>(
                    sstats.reads_during_quarantine));
  }
  if (metrics) {
    // Per-shard health plus the quarantine/repair counters and the
    // repair-latency histogram, as one JSON object.
    std::printf("serve.fault: %s\n", sstats.fault.ToJson().c_str());
    std::printf("metrics registry:\n%s",
                MetricsRegistry::Global().ToText().c_str());
  }
  if (json) {
    const std::string payload =
        report.ToJson("tartool-serve", store->num_shards(), threads);
    if (out_path.empty()) {
      std::printf("%s\n", payload.c_str());
    } else {
      std::ofstream out(out_path);
      if (!out.is_open()) {
        std::fprintf(stderr, "serve: cannot open %s\n", out_path.c_str());
        return 1;
      }
      out << payload << "\n";
      std::printf("wrote %s\n", out_path.c_str());
    }
  }
  return report.reads_ok > 0 && report.reads_failed == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tartool <generate|build|info|check|query|stress|"
               "ingest|recover|crashtest|chaos|audit|serve> [--flags]\n"
               "  generate --preset gw|gs|nyc|la --scale S --out FILE\n"
               "  build    --input FILE --out INDEX [--strategy tar|spa|agg]"
               " [--threshold N] [--epoch-days D] [--backend mvbt|bptree]\n"
               "  info     --index INDEX\n"
               "  check    INDEX [--samples N] [--shallow]\n"
               "  query    --index INDEX --x X --y Y --days D [--k K]"
               " [--alpha A] [--mwa] [--fallback-scan] [--trace]\n"
               "           [--deadline-ms D] [--allow-partial]\n"
               "  stress   --index INDEX --threads N --queries M [--k K]"
               " [--days D] [--alpha A] [--seed S] [--metrics]\n"
               "  ingest   --input FILE --store PREFIX [--strategy tar|spa|"
               "agg] [--threshold N]\n"
               "           [--epoch-days D] [--backend mvbt|bptree]"
               " [--checkpoint-every K] [--metrics]\n"
               "  recover  --store PREFIX [--checkpoint] [--shallow]\n"
               "  crashtest [--rounds N] [--seed S] [--scale F] [--path P]\n"
               "  chaos    [--seed N | --seeds N] [--threads T]"
               " [--deadline-ms D] [--delay-ms M] [--path P]\n"
               "           [--shard-kill [--shards S] [--window-ms W]]\n"
               "  audit    [--seed N | --seeds N] [--queries M] [--pois P]"
               " [--epochs E]\n"
               "  serve    [--shards N] [--threads T] [--duration-ms D]"
               " [--scale S] [--seed N]\n"
               "           [--deadline-ms D] [--max-inflight M]"
               " [--checkpoint-every K] [--store PREFIX]\n"
               "           [--write-interval-ms W] [--partial] [--metrics]"
               " [--json] [--out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  auto flags = ParseFlags(argc, argv, 2);
  if (cmd == "generate") return Generate(flags);
  if (cmd == "build") return Build(flags);
  if (cmd == "info") return Info(flags);
  if (cmd == "check") {
    std::string positional;
    if (argc > 2 && std::strncmp(argv[2], "--", 2) != 0) positional = argv[2];
    return Check(flags, positional);
  }
  if (cmd == "query") return QueryCmd(flags);
  if (cmd == "stress") return Stress(flags);
  if (cmd == "ingest") return Ingest(flags);
  if (cmd == "recover") return RecoverCmd(flags);
  if (cmd == "crashtest") return CrashTest(flags);
  if (cmd == "chaos") return Chaos(flags);
  if (cmd == "audit") return Audit(flags);
  if (cmd == "serve") return Serve(flags);
  return Usage();
}
