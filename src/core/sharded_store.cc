#include "core/sharded_store.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "core/ranking.h"
#include "temporal/tia.h"

namespace tar {

namespace {

/// gx as close to sqrt(n) as exactly divides n, so the grid is gx x (n/gx)
/// with no leftover cells.
std::size_t GridColumns(std::size_t n) {
  std::size_t gx = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
  if (gx == 0) gx = 1;
  while (n % gx != 0) --gx;
  return gx;
}

/// Optimistic coherent-cut pin sweeps before falling back to pinning
/// under the writer latch (reader-starvation bound, not a correctness
/// knob).
constexpr int kCoherentPinAttempts = 64;

/// Monotone milliseconds for the circuit breakers (caller-clocked; the
/// epoch is process start, which is all a backoff schedule needs).
double NowMs() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void SleepMs(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

void CountQuarantine() {
  if (MetricsEnabled()) {
    static Counter* const metric =
        MetricsRegistry::Global().GetCounter("sharded_store.quarantines");
    metric->Increment();
  }
}

void CountRepair(bool ok) {
  if (MetricsEnabled()) {
    static Counter* const repairs =
        MetricsRegistry::Global().GetCounter("sharded_store.repairs");
    static Counter* const failures =
        MetricsRegistry::Global().GetCounter("sharded_store.repair_failures");
    (ok ? repairs : failures)->Increment();
  }
}

}  // namespace

ShardedStore::ShardedStore(const ShardedStoreOptions& options)
    : options_(options) {}

Result<std::unique_ptr<ShardedStore>> ShardedStore::Open(
    const ShardedStoreOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  if (options.tree.space.empty()) {
    return Status::InvalidArgument(
        "sharded store requires a configured space: it is the partition "
        "domain and the shared spatial normalizer");
  }
  std::unique_ptr<ShardedStore> store(new ShardedStore(options));
  store->gx_ = GridColumns(options.num_shards);
  store->gy_ = options.num_shards / store->gx_;
  for (std::size_t i = 0; i < options.num_shards; ++i) {
    SnapshotStoreOptions shard;
    shard.tree = options.tree;
    shard.wal = options.wal;
    shard.load = options.load;
    if (!options.store_prefix.empty()) {
      const std::string base =
          options.store_prefix + ".shard" + std::to_string(i);
      shard.snapshot_path = base + ".snapshot";
      shard.wal_path = base + ".wal";
    }
    fail::ScopedShard scope(static_cast<int>(i));
    auto opened = SnapshotStore::Open(shard);
    TAR_RETURN_NOT_OK(opened.status());
    store->shards_.push_back(std::move(opened).ValueOrDie());
    store->states_.push_back(std::make_unique<ShardState>());
    store->states_.back()->breaker = CircuitBreaker(
        options.fault.repair_backoff_ms, options.fault.repair_backoff_max_ms,
        options.fault.repair_jitter, options.fault.breaker_seed ^ i);
  }
  MutexLock lock(&store->writer_mu_);
  for (std::size_t i = 0; i < store->shards_.size(); ++i) {
    TAR_RETURN_NOT_OK(store->LoadRedoJournal(i));
  }
  TAR_RETURN_NOT_OK(store->RebuildRouting());
  return store;
}

std::string ShardedStore::RedoJournalPath(std::size_t i) const {
  return options_.store_prefix + ".shard" + std::to_string(i) + ".redo";
}

Status ShardedStore::LoadRedoJournal(std::size_t i) {
  if (options_.store_prefix.empty()) return Status::OK();
  const std::string path = RedoJournalPath(i);
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe.is_open()) return Status::OK();  // no leftover backlog
  }
  auto reader = WalReader::Open(path);
  TAR_RETURN_NOT_OK(reader.status());
  ShardState& state = *states_[i];
  WalRecord record;
  std::int64_t deferred_total = 0;
  while (reader.ValueOrDie()->Next(&record)) {
    if (record.type != WalRecord::Type::kAppendEpoch) continue;
    RedoEntry entry;
    entry.epoch = record.epoch;
    entry.aggs = record.aggs;
    for (const auto& [poi, agg] : entry.aggs) {
      (void)poi;
      deferred_total += agg;
    }
    state.redo.push_back(std::move(entry));
  }
  if (state.redo.empty()) return Status::OK();
  // Keep journaling behind the loaded backlog so a second crash before
  // repair still loses nothing.
  WalWriterOptions jw = options_.wal;
  jw.group_commit_records = 1;  // a deferred epoch must be durable at once
  auto writer = WalWriter::Open(path, jw);
  TAR_RETURN_NOT_OK(writer.status());
  state.redo_wal = std::move(writer).ValueOrDie();
  state.redo_agg_total.store(deferred_total, std::memory_order_relaxed);
  state.redo_backlog.store(state.redo.size(), std::memory_order_relaxed);
  MutexLock lock(&health_mu_);
  // No breaker penalty: the backlog is not a fresh fault, so the first
  // RepairTick may drain it immediately.
  state.health.store(ShardHealth::kQuarantined, std::memory_order_release);
  state.cause =
      Status::Unavailable("shard " + std::to_string(i) +
                          ": deferred epochs pending from a previous run");
  ++state.quarantines;
  unhealthy_.fetch_add(1, std::memory_order_relaxed);
  epochs_deferred_ += state.redo.size();
  return Status::OK();
}

Status ShardedStore::RebuildRouting() {
  poi_shard_.clear();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    TreeSnapshot snap = shards_[i]->Acquire();
    const TarTree& tree = snap.tree();
    if (tree.root() == TarTree::kInvalidNodeId) continue;
    std::function<Status(TarTree::NodeId)> walk =
        [&](TarTree::NodeId id) -> Status {
      const TarTree::Node& node = tree.node(id);
      for (const TarTree::Entry& e : node.entries) {
        if (node.is_leaf()) {
          auto [it, inserted] =
              poi_shard_.emplace(e.poi, static_cast<std::uint32_t>(i));
          if (!inserted) {
            return Status::Corruption("POI indexed by two shards");
          }
        } else {
          TAR_RETURN_NOT_OK(walk(e.child));
        }
      }
      return Status::OK();
    };
    TAR_RETURN_NOT_OK(walk(tree.root()));
  }
  return Status::OK();
}

std::size_t ShardedStore::ShardOf(const Vec2& pos) const {
  const Box2& space = options_.tree.space;
  const double wx = space.hi[0] - space.lo[0];
  const double wy = space.hi[1] - space.lo[1];
  auto cell = [](double offset, double width, std::size_t n) -> std::size_t {
    if (width <= 0.0 || n <= 1) return 0;
    const double f = offset / width * static_cast<double>(n);
    if (f <= 0.0) return 0;
    const std::size_t c = static_cast<std::size_t>(f);
    return std::min(c, n - 1);  // boundary/outside positions clamp inward
  };
  const std::size_t cx = cell(pos.x - space.lo[0], wx, gx_);
  const std::size_t cy = cell(pos.y - space.lo[1], wy, gy_);
  return cy * gx_ + cx;
}

void ShardedStore::PinCoherentCut(std::vector<TreeSnapshot>* snaps,
                                  std::vector<std::size_t>* missing) const {
  auto pin_all = [&] {
    snaps->clear();
    snaps->resize(shards_.size());
    missing->clear();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (ShardCovered(i)) {
        (*snaps)[i] = shards_[i]->Acquire();
      } else {
        missing->push_back(i);  // slot stays an invalid TreeSnapshot
      }
    }
  };
  for (int attempt = 0; attempt < kCoherentPinAttempts; ++attempt) {
    const std::uint64_t seq = apply_seq_.load(std::memory_order_acquire);
    if (seq % 2 == 0) {
      pin_all();
      // Seqlock validate: if no cross-shard mutation started or finished
      // while we pinned, every snapshot belongs to the same store state.
      // Quarantine marking happens before the publish window of the same
      // batch, so a validated sweep never includes a shard that silently
      // missed the batch.
      if (apply_seq_.load(std::memory_order_acquire) == seq) return;
    }
    std::this_thread::yield();
  }
  // Writers are committing faster than a pin sweep completes; hold them
  // off for one sweep. The latch covers only the N Acquire calls (a few
  // atomics each), never the query work, and readers reach this path
  // only under sustained write pressure. The failed sweep's pins go
  // first: the latch holder may be draining one of those replicas.
  snaps->clear();
  MutexLock lock(&writer_mu_);
  pin_all();
}

Status ShardedStore::InsertPoi(const Poi& poi,
                               const std::vector<std::int32_t>& history) {
  const std::size_t shard = ShardOf(poi.pos);
  MutexLock lock(&writer_mu_);
  if (!ShardCovered(shard)) {
    MutexLock health(&health_mu_);
    return Status::Unavailable(
        "insert refused: shard " + std::to_string(shard) +
        " quarantined: " + states_[shard]->cause.ToString());
  }
  if (poi_shard_.count(poi.id) != 0) {
    return Status::AlreadyExists("POI already indexed");
  }
  // No apply_seq_ bracket: a single-shard publish is atomic from the
  // cut's perspective — any pin sweep sees the store before or after
  // this insert, both real store states.
  Status st;
  {
    fail::ScopedShard scope(static_cast<int>(shard));
    st = shards_[shard]->InsertPoi(poi, history);
  }
  if (!st.ok()) {
    // An insert is a client-facing request: it is reported, not
    // deferred. But a shard whose store died under it is contained.
    if (!shards_[shard]->health_status().ok()) {
      QuarantineShard(shard, st, /*permanent=*/false);
    }
    return st;
  }
  poi_shard_[poi.id] = static_cast<std::uint32_t>(shard);
  return Status::OK();
}

Status ShardedStore::StageWithRetry(
    std::size_t i, std::int64_t epoch,
    const std::unordered_map<PoiId, std::int64_t>& aggs) {
  fail::ScopedShard scope(static_cast<int>(i));
  Status st = shards_[i]->StageEpoch(epoch, aggs);
  for (int attempt = 0; attempt < options_.fault.write_retries && !st.ok();
       ++attempt) {
    // A transient fault on a still-healthy store is worth retrying in
    // place; a dead store only returns its sticky gate again.
    if (!IsTransientFault(st)) break;
    if (!shards_[i]->health_status().ok()) break;
    SleepMs(options_.fault.retry_backoff_ms *
            static_cast<double>(1 << attempt));
    st = shards_[i]->StageEpoch(epoch, aggs);
  }
  return st;
}

Status ShardedStore::DeferEpochLocked(
    std::size_t i, std::int64_t epoch,
    const std::unordered_map<PoiId, std::int64_t>& aggs) {
  ShardState& state = *states_[i];
  if (state.redo.size() >= options_.fault.redo_limit) {
    return Status::Unavailable(
        "shard " + std::to_string(i) + ": redo buffer full (" +
        std::to_string(state.redo.size()) + " deferred epochs)");
  }
  RedoEntry entry;
  entry.epoch = epoch;
  entry.aggs.assign(aggs.begin(), aggs.end());
  std::sort(entry.aggs.begin(), entry.aggs.end());
  std::int64_t entry_total = 0;
  for (const auto& [poi, agg] : entry.aggs) {
    (void)poi;
    entry_total += agg;
  }
  if (!options_.store_prefix.empty()) {
    // Journal before buffering (log-before-mutate for the redo path): a
    // crash while quarantined must not lose deferred epochs.
    if (state.redo_wal == nullptr) {
      WalWriterOptions jw = options_.wal;
      jw.group_commit_records = 1;
      auto writer = WalWriter::Open(RedoJournalPath(i), jw);
      TAR_RETURN_NOT_OK(writer.status());
      state.redo_wal = std::move(writer).ValueOrDie();
    }
    auto lsn =
        state.redo_wal->Append(WalRecord::MakeAppendEpoch(epoch, entry.aggs));
    TAR_RETURN_NOT_OK(lsn.status());
  }
  state.redo.push_back(std::move(entry));
  state.redo_backlog.store(state.redo.size(), std::memory_order_relaxed);
  state.redo_agg_total.fetch_add(entry_total, std::memory_order_relaxed);
  {
    MutexLock health(&health_mu_);
    ++epochs_deferred_;
  }
  return Status::OK();
}

Status ShardedStore::AppendEpoch(
    std::int64_t epoch, const std::unordered_map<PoiId, std::int64_t>& aggs) {
  MutexLock lock(&writer_mu_);
  // Validate the whole batch before any shard mutates, so a bad batch is
  // all-or-nothing across shards (mirrors TarTree::PrevalidateEpoch).
  if (epoch < 0) return Status::InvalidArgument("negative epoch index");
  const TimeInterval extent = options_.tree.grid.EpochExtent(epoch);
  std::vector<std::unordered_map<PoiId, std::int64_t>> split(shards_.size());
  for (const auto& [poi, agg] : aggs) {
    if (agg <= 0) continue;
    auto it = poi_shard_.find(poi);
    if (it == poi_shard_.end()) {
      return Status::InvalidArgument("epoch batch contains unknown POI");
    }
    TAR_RETURN_NOT_OK(Tia::CheckPackable(extent, agg));
    split[it->second][poi] = agg;
  }
  // Coverage is decided ONCE per batch. The read path quarantines
  // without the writer latch, so a per-phase ShardCovered() re-check
  // opens a gap: covered at the defer phase (no redo entry), uncovered
  // by the stage phase (no stage) — the sub-batch would vanish without
  // a trace. A shard judged covered here is staged below even if a
  // reader downgrades it mid-batch (the stage either lands the epoch or
  // fails into the quarantine+defer path); the reverse flip cannot
  // happen, because repair's re-admission needs the writer latch this
  // batch is holding.
  std::vector<char> covered(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    covered[i] = ShardCovered(i) ? 1 : 0;
  }
  // Refuse up front when a down shard's redo buffer cannot take its
  // sub-batch, so a refused batch mutates nothing anywhere.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (split[i].empty() || covered[i] != 0) continue;
    if (states_[i]->redo.size() >= options_.fault.redo_limit) {
      return Status::Unavailable("shard " + std::to_string(i) +
                                 ": redo buffer full; batch refused");
    }
  }
  // Phase 0 — defer the sub-batches of quarantined/recovering shards
  // into their redo buffers: ingestion never stalls on one dead shard.
  // A journal failure mid-loop is returned to the caller; retrying the
  // batch is safe because repair replays each epoch at most once (the
  // digested-horizon skip rule).
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (split[i].empty() || covered[i] != 0) continue;
    TAR_RETURN_NOT_OK(
        DeferEpochLocked(i, epoch, split[i])
            .WithContext("sharded store: deferring epoch to down shard"));
  }
  // Phase 1 — stage on every covered touched shard: prevalidate, log,
  // apply to the invisible standby. Slow (WAL sync, reader drain), but
  // readers keep reading the published versions and the cut stays
  // stable. A shard that fails to stage (after bounded transient
  // retries) is quarantined with the root cause and its sub-batch
  // deferred; the rest of the batch proceeds.
  std::vector<std::size_t> staged;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (split[i].empty() || covered[i] == 0) continue;
    const Status st = StageWithRetry(i, epoch, split[i]);
    if (st.ok()) {
      staged.push_back(i);
      continue;
    }
    QuarantineShard(i, st, /*permanent=*/false);
    const Status defer = DeferEpochLocked(i, epoch, split[i]);
    if (!defer.ok()) {
      // The sub-batch is lost in process: the shard must never be
      // re-admitted from here or it would silently miss this epoch.
      QuarantineShard(
          i,
          defer.WithContext("sharded store: deferral after stage failure "
                            "lost an epoch"),
          /*permanent=*/true);
    }
  }
  // Phase 2 — publish every staged shard inside one brief odd window of
  // the cut seqlock. Each publish is a few atomic stores, so readers
  // retry for microseconds, not for the duration of the applies. Any
  // quarantine above happened before this window: a pin sweep that
  // validates either predates the whole batch or sees it published with
  // the failed shards excluded.
  if (!staged.empty()) {
    apply_seq_.fetch_add(1, std::memory_order_acq_rel);  // cut unstable
    for (std::size_t i : staged) {
      const Status pub = shards_[i]->PublishStaged();
      TAR_DCHECK(pub.ok());  // only fails without a staged record
    }
    apply_seq_.fetch_add(1, std::memory_order_release);  // cut stable again
  }
  // Phase 3 — catch the retired replicas up. Readers are already on the
  // new cut; the epoch is fully published, so a failure here kills only
  // the diverged shard: its WAL holds the epoch durably (no deferral
  // needed) and repair re-opens it from snapshot + log.
  for (std::size_t i : staged) {
    Status cst;
    {
      fail::ScopedShard scope(static_cast<int>(i));
      cst = shards_[i]->CatchUpStaged();
    }
    if (!cst.ok()) {
      QuarantineShard(
          i, cst.WithContext("sharded store: shard diverged after publish"),
          /*permanent=*/false);
    }
  }
  return Status::OK();
}

Status ShardedStore::Checkpoint() {
  MutexLock lock(&writer_mu_);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!ShardCovered(i)) continue;  // durable truth: snapshot + WAL + redo
    fail::ScopedShard scope(static_cast<int>(i));
    TAR_RETURN_NOT_OK(shards_[i]->Checkpoint());
  }
  return Status::OK();
}

Status ShardedStore::Flush() {
  MutexLock lock(&writer_mu_);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!ShardCovered(i)) continue;
    fail::ScopedShard scope(static_cast<int>(i));
    TAR_RETURN_NOT_OK(shards_[i]->Flush());
  }
  return Status::OK();
}

std::size_t ShardedStore::num_pois() const {
  std::vector<TreeSnapshot> snaps;
  std::vector<std::size_t> missing;
  PinCoherentCut(&snaps, &missing);
  std::size_t total = 0;
  for (const TreeSnapshot& snap : snaps) {
    if (snap.valid()) total += snap.tree().num_pois();
  }
  return total;
}

void ShardedStore::QuarantineLocked(ShardState* state, const Status& cause,
                                    bool permanent) const {
  const ShardHealth prev = state->health.load(std::memory_order_acquire);
  if (prev != ShardHealth::kQuarantined && prev != ShardHealth::kRecovering) {
    unhealthy_.fetch_add(1, std::memory_order_relaxed);
    state->health.store(ShardHealth::kQuarantined, std::memory_order_release);
    state->cause = cause;
    state->suspect_strikes = 0;
    ++state->quarantines;
    // Start the breaker's backoff clock: the first repair attempt waits
    // one base backoff, so a crash-looping shard cannot hot-spin
    // repairs.
    state->breaker.RecordFailure(NowMs());
    CountQuarantine();
  }
  if (permanent) {
    state->unrepairable = true;
    state->cause = cause;  // the permanent cause supersedes
  }
}

void ShardedStore::QuarantineShard(std::size_t i, const Status& cause,
                                   bool permanent) const {
  MutexLock lock(&health_mu_);
  QuarantineLocked(states_[i].get(), cause, permanent);
}

void ShardedStore::ReportReadFailure(std::size_t i, const Status& st) const {
  MutexLock lock(&health_mu_);
  ShardState& state = *states_[i];
  const ShardHealth prev = state.health.load(std::memory_order_acquire);
  if (prev == ShardHealth::kQuarantined || prev == ShardHealth::kRecovering) {
    return;  // already contained
  }
  if (!IsTransientFault(st)) {
    // Corruption, dead-store gates, ...: no strike budget.
    QuarantineLocked(&state, st, /*permanent=*/false);
    return;
  }
  state.cause = st;
  if (prev == ShardHealth::kHealthy) {
    state.health.store(ShardHealth::kSuspect, std::memory_order_release);
  }
  if (++state.suspect_strikes >= options_.fault.suspect_threshold) {
    QuarantineLocked(&state, st, /*permanent=*/false);
  }
}

void ShardedStore::ReportReadOk(std::size_t i) const {
  ShardState& state = *states_[i];
  if (state.health.load(std::memory_order_acquire) != ShardHealth::kSuspect) {
    return;  // the hot path: healthy shards never take the latch
  }
  MutexLock lock(&health_mu_);
  if (state.health.load(std::memory_order_acquire) == ShardHealth::kSuspect) {
    state.health.store(ShardHealth::kHealthy, std::memory_order_release);
    state.suspect_strikes = 0;
    state.cause = Status::OK();
  }
}

double ShardedStore::ShardScoreBound(const KnntaQuery& query,
                                     const TarTree::QueryContext& ctx,
                                     std::size_t i) const {
  // The shard's grid cell, extended to infinity on clamped boundary
  // sides: every position routed to the shard lies inside this region,
  // so mindist(q, region) lower-bounds the spatial term of any of its
  // POIs.
  const Box2& space = options_.tree.space;
  const std::size_t cx = i % gx_;
  const std::size_t cy = i / gx_;
  const double wx = (space.hi[0] - space.lo[0]) / static_cast<double>(gx_);
  const double wy = (space.hi[1] - space.lo[1]) / static_cast<double>(gy_);
  const double inf = std::numeric_limits<double>::infinity();
  const double lo_x =
      cx == 0 ? -inf : space.lo[0] + static_cast<double>(cx) * wx;
  const double hi_x =
      cx + 1 == gx_ ? inf : space.lo[0] + static_cast<double>(cx + 1) * wx;
  const double lo_y =
      cy == 0 ? -inf : space.lo[1] + static_cast<double>(cy) * wy;
  const double hi_y =
      cy + 1 == gy_ ? inf : space.lo[1] + static_cast<double>(cy + 1) * wy;
  const double dx =
      std::max({0.0, lo_x - query.point.x, query.point.x - hi_x});
  const double dy =
      std::max({0.0, lo_y - query.point.y, query.point.y - hi_y});
  const double mindist = std::sqrt(dx * dx + dy * dy);
  // Aggregate term: no single POI of the shard can beat the shard's
  // total digested aggregate plus everything still deferred in its redo
  // buffer, so s1 >= 1 - M/gmax. The bound can go negative when the
  // missing shard might hold the global maximum — vacuous but sound.
  const TreeSnapshot snap = shards_[i]->Acquire();
  const std::int64_t digested =
      snap.valid() && !snap.tree().empty() ? snap.tree().global_tia().total()
                                           : 0;
  const double m =
      static_cast<double>(digested) +
      static_cast<double>(
          states_[i]->redo_agg_total.load(std::memory_order_relaxed));
  return ctx.alpha0 * (mindist / ctx.dmax) +
         ctx.alpha1 * (1.0 - m / ctx.gmax);
}

Status ShardedStore::Query(const KnntaQuery& query,
                           std::vector<KnntaResult>* results,
                           AccessStats* stats, QueryDeadline* deadline,
                           ShardCoverage* coverage) const {
  results->clear();
  if (coverage != nullptr) *coverage = ShardCoverage();
  // Same validation, in the same order, as TarTree::Query.
  if (query.k == 0) return Status::InvalidArgument("k must be positive");
  if (query.alpha0 <= 0.0 || query.alpha0 >= 1.0) {
    return Status::InvalidArgument("alpha0 must be in (0, 1)");
  }
  if (!query.interval.Valid()) {
    return Status::InvalidArgument("invalid query interval");
  }

  // Pin a coherent cut up front: one snapshot per covered shard,
  // validated by the apply_seq_ seqlock to span no cross-shard mutation,
  // so the fan-out never merges epoch N from shard i with epoch N-1 from
  // shard j while writers keep publishing new versions underneath.
  // Quarantined/recovering shards are excluded here.
  std::vector<TreeSnapshot> snaps;
  std::vector<std::size_t> missing;
  PinCoherentCut(&snaps, &missing);
  Status first_cause;
  if (!missing.empty()) {
    {
      MutexLock lock(&health_mu_);
      first_cause = states_[missing.front()]->cause;
    }
    if (coverage == nullptr) {
      // Strict mode: fail fast, naming the shard and its root cause.
      return Status::Unavailable("shard " + std::to_string(missing.front()) +
                                 " quarantined: " + first_cause.ToString());
    }
  }

  // Per-shard reads get a bounded in-place retry of transient faults
  // before the failure counts against the shard's health. Deadline trips
  // are query failures, not shard faults: they propagate untouched.
  auto read_with_retry = [&](std::size_t i, auto&& fn) -> Status {
    fail::ScopedShard scope(static_cast<int>(i));
    Status st = fn();
    for (int attempt = 0; attempt < options_.fault.read_retries && !st.ok();
         ++attempt) {
      if (st.IsDeadlineExceeded() || st.IsCancelled()) return st;
      if (!IsTransientFault(st)) break;
      read_retries_.fetch_add(1, std::memory_order_relaxed);
      SleepMs(options_.fault.retry_backoff_ms *
              static_cast<double>(1 << attempt));
      st = fn();
    }
    return st;
  };
  // A terminal per-shard failure either fails the query (strict) or
  // drops the shard from coverage (partial); either way it is reported
  // to the health tracker.
  auto drop_or_fail = [&](std::size_t i, const Status& st) -> Status {
    ReportReadFailure(i, st);
    if (coverage == nullptr) {
      return st.WithContext("sharded store: shard " + std::to_string(i) +
                            " read failed");
    }
    snaps[i].Release();
    missing.push_back(i);
    if (first_cause.ok()) first_cause = st;
    return Status::OK();
  };

  // One shared context for every surviving shard (see the file comment):
  // dmax from the common configured space, gmax from the global maximum
  // aggregate over those shards.
  TarTree::QueryContext ctx;
  ctx.q = query.point;
  ctx.interval = options_.tree.grid.AlignOutward(query.interval);
  ctx.alpha0 = query.alpha0;
  ctx.alpha1 = 1.0 - query.alpha0;
  ctx.dmax = SpatialNormalizer(options_.tree.space);
  std::int64_t gmax = 0;
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    if (!snaps[i].valid()) continue;
    std::int64_t shard_max = 0;
    const Status st = read_with_retry(i, [&]() -> Status {
      auto r = snaps[i].tree().MaxAggregate(ctx.interval, stats, deadline);
      TAR_RETURN_NOT_OK(r.status());
      shard_max = r.ValueOrDie();
      return Status::OK();
    });
    if (st.IsDeadlineExceeded() || st.IsCancelled()) return st;
    if (!st.ok()) {
      TAR_RETURN_NOT_OK(drop_or_fail(i, st));
      continue;
    }
    gmax = std::max(gmax, shard_max);
  }
  ctx.gmax = AggregateNormalizer(gmax);

  // Per-shard top-k suffices: every member of the global top-k is in its
  // own shard's top-k (scores only depend on the shared context).
  std::vector<KnntaResult> merged;
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    if (!snaps[i].valid()) continue;
    std::vector<KnntaResult> part;
    const Status st = read_with_retry(i, [&]() -> Status {
      part.clear();
      return snaps[i].tree().QueryWithContext(query, ctx, &part, stats,
                                              /*trace=*/nullptr, deadline,
                                              /*partial=*/nullptr);
    });
    if (st.IsDeadlineExceeded() || st.IsCancelled()) return st;
    if (!st.ok()) {
      TAR_RETURN_NOT_OK(drop_or_fail(i, st));
      continue;
    }
    ReportReadOk(i);
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const KnntaResult& a, const KnntaResult& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.poi < b.poi;  // the uniform tie-break (PR 7)
            });
  if (merged.size() > query.k) merged.resize(query.k);
  *results = std::move(merged);

  if (coverage != nullptr && !missing.empty()) {
    std::sort(missing.begin(), missing.end());
    coverage->complete = false;
    coverage->missing = missing;
    coverage->cause = first_cause;
    double bound = std::numeric_limits<double>::infinity();
    for (std::size_t i : missing) {
      bound = std::min(bound, ShardScoreBound(query, ctx, i));
    }
    coverage->score_bound = bound;
  }
  return Status::OK();
}

ShardFaultStats ShardedStore::fault_stats() const {
  ShardFaultStats out;
  out.shards.resize(states_.size());
  {
    MutexLock lock(&health_mu_);
    for (std::size_t i = 0; i < states_.size(); ++i) {
      const ShardState& state = *states_[i];
      ShardHealthSnapshot& snap = out.shards[i];
      snap.health = state.health.load(std::memory_order_acquire);
      snap.cause = state.cause;
      snap.quarantines = state.quarantines;
      snap.repairs = state.repairs;
      snap.repair_failures = state.repair_failures;
      snap.redo_backlog = state.redo_backlog.load(std::memory_order_relaxed);
      out.quarantines += state.quarantines;
      out.repairs += state.repairs;
      out.repair_failures += state.repair_failures;
    }
    out.epochs_deferred = epochs_deferred_;
  }
  out.read_retries = read_retries_.load(std::memory_order_relaxed);
  out.repair_latency = repair_latency_.Snapshot();
  return out;
}

std::string ShardFaultStats::ToJson() const {
  std::ostringstream out;
  out << "{\"shards\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardHealthSnapshot& shard = shards[i];
    if (i > 0) out << ",";
    out << "{\"shard\":" << i
        << ",\"health\":\"" << ToString(shard.health) << "\""
        << ",\"quarantines\":" << shard.quarantines
        << ",\"repairs\":" << shard.repairs
        << ",\"repair_failures\":" << shard.repair_failures
        << ",\"redo_backlog\":" << shard.redo_backlog;
    if (!shard.cause.ok()) {
      // Causes quote failpoint specs and paths; strip the quotes rather
      // than escaping (this is a diagnostic label, not a round-trip).
      std::string cause = shard.cause.ToString();
      for (char& c : cause) {
        if (c == '"' || c == '\\' || c == '\n') c = ' ';
      }
      out << ",\"cause\":\"" << cause << "\"";
    }
    out << "}";
  }
  out << "],\"quarantines\":" << quarantines
      << ",\"repairs\":" << repairs
      << ",\"repair_failures\":" << repair_failures
      << ",\"epochs_deferred\":" << epochs_deferred
      << ",\"read_retries\":" << read_retries
      << ",\"repair_latency\":" << repair_latency.ToJson() << "}";
  return out.str();
}

Result<std::int64_t> ShardedStore::MaxDigestedEpoch(std::size_t i) const {
  const TreeSnapshot snap = shards_[i]->Acquire();
  if (!snap.valid() || snap.tree().empty()) {
    return static_cast<std::int64_t>(-1);
  }
  std::vector<TiaRecord> records;
  TAR_RETURN_NOT_OK(snap.tree().global_tia().Records(&records));
  std::int64_t max_epoch = -1;
  for (const TiaRecord& record : records) {
    max_epoch =
        std::max(max_epoch, options_.tree.grid.EpochOf(record.extent.start));
  }
  return max_epoch;
}

Status ShardedStore::RepairShardBody(std::size_t i) {
  fail::ScopedShard scope(static_cast<int>(i));
  SnapshotStore& shard = *shards_[i];
  // Step 1 — when the shard's store itself died (dead replica, dead WAL,
  // abandoned stage), rebuild it from its durable snapshot + WAL via the
  // same path Open takes after a crash. An in-memory store has no log to
  // rebuild from: it stays quarantined for good.
  const Status health = shard.health_status();
  if (!health.ok()) {
    if (options_.store_prefix.empty()) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(i) +
          ": in-memory shard cannot be repaired in process: " +
          health.ToString());
    }
    SnapshotStore::ReopenReport reopen;
    TAR_RETURN_NOT_OK(shard.Reopen(&reopen).WithContext(
        "shard " + std::to_string(i) + " reopen"));
  }
  // Step 2 — replay the deferred backlog. The recovered log may already
  // hold a prefix of it (a stage that died after the WAL append), so
  // entries at or below the tree's digested horizon are skipped: the
  // ingest-resume idempotence rule, sound because the serve contract
  // feeds epochs in monotone order.
  auto digested = MaxDigestedEpoch(i);
  TAR_RETURN_NOT_OK(digested.status());
  std::int64_t horizon = digested.ValueOrDie();
  auto apply_entry = [&](const RedoEntry& entry) -> Status {
    if (entry.epoch <= horizon) return Status::OK();  // already digested
    const std::unordered_map<PoiId, std::int64_t> aggs(entry.aggs.begin(),
                                                       entry.aggs.end());
    TAR_RETURN_NOT_OK(shard.AppendEpoch(entry.epoch, aggs));
    horizon = entry.epoch;
    return Status::OK();
  };
  auto pop_front = [&](const RedoEntry& entry) {
    ShardState& state = *states_[i];
    std::int64_t entry_total = 0;
    for (const auto& [poi, agg] : entry.aggs) {
      (void)poi;
      entry_total += agg;
    }
    state.redo.pop_front();
    state.redo_backlog.store(state.redo.size(), std::memory_order_relaxed);
    state.redo_agg_total.fetch_sub(entry_total, std::memory_order_relaxed);
  };
  for (;;) {
    RedoEntry entry;
    {
      MutexLock lock(&writer_mu_);
      if (states_[i]->redo.empty()) break;
      entry = states_[i]->redo.front();
    }
    // Applied outside the store-wide latch: replay can take WAL syncs
    // and page I/O, and healthy-shard ingestion must not stall on it.
    TAR_RETURN_NOT_OK(apply_entry(entry));
    MutexLock lock(&writer_mu_);
    pop_front(entry);
  }
  // Step 3 — verify before re-admission (wired to the PR-6 structure
  // verifier by the server/tooling; the hook keeps tar_core below
  // tar_analysis in the layering).
  if (options_.fault.repair_verifier) {
    const TreeSnapshot snap = shard.Acquire();
    TAR_RETURN_NOT_OK(options_.fault.repair_verifier(snap.tree())
                          .WithContext("shard " + std::to_string(i) +
                                       " failed verification after repair"));
  }
  // Step 4 — re-admit under the writer latch: drain whatever deferred
  // while we verified, retire the journal, and flip HEALTHY before
  // releasing the latch so no new deferral can slip in after the final
  // drain. Readers were never excluded at any point.
  MutexLock lock(&writer_mu_);
  while (!states_[i]->redo.empty()) {
    const RedoEntry entry = states_[i]->redo.front();
    TAR_RETURN_NOT_OK(apply_entry(entry));
    pop_front(entry);
  }
  if (states_[i]->redo_wal != nullptr) {
    TAR_RETURN_NOT_OK(states_[i]->redo_wal->Truncate());
  }
  MutexLock health_lock(&health_mu_);
  ShardState& state = *states_[i];
  state.health.store(ShardHealth::kHealthy, std::memory_order_release);
  state.cause = Status::OK();
  state.suspect_strikes = 0;
  ++state.repairs;
  state.breaker.RecordSuccess();
  unhealthy_.fetch_sub(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ShardedStore::RepairShard(std::size_t i) {
  if (i >= shards_.size()) {
    return Status::InvalidArgument("no such shard");
  }
  {
    MutexLock lock(&health_mu_);
    ShardState& state = *states_[i];
    if (state.health.load(std::memory_order_acquire) !=
        ShardHealth::kQuarantined) {
      return Status::FailedPrecondition("shard " + std::to_string(i) +
                                        " is not quarantined");
    }
    if (state.unrepairable) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(i) +
          " is not repairable in process: " + state.cause.ToString());
    }
    state.health.store(ShardHealth::kRecovering, std::memory_order_release);
  }
  const auto start = std::chrono::steady_clock::now();
  const Status st = RepairShardBody(i);
  if (st.ok()) {
    repair_latency_.Record(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - start)
                               .count());
    CountRepair(/*ok=*/true);
    return st;
  }
  MutexLock lock(&health_mu_);
  ShardState& state = *states_[i];
  state.health.store(ShardHealth::kQuarantined, std::memory_order_release);
  ++state.repair_failures;
  state.breaker.RecordFailure(NowMs());
  CountRepair(/*ok=*/false);
  return st;
}

std::size_t ShardedStore::RepairTick() {
  if (num_unhealthy() == 0) return 0;
  std::size_t repaired = 0;
  const double now = NowMs();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (states_[i]->health.load(std::memory_order_acquire) !=
        ShardHealth::kQuarantined) {
      continue;
    }
    {
      MutexLock lock(&health_mu_);
      if (states_[i]->unrepairable) continue;
      if (!states_[i]->breaker.AllowAttempt(now)) continue;
    }
    if (RepairShard(i).ok()) ++repaired;
  }
  return repaired;
}

}  // namespace tar
