#include "storage/wal.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/metrics.h"

namespace tar {

namespace {

constexpr std::size_t kFrameHeaderBytes = 16;  // u64 lsn | u32 type | u32 len
constexpr std::size_t kFrameTrailerBytes = 4;  // u32 crc

/// Upper bound on one record payload. Far above any real mutation (an
/// epoch batch of a million POIs is 12 MB); a length beyond it can only
/// come from corruption, so the scan stops instead of trusting it.
constexpr std::uint32_t kMaxPayloadBytes = 64u * 1024 * 1024;

template <typename T>
void AppendPod(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Bounds-checked cursor over one decoded payload.
class PayloadReader {
 public:
  PayloadReader(const char* data, std::size_t size)
      : data_(data), size_(size) {}

  template <typename T>
  [[nodiscard]] Status Pod(T* v, const char* what) {
    if (size_ - off_ < sizeof(T)) {
      return Status::Corruption(std::string("WAL record: truncated ") + what);
    }
    std::memcpy(v, data_ + off_, sizeof(T));
    off_ += sizeof(T);
    return Status::OK();
  }

  std::size_t remaining() const { return size_ - off_; }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t off_ = 0;
};

void EncodePayload(const WalRecord& rec, std::string* out) {
  switch (rec.type) {
    case WalRecord::Type::kInsertPoi: {
      AppendPod(out, rec.poi);
      AppendPod(out, rec.x);
      AppendPod(out, rec.y);
      AppendPod(out, static_cast<std::uint64_t>(rec.history.size()));
      for (std::int32_t c : rec.history) AppendPod(out, c);
      return;
    }
    case WalRecord::Type::kAppendEpoch: {
      AppendPod(out, rec.epoch);
      AppendPod(out, static_cast<std::uint64_t>(rec.aggs.size()));
      for (const auto& [poi, agg] : rec.aggs) {
        AppendPod(out, poi);
        AppendPod(out, agg);
      }
      return;
    }
    case WalRecord::Type::kCheckpoint: {
      AppendPod(out, rec.durable_lsn);
      return;
    }
  }
}

Status DecodePayload(WalRecord::Type type, const char* data, std::size_t size,
                     WalRecord* rec) {
  rec->type = type;
  PayloadReader r(data, size);
  switch (type) {
    case WalRecord::Type::kInsertPoi: {
      std::uint64_t count = 0;
      TAR_RETURN_NOT_OK(r.Pod(&rec->poi, "POI id"));
      TAR_RETURN_NOT_OK(r.Pod(&rec->x, "POI position"));
      TAR_RETURN_NOT_OK(r.Pod(&rec->y, "POI position"));
      TAR_RETURN_NOT_OK(r.Pod(&count, "history size"));
      if (count != r.remaining() / sizeof(std::int32_t) ||
          count * sizeof(std::int32_t) != r.remaining()) {
        return Status::Corruption("WAL record: history size mismatch");
      }
      rec->history.resize(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        TAR_RETURN_NOT_OK(r.Pod(&rec->history[i], "history element"));
      }
      break;
    }
    case WalRecord::Type::kAppendEpoch: {
      std::uint64_t count = 0;
      TAR_RETURN_NOT_OK(r.Pod(&rec->epoch, "epoch index"));
      TAR_RETURN_NOT_OK(r.Pod(&count, "aggregate count"));
      if (count * 12 != r.remaining()) {
        return Status::Corruption("WAL record: aggregate count mismatch");
      }
      rec->aggs.resize(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        TAR_RETURN_NOT_OK(r.Pod(&rec->aggs[i].first, "aggregate POI"));
        TAR_RETURN_NOT_OK(r.Pod(&rec->aggs[i].second, "aggregate value"));
      }
      break;
    }
    case WalRecord::Type::kCheckpoint: {
      TAR_RETURN_NOT_OK(r.Pod(&rec->durable_lsn, "durable LSN"));
      break;
    }
  }
  if (r.remaining() != 0) {
    return Status::Corruption("WAL record: trailing payload bytes");
  }
  return Status::OK();
}

void EncodeFrame(const WalRecord& rec, Lsn lsn, std::string* out) {
  const std::size_t start = out->size();
  AppendPod(out, lsn);
  AppendPod(out, static_cast<std::uint32_t>(rec.type));
  std::string payload;
  EncodePayload(rec, &payload);
  AppendPod(out, static_cast<std::uint32_t>(payload.size()));
  out->append(payload);
  const std::uint32_t crc =
      Crc32c(out->data() + start, out->size() - start);
  AppendPod(out, crc);
}

bool AllZero(const char* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (data[i] != 0) return false;
  }
  return true;
}

}  // namespace

WalRecord WalRecord::MakeInsertPoi(std::uint32_t poi, double x, double y,
                                   std::vector<std::int32_t> history) {
  WalRecord rec;
  rec.type = Type::kInsertPoi;
  rec.poi = poi;
  rec.x = x;
  rec.y = y;
  rec.history = std::move(history);
  return rec;
}

WalRecord WalRecord::MakeAppendEpoch(
    std::int64_t epoch,
    std::vector<std::pair<std::uint32_t, std::int64_t>> aggs) {
  std::sort(aggs.begin(), aggs.end());
  WalRecord rec;
  rec.type = Type::kAppendEpoch;
  rec.epoch = epoch;
  rec.aggs = std::move(aggs);
  return rec;
}

WalRecord WalRecord::MakeEpochBatch(
    std::int64_t epoch,
    const std::unordered_map<std::uint32_t, std::int64_t>& aggs) {
  std::vector<std::pair<std::uint32_t, std::int64_t>> pairs;
  pairs.reserve(aggs.size());
  for (const auto& [poi, agg] : aggs) {
    if (agg > 0) pairs.emplace_back(poi, agg);
  }
  return MakeAppendEpoch(epoch, std::move(pairs));
}

WalRecord WalRecord::MakeCheckpoint(Lsn durable_lsn) {
  WalRecord rec;
  rec.type = Type::kCheckpoint;
  rec.durable_lsn = durable_lsn;
  return rec;
}

const char* ToString(WalRecord::Type type) {
  switch (type) {
    case WalRecord::Type::kInsertPoi:
      return "InsertPoi";
    case WalRecord::Type::kAppendEpoch:
      return "AppendEpoch";
    case WalRecord::Type::kCheckpoint:
      return "Checkpoint";
  }
  return "?";
}

const char* ToString(WalTail tail) {
  switch (tail) {
    case WalTail::kClean:
      return "clean";
    case WalTail::kTorn:
      return "torn";
    case WalTail::kCorrupt:
      return "corrupt";
  }
  return "?";
}

WalScan ScanWal(const std::string& bytes) {
  WalScan scan;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const std::size_t remaining = bytes.size() - off;
    const std::string at = " at byte offset " + std::to_string(off);
    if (remaining < kFrameHeaderBytes) {
      if (AllZero(bytes.data() + off, remaining)) break;  // clean padding
      scan.tail = WalTail::kTorn;
      scan.tail_detail = "partial frame header" + at + " (" +
                         std::to_string(remaining) + " bytes)";
      break;
    }
    if (AllZero(bytes.data() + off, kFrameHeaderBytes)) break;  // padding

    Lsn lsn = 0;
    std::uint32_t type_raw = 0;
    std::uint32_t len = 0;
    std::memcpy(&lsn, bytes.data() + off, sizeof(lsn));
    std::memcpy(&type_raw, bytes.data() + off + 8, sizeof(type_raw));
    std::memcpy(&len, bytes.data() + off + 12, sizeof(len));

    if (type_raw < 1 || type_raw > 3 || len > kMaxPayloadBytes) {
      scan.tail = WalTail::kCorrupt;
      scan.tail_detail = "implausible frame header" + at + " (type " +
                         std::to_string(type_raw) + ", length " +
                         std::to_string(len) + ")";
      break;
    }
    if (remaining < kFrameHeaderBytes + len + kFrameTrailerBytes) {
      scan.tail = WalTail::kTorn;
      scan.tail_detail =
          "incomplete frame" + at + " (header promises " +
          std::to_string(kFrameHeaderBytes + len + kFrameTrailerBytes) +
          " bytes, " + std::to_string(remaining) + " remain)";
      break;
    }

    std::uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, bytes.data() + off + kFrameHeaderBytes + len,
                sizeof(stored_crc));
    const std::uint32_t computed_crc =
        Crc32c(bytes.data() + off, kFrameHeaderBytes + len);
    if (stored_crc != computed_crc) {
      scan.tail = WalTail::kCorrupt;
      scan.tail_detail = "frame checksum mismatch" + at + " (lsn " +
                         std::to_string(lsn) + ")";
      break;
    }
    if (lsn <= scan.last_lsn) {
      scan.tail = WalTail::kCorrupt;
      scan.tail_detail = "non-monotone LSN " + std::to_string(lsn) + at +
                         " (previous " + std::to_string(scan.last_lsn) + ")";
      break;
    }

    WalRecord rec;
    Status decoded =
        DecodePayload(static_cast<WalRecord::Type>(type_raw),
                      bytes.data() + off + kFrameHeaderBytes, len, &rec);
    if (!decoded.ok()) {
      scan.tail = WalTail::kCorrupt;
      scan.tail_detail = decoded.message() + at;
      break;
    }
    rec.lsn = lsn;
    scan.records.push_back(std::move(rec));
    scan.last_lsn = lsn;
    off += kFrameHeaderBytes + len + kFrameTrailerBytes;
    scan.valid_bytes = off;
  }
  return scan;
}

// ---------------------------------------------------------------------------
// WalWriter.

WalWriter::WalWriter(std::string path, const WalWriterOptions& options,
                     Lsn last_lsn)
    : path_(std::move(path)),
      options_(options),
      last_lsn_(last_lsn),
      last_synced_lsn_(last_lsn) {}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& path, const WalWriterOptions& options,
    Lsn resume_after) {
  std::string existing;
  {
    std::ifstream in(path, std::ios::binary);
    if (in.is_open()) {
      std::ostringstream buf;
      buf << in.rdbuf();
      if (in.bad()) return Status::IoError("cannot read " + path);
      existing = buf.str();
    }
  }
  WalScan scan = ScanWal(existing);

  std::unique_ptr<WalWriter> writer(new WalWriter(
      path, options, std::max(scan.last_lsn, resume_after)));
  if (scan.valid_bytes < existing.size()) {
    // Trim the torn/corrupt/padded tail so new frames follow the last
    // valid one (a frame written after garbage would never be reached).
    std::ofstream trim(path, std::ios::binary | std::ios::trunc);
    if (!trim.is_open()) return Status::IoError("cannot open " + path);
    trim.write(existing.data(),
               static_cast<std::streamsize>(scan.valid_bytes));
    trim.flush();
    if (!trim.good()) return Status::IoError("cannot trim " + path);
  }
  {
    MutexLock lock(&writer->mu_);
    writer->out_.open(path, std::ios::binary | std::ios::app);
    if (!writer->out_.is_open()) {
      return Status::IoError("cannot open " + path);
    }
  }
  return writer;
}

Status WalWriter::DeadGateLocked() const {
  if (dead_.ok()) return Status::OK();
  return Status::FailedPrecondition("WAL writer is dead: " +
                                    dead_.ToString());
}

Result<Lsn> WalWriter::Append(const WalRecord& record) {
  MutexLock lock(&mu_);
  TAR_RETURN_NOT_OK(DeadGateLocked());
  TAR_INJECT_FAULT("wal.append");

  const std::size_t before = pending_.size();
  const Lsn lsn = last_lsn_ + 1;
  EncodeFrame(record, lsn, &pending_);
  last_lsn_ = lsn;
  ++pending_records_;

  if (MetricsEnabled()) {
    static Counter* const appends_metric =
        MetricsRegistry::Global().GetCounter("wal.appends");
    static Counter* const bytes_metric =
        MetricsRegistry::Global().GetCounter("wal.bytes");
    appends_metric->Increment();
    bytes_metric->Increment(pending_.size() - before);
  }

  if (pending_records_ >= options_.group_commit_records ||
      pending_.size() >= options_.group_commit_bytes) {
    TAR_RETURN_NOT_OK(SyncLocked());
  }
  return lsn;
}

Status WalWriter::Sync() {
  MutexLock lock(&mu_);
  return SyncLocked();
}

Status WalWriter::SyncLocked() {
  TAR_RETURN_NOT_OK(DeadGateLocked());
  if (pending_.empty()) return Status::OK();

  // The torn/flip site models damage to the physical write of the batch;
  // the sync site models a failed flush. Either failure kills the writer
  // (the file may now end mid-frame) — recovery must take over.
  if (fail::FaultInjector::Global().enabled()) {
    const fail::FireResult fire = fail::FaultInjector::Global().Hit("wal.torn");
    switch (fire.action) {
      case fail::Action::kOff:
        break;
      case fail::Action::kTornWrite: {
        const std::size_t keep = fire.seed % pending_.size();
        out_.write(pending_.data(), static_cast<std::streamsize>(keep));
        out_.flush();
        dead_ = Status::IoError(
            "injected torn write at failpoint wal.torn (persisted " +
            std::to_string(keep) + " of " + std::to_string(pending_.size()) +
            " batch bytes)");
        return dead_;
      }
      case fail::Action::kBitFlip: {
        // The write "succeeds"; the frame CRC pins it down at read time.
        const std::uint64_t bit = fire.seed % (pending_.size() * 8);
        pending_[bit / 8] ^= static_cast<char>(1u << (bit % 8));
        break;
      }
      case fail::Action::kDelay:
        break;  // the sleep already happened inside Hit
      case fail::Action::kError:
      case fail::Action::kAllocFail:
        dead_ = Status::IoError("injected I/O error at failpoint wal.torn");
        return dead_;
    }
    Status st = fail::InjectedFault("wal.sync");
    if (!st.ok()) {
      dead_ = st;
      return dead_;
    }
  }

  out_.write(pending_.data(), static_cast<std::streamsize>(pending_.size()));
  out_.flush();
  if (!out_.good()) {
    dead_ = Status::IoError("WAL write failed: " + path_);
    return dead_;
  }
  pending_.clear();
  pending_records_ = 0;
  last_synced_lsn_ = last_lsn_;

  if (MetricsEnabled()) {
    static Counter* const syncs_metric =
        MetricsRegistry::Global().GetCounter("wal.syncs");
    syncs_metric->Increment();
  }
  return Status::OK();
}

Status WalWriter::Truncate() {
  MutexLock lock(&mu_);
  TAR_RETURN_NOT_OK(DeadGateLocked());
  // Truncation is a durability point of the checkpoint protocol, so it
  // shares the sync failpoint.
  TAR_INJECT_FAULT("wal.sync");
  out_.close();
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_.is_open()) {
    dead_ = Status::IoError("cannot truncate " + path_);
    return dead_;
  }
  pending_.clear();
  pending_records_ = 0;
  last_synced_lsn_ = last_lsn_;
  return Status::OK();
}

Status WalWriter::Reopen(Lsn resume_after, WalReopenReport* report) {
  MutexLock lock(&mu_);
  if (report != nullptr) {
    *report = WalReopenReport{};
    report->prior_death = dead_;
    report->discarded_records = pending_records_;
  }
  out_.close();

  std::string existing;
  {
    std::ifstream in(path_, std::ios::binary);
    if (in.is_open()) {
      std::ostringstream buf;
      buf << in.rdbuf();
      if (in.bad()) {
        dead_ = Status::IoError("cannot read " + path_);
        return dead_;
      }
      existing = buf.str();
    }
  }
  const WalScan scan = ScanWal(existing);
  if (scan.valid_bytes < existing.size()) {
    // The failed sync may have left a torn frame; trim back to the valid
    // prefix so fresh frames never land behind garbage (same rule as
    // Open).
    std::ofstream trim(path_, std::ios::binary | std::ios::trunc);
    if (!trim.is_open()) {
      dead_ = Status::IoError("cannot open " + path_);
      return dead_;
    }
    trim.write(existing.data(),
               static_cast<std::streamsize>(scan.valid_bytes));
    trim.flush();
    if (!trim.good()) {
      dead_ = Status::IoError("cannot trim " + path_);
      return dead_;
    }
    if (report != nullptr) {
      report->trimmed_bytes = existing.size() - scan.valid_bytes;
    }
  }
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_.is_open()) {
    dead_ = Status::IoError("cannot open " + path_);
    return dead_;
  }
  pending_.clear();
  pending_records_ = 0;
  last_lsn_ = std::max(scan.last_lsn, resume_after);
  last_synced_lsn_ = last_lsn_;
  dead_ = Status::OK();
  if (report != nullptr) report->resumed_lsn = last_lsn_;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// WalReader.

Result<std::unique_ptr<WalReader>> WalReader::Open(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IoError("cannot read " + path);
  return std::unique_ptr<WalReader>(new WalReader(ScanWal(buf.str())));
}

bool WalReader::Next(WalRecord* record) {
  if (next_ >= scan_.records.size()) return false;
  *record = scan_.records[next_++];
  return true;
}

}  // namespace tar
