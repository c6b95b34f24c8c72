#include "dataflow/sources.h"

#include <algorithm>

namespace streamline {

Result<SourcePoll> VectorSource::Poll(SourceContext* ctx) {
  if (pos_ >= records_.size()) return SourcePoll::kExhausted;
  // Records are contiguous, so emit whole spans: one EmitSpan per
  // watermark interval instead of one Emit per record amortizes the
  // engine's per-emission bookkeeping. Spans are capped so each poll stays
  // a bounded morsel and cancellation stays responsive when watermarks are
  // disabled.
  constexpr uint64_t kMaxSpan = 1024;
  const uint64_t until_wm =
      watermark_every_ > 0 ? watermark_every_ - pos_ % watermark_every_ : 0;
  const uint64_t remaining = records_.size() - pos_;
  uint64_t span = std::min(remaining, kMaxSpan);
  if (watermark_every_ > 0) span = std::min(span, until_wm);
  // Read the cadence timestamp before the span is moved from: a
  // moved-from record's scalar timestamp happens to survive, but don't
  // rely on it.
  const Timestamp last_ts = records_[pos_ + span - 1].timestamp;
  // Emit first, advance pos_ after: a barrier snapshot taken inside
  // EmitSpan (before any span record is pushed) must record these
  // elements as NOT yet consumed, or a restored job would skip them.
  // Moving out is safe: a restored source is a fresh instance built by
  // the factory.
  if (!ctx->EmitSpan(records_.data() + pos_, span)) {
    return SourcePoll::kExhausted;  // cancelled
  }
  pos_ += span;
  if (watermark_every_ > 0 && span == until_wm) ctx->EmitWatermark(last_ts);
  return pos_ < records_.size() ? SourcePoll::kHasMore
                                : SourcePoll::kExhausted;
}

Status VectorSource::SnapshotState(BinaryWriter* w) const {
  w->WriteU64(pos_);
  return Status::Ok();
}

Status VectorSource::RestoreState(BinaryReader* r) {
  auto pos = r->ReadU64();
  if (!pos.ok()) return pos.status();
  pos_ = *pos;
  return Status::Ok();
}

SourceFactory VectorSource::Factory(std::vector<Record> records,
                                    uint64_t watermark_every) {
  return [records = std::move(records), watermark_every](
             int subtask, int parallelism) -> std::unique_ptr<SourceFunction> {
    std::vector<Record> mine;
    for (size_t i = subtask; i < records.size();
         i += static_cast<size_t>(parallelism)) {
      mine.push_back(records[i]);
    }
    return std::make_unique<VectorSource>(std::move(mine), watermark_every);
  };
}

Result<SourcePoll> GeneratorSource::Poll(SourceContext* ctx) {
  // One division per poll restores the watermark cadence from seq_ alone,
  // which is all the checkpoint records.
  const uint64_t until_wm =
      watermark_every_ > 0 ? watermark_every_ - seq_ % watermark_every_ : 0;
  // Stage one batch in the reused scratch buffer and hand it over whole --
  // the per-emission bookkeeping (virtual dispatch, barrier and
  // cancellation checks) is paid once per batch. seq_ advances only
  // after EmitBatch returns, so a barrier snapshot taken at the batch
  // boundary records the first unemitted sequence number and a restored
  // job regenerates exactly the unemitted suffix (fn_ is a pure function
  // of seq).
  uint64_t span = std::max<size_t>(ctx->PreferredBatchSize(), 1);
  if (watermark_every_ > 0) span = std::min<uint64_t>(span, until_wm);
  scratch_.reserve(span);
  bool exhausted = false;
  for (uint64_t k = 0; k < span; ++k) {
    std::optional<Record> r = fn_(seq_ + k);
    if (!r.has_value()) {
      exhausted = true;
      break;
    }
    scratch_.push_back(std::move(*r));
  }
  const uint64_t n = scratch_.size();
  if (n > 0) {
    const Timestamp last_ts = scratch_[n - 1].timestamp;
    if (!ctx->EmitBatch(std::move(scratch_))) return SourcePoll::kExhausted;
    seq_ += n;
    if (watermark_every_ > 0 && until_wm == n) {
      // The batch ended exactly at the cadence point, so the last record
      // is the cadence record -- same watermark a record-by-record source
      // emits.
      ctx->EmitWatermark(last_ts);
    }
  }
  return exhausted ? SourcePoll::kExhausted : SourcePoll::kHasMore;
}

Status GeneratorSource::SnapshotState(BinaryWriter* w) const {
  w->WriteU64(seq_);
  return Status::Ok();
}

Status GeneratorSource::RestoreState(BinaryReader* r) {
  auto seq = r->ReadU64();
  if (!seq.ok()) return seq.status();
  seq_ = *seq;
  return Status::Ok();
}

DisorderedSource::DisorderedSource(GenFn fn, size_t disorder_window,
                                   uint64_t watermark_every, uint64_t seed)
    : fn_(std::move(fn)), disorder_window_(std::max<size_t>(disorder_window, 1)),
      watermark_every_(watermark_every), rng_(seed) {}

Result<SourcePoll> DisorderedSource::Poll(SourceContext* ctx) {
  // Refill the shuffle buffer, then emit one uniformly chosen buffered
  // record per poll. All shuffle state lives in members, so polls resume
  // mid-shuffle no matter which thread drives them.
  while (!exhausted_ && buffer_.size() < disorder_window_) {
    std::optional<Record> r = fn_(seq_);
    if (!r.has_value()) {
      exhausted_ = true;
      break;
    }
    ++seq_;
    buffer_.push_back(std::move(*r));
  }
  if (buffer_.empty()) return SourcePoll::kExhausted;
  const size_t idx = rng_.NextBelow(buffer_.size());
  std::swap(buffer_[idx], buffer_.back());
  Record r = std::move(buffer_.back());
  buffer_.pop_back();
  if (!ctx->Emit(std::move(r))) return SourcePoll::kExhausted;
  ++emitted_;
  if (watermark_every_ > 0 && emitted_ % watermark_every_ == 0 &&
      !buffer_.empty()) {
    // Everything still buffered may yet be emitted: the safe watermark is
    // the minimum buffered timestamp.
    Timestamp wm = kMaxTimestamp;
    for (const Record& b : buffer_) wm = std::min(wm, b.timestamp);
    ctx->EmitWatermark(wm);
  }
  return SourcePoll::kHasMore;
}

Status DisorderedSource::SnapshotState(BinaryWriter* w) const {
  (void)w;
  return Status::Unimplemented(
      "DisorderedSource is a workload tool and not checkpointable");
}

SourceFactory GeneratorSource::Factory(
    std::string name, std::function<GenFn(int subtask, int parallelism)> make,
    uint64_t watermark_every) {
  return [name = std::move(name), make = std::move(make), watermark_every](
             int subtask, int parallelism) -> std::unique_ptr<SourceFunction> {
    return std::make_unique<GeneratorSource>(
        name + "[" + std::to_string(subtask) + "]", make(subtask, parallelism),
        watermark_every);
  };
}

}  // namespace streamline
