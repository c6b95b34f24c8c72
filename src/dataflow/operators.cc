#include "dataflow/operators.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace streamline {

// ---------------------------------------------------------------------------
// KeyedReduceOperator

namespace {

/// Binds the keyed-state gauges for one operator subtask (no-ops when the
/// job exposes no registry).
struct StateGauges {
  static void Bind(const OperatorContext& ctx, const std::string& name,
                   Gauge** load, Gauge** probe, Gauge** keys) {
    if (ctx.metrics == nullptr) return;
    const std::string prefix =
        "op." + name + "." + std::to_string(ctx.subtask_index) + ".state.";
    *load = ctx.metrics->GetGauge(prefix + "load_factor");
    *probe = ctx.metrics->GetGauge(prefix + "max_probe");
    *keys = ctx.metrics->GetGauge(prefix + "keys");
  }

  template <typename Map>
  static void Update(const Map& m, Gauge* load, Gauge* probe, Gauge* keys) {
    if (load == nullptr) return;
    load->Set(m.load_factor());
    probe->Set(static_cast<double>(m.max_probe_length()));
    keys->Set(static_cast<double>(m.size()));
  }
};

}  // namespace

Status KeyedReduceOperator::Open(const OperatorContext& ctx) {
  StateGauges::Bind(ctx, name_, &load_gauge_, &probe_gauge_, &keys_gauge_);
  return Status::Ok();
}

void KeyedReduceOperator::ProcessRecord(int, Record&& record,
                                        Collector* out) {
  // Hash-once: the shuffle stamped the key hash; records driven in directly
  // (tests) fall back to hashing here.
  const Value key = key_(record);
  const uint64_t hash =
      record.has_key_hash() ? record.key_hash : KeyHashOf(key);
  changelog_.Upsert(key, hash);
  auto [entry, inserted] = state_.TryEmplace(hash, key, std::move(record));
  if (!inserted) {
    Record reduced = reduce_(entry->second, record);
    reduced.timestamp = std::max(entry->second.timestamp, record.timestamp);
    entry->second = std::move(reduced);
  }
  out->Emit(Record(entry->second));
}

void KeyedReduceOperator::ProcessBatch(int, std::vector<Record>&& batch,
                                       Collector* out) {
  if (batch.empty()) return;
  // Start a fresh cache generation; stale slots read as empty, so clearing
  // between batches costs nothing.
  if (++cache_gen_ == 0) {
    cache_.assign(cache_.size(), CacheSlot{});
    cache_gen_ = 1;
  }
  // Keep the cache a power of two at most half full so linear probing
  // terminates (at most batch.size() distinct keys are inserted per
  // generation).
  size_t want = 16;
  while (want < batch.size() * 2) want <<= 1;
  if (cache_.size() < want) cache_.assign(want, CacheSlot{});
  const size_t mask = cache_.size() - 1;

  batch_out_.clear();
  batch_out_.reserve(batch.size());
  for (Record& record : batch) {
    const Value key = key_(record);
    const uint64_t hash =
        record.has_key_hash() ? record.key_hash : KeyHashOf(key);
    changelog_.Upsert(key, hash);
    std::pair<Value, Record>* entry = nullptr;
    size_t slot = hash & mask;
    for (;;) {
      CacheSlot& s = cache_[slot];
      if (s.gen != cache_gen_) {
        // First time this key is seen in the batch: one real map probe,
        // then memoize the dense entry index (stable -- no erases here).
        auto [e, inserted] = state_.TryEmplace(hash, key, std::move(record));
        s = CacheSlot{hash, static_cast<uint32_t>(e - state_.begin()),
                      cache_gen_};
        if (inserted) {
          // The record itself became the accumulator; nothing to reduce.
          batch_out_.push_back(Record(e->second));
        } else {
          entry = e;
        }
        break;
      }
      // Verify the key on a hash match: distinct keys can share a hash.
      if (s.hash == hash && state_.begin()[s.index].first == key) {
        entry = state_.begin() + s.index;
        break;
      }
      slot = (slot + 1) & mask;
    }
    if (entry != nullptr) {
      Record reduced = reduce_(entry->second, record);
      reduced.timestamp = std::max(entry->second.timestamp, record.timestamp);
      entry->second = std::move(reduced);
      batch_out_.push_back(Record(entry->second));
    }
  }
  batch.clear();
  out->EmitBatch(std::move(batch_out_));
}

void KeyedReduceOperator::ProcessWatermark(Timestamp, Collector*) {
  StateGauges::Update(state_, load_gauge_, probe_gauge_, keys_gauge_);
}

Status KeyedReduceOperator::SnapshotState(BinaryWriter* w) const {
  w->WriteU64(state_.size());
  for (const auto& [key, record] : state_) {
    w->WriteValue(key);
    w->WriteRecord(record);
  }
  return Status::Ok();
}

Status KeyedReduceOperator::RestoreState(BinaryReader* r) {
  auto n = r->ReadU64();
  if (!n.ok()) return n.status();
  state_.clear();
  state_.Reserve(*n);
  for (uint64_t i = 0; i < *n; ++i) {
    auto key = r->ReadValue();
    if (!key.ok()) return key.status();
    auto record = r->ReadRecord();
    if (!record.ok()) return record.status();
    state_.TryEmplace(KeyHashOf(*key), *key, std::move(*record));
  }
  return Status::Ok();
}

Status KeyedReduceOperator::SnapshotDelta(ChangelogSink* sink) {
  for (const KeyedChangelog::Event& ev : changelog_.events()) {
    BinaryWriter w;
    if (ev.op == KeyedChangelog::Op::kErase) {
      w.WriteU8(kDeltaEraseTag);
      w.WriteValue(ev.key);
    } else {
      w.WriteU8(kDeltaUpsertTag);
      w.WriteValue(ev.key);
      const Record* rec = state_.Find(ev.hash, ev.key);
      w.WriteU8(rec != nullptr ? 1 : 0);
      if (rec != nullptr) w.WriteRecord(*rec);
    }
    STREAMLINE_RETURN_IF_ERROR(sink->Append(w.Release()));
  }
  changelog_.Clear();
  return Status::Ok();
}

Status KeyedReduceOperator::ApplyDelta(BinaryReader* r) {
  auto tag = r->ReadU8();
  if (!tag.ok()) return tag.status();
  auto key = r->ReadValue();
  if (!key.ok()) return key.status();
  const uint64_t hash = KeyHashOf(*key);
  if (*tag == kDeltaEraseTag) {
    state_.Erase(hash, *key);
    return Status::Ok();
  }
  if (*tag != kDeltaUpsertTag) {
    return Status::Internal("bad changelog tag " + std::to_string(*tag) +
                            " in '" + name_ + "'");
  }
  auto present = r->ReadU8();
  if (!present.ok()) return present.status();
  auto [entry, inserted] = state_.TryEmplace(hash, *key);
  (void)inserted;
  if (*present != 0) {
    STREAMLINE_RETURN_IF_ERROR(r->ReadRecordInto(&entry->second));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// IntervalJoinOperator

IntervalJoinOperator::IntervalJoinOperator(std::string name,
                                           KeySelector left_key,
                                           KeySelector right_key,
                                           Duration lower, Duration upper)
    : name_(std::move(name)),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      lower_(lower),
      upper_(upper) {
  STREAMLINE_CHECK_LE(lower_, upper_);
}

Status IntervalJoinOperator::Open(const OperatorContext& ctx) {
  StateGauges::Bind(ctx, name_, &load_gauge_, &probe_gauge_, &keys_gauge_);
  return Status::Ok();
}

void IntervalJoinOperator::EmitJoined(const Record& l, const Record& r,
                                      Collector* out) const {
  Record joined;
  joined.timestamp = std::max(l.timestamp, r.timestamp);
  joined.fields.reserve(l.fields.size() + r.fields.size());
  joined.fields.insert(joined.fields.end(), l.fields.begin(), l.fields.end());
  joined.fields.insert(joined.fields.end(), r.fields.begin(), r.fields.end());
  out->Emit(std::move(joined));
}

void IntervalJoinOperator::ProcessRecord(int input, Record&& record,
                                         Collector* out) {
  if (input == 0) {
    const Value key = left_key_(record);
    const uint64_t hash =
        record.has_key_hash() ? record.key_hash : KeyHashOf(key);
    changelog_.Upsert(key, hash);
    KeyBuffers& buf = state_.TryEmplace(hash, key).first->second;
    // Match against buffered right records: r.ts - l.ts in [lower, upper].
    for (const Record& r : buf.right) {
      const Duration d = r.timestamp - record.timestamp;
      if (d >= lower_ && d <= upper_) EmitJoined(record, r, out);
    }
    buf.left.push_back(std::move(record));
  } else {
    const Value key = right_key_(record);
    const uint64_t hash =
        record.has_key_hash() ? record.key_hash : KeyHashOf(key);
    changelog_.Upsert(key, hash);
    KeyBuffers& buf = state_.TryEmplace(hash, key).first->second;
    for (const Record& l : buf.left) {
      const Duration d = record.timestamp - l.timestamp;
      if (d >= lower_ && d <= upper_) EmitJoined(l, record, out);
    }
    buf.right.push_back(std::move(record));
  }
}

void IntervalJoinOperator::ProcessWatermark(Timestamp wm, Collector*) {
  // A left record l can still match future rights r (r.ts >= wm) iff
  // l.ts + upper >= wm; a right record r can still match future lefts iff
  // r.ts - lower >= wm. Evict the rest.
  for (auto it = state_.begin(); it != state_.end();) {
    KeyBuffers& buf = it->second;
    const size_t before = buf.left.size() + buf.right.size();
    while (!buf.left.empty() &&
           (wm != kMaxTimestamp && buf.left.front().timestamp + upper_ < wm)) {
      buf.left.pop_front();
    }
    while (!buf.right.empty() &&
           (wm != kMaxTimestamp &&
            buf.right.front().timestamp - lower_ < wm)) {
      buf.right.pop_front();
    }
    if (wm == kMaxTimestamp || (buf.left.empty() && buf.right.empty())) {
      // Changelog events mirror the structural op sequence: the erase is
      // recorded at the position it happens, in iteration order.
      if (changelog_.enabled()) {
        changelog_.Erase(it->first, KeyHashOf(it->first));
      }
      it = state_.Erase(it);
    } else {
      if (changelog_.enabled() &&
          buf.left.size() + buf.right.size() != before) {
        changelog_.Upsert(it->first, KeyHashOf(it->first));
      }
      ++it;
    }
  }
  StateGauges::Update(state_, load_gauge_, probe_gauge_, keys_gauge_);
}

Status IntervalJoinOperator::SnapshotState(BinaryWriter* w) const {
  w->WriteU64(state_.size());
  for (const auto& [key, buf] : state_) {
    w->WriteValue(key);
    w->WriteU64(buf.left.size());
    for (const Record& r : buf.left) w->WriteRecord(r);
    w->WriteU64(buf.right.size());
    for (const Record& r : buf.right) w->WriteRecord(r);
  }
  return Status::Ok();
}

Status IntervalJoinOperator::RestoreState(BinaryReader* r) {
  auto n = r->ReadU64();
  if (!n.ok()) return n.status();
  state_.clear();
  state_.Reserve(*n);
  for (uint64_t i = 0; i < *n; ++i) {
    auto key = r->ReadValue();
    if (!key.ok()) return key.status();
    KeyBuffers buf;
    auto nl = r->ReadU64();
    if (!nl.ok()) return nl.status();
    for (uint64_t k = 0; k < *nl; ++k) {
      auto rec = r->ReadRecord();
      if (!rec.ok()) return rec.status();
      buf.left.push_back(std::move(*rec));
    }
    auto nr = r->ReadU64();
    if (!nr.ok()) return nr.status();
    for (uint64_t k = 0; k < *nr; ++k) {
      auto rec = r->ReadRecord();
      if (!rec.ok()) return rec.status();
      buf.right.push_back(std::move(*rec));
    }
    state_.TryEmplace(KeyHashOf(*key), *key, std::move(buf));
  }
  return Status::Ok();
}

Status IntervalJoinOperator::SnapshotDelta(ChangelogSink* sink) {
  for (const KeyedChangelog::Event& ev : changelog_.events()) {
    BinaryWriter w;
    if (ev.op == KeyedChangelog::Op::kErase) {
      w.WriteU8(kDeltaEraseTag);
      w.WriteValue(ev.key);
    } else {
      w.WriteU8(kDeltaUpsertTag);
      w.WriteValue(ev.key);
      const KeyBuffers* buf = state_.Find(ev.hash, ev.key);
      w.WriteU8(buf != nullptr ? 1 : 0);
      if (buf != nullptr) {
        w.WriteU64(buf->left.size());
        for (const Record& rec : buf->left) w.WriteRecord(rec);
        w.WriteU64(buf->right.size());
        for (const Record& rec : buf->right) w.WriteRecord(rec);
      }
    }
    STREAMLINE_RETURN_IF_ERROR(sink->Append(w.Release()));
  }
  changelog_.Clear();
  return Status::Ok();
}

Status IntervalJoinOperator::ApplyDelta(BinaryReader* r) {
  auto tag = r->ReadU8();
  if (!tag.ok()) return tag.status();
  auto key = r->ReadValue();
  if (!key.ok()) return key.status();
  const uint64_t hash = KeyHashOf(*key);
  if (*tag == kDeltaEraseTag) {
    state_.Erase(hash, *key);
    return Status::Ok();
  }
  if (*tag != kDeltaUpsertTag) {
    return Status::Internal("bad changelog tag " + std::to_string(*tag) +
                            " in '" + name_ + "'");
  }
  auto present = r->ReadU8();
  if (!present.ok()) return present.status();
  KeyBuffers& buf = state_.TryEmplace(hash, *key).first->second;
  buf.left.clear();
  buf.right.clear();
  if (*present != 0) {
    auto nl = r->ReadU64();
    if (!nl.ok()) return nl.status();
    for (uint64_t k = 0; k < *nl; ++k) {
      auto rec = r->ReadRecord();
      if (!rec.ok()) return rec.status();
      buf.left.push_back(std::move(*rec));
    }
    auto nr = r->ReadU64();
    if (!nr.ok()) return nr.status();
    for (uint64_t k = 0; k < *nr; ++k) {
      auto rec = r->ReadRecord();
      if (!rec.ok()) return rec.status();
      buf.right.push_back(std::move(*rec));
    }
  }
  return Status::Ok();
}

size_t IntervalJoinOperator::buffered() const {
  size_t total = 0;
  for (const auto& [key, buf] : state_) {
    total += buf.left.size() + buf.right.size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// PrintSink (lives here to keep sink.h header-only aside from this)

Status PrintSink::Invoke(const Record& record) {
  MutexLock lock(&mu_);
  std::printf("%s%s\n", prefix_.c_str(), record.ToString().c_str());
  return Status::Ok();
}

}  // namespace streamline
