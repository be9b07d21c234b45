#include "trace/recorder.hpp"

#include <algorithm>

namespace ppm::trace {

const char* kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kPhaseBegin: return "phase_begin";
    case EventKind::kPhaseComputeDone: return "phase_compute_done";
    case EventKind::kPhaseCommitted: return "phase_committed";
    case EventKind::kVpBatch: return "vp_batch";
    case EventKind::kCacheHit: return "cache_hit";
    case EventKind::kCacheMiss: return "cache_miss";
    case EventKind::kFetchIssued: return "fetch_issued";
    case EventKind::kFetchDone: return "fetch_done";
    case EventKind::kFetchStall: return "fetch_stall";
    case EventKind::kPrefetchHit: return "prefetch_hit";
    case EventKind::kBundleFlush: return "bundle_flush";
    case EventKind::kAccumFlush: return "accum_flush";
    case EventKind::kAccumApply: return "accum_apply";
    case EventKind::kCommitReduce: return "commit_reduce";
    case EventKind::kMigrationPlan: return "migration_plan";
    case EventKind::kMigrationMove: return "migration_move";
    case EventKind::kMsgSend: return "msg";
    case EventKind::kEngineStep: return "engine_step";
  }
  return "unknown";
}

Recorder::Recorder(uint32_t track, size_t capacity_events)
    : track_(track), ring_(std::max<size_t>(1, capacity_events)) {}

uint32_t Recorder::intern(std::string_view label) {
  for (size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i] == label) return static_cast<uint32_t>(i + 1);
  }
  labels_.emplace_back(label);
  return static_cast<uint32_t>(labels_.size());
}

const std::string& Recorder::label(uint32_t id) const {
  static const std::string kEmpty;
  if (id == 0 || id > labels_.size()) return kEmpty;
  return labels_[id - 1];
}

std::vector<Event> Recorder::ordered() const {
  std::vector<Event> out;
  out.reserve(count_);
  for (size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

Trace::Trace(int nodes, size_t capacity_per_track)
    : engine_(static_cast<uint32_t>(nodes) + 1, capacity_per_track) {
  node_tracks_.reserve(static_cast<size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    node_tracks_.emplace_back(static_cast<uint32_t>(n), capacity_per_track);
  }
}

uint64_t Trace::total_recorded() const {
  uint64_t total = engine_.recorded();
  for (const Recorder& r : node_tracks_) total += r.recorded();
  return total;
}

uint64_t Trace::total_dropped() const {
  uint64_t total = engine_.dropped();
  for (const Recorder& r : node_tracks_) total += r.dropped();
  return total;
}

}  // namespace ppm::trace
