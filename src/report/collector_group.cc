#include "src/report/collector_group.h"

#include <algorithm>
#include <utility>

namespace detector {

CollectorGroup::CollectorGroup(ObservationStore& store, PartitionMap map,
                               CollectorGroupOptions options)
    : map_(std::move(map)) {
  const size_t n = std::max<size_t>(1, options.num_collectors);
  collectors_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto collector = std::make_unique<Collector>(store, options.collector);
    collector->SetPartition(&map_, static_cast<int>(i));
    collector->set_store_open_mutex(&store_open_mu_);
    collectors_.push_back(std::move(collector));
  }
}

void CollectorGroup::Repartition(PartitionMap map) {
  map_ = std::move(map);
  // Collectors hold a pointer to map_, which is stable; re-install anyway so a partition
  // count mismatch (caller error) is at least consistent per instance.
  for (size_t i = 0; i < collectors_.size(); ++i) {
    collectors_[i]->SetPartition(&map_, static_cast<int>(i));
  }
}

void CollectorGroup::BeginWindow(uint64_t window_id) {
  for (auto& collector : collectors_) {
    collector->BeginWindow(window_id);
  }
}

void CollectorGroup::AdvanceBoundary() {
  for (auto& collector : collectors_) {
    collector->AdvanceBoundary();
  }
}

CollectorStats CollectorGroup::stats() const {
  CollectorStats total;
  for (const auto& collector : collectors_) {
    const CollectorStats s = collector->stats();
    total.frames_folded += s.frames_folded;
    total.observations_folded += s.observations_folded;
    total.duplicates_dropped += s.duplicates_dropped;
    total.decode_errors += s.decode_errors;
    total.tampered_dropped += s.tampered_dropped;
    total.stale_window_dropped += s.stale_window_dropped;
    total.queue_overflow_dropped += s.queue_overflow_dropped;
    total.unknown_slot_dropped += s.unknown_slot_dropped;
    total.rtt_bins_mismatch_dropped += s.rtt_bins_mismatch_dropped;
    total.unknown_records += s.unknown_records;
    total.wrong_partition_dropped += s.wrong_partition_dropped;
    total.window_advances += s.window_advances;
    total.frames_straddled += s.frames_straddled;
    total.max_fold_staleness = std::max(total.max_fold_staleness, s.max_fold_staleness);
    total.pingers_tracked += s.pingers_tracked;
    total.stale_pingers += s.stale_pingers;
  }
  return total;
}

std::vector<NodeId> CollectorGroup::StalePingers() const {
  std::vector<NodeId> stale;
  for (const auto& collector : collectors_) {
    const std::vector<NodeId> s = collector->StalePingers();
    stale.insert(stale.end(), s.begin(), s.end());
  }
  // Partitions are disjoint, so this is a merge, not a dedup.
  std::sort(stale.begin(), stale.end());
  return stale;
}

size_t CollectorGroup::queued() const {
  size_t total = 0;
  for (const auto& collector : collectors_) {
    total += collector->queued();
  }
  return total;
}

}  // namespace detector
