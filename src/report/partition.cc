#include "src/report/partition.h"

#include <algorithm>
#include <utility>

namespace detector {

PartitionMap PartitionMap::Build(std::vector<NodeId> pingers, size_t num_partitions) {
  PartitionMap out;
  out.num_partitions_ = std::max<size_t>(1, num_partitions);
  std::sort(pingers.begin(), pingers.end());
  pingers.erase(std::unique(pingers.begin(), pingers.end()), pingers.end());
  out.pingers_ = std::move(pingers);
  return out;
}

int PartitionMap::PartitionOf(NodeId pinger) const {
  const auto it = std::lower_bound(pingers_.begin(), pingers_.end(), pinger);
  if (it == pingers_.end() || *it != pinger) {
    return -1;
  }
  return static_cast<int>(static_cast<size_t>(it - pingers_.begin()) % num_partitions_);
}

int PartitionMap::RouteOf(NodeId pinger) const {
  const int mapped = PartitionOf(pinger);
  if (mapped >= 0) {
    return mapped;
  }
  return static_cast<int>(PingerHash(pinger) % num_partitions_);
}

}  // namespace detector
