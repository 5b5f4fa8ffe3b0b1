// Spatial sharding primitives for intra-replication parallelism
// (DESIGN.md §15).
//
// ShardGrid partitions the cell grid into K spatially contiguous, balanced
// groups (sort by x, then y, then index; chunk). The partition only decides
// WHICH thread computes a cell's subframe work — merge order at the
// subframe barrier is always global cell-index order, so the partition has
// no effect on results.
#pragma once

#include <cstddef>
#include <vector>

#include "cellfi/common/geometry.h"

namespace cellfi {

/// Balanced spatially contiguous partition of the cell grid.
class ShardGrid {
 public:
  /// Partition `cell_positions.size()` cells into at most `shards` groups
  /// (clamped to [1, cell count]). Deterministic for a given input.
  ShardGrid(const std::vector<Point>& cell_positions, int shards);

  int num_shards() const { return static_cast<int>(cells_.size()); }
  int shard_of(int cell) const { return shard_of_[static_cast<std::size_t>(cell)]; }
  /// Cell indices owned by `shard`, ascending.
  const std::vector<int>& cells(int shard) const {
    return cells_[static_cast<std::size_t>(shard)];
  }

 private:
  std::vector<int> shard_of_;
  std::vector<std::vector<int>> cells_;
};

}  // namespace cellfi
