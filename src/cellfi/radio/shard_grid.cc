#include "cellfi/radio/shard_grid.h"

#include <algorithm>
#include <numeric>

namespace cellfi {

ShardGrid::ShardGrid(const std::vector<Point>& cell_positions, int shards) {
  const std::size_t n = cell_positions.size();
  std::size_t k = shards < 1 ? 1 : static_cast<std::size_t>(shards);
  if (n > 0 && k > n) k = n;
  if (n == 0) k = 1;

  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Point& pa = cell_positions[static_cast<std::size_t>(a)];
    const Point& pb = cell_positions[static_cast<std::size_t>(b)];
    if (pa.x != pb.x) return pa.x < pb.x;
    if (pa.y != pb.y) return pa.y < pb.y;
    return a < b;  // total order: ties (co-located cells) break by index
  });

  shard_of_.assign(n, 0);
  cells_.assign(k, {});
  const std::size_t base = n / k;
  const std::size_t rem = n % k;
  std::size_t pos = 0;
  for (std::size_t s = 0; s < k; ++s) {
    const std::size_t take = base + (s < rem ? 1 : 0);
    for (std::size_t i = 0; i < take; ++i) {
      const int cell = order[pos++];
      shard_of_[static_cast<std::size_t>(cell)] = static_cast<int>(s);
      cells_[s].push_back(cell);
    }
    std::sort(cells_[s].begin(), cells_[s].end());
  }
}

}  // namespace cellfi
