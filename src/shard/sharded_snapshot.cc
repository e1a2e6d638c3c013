#include "shard/sharded_snapshot.h"

#include <utility>

namespace actor {

std::shared_ptr<const ShardedModelSnapshot> ShardedModelSnapshot::Make(
    std::vector<std::shared_ptr<const ModelSnapshot>> shards,
    std::shared_ptr<const ShardMapSnapshot> map, uint64_t version) {
  ACTOR_DCHECK(map != nullptr);
  ACTOR_DCHECK(static_cast<int>(shards.size()) == map->num_shards);
  auto snap = std::shared_ptr<ShardedModelSnapshot>(new ShardedModelSnapshot());
  snap->version_ = version;
  snap->shards_ = std::move(shards);
  snap->map_ = std::move(map);
#if !defined(NDEBUG)
  int32_t total = 0;
  for (int s = 0; s < snap->num_shards(); ++s) {
    ACTOR_DCHECK(snap->shards_[static_cast<std::size_t>(s)] != nullptr);
    total += snap->shards_[static_cast<std::size_t>(s)]->num_units();
  }
  ACTOR_DCHECK(total == snap->map_->num_vertices())
      << "shard snapshots cover " << total << " units, map has "
      << snap->map_->num_vertices();
#endif
  return snap;
}

int32_t ShardedModelSnapshot::num_units() const {
  int32_t n = 0;
  for (const auto& s : shards_) n += s->num_units();
  return n;
}

int32_t ShardedModelSnapshot::dim() const {
  return shards_.empty() ? 0 : shards_.front()->dim();
}

}  // namespace actor
