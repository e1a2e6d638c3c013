#ifndef ACTOR_SHARD_SHARDED_SNAPSHOT_H_
#define ACTOR_SHARD_SHARDED_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/types.h"
#include "serve/model_snapshot.h"
#include "shard/vertex_partitioner.h"
#include "util/logging.h"

namespace actor {

/// Frozen copy of the ShardMap plus the *global* modality resolvers, taken
/// at publish time. The per-shard ModelSnapshots carry only their local
/// rows and local unit names; everything that needs a global view — which
/// shard owns a vertex, which unit a location/hour/word resolves to — lives
/// here. Shared by shared_ptr across delta publishes while the unit set is
/// unchanged, the same trick ModelSnapshot plays with its CatalogState.
///
/// The resolvers ARE the live actor's UnitResolver (copied as one value),
/// the same type a flat online ModelSnapshot resolves through, so a sharded
/// engine and a flat engine seeded from the same model state pick the same
/// seed unit.
struct ShardMapSnapshot : UnitResolver {
  int num_shards = 1;
  std::vector<int32_t> owner;                   // global id -> shard
  std::vector<int32_t> local;                   // global id -> local row
  std::vector<std::vector<VertexId>> globals;   // shard -> local -> global

  int32_t num_vertices() const { return static_cast<int32_t>(owner.size()); }
};

/// A composite of per-shard chunk-COW ModelSnapshots plus the frozen
/// ShardMapSnapshot, all stamped with one model version. Immutable after
/// Make(); queries hold the composite by shared_ptr and see one consistent
/// version across every shard — the per-shard snapshots were all taken at
/// the same batch barrier, so unlike independent per-shard stores there is
/// no torn read across shards.
class ShardedModelSnapshot {
 public:
  static std::shared_ptr<const ShardedModelSnapshot> Make(
      std::vector<std::shared_ptr<const ModelSnapshot>> shards,
      std::shared_ptr<const ShardMapSnapshot> map, uint64_t version);

  uint64_t version() const { return version_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  const std::shared_ptr<const ModelSnapshot>& shard(int s) const {
    ACTOR_DCHECK(s >= 0 && s < num_shards()) << "shard " << s;
    return shards_[static_cast<std::size_t>(s)];
  }

  const ShardMapSnapshot& map() const { return *map_; }
  const std::shared_ptr<const ShardMapSnapshot>& map_ptr() const {
    return map_;
  }

  /// Total units across shards.
  int32_t num_units() const;
  int32_t dim() const;

 private:
  ShardedModelSnapshot() = default;

  uint64_t version_ = 0;
  std::vector<std::shared_ptr<const ModelSnapshot>> shards_;
  std::shared_ptr<const ShardMapSnapshot> map_;
};

/// Atomic publish/acquire slot for the composite snapshot (the serving
/// layer's SnapshotSlot). Publishing the composite as ONE pointer swap is
/// what keeps cross-shard consistency: readers can never observe shard A
/// at version v+1 next to shard B at v.
using ShardedSnapshotStore = SnapshotSlot<ShardedModelSnapshot>;

}  // namespace actor

#endif  // ACTOR_SHARD_SHARDED_SNAPSHOT_H_
