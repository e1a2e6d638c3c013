#ifndef ACTOR_CORE_ONLINE_EDGE_STORE_H_
#define ACTOR_CORE_ONLINE_EDGE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "util/logging.h"

namespace actor {

/// Open-addressing map from a packed vertex pair to a uint32 edge slot:
/// one flat power-of-two bucket array, linear probing, and backward-shift
/// erase (no tombstones, so probe chains never degrade). Only Reserve()
/// allocates; FindOrAdd()/Erase() work in place, which is what lets the
/// edge store's Accumulate/Decay run on the shard pool.
class PairIndex {
 public:
  /// Never a key: packed pairs of valid (non-negative) ids have both
  /// 32-bit halves below 2^31.
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  /// Makes room for `n` keys at load <= 1/2, rehashing into a larger
  /// bucket array when needed. Never shrinks.
  void Reserve(std::size_t n);

  /// The slot mapped to `key`, or null.
  uint32_t* Find(uint64_t key) {
    return const_cast<uint32_t*>(std::as_const(*this).Find(key));
  }
  const uint32_t* Find(uint64_t key) const;

  /// The slot mapped to `key`, after mapping it to `slot` when absent;
  /// `second` tells whether it was added. Never grows: the caller must
  /// have Reserve()d room for the key.
  std::pair<uint32_t*, bool> FindOrAdd(uint64_t key, uint32_t slot);

  /// Removes `key`; returns whether it was present.
  bool Erase(uint64_t key);

  std::size_t size() const { return size_; }
  std::size_t bucket_count() const { return buckets_.size(); }
  /// The bucket where `key`'s probe starts (bucket_count() > 0).
  std::size_t HomeBucket(uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

 private:
  struct Bucket {
    uint64_t key = kEmpty;
    uint32_t slot = 0;
  };

  std::size_t mask() const { return buckets_.size() - 1; }

  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(bucket_count())
};

/// Decaying undirected co-occurrence edge store for one edge type of the
/// streaming pipeline (docs/streaming.md).
///
/// The store keeps live edges in *flat, index-stable arrays* (`src`/`dst`/
/// raw weights) plus a flat pair index, so the per-batch re-embed cycle can
/// rebuild its alias sampler straight from a contiguous weight array
/// instead of re-flattening a hash map.
///
/// Two structural properties make the decay cycle cheap:
///
/// * **Lazy uniform decay.** `Decay(f)` multiplies one scalar
///   (`weight_scale()`), not every weight: effective weight = raw x scale.
///   Because the decay is uniform, the *relative* sampling distribution —
///   and therefore any alias table built over the raw weights — is
///   unchanged by decay alone. Only edge drops and `Accumulate()` calls
///   invalidate samplers, which is what `version()` tracks.
/// * **Swap-remove compaction.** Edges whose effective weight falls below
///   `min_weight` are dropped by swapping the last live edge into their
///   slot, so the arrays stay dense with no tombstones.
///
/// Per-vertex decayed degrees (the d^(3/4) negative-sampling masses) are
/// maintained incrementally under the same uniform-scale trick, in a dense
/// array indexed by global vertex id.
///
/// Allocation: only Reserve() allocates. Accumulate() and Decay() work in
/// the capacity it made, so the online actor can run them on its shard
/// pool (docs/sharding.md); an Accumulate() past that capacity aborts
/// rather than corrupting memory.
///
/// Thread-compatibility: mutations are single-threaded (one shard's
/// prepare); during the re-embed phase the store is read-only and safe to
/// read from any number of worker threads.
class OnlineEdgeStore {
 public:
  OnlineEdgeStore() = default;

  /// Sets the drop threshold for decayed edges. Must be > 0 (a zero
  /// threshold would let edges decay toward denormal weights forever).
  void set_min_weight(double min_weight) {
    ACTOR_DCHECK(min_weight > 0.0)
        << "min_weight must be > 0, got " << min_weight;
    min_weight_ = min_weight;
  }
  double min_weight() const { return min_weight_; }

  /// Makes room for `extra_edges` more live edges than size() (growing to
  /// twice that when it must grow) and for every vertex id below
  /// `num_vertices`. Never shrinks; the only call that allocates.
  void Reserve(std::size_t extra_edges, int32_t num_vertices);

  /// Adds `w` (effective) to the undirected edge {a, b}, creating it when
  /// absent. Self-loops and invalid endpoints are caller bugs; both
  /// endpoints and a new edge must fit the Reserve()d capacity.
  void Accumulate(VertexId a, VertexId b, double w = 1.0);

  /// Multiplies every live weight by `factor` in (0, 1] (O(1) via the
  /// shared scale), then drops edges whose effective weight fell below
  /// min_weight(). factor == 1 is a no-op (the "never forget" mode).
  void Decay(double factor);

  /// Number of live undirected edges.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Endpoint arrays, index-aligned with raw_weights(). For entry i the
  /// canonical orientation is src()[i] < dst()[i]; samplers that need both
  /// directions draw the orientation separately.
  std::span<const VertexId> src() const { return {src_.data(), size_}; }
  std::span<const VertexId> dst() const { return {dst_.data(), size_}; }

  /// Raw (pre-scale) weights. Proportional to the effective weights — an
  /// alias table built over them samples the decayed distribution exactly,
  /// with no per-edge multiplication.
  std::span<const double> raw_weights() const {
    return {raw_weight_.data(), size_};
  }

  /// Current uniform scale; effective weight of edge i is
  /// raw_weights()[i] * weight_scale().
  double weight_scale() const { return scale_; }

  /// Effective (decayed) weight of edge i.
  double weight(std::size_t i) const {
    ACTOR_DCHECK(i < size_) << "edge " << i << " of " << size_;
    return raw_weight_[i] * scale_;
  }

  /// Effective weight of the undirected edge {a, b}; 0 when not live.
  double EdgeWeight(VertexId a, VertexId b) const;

  /// Sum of all effective weights.
  double total_weight() const { return total_raw_ * scale_; }

  /// Raw per-vertex decayed degrees (sum of incident raw weights) indexed
  /// by global vertex id over every Reserve()d id, for building the noise
  /// distribution ∝ degree^(3/4); 0 for a vertex with no live edge.
  /// Uniformly scaled like the edge weights, so relative masses survive
  /// decay unchanged.
  std::span<const double> raw_degrees() const { return raw_degree_; }

  /// Reserve()d capacities: live edges, and vertex ids.
  std::size_t edge_capacity() const { return src_.size(); }
  std::size_t vertex_capacity() const { return raw_degree_.size(); }

  /// Monotonic counter bumped whenever the *relative* sampling
  /// distribution changes (Accumulate, or drops during Decay). Uniform
  /// decay alone does not bump it — samplers keyed on version() stay valid
  /// across pure-decay batches.
  uint64_t version() const { return version_; }

  /// Debug-only O(E + V) consistency sweep: cached totals match the
  /// arrays, the pair index is exact, and degrees equal the incident-weight
  /// sums. With `after_decay` the decayed-weight floor is also enforced:
  /// every live effective weight must be >= min_weight (Decay() just
  /// compacted anything below it away; an Accumulate() may legitimately
  /// insert smaller edges between decays). Allocation-free (its degree
  /// scratch is Reserve()d in debug builds). Returns true so it can sit
  /// inside ACTOR_DCHECK.
  bool DebugCheckConsistent(bool after_decay = false) const;

 private:
  static uint64_t PackKey(VertexId a, VertexId b) {
    const uint64_t lo = static_cast<uint32_t>(a < b ? a : b);
    const uint64_t hi = static_cast<uint32_t>(a < b ? b : a);
    return (lo << 32) | hi;
  }

  /// Folds the pending scale into the raw weights when the scale becomes
  /// tiny, preventing raw-weight blow-up on long streams. Distribution-
  /// preserving, so samplers stay valid.
  void RenormalizeIfNeeded();

  double min_weight_ = 0.05;
  double scale_ = 1.0;
  double total_raw_ = 0.0;
  uint64_t version_ = 0;

  // Live edges are [0, size_); the arrays' length is the edge capacity.
  std::size_t size_ = 0;
  std::vector<VertexId> src_;
  std::vector<VertexId> dst_;
  std::vector<double> raw_weight_;
  PairIndex index_;  // packed pair -> slot
  std::vector<double> raw_degree_;
  // DebugCheckConsistent's recomputed degrees (debug builds only).
  mutable std::vector<double> check_degree_;
};

}  // namespace actor

#endif  // ACTOR_CORE_ONLINE_EDGE_STORE_H_
