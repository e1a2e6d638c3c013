#include "core/online_edge_store.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace actor {
namespace {

/// Below this scale the raw weights are within ~9 decades of the double
/// overflow cliff on long streams; fold the scale in well before that.
constexpr double kRenormScale = 1e-9;

/// Smallest bucket array a non-empty PairIndex holds.
constexpr std::size_t kMinBuckets = 16;

}  // namespace

void PairIndex::Reserve(std::size_t n) {
  const std::size_t want = std::max(kMinBuckets, std::bit_ceil(2 * n));
  if (want <= buckets_.size()) return;
  std::vector<Bucket> old(want);
  old.swap(buckets_);
  shift_ = 64 - std::countr_zero(want);
  for (const Bucket& b : old) {
    if (b.key == kEmpty) continue;
    std::size_t i = HomeBucket(b.key);
    while (buckets_[i].key != kEmpty) i = (i + 1) & mask();
    buckets_[i] = b;
  }
}

const uint32_t* PairIndex::Find(uint64_t key) const {
  if (buckets_.empty()) return nullptr;
  for (std::size_t i = HomeBucket(key);; i = (i + 1) & mask()) {
    const Bucket& b = buckets_[i];
    if (b.key == key) return &b.slot;
    if (b.key == kEmpty) return nullptr;
  }
}

std::pair<uint32_t*, bool> PairIndex::FindOrAdd(uint64_t key,
                                                uint32_t slot) {
  ACTOR_CHECK(2 * (size_ + 1) <= buckets_.size())
      << "PairIndex add past Reserve(): " << size_ << " keys in "
      << buckets_.size() << " buckets";
  std::size_t i = HomeBucket(key);
  for (; buckets_[i].key != kEmpty; i = (i + 1) & mask()) {
    if (buckets_[i].key == key) return {&buckets_[i].slot, false};
  }
  buckets_[i] = {key, slot};
  ++size_;
  return {&buckets_[i].slot, true};
}

bool PairIndex::Erase(uint64_t key) {
  if (buckets_.empty()) return false;
  std::size_t hole = HomeBucket(key);
  for (; buckets_[hole].key != key; hole = (hole + 1) & mask()) {
    if (buckets_[hole].key == kEmpty) return false;
  }
  // Backward shift: walk the cluster after the hole and move back every
  // entry whose home does not lie cyclically in (hole, j] — such an entry
  // would become unreachable across the hole.
  for (std::size_t j = (hole + 1) & mask(); buckets_[j].key != kEmpty;
       j = (j + 1) & mask()) {
    const std::size_t home = HomeBucket(buckets_[j].key);
    const bool stays =
        hole < j ? (hole < home && home <= j) : (hole < home || home <= j);
    if (stays) continue;
    buckets_[hole] = buckets_[j];
    hole = j;
  }
  buckets_[hole].key = kEmpty;
  --size_;
  return true;
}

void OnlineEdgeStore::Reserve(std::size_t extra_edges, int32_t num_vertices) {
  const std::size_t edges = size_ + extra_edges;
  if (edges > src_.size()) {
    // Grow with as much room again: the bound counts every batch edge as
    // new, and a batch like the last then fits without another growth.
    src_.resize(2 * edges);
    dst_.resize(2 * edges);
    raw_weight_.resize(2 * edges);
  }
  // The index always fits every edge the arrays can hold.
  index_.Reserve(src_.size());
  const std::size_t vertices =
      static_cast<std::size_t>(std::max<int32_t>(num_vertices, 0));
  if (vertices > raw_degree_.size()) raw_degree_.resize(vertices, 0.0);
  if constexpr (kDebugChecksEnabled) {
    check_degree_.resize(raw_degree_.size());
  }
}

void OnlineEdgeStore::Accumulate(VertexId a, VertexId b, double w) {
  ACTOR_DCHECK(a != b) << "self-loop on vertex " << a;
  ACTOR_DCHECK(a != kInvalidVertex && b != kInvalidVertex)
      << "invalid endpoint (" << a << ", " << b << ")";
  ACTOR_DCHECK(w > 0.0) << "non-positive edge weight " << w;
  const VertexId lo = a < b ? a : b;
  const VertexId hi = a < b ? b : a;
  ACTOR_CHECK(lo >= 0 && static_cast<std::size_t>(hi) < raw_degree_.size())
      << "vertex " << hi << " past Reserve() (" << raw_degree_.size()
      << " vertices)";
  const double raw = w / scale_;
  const auto [slot, added] =
      index_.FindOrAdd(PackKey(lo, hi), static_cast<uint32_t>(size_));
  if (added) {
    ACTOR_CHECK(size_ < src_.size())
        << "edge " << size_ << " past Reserve() (" << src_.size() << ")";
    src_[size_] = lo;
    dst_[size_] = hi;
    raw_weight_[size_] = raw;
    ++size_;
  } else {
    raw_weight_[*slot] += raw;
  }
  total_raw_ += raw;
  raw_degree_[static_cast<std::size_t>(a)] += raw;
  raw_degree_[static_cast<std::size_t>(b)] += raw;
  ++version_;
}

void OnlineEdgeStore::Decay(double factor) {
  ACTOR_DCHECK(factor > 0.0 && factor <= 1.0)
      << "decay factor must be in (0, 1], got " << factor;
  if (factor >= 1.0) return;  // never-forget mode: nothing decays or drops
  scale_ *= factor;

  // Drop edges whose effective weight fell below the threshold. The raw
  // threshold is hoisted so the sweep is one compare per edge. Degrees are
  // only decremented here; each dropped edge's endpoints are parked in the
  // tail slot it frees, and residue is purged there below, so a vertex
  // losing several edges is never cleared mid-sweep.
  const double raw_min = min_weight_ / scale_;
  const std::size_t old_size = size_;
  for (std::size_t i = 0; i < size_;) {
    if (raw_weight_[i] >= raw_min) {
      ++i;
      continue;
    }
    const double raw = raw_weight_[i];
    const VertexId u = src_[i];
    const VertexId v = dst_[i];
    total_raw_ -= raw;
    raw_degree_[static_cast<std::size_t>(u)] -= raw;
    raw_degree_[static_cast<std::size_t>(v)] -= raw;
    index_.Erase(PackKey(u, v));
    const std::size_t last = size_ - 1;
    if (i != last) {
      src_[i] = src_[last];
      dst_[i] = dst_[last];
      raw_weight_[i] = raw_weight_[last];
      *index_.Find(PackKey(src_[i], dst_[i])) = static_cast<uint32_t>(i);
    }
    src_[last] = u;
    dst_[last] = v;
    --size_;
  }
  if (size_ != old_size) {
    // A vertex with any live incident edge keeps raw degree >= raw_min;
    // anything below half that quantum is subtraction residue of a vertex
    // whose edges all dropped. Only dropped edges' endpoints can hold it.
    for (std::size_t i = size_; i < old_size; ++i) {
      for (const VertexId x : {src_[i], dst_[i]}) {
        double& d = raw_degree_[static_cast<std::size_t>(x)];
        if (d < raw_min * 0.5) d = 0.0;
      }
    }
    ++version_;
  }
  if (empty()) total_raw_ = 0.0;  // clear float residue on full drain
  RenormalizeIfNeeded();
  ACTOR_DCHECK(DebugCheckConsistent(/*after_decay=*/true));
}

double OnlineEdgeStore::EdgeWeight(VertexId a, VertexId b) const {
  const uint32_t* slot = index_.Find(PackKey(a, b));
  return slot == nullptr ? 0.0 : raw_weight_[*slot] * scale_;
}

void OnlineEdgeStore::RenormalizeIfNeeded() {
  if (scale_ >= kRenormScale) return;
  for (std::size_t i = 0; i < size_; ++i) raw_weight_[i] *= scale_;
  for (double& d : raw_degree_) d *= scale_;
  total_raw_ *= scale_;
  scale_ = 1.0;
}

bool OnlineEdgeStore::DebugCheckConsistent(bool after_decay) const {
  if constexpr (!kDebugChecksEnabled) return true;
  (void)after_decay;
  ACTOR_DCHECK(size_ <= src_.size() && src_.size() == dst_.size() &&
               src_.size() == raw_weight_.size() && size_ == index_.size())
      << "array/index size drift: " << size_ << " live edges, capacity "
      << src_.size() << "/" << dst_.size() << "/" << raw_weight_.size()
      << ", index " << index_.size();
  ACTOR_DCHECK(check_degree_.size() == raw_degree_.size())
      << "degree scratch " << check_degree_.size() << " vs "
      << raw_degree_.size();
  std::fill(check_degree_.begin(), check_degree_.end(), 0.0);
  double sum = 0.0;
  for (std::size_t i = 0; i < size_; ++i) {
    ACTOR_DCHECK(src_[i] < dst_[i])
        << "edge " << i << " not canonically oriented";
    const uint32_t* slot = index_.Find(PackKey(src_[i], dst_[i]));
    ACTOR_DCHECK(slot != nullptr && *slot == i)
        << "pair index does not map edge " << i << " to its slot";
    ACTOR_DCHECK_FINITE(raw_weight_[i]);
    ACTOR_DCHECK(!after_decay ||
                 raw_weight_[i] * scale_ >= min_weight_ * (1.0 - 1e-9))
        << "edge " << i << " effective weight " << raw_weight_[i] * scale_
        << " below min_weight " << min_weight_;
    sum += raw_weight_[i];
    check_degree_[static_cast<std::size_t>(src_[i])] += raw_weight_[i];
    check_degree_[static_cast<std::size_t>(dst_[i])] += raw_weight_[i];
  }
  ACTOR_DCHECK(std::fabs(sum - total_raw_) <=
               1e-9 * std::max(1.0, std::fabs(sum)))
      << "cached raw total " << total_raw_ << " vs recomputed " << sum;
  for (std::size_t v = 0; v < raw_degree_.size(); ++v) {
    const double d = check_degree_[v];
    ACTOR_DCHECK(std::fabs(raw_degree_[v] - d) <= 1e-9 * std::max(1.0, d))
        << "vertex " << v << " degree " << raw_degree_[v]
        << " vs recomputed " << d;
  }
  return true;
}

}  // namespace actor
