#ifndef ACTOR_GRAPH_ALIAS_TABLE_H_
#define ACTOR_GRAPH_ALIAS_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/logging.h"
#include "util/result.h"
#include "util/rng.h"

namespace actor {

/// Walker's alias method: O(n) construction, O(1) sampling from a discrete
/// distribution (paper §5.2.3, [44]). Used for weighted edge sampling and
/// for the negative-sampling noise distribution.
///
/// Two construction paths exist: `Create()` builds a fresh table, and
/// `RebuildReserved()` re-derives the table in place, in the bucket storage
/// and construction worklists a `Reserve()` made, and never allocates. The
/// streaming pipeline (docs/streaming.md) rebuilds its samplers after every
/// ingested batch on the shard pool; it Reserve()s on the ingest thread.
class AliasTable {
 public:
  /// An empty table; Sample() may not be called until a RebuildReserved()
  /// (or assignment from Create()) succeeds. size() is 0.
  AliasTable() = default;

  /// Builds the table from non-negative weights. Returns InvalidArgument if
  /// `weights` is empty, contains a negative value, or sums to zero.
  static Result<AliasTable> Create(const std::vector<double>& weights);

  /// Grows the bucket storage and worklists to hold `n` weights (never
  /// shrinks), so a later RebuildReserved() of up to `n` weights performs
  /// no allocation.
  void Reserve(std::size_t n);

  /// Rebuilds this table from `weights` in the storage a Reserve() made;
  /// never allocates. Same validation as Create(), plus
  /// FailedPrecondition when `weights` exceeds capacity(); on error the
  /// table is left unchanged and remains safe to Sample() from (if it was
  /// before).
  Status RebuildReserved(std::span<const double> weights);

  /// Draws an index in [0, size()) with probability proportional to its
  /// weight. Thread-safe given distinct Rng instances.
  std::size_t Sample(Rng& rng) const {
    ACTOR_DCHECK(size_ > 0) << "sampling from an empty alias table";
    const std::size_t i = rng.Uniform(size_);
    const std::size_t drawn =
        rng.UniformDouble() < prob_[i] ? i : static_cast<std::size_t>(alias_[i]);
    // A torn table (alias entry past the end) would silently corrupt the
    // trainers that index rows with the draw; catch it at the source.
    ACTOR_DCHECK(drawn < size_)
        << "alias table draw out of range (bucket " << i << ")";
    return drawn;
  }

  std::size_t size() const { return size_; }

  /// Weights RebuildReserved() accepts without allocating.
  std::size_t capacity() const { return small_.size(); }

  /// Exact sampling probability of index i (for tests).
  double Probability(std::size_t i) const;

 private:
  std::size_t size_ = 0;
  // The first size_ entries are the live table; entries past it are
  // reserved storage. All five vectors share one length, except that
  // Create() frees the worklists (capacity() 0) of its one-shot tables.
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
  std::vector<double> norm_weights_;  // kept for Probability()
  // Walker's small/large worklists, used as stacks during a rebuild.
  std::vector<uint32_t> small_;
  std::vector<uint32_t> large_;
};

}  // namespace actor

#endif  // ACTOR_GRAPH_ALIAS_TABLE_H_
