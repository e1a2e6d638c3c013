#include "graph/alias_table.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace actor {

Result<AliasTable> AliasTable::Create(const std::vector<double>& weights) {
  AliasTable table;
  table.Reserve(weights.size());
  ACTOR_RETURN_NOT_OK(table.RebuildReserved(weights));
  // A one-shot table is never rebuilt: give the worklists back.
  std::vector<uint32_t>().swap(table.small_);
  std::vector<uint32_t>().swap(table.large_);
  return table;
}

void AliasTable::Reserve(std::size_t n) {
  if (n <= capacity()) return;
  // A Create()d table has buckets but no worklists: keep its buckets.
  const std::size_t len = std::max(n, prob_.size());
  prob_.resize(len);
  alias_.resize(len);
  norm_weights_.resize(len);
  small_.resize(len);
  large_.resize(len);
}

Status AliasTable::RebuildReserved(std::span<const double> weights) {
  if (weights.empty()) {
    return Status::InvalidArgument("alias table needs at least one weight");
  }
  if (weights.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("alias table too large");
  }
  if (weights.size() > capacity()) {
    return Status::FailedPrecondition("alias table rebuild past Reserve()");
  }
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) {
      return Status::InvalidArgument("alias table weights must be >= 0");
    }
    total += w;
  }
  if (total <= 0.0) {
    return Status::InvalidArgument("alias table weights sum to zero");
  }

  const std::size_t n = weights.size();
  size_ = n;
  double* const norm = norm_weights_.data();
  for (std::size_t i = 0; i < n; ++i) norm[i] = weights[i] / total;

  // Scaled probabilities; "small" entries donate leftover mass from "large"
  // ones. `prob` doubles as the scaled-weight scratch until the donation
  // loop rewrites it with acceptance probabilities.
  double* const scaled = prob_.data();
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = norm[i] * static_cast<double>(n);
  }
  // Each index sits on at most one stack, so n slots hold either.
  uint32_t* const small = small_.data();
  uint32_t* const large = large_.data();
  std::size_t num_small = 0;
  std::size_t num_large = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (scaled[i] < 1.0) {
      small[num_small++] = static_cast<uint32_t>(i);
    } else {
      large[num_large++] = static_cast<uint32_t>(i);
    }
  }

  uint32_t* const alias = alias_.data();
  for (std::size_t i = 0; i < n; ++i) alias[i] = static_cast<uint32_t>(i);

  while (num_small > 0 && num_large > 0) {
    const uint32_t s = small[--num_small];
    const uint32_t l = large[--num_large];
    // scaled[s] < 1 is final: it becomes s's acceptance probability.
    alias[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      small[num_small++] = l;
    } else {
      large[num_large++] = l;
    }
  }
  // Remaining entries have probability 1 (floating-point leftovers).
  for (std::size_t k = 0; k < num_small; ++k) scaled[small[k]] = 1.0;
  for (std::size_t k = 0; k < num_large; ++k) scaled[large[k]] = 1.0;

  // Invariants of a well-formed Walker table: every bucket keeps a valid
  // acceptance probability and alias index, and the reconstructed sampling
  // mass sum_i (prob[i] + donated mass) / n is exactly the normalized
  // weights, which must sum to ~1.
  if constexpr (kDebugChecksEnabled) {
    double mass = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      ACTOR_DCHECK(scaled[i] >= 0.0 && scaled[i] <= 1.0 + 1e-9)
          << "bucket " << i << " acceptance probability " << scaled[i];
      ACTOR_DCHECK(alias[i] < n)
          << "bucket " << i << " alias " << alias[i] << " out of range";
      ACTOR_DCHECK_FINITE(norm[i]);
      mass += norm[i];
    }
    ACTOR_DCHECK(std::fabs(mass - 1.0) < 1e-6)
        << "normalized weights sum to " << mass;
  }

  return Status::OK();
}

double AliasTable::Probability(std::size_t i) const {
  ACTOR_DCHECK(i < size_) << "Probability() index " << i << " out of range";
  return norm_weights_[i];
}

}  // namespace actor
