#include "core/top_k.h"

#include <iterator>
#include <limits>

namespace rtsi::core {

TopKHeap::TopKHeap(int k) : k_(k < 1 ? 1 : static_cast<std::size_t>(k)) {}

void TopKHeap::Offer(StreamId stream, double score) {
  const auto it = index_.find(stream);
  if (it != index_.end()) {
    // Keep-best upsert: replace the retained entry only when the new
    // score ranks strictly above it.
    if (!RanksAbove({stream, score}, {stream, it->second})) return;
    entries_.erase({stream, it->second});
    entries_.insert({stream, score});
    it->second = score;
    return;
  }
  if (entries_.size() < k_) {
    entries_.insert({stream, score});
    index_.emplace(stream, score);
    return;
  }
  const auto worst = std::prev(entries_.end());
  if (RanksAbove({stream, score}, *worst)) {
    index_.erase(worst->stream);
    entries_.erase(worst);
    entries_.insert({stream, score});
    index_.emplace(stream, score);
  }
}

double TopKHeap::KthScore() const {
  if (entries_.size() < k_) return -std::numeric_limits<double>::infinity();
  return std::prev(entries_.end())->score;
}

std::vector<ScoredStream> TopKHeap::SortedResults() const {
  return {entries_.begin(), entries_.end()};
}

}  // namespace rtsi::core
