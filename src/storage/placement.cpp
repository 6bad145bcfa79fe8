#include "storage/placement.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace skt::storage {

namespace {

// splitmix64 finalizer — strong enough avalanche for HRW scoring and fully
// deterministic across platforms (no std::hash, whose result is
// implementation-defined).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

PlacementMap::PlacementMap(std::vector<int> nodes) : nodes_(std::move(nodes)) {
  if (nodes_.empty()) {
    throw std::invalid_argument("PlacementMap: node list must not be empty");
  }
  std::unordered_set<int> seen;
  for (int node : nodes_) {
    if (!seen.insert(node).second) {
      throw std::invalid_argument("PlacementMap: duplicate node id " +
                                  std::to_string(node));
    }
  }
}

std::uint64_t PlacementMap::score(std::string_view key, int node) {
  return mix64(fnv1a(key) ^ mix64(static_cast<std::uint64_t>(node)));
}

std::size_t PlacementMap::anchor_slot(std::string_view key) const {
  std::size_t best_slot = 0;
  std::uint64_t best_score = score(key, nodes_[0]);
  for (std::size_t slot = 1; slot < nodes_.size(); ++slot) {
    const std::uint64_t s = score(key, nodes_[slot]);
    if (s > best_score) {
      best_score = s;
      best_slot = slot;
    }
  }
  return best_slot;
}

Placement PlacementMap::place(std::string_view key, std::size_t extent) const {
  const std::size_t n = nodes_.size();
  const std::size_t primary_slot = (anchor_slot(key) + extent) % n;
  const std::size_t successor_slot = (primary_slot + 1) % n;
  return Placement{.primary = nodes_[primary_slot],
                   .successor = nodes_[successor_slot]};
}

void PlacementMap::replace(int dead, int replacement) {
  auto it = std::find(nodes_.begin(), nodes_.end(), dead);
  if (it == nodes_.end()) {
    throw std::invalid_argument("PlacementMap::replace: node " +
                                std::to_string(dead) + " holds no slot");
  }
  if (dead != replacement && contains(replacement)) {
    throw std::invalid_argument("PlacementMap::replace: node " +
                                std::to_string(replacement) +
                                " already holds a slot");
  }
  *it = replacement;
  ++version_;
}

bool PlacementMap::contains(int node) const {
  return std::find(nodes_.begin(), nodes_.end(), node) != nodes_.end();
}

}  // namespace skt::storage
