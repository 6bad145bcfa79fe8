// PlacementMap — rendezvous-hash (highest-random-weight) placement of
// blob extents onto node-local vault shards.
//
// The map holds an ordered list of SLOTS, each occupied by a live node id.
// A blob's ANCHOR slot is chosen by rendezvous hashing over (blob key,
// node id): every (key, node) pair gets a deterministic score and the
// highest score wins. Extent e of the blob then lands on slot
// (anchor + e) % N with its replica on slot (anchor + e + 1) % N — round-
// robin striping from the anchor, so one large flush engages every shard
// concurrently while small blobs still spread uniformly across shards.
//
// replace(old, new) substitutes the replacement node INTO THE DEAD NODE'S
// SLOT. Slot order is what the striping arithmetic keys on, so keeping it
// stable gives the HRW minimal-disruption property: survivor scores are
// unchanged, so a blob re-anchors only when its winner WAS the dead node
// (forced move) or the replacement's fresh score now wins (it captures
// ~1/N of the keyspace, as any joining node must for balance). No blob
// ever moves between two surviving slots.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace skt::storage {

/// Where one extent lives: the shard written first and the replica shard.
/// successor == primary on a single-shard map (no distinct replica).
struct Placement {
  int primary = -1;
  int successor = -1;
};

class PlacementMap {
 public:
  /// `nodes` — the live node ids hosting shards, one slot each. Must be
  /// non-empty and duplicate-free.
  explicit PlacementMap(std::vector<int> nodes);

  /// Rendezvous score of (key, node); exposed so tests can verify the
  /// argmax rule and the stability of survivor scores across replaces.
  [[nodiscard]] static std::uint64_t score(std::string_view key, int node);

  /// Anchor slot index of `key` (the HRW argmax over the current nodes).
  [[nodiscard]] std::size_t anchor_slot(std::string_view key) const;

  /// Shard placement of extent `extent` of blob `key`.
  [[nodiscard]] Placement place(std::string_view key, std::size_t extent) const;

  /// Substitute `replacement` into `dead`'s slot (slot order preserved)
  /// and bump the map version. Throws std::invalid_argument when `dead`
  /// holds no slot or `replacement` already does.
  void replace(int dead, int replacement);

  [[nodiscard]] const std::vector<int>& nodes() const { return nodes_; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] bool contains(int node) const;
  /// Incremented by every replace(); lets consumers detect that cached
  /// placements are stale.
  [[nodiscard]] std::uint64_t version() const { return version_; }

 private:
  std::vector<int> nodes_;
  std::uint64_t version_ = 0;
};

}  // namespace skt::storage
