// On-SHM checkpoint header: the per-rank commit state machine record.
//
// Two epoch counters drive recovery-side selection (Section 3.1):
//   bc_epoch — epoch of the committed (checkpoint B, checksum C) pair
//   d_epoch  — epoch of the sealed working-side checksum D; d_epoch ==
//              bc_epoch + 1 between "seal" and "flush complete".
// The paired strategies (single, double) reuse the two counters as the
// epoch slots of their (checkpoint, checksum) pairs (slot()), and set
// kWriting on a slot while its pair is being overwritten.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

#include "sim/persistent_store.hpp"

namespace skt::ckpt {

struct Header {
  static constexpr std::uint64_t kMagic = 0x534b54434b505431ULL;  // "SKTCKPT1"

  std::uint64_t magic = kMagic;
  std::uint64_t bc_epoch = 0;
  std::uint64_t d_epoch = 0;
  std::uint64_t data_bytes = 0;   ///< layout sanity check on re-attach
  std::uint64_t user_bytes = 0;
  std::uint32_t group_size = 0;
  std::uint32_t codec = 0;

  [[nodiscard]] bool valid() const { return magic == kMagic; }
  /// Epoch slot of pair `pair` (0 or 1) for the paired strategies.
  [[nodiscard]] std::uint64_t& slot(std::size_t pair) { return pair == 0 ? bc_epoch : d_epoch; }
};

/// High bit of an epoch slot: its pair is being written. It persists with
/// the header until the pair publishes, and epoch_of() strips it, so a
/// torn pair never looks complete and never lowers the agreed epoch.
inline constexpr std::uint64_t kWriting = std::uint64_t{1} << 63;

[[nodiscard]] constexpr std::uint64_t epoch_of(std::uint64_t slot) { return slot & ~kWriting; }

static_assert(sizeof(Header) % 8 == 0);

/// Read the header out of its segment (headers are small; a memcpy is the
/// simulation analogue of an atomic, ordered header write).
inline Header load_header(const sim::SegmentPtr& segment) {
  Header h{};
  std::memcpy(&h, segment->bytes().data(), sizeof(Header));
  return h;
}

inline void store_header(const sim::SegmentPtr& segment, const Header& h) {
  std::memcpy(segment->bytes().data(), &h, sizeof(Header));
}

/// Load the header, or initialize an epoch-0 one with the given layout when
/// the segment holds no valid header yet (a replacement node committing for
/// the first time after a globally-fresh restart path).
inline Header load_or_init(const sim::SegmentPtr& segment, std::uint64_t data_bytes,
                           std::uint64_t user_bytes, std::uint32_t group_size,
                           std::uint32_t codec) {
  Header h = load_header(segment);
  if (!h.valid()) {
    h = Header{};
    h.data_bytes = data_bytes;
    h.user_bytes = user_bytes;
    h.group_size = group_size;
    h.codec = codec;
  }
  return h;
}

}  // namespace skt::ckpt
