// Survivor-side rebuild: the reconstruction path of the group code.
//
// Every block a lost member needs back — a data stripe or a parity slot —
// is a weighted sum of blocks its survivors still hold: a row of the
// inverse of the lost members' generator subsystem folded into one GF(2^8)
// coefficient per surviving stripe and parity slot. At m = 1 every weight
// is 1: the family's checksum minus the other members' stripes, or the
// sum of the stripes for the lost member's own checksum. GroupCodec
// describes those sums as LostBlocks and rebuild_lost_blocks() moves them.
//
// Each block is split into one part per contributing survivor, on 64 KiB
// segment boundaries. A part reduces among the block's contributors,
// rooted at its owner (Comm::reduce_sparse, relayed): every contributor
// writes its weighted share straight from its own segments into the
// outgoing segment, interior survivors combine, and the owner forwards
// each finished segment to the lost member, which copies it straight into
// its data or redundancy buffer. No member allocates a block-sized
// temporary, the lost member receives each byte once and combines
// nothing, and each byte of a block crosses the wire once per contributor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "encoding/codec.hpp"
#include "mpi/comm.hpp"

namespace skt::enc {

/// Where a block lives in one member's buffers.
struct BlockAt {
  bool redundancy = false;  ///< the checksum / parity buffer, else the data buffer
  std::size_t offset = 0;   ///< byte offset within that buffer
};

/// One survivor's share of a LostBlock: `coeff` times (or, with `negate`,
/// minus) its block at `at`.
struct Term {
  int member = 0;
  BlockAt at;
  /// GF(2^8) coefficient for XOR lanes; 1 is a plain copy.
  std::uint8_t coeff = 1;
  /// SUM lanes only: contribute the negated block.
  bool negate = false;
};

/// A block of `bytes` that lost `member` gets back at `at`, as the
/// combination of the survivors' `terms`.
struct LostBlock {
  int member = 0;
  BlockAt at;
  std::size_t bytes = 0;
  std::vector<Term> terms;
};

/// Collective over `group`: rebuild every block in `blocks` (identical on
/// every member). Survivors read their terms from `data` / `redundancy`;
/// each lost member receives its blocks into the same buffers. `lanes`
/// picks the combine: XOR over uint64 lanes (XOR and GF(2^8)) or SUM over
/// doubles.
void rebuild_lost_blocks(mpi::Comm& group, CodecKind lanes, std::span<const LostBlock> blocks,
                         std::span<std::byte> data, std::span<std::byte> redundancy);

}  // namespace skt::enc
