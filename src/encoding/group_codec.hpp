// Distributed group encoding over a communicator (Sections 2.1-2.2).
//
// encode() computes, for every family f, the checksum of the other
// members' stripes — the paper's round-robin checksum distribution, which
// is exactly a reduce-scatter: one ring collective encodes all N checksum
// families at once, each member emitting its stripes block-wise and
// receiving its own family's finished checksum. The rotating ownership is
// what spreads encoding traffic across the group and avoids the
// single-node hotspot the paper calls out.
//
// rebuild() reconstructs a failed member's entire padded buffer plus its
// checksum stripe among the survivors (lost_blocks.hpp): each of its n
// blocks is split into one part per survivor, each part reduces among the
// survivors onto its owner, and the owner streams the finished segments
// straight into the replacement's buffers, which receive every byte once
// and combine nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "encoding/block_runs.hpp"
#include "encoding/codec.hpp"
#include "encoding/erasure_coder.hpp"
#include "encoding/stripes.hpp"
#include "mpi/comm.hpp"

namespace skt::enc {

class GroupCodec final : public ErasureCoder {
 public:
  /// `data_bytes`: protected payload per member (all members must pass the
  /// same value); `group_size` must equal the communicator size at use.
  GroupCodec(CodecKind kind, std::size_t data_bytes, int group_size);

  [[nodiscard]] CodecKind kind() const { return kind_; }
  [[nodiscard]] const StripeLayout& layout() const { return layout_; }
  [[nodiscard]] std::size_t padded_bytes() const override { return layout_.padded_bytes(); }
  /// One checksum stripe per member.
  [[nodiscard]] std::size_t redundancy_bytes() const override {
    return layout_.stripe_bytes();
  }
  [[nodiscard]] int max_failures() const override { return 1; }
  [[nodiscard]] std::size_t stripe_bytes() const override { return layout_.stripe_bytes(); }

  /// Collective over `group`. `data` is this member's padded buffer;
  /// `checksum` (stripe_bytes) receives the checksum of this member's
  /// family. Every member ends up holding one checksum stripe. Implemented
  /// as a single ring reduce-scatter over stripe blocks.
  void encode(mpi::Comm& group, std::span<const std::byte> data,
              std::span<std::byte> checksum) const override;

  /// Collective delta re-encode (dirty-block commits). `base` is the
  /// buffer `old_checksum` was encoded from, `next` the current buffer,
  /// and `dirty` the runs of THIS member's padded buffer (block_runs.hpp)
  /// that may differ between the two. `base` and `next` are read only
  /// inside the runs as the exchange packs them: a RunSet's runs are read
  /// as given, while a stripe with more than kRunsPerStripe runs is also
  /// read across the gap the packing merges. Produces the same `checksum`
  /// as encode(next) — bit-identical for XOR, tolerance-equal for SUM.
  ///
  /// The members exchange their runs in a fixed 8-byte record per stripe
  /// (exchange_runs), so every member sees every member's runs. Each
  /// dirty family's union of runs is cut into pieces at its contributors'
  /// run endpoints. When less than half of the group's bytes are dirty,
  /// each piece reduces its contributors' diffs (new ^ old, or new - old)
  /// onto the family's checksum owner along a binomial tree of those
  /// contributors (Comm::reduce_sparse), and the owner folds the result
  /// into the old checksum at the piece's offset: each dirty byte crosses
  /// the wire once, clean bytes send nothing, and no member receives more
  /// than log2(contributors + 1) copies of a piece. Otherwise the full
  /// ring reduce-scatter encode runs. `old_checksum` may alias `checksum`
  /// (the fold is then in place).
  ///
  /// Returns the runs of `checksum` (stripe 0) that may differ from
  /// `old_checksum`: the union of this member's family, the whole
  /// checksum after a full re-encode, and nothing when no dirty run was
  /// folded into it — so a protocol keeping a twin copy refreshes only
  /// those.
  std::vector<BlockRun> encode_delta(mpi::Comm& group, std::span<const std::byte> base,
                                     std::span<const std::byte> next,
                                     std::span<const std::byte> old_checksum,
                                     std::span<std::byte> checksum,
                                     std::span<const BlockRun> dirty) const override;

  /// The pre-reduce-scatter baseline: one binomial reduce per family,
  /// rooted round-robin. Same result as encode() (bit-identical for XOR,
  /// tolerance-equal for SUM, whose combine order differs). Kept for the
  /// old-vs-new property tests and the bandwidth benches.
  void encode_reference(mpi::Comm& group, std::span<const std::byte> data,
                        std::span<std::byte> checksum) const;

  /// Collective over `group`: reconstruct the one member in `missing`.
  /// Survivors pass their (intact) data and checksum as inputs; the failed
  /// member passes buffers whose contents are ignored on entry and hold the
  /// rebuilt data + checksum on return. Two or more members throw
  /// std::invalid_argument: never rebuild missing.front() alone, since a
  /// single-parity group handed a multi-erasure set would return silently
  /// wrong bytes, which is strictly worse than aborting the restore.
  ///
  /// Block f != failed of the lost member is checksum_f (-) the other
  /// survivors' family-f stripes; its checksum is the sum of the
  /// survivors' family-`failed` stripes. Each block is split on 64 KiB
  /// segment boundaries into one part per survivor; a part reduces among
  /// the survivors, each reading its share straight from `data` or
  /// `checksum`, onto the part's owner, which forwards every finished
  /// segment into the failed member's buffers (rebuild_lost_blocks). No
  /// member allocates a stripe-sized temporary, and the wire carries
  /// (n-1) n stripes, each block once per survivor.
  void rebuild(mpi::Comm& group, std::span<const int> missing, std::span<std::byte> data,
               std::span<std::byte> checksum) const override;

  /// Collective consistency check: re-encode into scratch space and compare
  /// with `checksum` on every member; returns the AND across the group.
  [[nodiscard]] bool verify(mpi::Comm& group, std::span<const std::byte> data,
                            std::span<const std::byte> checksum) const override;

 private:
  void check_args(const mpi::Comm& group, std::size_t data_size, std::size_t checksum_size) const;

  CodecKind kind_;
  StripeLayout layout_;
};

}  // namespace skt::enc
