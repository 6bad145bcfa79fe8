// Distributed group encoding over a communicator (Sections 2.1-2.2): the
// paper's single-erasure checksum (Fig. 1) and its Reed-Solomon
// generalisation RS(k, m), as one code whose m = 1 case is the checksum.
//
// Layout: a group of N members forms N families. Family f keeps m parity
// stripes, one per generator row, and row j's stripe lives on member
// (f + j) mod N. A member therefore owns parity for exactly the m families
// {(me - j) mod N : j < m} and contributes one data stripe to each of the
// other k = N - m families, so its payload splits into k stripes and its
// redundancy buffer holds m. At m = 1 this is Fig. 1: N - 1 stripes and
// one checksum of M/(N-1) per member, with encoding roots that rotate
// over the group, so there is no hotspot.
//
// Coefficients: row j weights contributor i (its index within the
// family) by an m x k Cauchy matrix over GF(2^8) whose columns are scaled
// so that row 0 is all ones. Every square submatrix of a Cauchy matrix is
// invertible and column scaling keeps it so, hence any m member losses
// are recoverable (the code is MDS). Row 0 is the XOR checksum, and with
// CodecKind::kSum (m = 1 only) the same all-ones row is numeric addition
// over doubles. m >= 2 always runs on GF(2^8), whatever the kind.
//
// Every operation moves its bytes the same way, as the paper's per-family
// reduce rooted at the family's owner, done in place: it lists its output
// blocks, each a weighted sum of terms that members lend (Comm::lend) to
// the block's writer, which folds them straight into its buffer, segment
// by segment, so every source byte is read once where it sits and nothing
// is copied. encode() writes every parity slot from its family's k lent
// stripes; encode_delta() folds each dirty run's lent diff onto the old
// parity; rebuild() writes every block the lost members need back from k
// survivors' lent blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "encoding/block_runs.hpp"
#include "encoding/codec.hpp"
#include "mpi/comm.hpp"

namespace skt::enc {

class GroupCodec {
 public:
  /// `data_bytes`: protected payload per member (all members must pass the
  /// same value); `group_size` N must equal the communicator size at use;
  /// `parity_count` m >= 1 is the number of simultaneous member losses to
  /// tolerate. Needs N >= 2, and m + 2 <= N <= 256 when m >= 2.
  GroupCodec(CodecKind kind, std::size_t data_bytes, int group_size, int parity_count = 1);

  /// Simultaneous member losses the code repairs.
  [[nodiscard]] int max_failures() const { return parity_count_; }

  /// Stripe geometry: the padded buffer is stripe_count() = k stripes of
  /// stripe_bytes() each (lane-padded; the pad beyond data_bytes is
  /// encoded as zeros), and each stripe is split into kBlockBytes blocks
  /// (block_runs.hpp), the unit of dirty tracking and the delta encode.
  [[nodiscard]] std::size_t stripe_bytes() const { return stripe_bytes_; }
  [[nodiscard]] std::size_t stripe_count() const {
    return static_cast<std::size_t>(group_size_ - parity_count_);
  }
  [[nodiscard]] std::size_t padded_bytes() const { return stripe_count() * stripe_bytes_; }
  /// Per-member redundancy buffer: slot j holds the row-j parity stripe of
  /// family (rank - j) mod N. At m = 1, one checksum stripe.
  [[nodiscard]] std::size_t redundancy_bytes() const {
    return static_cast<std::size_t>(parity_count_) * stripe_bytes_;
  }

  /// Collective over `group`. `data` is this member's padded buffer;
  /// `redundancy` receives the parity rows this member owns. Every member
  /// ends up holding m parity stripes. The wire carries m * N * k stripes
  /// (each lent once per row) and the mailbox copies nothing. `data` is
  /// read by the owners in place, so it must not change until encode()
  /// returns; each owner passes the failpoint "enc.fold" once per parity
  /// slot, holding that slot's borrowed stripes.
  void encode(mpi::Comm& group, std::span<const std::byte> data,
              std::span<std::byte> redundancy) const;

  /// Collective delta re-encode (dirty-block commits), in place.
  /// `redundancy` holds the parity encoded from `base`; `next` is the
  /// current buffer, and `dirty` the runs of THIS member's padded buffer
  /// (block_runs.hpp) that may differ between the two. `base` and `next`
  /// are read only inside the runs as the exchange packs them: a RunSet's
  /// runs are read as given, while a stripe with more than kRunsPerStripe
  /// runs is also read across the gap the packing merges. Leaves
  /// `redundancy` as encode(next) would: bit-identical for XOR and
  /// GF(2^8), tolerance-equal for SUM.
  ///
  /// The members exchange their runs in a fixed 8-byte record per stripe
  /// (exchange_runs), so every member sees every member's runs. When less
  /// than half of the group's bytes are dirty, each member forms the diff
  /// of each of its runs once (new ^ old, or new - old) and lends it to
  /// the owner of each parity row its stripe feeds, which folds it onto
  /// the old parity at the run's offset, weighted by the row's
  /// coefficient: each run crosses the wire once per parity row as one
  /// loan, clean bytes send nothing, and an owner borrows one diff per
  /// dirty contributor of a range, up to k. Otherwise the full encode
  /// runs. An owner passes the failpoint "enc.fold" once per run it folds,
  /// holding that run's view.
  ///
  /// Returns the runs of `redundancy` (stripe j = parity slot j) that may
  /// have changed, in (slot, block) order: the union of each slot's
  /// family, every slot whole after a full re-encode, and nothing when no
  /// dirty run was folded in, so a protocol keeping a twin copy refreshes
  /// only those.
  std::vector<BlockRun> encode_delta(mpi::Comm& group, std::span<const std::byte> base,
                                     std::span<const std::byte> next,
                                     std::span<std::byte> redundancy,
                                     std::span<const BlockRun> dirty) const;

  /// The paper's encode of the single-parity code (m = 1 only;
  /// std::logic_error otherwise): one binomial MPI_Reduce per family,
  /// rooted round-robin. Same result as encode() (bit-identical for XOR,
  /// tolerance-equal for SUM, whose combine order differs). Kept as the
  /// reference of the property tests and the bandwidth benches.
  void encode_reference(mpi::Comm& group, std::span<const std::byte> data,
                        std::span<std::byte> checksum) const;

  /// Collective over `group`: reconstruct the members in `missing`.
  /// Survivors pass their (intact) data and redundancy as inputs; a failed
  /// member passes buffers whose contents are ignored on entry and hold its
  /// rebuilt data and redundancy on return. More than max_failures()
  /// members throw std::invalid_argument: rebuilding from partial data
  /// would return silently wrong bytes, which is strictly worse than
  /// aborting the restore. An empty list is a no-op.
  ///
  /// In each family, the L lost contributors solve an L x L subsystem of
  /// the generator against L surviving parity rows; its inverse is folded
  /// into one coefficient per survivor, so every lost data stripe and lost
  /// parity row is a weighted sum of exactly k surviving stripes and
  /// parity slots, at most one per survivor. At m = 1 every weight is 1: a
  /// lost stripe is its family's checksum minus the other members'
  /// stripes, a lost checksum the sum of its family's stripes.
  ///
  /// Every survivor lends (Comm::lend) each of its terms once to the lost
  /// member that needs it, and that member folds each block's k borrowed
  /// terms straight into its buffers in 64 KiB segments, as the encode's
  /// owners do: the wire carries lost * N * k stripes, each survivor byte
  /// is read once where it sits, each rebuilt byte is written once, and
  /// the mailbox copies nothing. Survivors' buffers must not change until
  /// rebuild() returns. A lost member passes the failpoint "enc.rebuild"
  /// once per block, holding that block's views; a survivor passes it
  /// once, after lending and before its loans settle.
  void rebuild(mpi::Comm& group, std::span<const int> missing, std::span<std::byte> data,
               std::span<std::byte> redundancy) const;

  /// Collective consistency check: re-encode into scratch space and compare
  /// with `redundancy` on every member; returns the AND across the group.
  [[nodiscard]] bool verify(mpi::Comm& group, std::span<const std::byte> data,
                            std::span<const std::byte> redundancy) const;

  // --- layout (public for tests) -----------------------------------------

  /// True when member p contributes a data stripe to family f (p owns none
  /// of family f's parity rows).
  [[nodiscard]] bool contributes(int p, int f) const;
  /// Index of member p's stripe for family f within its padded buffer.
  [[nodiscard]] std::size_t stripe_index(int p, int f) const;
  /// Contributor order of member p within family f: its generator column.
  [[nodiscard]] int contributor_index(int p, int f) const;
  /// GF(2^8) weight of contributor p in family f's parity row `row`
  /// (0 <= row < m); 1 throughout row 0.
  [[nodiscard]] std::uint8_t coefficient(int row, int p, int f) const;
  /// Member holding family f's row-`row` parity stripe.
  [[nodiscard]] int parity_owner(int row, int f) const { return (f + row) % group_size_; }

 private:
  void check_args(const mpi::Comm& group, std::size_t data_size,
                  std::size_t redundancy_size) const;

  CodecKind kind_;  ///< the lanes: XOR (and GF(2^8)) or SUM
  int group_size_;
  int parity_count_;
  std::size_t stripe_bytes_ = 0;
  std::vector<std::uint8_t> generator_;  ///< m x k, row major
};

}  // namespace skt::enc
