// RS(k, m) wide-stripe group encoding — the general multi-erasure upgrade
// of the single-parity (Fig. 1) group codec, and the only one in the
// library: m = 2 is the RAID-6 case.
//
// Layout: a group of N >= m+2 members forms
// N parity families. Family f keeps m parity stripes, one per generator
// row; row j's stripe lives on member (f + j) % N. A member therefore
// owns parity for exactly the m families {(me - j + N) % N : j < m} and
// contributes one data stripe to each of the remaining k = N - m
// families, so its payload splits into k stripes and its parity buffer
// holds m stripes — overhead m/k of the payload, and ANY m member losses
// are recoverable from the k survivors.
//
// Parity rows are rows 0..m-1 of the Cauchy Reed-Solomon generator over
// GF(2^8) (reed_solomon.hpp): every square submatrix of a Cauchy matrix
// is invertible, so any L <= m lost contributors of a family yield an
// L x L solvable system against the L surviving parity rows.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "encoding/block_runs.hpp"
#include "encoding/codec.hpp"
#include "encoding/erasure_coder.hpp"
#include "encoding/reed_solomon.hpp"
#include "mpi/comm.hpp"

namespace skt::enc {

class RSGroupCodec final : public ErasureCoder {
 public:
  /// `data_bytes` payload per member; `group_size` N >= parity_count + 2;
  /// `parity_count` m >= 1 simultaneous losses to tolerate.
  RSGroupCodec(std::size_t data_bytes, int group_size, int parity_count);

  /// Any m = parity_count member losses are recoverable.
  [[nodiscard]] int max_failures() const override { return parity_count_; }
  [[nodiscard]] std::size_t stripe_bytes() const override { return stripe_bytes_; }

  /// Padded payload buffer size: k = N - m stripes.
  [[nodiscard]] std::size_t padded_bytes() const override {
    return stripe_bytes_ * static_cast<std::size_t>(group_size_ - parity_count_);
  }

  /// Per-member parity buffer: slot j (of m) holds the row-j parity
  /// stripe of family (rank - j + N) % N.
  [[nodiscard]] std::size_t redundancy_bytes() const override {
    return static_cast<std::size_t>(parity_count_) * stripe_bytes_;
  }

  /// Collective: compute all m parity stripes of every family — one ring
  /// reduce-scatter pass per generator row.
  void encode(mpi::Comm& group, std::span<const std::byte> data,
              std::span<std::byte> parity) const override;

  /// Collective delta re-encode: `dirty` lists the runs of this member's
  /// padded buffer (k stripes, indexed by stripe_index) that may differ
  /// between `base` and `next`; the members exchange them as in
  /// GroupCodec::encode_delta. When less than half of the group's bytes
  /// are dirty, each parity row j of each piece of a dirty family's union
  /// reduces its contributors' GF(2^8)-weighted diffs c_j * (old ^ new)
  /// onto the row's owner along a binomial tree of those contributors, and
  /// the owner folds the result into `old_parity` at the piece's offset
  /// (P' = P ^ sum c_i * (old_i ^ new_i)); clean bytes send nothing.
  /// Otherwise the full m-pass reduce-scatter encode runs. Result is
  /// bit-identical to encode(next); `old_parity` may alias `parity`.
  /// Returns the runs of `parity` (stripe j = parity slot j) that may
  /// differ from `old_parity`, in (slot, block) order.
  std::vector<BlockRun> encode_delta(mpi::Comm& group, std::span<const std::byte> base,
                                     std::span<const std::byte> next,
                                     std::span<const std::byte> old_parity,
                                     std::span<std::byte> parity,
                                     std::span<const BlockRun> dirty) const override;

  /// Collective: reconstruct up to m failed members' data + parity.
  /// Survivors pass intact buffers; failed members' buffer contents are
  /// rebuilt in place. Throws std::invalid_argument for > m failures.
  ///
  /// Each family's L lost data stripes solve an L x L Cauchy subsystem
  /// against L surviving parity rows; the inverse is folded into one
  /// GF(2^8) coefficient per survivor, so every lost data stripe and lost
  /// parity row is a weighted sum of exactly k surviving stripes and
  /// parity slots (the code is MDS). All of them rebuild in one survivor
  /// reduce (rebuild_lost_blocks), each block crossing the wire k times.
  void rebuild(mpi::Comm& group, std::span<const int> failed, std::span<std::byte> data,
               std::span<std::byte> parity) const override;

  /// Collective consistency check (re-encode and compare, AND-reduced).
  [[nodiscard]] bool verify(mpi::Comm& group, std::span<const std::byte> data,
                            std::span<const std::byte> parity) const override;

  // --- layout helpers (public for tests) --------------------------------

  /// True when member p contributes a data stripe to family f (i.e. p
  /// owns none of family f's parity rows).
  [[nodiscard]] bool contributes(int p, int f) const;
  /// Index of member p's stripe for family f within its padded buffer.
  [[nodiscard]] std::size_t stripe_index(int p, int f) const;
  /// Contributor order of member p within family f (coefficient index).
  [[nodiscard]] int contributor_index(int p, int f) const;
  /// GF coefficient of contributor p in parity row `row` (0 <= row < m).
  [[nodiscard]] std::uint8_t coefficient(int row, int p, int f) const;
  /// Member holding family f's row-`row` parity stripe.
  [[nodiscard]] int parity_owner(int row, int f) const {
    return (f + row) % group_size_;
  }

 private:
  void check_args(const mpi::Comm& group, std::size_t data_size,
                  std::size_t parity_size) const;

  std::size_t data_bytes_;
  int group_size_;
  int parity_count_;
  std::size_t stripe_bytes_;
  ReedSolomon rs_;
};

}  // namespace skt::enc
