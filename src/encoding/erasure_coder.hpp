// Uniform erasure-coder interface over the single-parity (RAID-5-style,
// Fig. 1) and RS(k, m) group codecs, so checkpoint protocols can be
// parameterized by fault-tolerance degree. GroupCodec and RSGroupCodec
// implement it directly; make_coder picks one by degree.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "encoding/block_runs.hpp"
#include "encoding/codec.hpp"
#include "mpi/comm.hpp"

namespace skt::enc {

class ErasureCoder {
 public:
  virtual ~ErasureCoder() = default;

  /// Padded payload buffer size per member.
  [[nodiscard]] virtual std::size_t padded_bytes() const = 0;
  /// Per-member redundancy buffer size (checksum / parity stripes).
  [[nodiscard]] virtual std::size_t redundancy_bytes() const = 0;
  /// Simultaneous member losses the code repairs.
  [[nodiscard]] virtual int max_failures() const = 0;

  /// Stripe geometry: the padded buffer is stripe_count() stripes of
  /// stripe_bytes() each, and each stripe is split into kBlockBytes blocks
  /// (block_runs.hpp), the unit of dirty tracking and the delta encode.
  [[nodiscard]] virtual std::size_t stripe_bytes() const = 0;
  [[nodiscard]] std::size_t stripe_count() const { return padded_bytes() / stripe_bytes(); }

  /// Collective: fill this member's redundancy buffer.
  virtual void encode(mpi::Comm& group, std::span<const std::byte> data,
                      std::span<std::byte> redundancy) const = 0;

  /// Collective delta re-encode: update `redundancy` from `old_redundancy`
  /// (which it may alias) given that only the runs in `dirty` differ
  /// between `base` and `next`, which are read only inside those runs as
  /// the exchange packs them (GroupCodec::encode_delta).
  /// Equivalent to encode(next). Below half of the group's bytes dirty,
  /// only the dirty runs move bytes, each crossing the wire once per
  /// parity row on a tree toward its parity owner; at or above it, the
  /// full ring encode runs. Returns the runs of `redundancy` that may
  /// differ from `old_redundancy` (stripe j = its j-th stripe).
  virtual std::vector<BlockRun> encode_delta(mpi::Comm& group, std::span<const std::byte> base,
                                             std::span<const std::byte> next,
                                             std::span<const std::byte> old_redundancy,
                                             std::span<std::byte> redundancy,
                                             std::span<const BlockRun> dirty) const = 0;
  /// Collective: reconstruct the listed members. More than max_failures()
  /// of them throws std::invalid_argument: rebuilding from partial data
  /// would return silently wrong bytes. An empty list is a no-op.
  virtual void rebuild(mpi::Comm& group, std::span<const int> missing,
                       std::span<std::byte> data, std::span<std::byte> redundancy) const = 0;
  /// Collective consistency check.
  [[nodiscard]] virtual bool verify(mpi::Comm& group, std::span<const std::byte> data,
                                    std::span<const std::byte> redundancy) const = 0;
};

/// parity_degree 1 -> GroupCodec (with `kind`); >= 2 -> RSGroupCodec
/// (always GF/XOR-based).
[[nodiscard]] std::unique_ptr<ErasureCoder> make_coder(int parity_degree, CodecKind kind,
                                                       std::size_t data_bytes, int group_size);

}  // namespace skt::enc
