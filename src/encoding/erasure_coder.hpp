// Uniform erasure-coder interface over the single-parity (RAID-5-style,
// Fig. 1) and RS(k, m) group codecs, so checkpoint protocols can be
// parameterized by fault-tolerance degree.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "encoding/codec.hpp"
#include "encoding/group_codec.hpp"
#include "encoding/rs_group.hpp"

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
  /// Collective: reconstruct the listed members (size <= max_failures()).
  virtual void rebuild(mpi::Comm& group, std::span<const int> missing,
                       std::span<std::byte> data, std::span<std::byte> redundancy) const = 0;
  /// Collective consistency check.
  [[nodiscard]] virtual bool verify(mpi::Comm& group, std::span<const std::byte> data,
                                    std::span<const std::byte> redundancy) const = 0;
};

/// Single-erasure coder (XOR or SUM), the paper's default.
class SingleParityCoder final : public ErasureCoder {
 public:
  SingleParityCoder(CodecKind kind, std::size_t data_bytes, int group_size)
      : codec_(kind, data_bytes, group_size) {}

  [[nodiscard]] std::size_t padded_bytes() const override { return codec_.padded_bytes(); }
  [[nodiscard]] std::size_t redundancy_bytes() const override {
    return codec_.checksum_bytes();
  }
  [[nodiscard]] int max_failures() const override { return 1; }
  [[nodiscard]] std::size_t stripe_bytes() const override {
    return codec_.layout().stripe_bytes();
  }

  void encode(mpi::Comm& group, std::span<const std::byte> data,
              std::span<std::byte> redundancy) const override {
    codec_.encode(group, data, redundancy);
  }
  std::vector<BlockRun> encode_delta(mpi::Comm& group, std::span<const std::byte> base,
                                     std::span<const std::byte> next,
                                     std::span<const std::byte> old_redundancy,
                                     std::span<std::byte> redundancy,
                                     std::span<const BlockRun> dirty) const override {
    return codec_.encode_delta(group, base, next, old_redundancy, redundancy, dirty);
  }
  void rebuild(mpi::Comm& group, std::span<const int> missing, std::span<std::byte> data,
               std::span<std::byte> redundancy) const override {
    if (missing.empty()) return;
    if (missing.size() > 1) {
      // Never fall back to rebuilding missing.front() alone: a single-
      // parity group handed a multi-erasure set would return silently
      // wrong bytes, which is strictly worse than aborting the restore.
      throw std::invalid_argument(
          "SingleParityCoder: " + std::to_string(missing.size()) +
          " concurrent erasures exceed the single-parity budget (max 1); refusing to "
          "rebuild from partial data");
    }
    codec_.rebuild(group, missing.front(), data, redundancy);
  }
  [[nodiscard]] bool verify(mpi::Comm& group, std::span<const std::byte> data,
                            std::span<const std::byte> redundancy) const override {
    return codec_.verify(group, data, redundancy);
  }

 private:
  GroupCodec codec_;
};

/// General RS(k, m) coder over GF(2^8): m = parity_count simultaneous
/// erasures, k = group_size - m data stripes per member.
class RSCoder final : public ErasureCoder {
 public:
  RSCoder(std::size_t data_bytes, int group_size, int parity_count)
      : codec_(data_bytes, group_size, parity_count) {}

  [[nodiscard]] std::size_t padded_bytes() const override { return codec_.padded_bytes(); }
  [[nodiscard]] std::size_t redundancy_bytes() const override {
    return codec_.parity_bytes();
  }
  [[nodiscard]] int max_failures() const override { return codec_.parity_count(); }
  [[nodiscard]] std::size_t stripe_bytes() const override { return codec_.stripe_bytes(); }

  void encode(mpi::Comm& group, std::span<const std::byte> data,
              std::span<std::byte> redundancy) const override {
    codec_.encode(group, data, redundancy);
  }
  std::vector<BlockRun> encode_delta(mpi::Comm& group, std::span<const std::byte> base,
                                     std::span<const std::byte> next,
                                     std::span<const std::byte> old_redundancy,
                                     std::span<std::byte> redundancy,
                                     std::span<const BlockRun> dirty) const override {
    return codec_.encode_delta(group, base, next, old_redundancy, redundancy, dirty);
  }
  void rebuild(mpi::Comm& group, std::span<const int> missing, std::span<std::byte> data,
               std::span<std::byte> redundancy) const override {
    codec_.rebuild(group, missing, data, redundancy);
  }
  [[nodiscard]] bool verify(mpi::Comm& group, std::span<const std::byte> data,
                            std::span<const std::byte> redundancy) const override {
    return codec_.verify(group, data, redundancy);
  }

 private:
  RSGroupCodec codec_;
};

/// parity_degree 1 -> SingleParityCoder (with `kind`); >= 2 -> RSCoder
/// (always GF/XOR-based).
[[nodiscard]] inline std::unique_ptr<ErasureCoder> make_coder(int parity_degree,
                                                              CodecKind kind,
                                                              std::size_t data_bytes,
                                                              int group_size) {
  if (parity_degree == 1) {
    return std::make_unique<SingleParityCoder>(kind, data_bytes, group_size);
  }
  if (parity_degree >= 2) {
    return std::make_unique<RSCoder>(data_bytes, group_size, parity_degree);
  }
  throw std::invalid_argument("make_coder: parity_degree must be >= 1");
}

}  // namespace skt::enc
