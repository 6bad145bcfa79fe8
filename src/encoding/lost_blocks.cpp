#include "encoding/lost_blocks.hpp"

#include <algorithm>
#include <cstring>

#include "encoding/kernels.hpp"

namespace skt::enc {

void rebuild_lost_blocks(mpi::Comm& group, CodecKind lanes, std::span<const LostBlock> blocks,
                         std::span<std::byte> data, std::span<std::byte> redundancy) {
  const int me = group.rank();
  const std::size_t segment = mpi::kCollectiveChunkBytes;
  const auto buffer = [&](const BlockAt& at) { return at.redundancy ? redundancy : data; };

  // Part j of a block covers its j-th share of whole segments and is owned
  // by a different contributor; the owner rotates with the block, so a
  // run of one-segment blocks spreads over the survivors too.
  struct Part {
    const LostBlock* block;
    std::size_t begin;
    const Term* mine;  ///< this member's term, when it contributes
  };
  std::vector<mpi::Comm::SparseReduction> reductions;
  std::vector<Part> parts;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const LostBlock& lost = blocks[b];
    const std::size_t terms = lost.terms.size();
    const std::size_t segments = (lost.bytes + segment - 1) / segment;
    for (std::size_t j = 0; j < terms; ++j) {
      const std::size_t begin = std::min(j * segments / terms * segment, lost.bytes);
      const std::size_t end = std::min((j + 1) * segments / terms * segment, lost.bytes);
      if (begin == end) continue;
      mpi::Comm::SparseReduction r{.root = lost.member, .sources = {}, .bytes = end - begin,
                                   .relay = true};
      const Term* mine = nullptr;
      for (std::size_t k = 0; k < terms; ++k) {
        const Term& t = lost.terms[(b + j + k) % terms];
        r.sources.push_back(t.member);
        if (t.member == me) mine = &t;
      }
      reductions.push_back(std::move(r));
      parts.push_back({&lost, begin, mine});
    }
  }

  const auto fill = [&](std::size_t i, std::size_t off, std::span<std::byte> out) {
    const Term& t = *parts[i].mine;
    const std::span<const std::byte> src =
        buffer(t.at).subspan(t.at.offset + parts[i].begin + off, out.size());
    if (t.negate) {
      kernels::sum_sub({reinterpret_cast<double*>(out.data()), out.size() / sizeof(double)},
                       {reinterpret_cast<const double*>(src.data()), src.size() / sizeof(double)});
    } else if (t.coeff == 1) {
      std::memcpy(out.data(), src.data(), out.size());
    } else {
      kernels::gf256_mul_acc({reinterpret_cast<std::uint8_t*>(out.data()), out.size()},
                             {reinterpret_cast<const std::uint8_t*>(src.data()), src.size()},
                             t.coeff);
    }
  };
  const auto fold = [&](std::size_t i, std::size_t off, std::span<const std::byte> in) {
    const LostBlock& lost = *parts[i].block;
    std::memcpy(buffer(lost.at).data() + lost.at.offset + parts[i].begin + off, in.data(),
                in.size());
  };
  if (lanes == CodecKind::kXor) {
    group.reduce_sparse<std::uint64_t>(reductions, mpi::BXor{}, fill, fold);
  } else {
    group.reduce_sparse<double>(reductions, mpi::Sum{}, fill, fold);
  }
}

}  // namespace skt::enc
