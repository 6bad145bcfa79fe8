#include "encoding/group_codec.hpp"

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "encoding/kernels.hpp"
#include "encoding/lost_blocks.hpp"
#include "util/aligned.hpp"

namespace skt::enc {
namespace {

/// Typed dispatch of a byte-span reduce onto the communicator. Buffers are
/// lane-padded by StripeLayout, so the uint64/double reinterpretation is
/// size-exact.
void reduce_bytes(mpi::Comm& group, CodecKind kind, int root, std::span<const std::byte> in,
                  std::span<std::byte> out) {
  if (kind == CodecKind::kXor) {
    const std::span<const std::uint64_t> in64{reinterpret_cast<const std::uint64_t*>(in.data()),
                                              in.size() / sizeof(std::uint64_t)};
    const std::span<std::uint64_t> out64{reinterpret_cast<std::uint64_t*>(out.data()),
                                         out.size() / sizeof(std::uint64_t)};
    group.reduce<std::uint64_t>(root, in64, out64, mpi::BXor{});
  } else {
    const std::span<const double> ind{reinterpret_cast<const double*>(in.data()),
                                      in.size() / sizeof(double)};
    const std::span<double> outd{reinterpret_cast<double*>(out.data()),
                                 out.size() / sizeof(double)};
    group.reduce<double>(root, ind, outd, mpi::Sum{});
  }
}

template <typename T>
std::span<const T> as_lanes(std::span<const std::byte> b) {
  return {reinterpret_cast<const T*>(b.data()), b.size() / sizeof(T)};
}

template <typename T>
std::span<T> as_lanes(std::span<std::byte> b) {
  return {reinterpret_cast<T*>(b.data()), b.size() / sizeof(T)};
}

/// One reduce-scatter encodes every family: block f of this member's
/// contribution is its stripe for family f (empty — no contribution — for
/// its own family), and the scatter lands family f's finished checksum
/// exactly on member f.
template <typename T, typename Op>
void encode_scatter(mpi::Comm& group, const StripeLayout& layout,
                    std::span<const std::byte> data, std::span<std::byte> checksum, Op op) {
  const int n = layout.group_size();
  const int me = group.rank();
  std::vector<std::span<const T>> blocks(static_cast<std::size_t>(n));
  for (int f = 0; f < n; ++f) {
    if (f != me) blocks[static_cast<std::size_t>(f)] = as_lanes<T>(layout.stripe(data, me, f));
  }
  group.reduce_scatter_blocks<T, Op>(
      blocks, {reinterpret_cast<T*>(checksum.data()), checksum.size() / sizeof(T)}, op);
}

}  // namespace

GroupCodec::GroupCodec(CodecKind kind, std::size_t data_bytes, int group_size)
    : kind_(kind), layout_(data_bytes, group_size) {}

void GroupCodec::check_args(const mpi::Comm& group, std::size_t data_size,
                            std::size_t checksum_size) const {
  if (group.size() != layout_.group_size()) {
    throw std::invalid_argument("GroupCodec: communicator size != group size");
  }
  if (data_size != layout_.padded_bytes()) {
    throw std::invalid_argument("GroupCodec: data buffer must be padded_bytes()");
  }
  if (checksum_size != redundancy_bytes()) {
    throw std::invalid_argument("GroupCodec: checksum buffer must be redundancy_bytes()");
  }
}

void GroupCodec::encode(mpi::Comm& group, std::span<const std::byte> data,
                        std::span<std::byte> checksum) const {
  check_args(group, data.size(), checksum.size());
  if (kind_ == CodecKind::kXor) {
    encode_scatter<std::uint64_t>(group, layout_, data, checksum, mpi::BXor{});
  } else {
    encode_scatter<double>(group, layout_, data, checksum, mpi::Sum{});
  }
}

std::vector<BlockRun> GroupCodec::encode_delta(mpi::Comm& group,
                                               std::span<const std::byte> base,
                                               std::span<const std::byte> next,
                                               std::span<const std::byte> old_checksum,
                                               std::span<std::byte> checksum,
                                               std::span<const BlockRun> dirty) const {
  check_args(group, next.size(), checksum.size());
  if (base.size() != next.size() || old_checksum.size() != checksum.size()) {
    throw std::invalid_argument("GroupCodec::encode_delta: base/old buffer size mismatch");
  }
  const int n = layout_.group_size();
  const auto stripes = static_cast<std::size_t>(n - 1);
  const std::size_t stripe = layout_.stripe_bytes();

  // Every member sees every member's runs, so all of them derive the same
  // path and the same reductions: one per piece of each dirty family's
  // union, rooted at its checksum owner, over the contributors dirty on
  // that piece. Sources are listed from the owner onward (relative rank
  // order), so the interior nodes of different families' trees fall on
  // different members.
  const std::vector<StripeRuns> exchanged = exchange_runs(group, dirty, stripe, stripes);

  // At least half of the group's bytes dirty: the ring spreads the same
  // bytes evenly over all links and combines in one pass.
  if (2 * dirty_bytes(exchanged, stripe) >= static_cast<std::size_t>(n) * stripes * stripe) {
    encode(group, next, checksum);
    return {{0, 0, stripe_blocks(stripe)}};
  }

  struct Piece {
    int family;
    ByteRange range;  ///< within the family's stripes
  };
  std::vector<mpi::Comm::SparseReduction> reductions;
  std::vector<Piece> pieces;
  std::vector<BlockRun> changed;
  const int me = group.rank();
  for (int f = 0; f < n; ++f) {
    std::vector<std::pair<int, std::size_t>> contributors;
    for (int step = 1; step < n; ++step) {
      const int p = (f + step) % n;
      contributors.emplace_back(p, layout_.stripe_index(p, f));
    }
    const std::vector<FamilyPiece> family = family_pieces(exchanged, stripes, contributors);
    for (const FamilyPiece& piece : family) {
      const ByteRange range = block_bytes(piece.first, piece.end, stripe);
      reductions.push_back({.root = f, .sources = piece.sources, .bytes = range.size()});
      pieces.push_back({f, range});
    }
    if (f == me) append_changed(changed, 0, family);
  }

  if (checksum.data() != old_checksum.data()) {
    std::memcpy(checksum.data(), old_checksum.data(), checksum.size());
  }
  const auto fill = [&](std::size_t i, std::size_t off, std::span<std::byte> out) {
    const std::size_t at =
        layout_.stripe_index(me, pieces[i].family) * stripe + pieces[i].range.begin + off;
    const std::span<const std::byte> b = base.subspan(at, out.size());
    const std::span<const std::byte> x = next.subspan(at, out.size());
    if (kind_ == CodecKind::kXor) {
      kernels::xor_delta(out, b, x);
    } else {
      std::memcpy(out.data(), x.data(), out.size());
      kernels::sum_sub(as_lanes<double>(out), as_lanes<double>(b));
    }
  };
  const auto fold = [&](std::size_t i, std::size_t off, std::span<const std::byte> in) {
    accumulate(kind_, checksum.subspan(pieces[i].range.begin + off, in.size()), in);
  };
  if (kind_ == CodecKind::kXor) {
    group.reduce_sparse<std::uint64_t>(reductions, mpi::BXor{}, fill, fold);
  } else {
    group.reduce_sparse<double>(reductions, mpi::Sum{}, fill, fold);
  }
  return changed;
}

void GroupCodec::encode_reference(mpi::Comm& group, std::span<const std::byte> data,
                                  std::span<std::byte> checksum) const {
  check_args(group, data.size(), checksum.size());
  const int n = layout_.group_size();
  const int me = group.rank();
  const std::vector<std::byte> identity(layout_.stripe_bytes(), std::byte{0});
  for (int f = 0; f < n; ++f) {
    const std::span<const std::byte> contribution =
        me == f ? std::span<const std::byte>(identity) : layout_.stripe(data, me, f);
    reduce_bytes(group, kind_, f, contribution,
                 me == f ? checksum : std::span<std::byte>{});
  }
}

void GroupCodec::rebuild(mpi::Comm& group, std::span<const int> missing,
                         std::span<std::byte> data, std::span<std::byte> checksum) const {
  check_args(group, data.size(), checksum.size());
  if (missing.empty()) return;
  if (missing.size() > 1) {
    throw std::invalid_argument(
        "GroupCodec: " + std::to_string(missing.size()) +
        " concurrent erasures exceed the single-parity budget (max 1); refusing to "
        "rebuild from partial data");
  }
  const int failed = missing.front();
  const int n = layout_.group_size();
  if (failed < 0 || failed >= n) throw std::invalid_argument("GroupCodec::rebuild: bad member");

  // The failed member's stripe for family f != failed is checksum_f (-)
  // the other survivors' family-f stripes; its own checksum is the sum of
  // the survivors' family-`failed` stripes. Every survivor contributes to
  // every block. XOR is self-inverse; SUM contributes negated stripes, so
  // the reduce yields checksum - sum(survivors) directly.
  const std::size_t stripe = layout_.stripe_bytes();
  std::vector<LostBlock> blocks;
  for (int f = 0; f < n; ++f) {
    LostBlock lost{.member = failed, .at = {}, .bytes = stripe, .terms = {}};
    if (f == failed) {
      lost.at.redundancy = true;
    } else {
      lost.at.offset = layout_.stripe_index(failed, f) * stripe;
    }
    for (int step = 1; step < n; ++step) {
      const int p = (failed + step) % n;
      if (p == f) {
        lost.terms.push_back({.member = p, .at = {.redundancy = true, .offset = 0}});
      } else {
        lost.terms.push_back({.member = p,
                              .at = {.redundancy = false,
                                     .offset = layout_.stripe_index(p, f) * stripe},
                              .negate = f != failed && kind_ == CodecKind::kSum});
      }
    }
    blocks.push_back(std::move(lost));
  }
  rebuild_lost_blocks(group, kind_, blocks, data, checksum);
}

bool GroupCodec::verify(mpi::Comm& group, std::span<const std::byte> data,
                        std::span<const std::byte> checksum) const {
  check_args(group, data.size(), checksum.size());
  util::AlignedBytes recomputed(redundancy_bytes());
  encode(group, data, recomputed);
  const std::uint8_t ok =
      equals(kind_, std::span<const std::byte>(recomputed), checksum) ? 1 : 0;
  return group.allreduce_value<std::uint8_t>(ok, mpi::Min{}) == 1;
}

}  // namespace skt::enc
