#include "encoding/group_codec.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "encoding/gf256.hpp"
#include "encoding/kernels.hpp"
#include "util/aligned.hpp"

namespace skt::enc {
namespace {

template <typename T>
std::span<const T> as_lanes(std::span<const std::byte> b) {
  return {reinterpret_cast<const T*>(b.data()), b.size() / sizeof(T)};
}

template <typename T>
std::span<T> as_lanes(std::span<std::byte> b) {
  return {reinterpret_cast<T*>(b.data()), b.size() / sizeof(T)};
}

/// Runs `fn(lane, op)` with the code's lane type and combine: uint64 XOR
/// (which is also GF(2^8) addition) or double SUM. Buffers are lane-padded
/// by the stripe layout, so the reinterpretation is size-exact.
template <typename Fn>
void with_lanes(CodecKind kind, Fn&& fn) {
  if (kind == CodecKind::kXor) {
    fn(std::uint64_t{}, mpi::BXor{});
  } else {
    fn(double{}, mpi::Sum{});
  }
}

/// One source of a fold: `coeff` times its bytes over GF(2^8) (1 is plain
/// XOR), or, over SUM lanes, the bytes added or, with `negate`, subtracted.
struct Weight {
  std::uint8_t coeff = 1;
  bool negate = false;
};

/// out = sum_i w[i] * in[i]: XOR with GF(2^8) weights, or the signed sum
/// over double lanes for SUM, whose first source is never negated. The
/// first two weight-1 XOR sources combine in one pass; every further
/// source is one pass over `out`.
void combine(CodecKind kind, std::span<std::byte> out,
             std::span<const std::span<const std::byte>> in, std::span<const Weight> w) {
  if (kind == CodecKind::kSum) {
    const std::span<double> acc = as_lanes<double>(out);
    std::memcpy(out.data(), in[0].data(), out.size());
    for (std::size_t i = 1; i < in.size(); ++i) {
      (w[i].negate ? kernels::sum_sub : kernels::sum_acc)(acc, as_lanes<double>(in[i]));
    }
    return;
  }
  std::size_t i = 0;
  if (in.size() >= 2 && w[0].coeff == 1 && w[1].coeff == 1) {
    kernels::xor_delta(out, in[0], in[1]);
    i = 2;
  } else if (w[0].coeff == 1) {
    std::memcpy(out.data(), in[0].data(), out.size());
    i = 1;
  } else {
    std::memset(out.data(), 0, out.size());
  }
  const std::span<std::uint8_t> out8{reinterpret_cast<std::uint8_t*>(out.data()), out.size()};
  for (; i < in.size(); ++i) {
    kernels::gf256_mul_acc(
        out8, {reinterpret_cast<const std::uint8_t*>(in[i].data()), in[i].size()}, w[i].coeff);
  }
}

/// out = the weighted sum of the borrowed `views`, folded one 64 KiB
/// segment at a time, so every source byte is read once where it sits and
/// each segment of `out` stays in cache while its sources combine into it.
/// Shared by the encode (a parity slot from its family's stripes) and the
/// rebuild (a lost block from its survivors' terms).
void fold(CodecKind kind, std::span<std::byte> out, std::span<const mpi::Comm::Borrowed> views,
          std::span<const Weight> w) {
  std::vector<std::span<const std::byte>> in(views.size());
  for (std::size_t off = 0; off < out.size(); off += mpi::kCollectiveChunkBytes) {
    const std::size_t len = std::min(mpi::kCollectiveChunkBytes, out.size() - off);
    for (std::size_t i = 0; i < views.size(); ++i) in[i] = views[i].read(off, len);
    combine(kind, out.subspan(off, len), in, w);
  }
}

/// A block of one member's buffers: data stripe `index`, or, with
/// `parity`, redundancy slot `index`.
struct BlockAt {
  bool parity = false;
  std::size_t index = 0;
};

/// One survivor's share of a lost block.
struct Term {
  int member = 0;
  BlockAt at;
  Weight weight;
};

/// A block lost `member` gets back at `at`: the weighted sum of its k
/// survivors' `terms`, at most one per survivor.
struct LostBlock {
  int member = 0;
  BlockAt at;
  std::vector<Term> terms;
};

}  // namespace

GroupCodec::GroupCodec(CodecKind kind, std::size_t data_bytes, int group_size, int parity_count)
    : kind_(parity_count > 1 ? CodecKind::kXor : kind),
      group_size_(group_size),
      parity_count_(parity_count) {
  if (parity_count < 1) throw std::invalid_argument("GroupCodec: parity_count must be >= 1");
  if (group_size < 2) throw std::invalid_argument("GroupCodec: group size must be >= 2");
  if (parity_count > 1 && (group_size < parity_count + 2 || group_size > 256)) {
    throw std::invalid_argument("GroupCodec: RS(k, m >= 2) needs m + 2 <= group size <= 256");
  }
  const std::size_t k = stripe_count();
  const std::size_t raw = (data_bytes + k - 1) / k;
  stripe_bytes_ = std::max(kLane, (raw + kLane - 1) / kLane * kLane);

  // Cauchy matrix 1 / (x_j + y_i) with x_j = k + j and y_i = i (distinct,
  // as i < k), column i scaled by x_0 + y_i so that row 0 is all ones:
  // c_j(i) = (x_0 + y_i) / (x_j + y_i). Addition in GF(2^8) is XOR.
  generator_.assign(static_cast<std::size_t>(parity_count) * k, 1);
  for (std::size_t j = 1; j < static_cast<std::size_t>(parity_count); ++j) {
    for (std::size_t i = 0; i < k; ++i) {
      generator_[j * k + i] = gf256::div(static_cast<std::uint8_t>(k ^ i),
                                         static_cast<std::uint8_t>((k + j) ^ i));
    }
  }
}

bool GroupCodec::contributes(int p, int f) const {
  if (p < 0 || p >= group_size_ || f < 0 || f >= group_size_) {
    throw std::out_of_range("GroupCodec: bad member or family index");
  }
  return (p - f + group_size_) % group_size_ >= parity_count_;
}

std::size_t GroupCodec::stripe_index(int p, int f) const {
  if (!contributes(p, f)) {
    throw std::invalid_argument("GroupCodec: member holds parity for this family");
  }
  // Member p skips the m families whose parity rows it owns:
  // (p - j) mod N for j < m.
  int idx = f;
  for (int j = 0; j < parity_count_; ++j) {
    if ((p - j + group_size_) % group_size_ < f) --idx;
  }
  return static_cast<std::size_t>(idx);
}

int GroupCodec::contributor_index(int p, int f) const {
  if (!contributes(p, f)) throw std::invalid_argument("GroupCodec: not a contributor");
  int idx = p;
  for (int j = 0; j < parity_count_; ++j) {
    if (parity_owner(j, f) < p) --idx;
  }
  return idx;
}

std::uint8_t GroupCodec::coefficient(int row, int p, int f) const {
  if (row < 0 || row >= parity_count_) throw std::out_of_range("GroupCodec: bad parity row");
  return generator_[static_cast<std::size_t>(row) * stripe_count() +
                    static_cast<std::size_t>(contributor_index(p, f))];
}

void GroupCodec::check_args(const mpi::Comm& group, std::size_t data_size,
                            std::size_t redundancy_size) const {
  if (group.size() != group_size_) {
    throw std::invalid_argument("GroupCodec: communicator size != group size");
  }
  if (data_size != padded_bytes()) {
    throw std::invalid_argument("GroupCodec: data buffer must be padded_bytes()");
  }
  if (redundancy_size != redundancy_bytes()) {
    throw std::invalid_argument("GroupCodec: redundancy buffer must be redundancy_bytes()");
  }
}

void GroupCodec::encode(mpi::Comm& group, std::span<const std::byte> data,
                        std::span<std::byte> redundancy) const {
  check_args(group, data.size(), redundancy.size());
  const int n = group_size_;
  const int me = group.rank();
  const std::size_t stripe = stripe_bytes_;
  // One tag for the whole encode: between any two members the loans of
  // several rows go out and are borrowed in the same row order, and the
  // mailbox is FIFO per source, tag and comm.
  const mpi::Tag tag = group.reserve_tag();
  // Lend every stripe to the owner of each parity row it feeds; lending
  // never blocks, so every member's stripes are out before anyone folds.
  std::vector<mpi::Comm::Loan> loans;
  loans.reserve(stripe_count() * static_cast<std::size_t>(parity_count_));
  for (int row = 0; row < parity_count_; ++row) {
    for (int f = 0; f < n; ++f) {
      if (!contributes(me, f)) continue;
      const std::span<const std::byte> mine = data.subspan(stripe_index(me, f) * stripe, stripe);
      loans.push_back(group.lend(parity_owner(row, f), tag, mine));
    }
  }
  // Slot j holds row j of family (me - j) mod n: fold that family's k lent
  // stripes straight into it, weighted by the generator.
  std::vector<mpi::Comm::Borrowed> views;
  std::vector<Weight> weights;
  for (int row = 0; row < parity_count_; ++row) {
    const int f = (me - row + n) % n;
    views.clear();
    weights.clear();
    for (int p = 0; p < n; ++p) {
      if (!contributes(p, f)) continue;
      views.push_back(group.borrow(p, tag, stripe));
      weights.push_back({.coeff = coefficient(row, p, f)});
    }
    // Holding the slot's views: a node death here leaves peers reading
    // this member's lent stripes, which its unwinding must wait out.
    group.failpoint("enc.fold");
    fold(kind_, redundancy.subspan(static_cast<std::size_t>(row) * stripe, stripe), views,
         weights);
  }
  // Release the views before waiting on this member's own loans: its
  // borrowers may be waiting on theirs in turn.
  views.clear();
  for (mpi::Comm::Loan& loan : loans) loan.wait();
}

std::vector<BlockRun> GroupCodec::encode_delta(mpi::Comm& group,
                                               std::span<const std::byte> base,
                                               std::span<const std::byte> next,
                                               std::span<const std::byte> old_redundancy,
                                               std::span<std::byte> redundancy,
                                               std::span<const BlockRun> dirty) const {
  check_args(group, next.size(), redundancy.size());
  if (base.size() != next.size() || old_redundancy.size() != redundancy.size()) {
    throw std::invalid_argument("GroupCodec::encode_delta: base/old buffer size mismatch");
  }
  const int n = group_size_;
  const std::size_t stripes = stripe_count();
  const std::size_t stripe = stripe_bytes_;

  // Every member sees every member's runs, so all of them derive the same
  // path and the same reductions: one per piece of each dirty family's
  // union and parity row, rooted at the row's owner, over the contributors
  // dirty on that piece. Sources are listed from the owner onward
  // (relative rank order), so the interior nodes of different families'
  // trees fall on different members.
  const std::vector<StripeRuns> exchanged = exchange_runs(group, dirty, stripe, stripes);

  // At least half of the group's bytes dirty: the full encode reads every
  // stripe where it sits, in one pass per row, instead of forming and
  // moving that many diffs.
  if (2 * dirty_bytes(exchanged, stripe) >= static_cast<std::size_t>(n) * stripes * stripe) {
    encode(group, next, redundancy);
    std::vector<BlockRun> all;
    for (int row = 0; row < parity_count_; ++row) {
      all.push_back({static_cast<std::size_t>(row), 0, stripe_blocks(stripe)});
    }
    return all;
  }

  struct Piece {
    int family;
    int row;
    ByteRange range;  ///< within the family's stripes
  };
  std::vector<mpi::Comm::SparseReduction> reductions;
  std::vector<Piece> pieces;
  std::vector<BlockRun> changed;
  const int me = group.rank();
  for (int f = 0; f < n; ++f) {
    for (int row = 0; row < parity_count_; ++row) {
      const int root = parity_owner(row, f);
      std::vector<std::pair<int, std::size_t>> contributors;
      for (int step = 1; step < n; ++step) {
        const int p = (root + step) % n;
        if (contributes(p, f)) contributors.emplace_back(p, stripe_index(p, f));
      }
      const std::vector<FamilyPiece> family = family_pieces(exchanged, stripes, contributors);
      for (const FamilyPiece& piece : family) {
        const ByteRange range = block_bytes(piece.first, piece.end, stripe);
        reductions.push_back({.root = root, .sources = piece.sources, .bytes = range.size()});
        pieces.push_back({f, row, range});
      }
      if (root == me) append_changed(changed, static_cast<std::size_t>(row), family);
    }
  }

  if (redundancy.data() != old_redundancy.data()) {
    std::memcpy(redundancy.data(), old_redundancy.data(), redundancy.size());
  }
  const auto fill = [&](std::size_t i, std::size_t off, std::span<std::byte> out) {
    const Piece& p = pieces[i];
    const std::size_t at = stripe_index(me, p.family) * stripe + p.range.begin + off;
    const std::span<const std::byte> b = base.subspan(at, out.size());
    const std::span<const std::byte> x = next.subspan(at, out.size());
    const std::uint8_t c = coefficient(p.row, me, p.family);
    if (kind_ == CodecKind::kSum) {
      std::memcpy(out.data(), x.data(), out.size());
      kernels::sum_sub(as_lanes<double>(out), as_lanes<double>(b));
    } else if (c == 1) {
      kernels::xor_delta(out, b, x);
    } else {
      // c * (old ^ new) = c * old ^ c * new, accumulated straight into the
      // zeroed outgoing segment.
      const std::span<std::uint8_t> out8{reinterpret_cast<std::uint8_t*>(out.data()),
                                         out.size()};
      kernels::gf256_mul_acc(out8, {reinterpret_cast<const std::uint8_t*>(b.data()), b.size()},
                             c);
      kernels::gf256_mul_acc(out8, {reinterpret_cast<const std::uint8_t*>(x.data()), x.size()},
                             c);
    }
  };
  const auto fold = [&](std::size_t i, std::size_t off, std::span<const std::byte> in) {
    const Piece& p = pieces[i];
    const std::size_t at = static_cast<std::size_t>(p.row) * stripe + p.range.begin + off;
    accumulate(kind_, redundancy.subspan(at, in.size()), in);
  };
  with_lanes(kind_, [&]<typename T, typename Op>(T, Op op) {
    group.reduce_sparse<T>(reductions, op, fill, fold);
  });
  std::sort(changed.begin(), changed.end(), [](const BlockRun& a, const BlockRun& b) {
    return a.stripe != b.stripe ? a.stripe < b.stripe : a.first < b.first;
  });
  return changed;
}

void GroupCodec::encode_reference(mpi::Comm& group, std::span<const std::byte> data,
                                  std::span<std::byte> checksum) const {
  check_args(group, data.size(), checksum.size());
  if (parity_count_ != 1) {
    throw std::logic_error("GroupCodec::encode_reference: single-parity codes only");
  }
  const int me = group.rank();
  const std::vector<std::byte> identity(stripe_bytes_, std::byte{0});
  for (int f = 0; f < group_size_; ++f) {
    const std::span<const std::byte> contribution =
        me == f ? std::span<const std::byte>(identity)
                : data.subspan(stripe_index(me, f) * stripe_bytes_, stripe_bytes_);
    const std::span<std::byte> out = me == f ? checksum : std::span<std::byte>{};
    with_lanes(kind_, [&]<typename T, typename Op>(T, Op op) {
      group.reduce<T>(f, as_lanes<T>(contribution), as_lanes<T>(out), op);
    });
  }
}

void GroupCodec::rebuild(mpi::Comm& group, std::span<const int> missing,
                         std::span<std::byte> data, std::span<std::byte> redundancy) const {
  check_args(group, data.size(), redundancy.size());
  if (missing.empty()) return;
  std::vector<int> lost(missing.begin(), missing.end());
  std::sort(lost.begin(), lost.end());
  lost.erase(std::unique(lost.begin(), lost.end()), lost.end());
  if (static_cast<int>(lost.size()) > parity_count_) {
    throw std::invalid_argument(
        "GroupCodec: " + std::to_string(lost.size()) +
        " concurrent erasures exceed the code's budget (max " + std::to_string(parity_count_) +
        "); refusing to rebuild from partial data");
  }
  const int n = group_size_;
  for (const int m : lost) {
    if (m < 0 || m >= n) throw std::invalid_argument("GroupCodec::rebuild: bad member");
  }
  const auto is_lost = [&](int p) { return std::binary_search(lost.begin(), lost.end(), p); };

  std::vector<LostBlock> blocks;
  for (int f = 0; f < n; ++f) {
    // Partition this family's losses: contributors to re-solve vs parity
    // rows to recompute. A member is one or the other, never both, so
    // lost contributors + lost rows <= m and enough surviving rows exist.
    std::vector<int> lost_data;
    std::vector<int> alive_data;
    std::vector<int> lost_rows;
    std::vector<int> live_rows;
    for (int p = 0; p < n; ++p) {
      if (contributes(p, f)) (is_lost(p) ? lost_data : alive_data).push_back(p);
    }
    for (int row = 0; row < parity_count_; ++row) {
      (is_lost(parity_owner(row, f)) ? lost_rows : live_rows).push_back(row);
    }

    // The lost contributors x_b against the first L surviving rows r_a:
    // with syndromes S_a = P_{r_a} ^ sum_p c_{r_a}(p) * D_p over the
    // surviving contributors p, D_{x_b} = sum_a inv[b][a] * S_a, where inv
    // inverts G[a][b] = c_{r_a}(x_b). A block sum_b lam[b] * D_{x_b} ^
    // sum_p mu[p] * D_p is then u[a] = (G^T)^-1 lam on parity slot r_a and
    // mu[p] ^ sum_a u[a] * c_{r_a}(p) on stripe D_p. The code is MDS, so
    // every weight is nonzero: k terms per block. Over SUM (m = 1, all
    // weights 1) a stripe solved through its checksum takes the other
    // stripes negated; the checksum term comes first, so the fold starts
    // from a copy of it.
    const std::size_t L = lost_data.size();
    // `u` holds lam on entry and is solved into u in place.
    const auto add_block = [&](int member, BlockAt at, std::vector<std::uint8_t> u,
                               std::vector<std::uint8_t> mu) {
      if (L > 0) {
        std::vector<std::uint8_t> system(L * L);
        for (std::size_t b = 0; b < L; ++b) {
          for (std::size_t a = 0; a < L; ++a) {
            system[b * L + a] = coefficient(live_rows[a], lost_data[b], f);
          }
        }
        if (!gf256::solve(system, u, static_cast<int>(L))) {
          throw std::logic_error("GroupCodec: singular rebuild system");
        }
      }
      LostBlock block{.member = member, .at = at, .terms = {}};
      for (std::size_t a = 0; a < L; ++a) {
        for (std::size_t i = 0; i < alive_data.size(); ++i) {
          mu[i] ^= gf256::mul(u[a], coefficient(live_rows[a], alive_data[i], f));
        }
        const int row = live_rows[a];
        block.terms.push_back({.member = parity_owner(row, f),
                               .at = {.parity = true, .index = static_cast<std::size_t>(row)},
                               .weight = {.coeff = u[a]}});
      }
      for (std::size_t i = 0; i < alive_data.size(); ++i) {
        const int p = alive_data[i];
        block.terms.push_back(
            {.member = p,
             .at = {.parity = false, .index = stripe_index(p, f)},
             .weight = {.coeff = mu[i], .negate = kind_ == CodecKind::kSum && L > 0}});
      }
      blocks.push_back(std::move(block));
    };
    for (std::size_t b = 0; b < L; ++b) {
      std::vector<std::uint8_t> lam(L, 0);
      lam[b] = 1;
      add_block(lost_data[b], {.parity = false, .index = stripe_index(lost_data[b], f)},
                std::move(lam), std::vector<std::uint8_t>(alive_data.size(), 0));
    }
    // A lost parity row is sum_p c_row(p) * D_p over every contributor,
    // the lost ones included.
    for (const int row : lost_rows) {
      std::vector<std::uint8_t> lam(L);
      for (std::size_t b = 0; b < L; ++b) lam[b] = coefficient(row, lost_data[b], f);
      std::vector<std::uint8_t> mu(alive_data.size());
      for (std::size_t i = 0; i < alive_data.size(); ++i) {
        mu[i] = coefficient(row, alive_data[i], f);
      }
      add_block(parity_owner(row, f), {.parity = true, .index = static_cast<std::size_t>(row)},
                std::move(lam), std::move(mu));
    }
  }

  // The encode's shape, with the lost members as the owners: every
  // survivor lends each of its terms to the lost member that needs it, and
  // that member folds each block's k borrowed terms straight into its
  // buffers. Between a survivor and a lost member the loans go out and are
  // borrowed in block order, under one tag.
  const int me = group.rank();
  const std::size_t stripe = stripe_bytes_;
  const auto bytes_at = [&](BlockAt at) {
    return (at.parity ? redundancy : data).subspan(at.index * stripe, stripe);
  };
  const mpi::Tag tag = group.reserve_tag();
  std::vector<mpi::Comm::Loan> loans;
  for (const LostBlock& block : blocks) {
    for (const Term& t : block.terms) {
      if (t.member == me) loans.push_back(group.lend(block.member, tag, bytes_at(t.at)));
    }
  }
  std::vector<mpi::Comm::Borrowed> views;
  std::vector<Weight> weights;
  for (const LostBlock& block : blocks) {
    if (block.member != me) continue;
    views.clear();
    weights.clear();
    for (const Term& t : block.terms) {
      views.push_back(group.borrow(t.member, tag, stripe));
      weights.push_back(t.weight);
    }
    // Holding the block's views: a death here must stop the survivors,
    // whose lent bytes this member is reading.
    group.failpoint("enc.rebuild");
    fold(kind_, bytes_at(block.at), views, weights);
  }
  if (!is_lost(me)) {
    // Lent, not yet settled: a death here unwinds with bytes on loan.
    group.failpoint("enc.rebuild");
    for (mpi::Comm::Loan& loan : loans) loan.wait();
  }
}

bool GroupCodec::verify(mpi::Comm& group, std::span<const std::byte> data,
                        std::span<const std::byte> redundancy) const {
  check_args(group, data.size(), redundancy.size());
  util::AlignedBytes recomputed(redundancy_bytes());
  encode(group, data, recomputed);
  const std::uint8_t ok =
      equals(kind_, std::span<const std::byte>(recomputed), redundancy) ? 1 : 0;
  return group.allreduce_value<std::uint8_t>(ok, mpi::Min{}) == 1;
}

}  // namespace skt::enc
