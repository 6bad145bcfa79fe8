#include "encoding/rs_group.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "encoding/gf256.hpp"
#include "encoding/kernels.hpp"
#include "encoding/lost_blocks.hpp"
#include "util/aligned.hpp"

namespace skt::enc {
namespace {

std::span<std::uint8_t> as_u8(std::span<std::byte> s) {
  return {reinterpret_cast<std::uint8_t*>(s.data()), s.size()};
}
std::span<const std::uint8_t> as_u8(std::span<const std::byte> s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// In-place Gauss-Jordan inverse of an n x n GF(2^8) matrix. Singular
/// input throws — the callers only ever pass square submatrices of a
/// Cauchy generator, which are invertible by construction.
std::vector<std::uint8_t> gf_invert(std::vector<std::uint8_t> work, std::size_t n) {
  std::vector<std::uint8_t> inv(n * n, 0);
  for (std::size_t i = 0; i < n; ++i) inv[i * n + i] = 1;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    while (pivot < n && work[pivot * n + col] == 0) ++pivot;
    if (pivot == n) throw std::logic_error("RSGroupCodec: singular rebuild system");
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(work[pivot * n + c], work[col * n + c]);
        std::swap(inv[pivot * n + c], inv[col * n + c]);
      }
    }
    const std::uint8_t piv_inv = gf256::inv(work[col * n + col]);
    for (std::size_t c = 0; c < n; ++c) {
      work[col * n + c] = gf256::mul(work[col * n + c], piv_inv);
      inv[col * n + c] = gf256::mul(inv[col * n + c], piv_inv);
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const std::uint8_t factor = work[r * n + col];
      if (factor == 0) continue;
      for (std::size_t c = 0; c < n; ++c) {
        work[r * n + c] ^= gf256::mul(factor, work[col * n + c]);
        inv[r * n + c] ^= gf256::mul(factor, inv[col * n + c]);
      }
    }
  }
  return inv;
}

}  // namespace

RSGroupCodec::RSGroupCodec(std::size_t data_bytes, int group_size, int parity_count)
    : data_bytes_(data_bytes),
      group_size_(group_size),
      parity_count_(parity_count),
      rs_(std::max(group_size - parity_count, 1), std::max(parity_count, 1)) {
  if (parity_count < 1) {
    throw std::invalid_argument("RSGroupCodec: parity_count must be >= 1");
  }
  if (group_size < parity_count + 2) {
    throw std::invalid_argument("RSGroupCodec: group size must be >= parity_count + 2");
  }
  const auto stripes = static_cast<std::size_t>(group_size - parity_count);
  const std::size_t raw = (data_bytes + stripes - 1) / stripes;
  // Stripes start on the cache-line / vector-register boundary so every
  // GF multiply-accumulate runs aligned.
  stripe_bytes_ = (raw + util::kBufferAlign - 1) / util::kBufferAlign * util::kBufferAlign;
  if (stripe_bytes_ == 0) stripe_bytes_ = util::kBufferAlign;
}

bool RSGroupCodec::contributes(int p, int f) const {
  for (int j = 0; j < parity_count_; ++j) {
    if (p == (f + j) % group_size_) return false;
  }
  return true;
}

std::size_t RSGroupCodec::stripe_index(int p, int f) const {
  if (!contributes(p, f)) {
    throw std::invalid_argument("RSGroupCodec: member holds parity for this family");
  }
  // Member p is excluded from the m families whose parity rows it owns:
  // (p - j + N) % N for j < m.
  int idx = f;
  for (int j = 0; j < parity_count_; ++j) {
    const int ex = (p - j + group_size_) % group_size_;
    if (ex < f) --idx;
  }
  return static_cast<std::size_t>(idx);
}

int RSGroupCodec::contributor_index(int p, int f) const {
  if (!contributes(p, f)) {
    throw std::invalid_argument("RSGroupCodec: not a contributor");
  }
  int idx = p;
  for (int j = 0; j < parity_count_; ++j) {
    const int ex = (f + j) % group_size_;
    if (ex < p) --idx;
  }
  return idx;
}

std::uint8_t RSGroupCodec::coefficient(int row, int p, int f) const {
  return rs_.coefficient(row, contributor_index(p, f));
}

void RSGroupCodec::check_args(const mpi::Comm& group, std::size_t data_size,
                              std::size_t parity_size) const {
  if (group.size() != group_size_) {
    throw std::invalid_argument("RSGroupCodec: communicator size != group size");
  }
  if (data_size != padded_bytes() || parity_size != redundancy_bytes()) {
    throw std::invalid_argument("RSGroupCodec: bad buffer sizes");
  }
}

void RSGroupCodec::encode(mpi::Comm& group, std::span<const std::byte> data,
                          std::span<std::byte> parity) const {
  check_args(group, data.size(), parity.size());
  const int me = group.rank();
  const int n = group_size_;
  // One reduce-scatter per parity row instead of one reduce per (family,
  // row). The scatter delivers block b to rank b; row j maps family f to
  // block (f + j) % n — exactly the member holding that parity slot. Each
  // member pre-multiplies its stripes by the row coefficients into a
  // scratch contribution buffer; XOR over GF(2^8) products is exactly the
  // Reed-Solomon sum. Block `me` is the row's parity of a family this
  // member owns and never contributes to, so it stays empty.
  util::AlignedBytes scratch(static_cast<std::size_t>(n) * stripe_bytes_);
  std::vector<std::span<const std::uint64_t>> blocks(static_cast<std::size_t>(n));
  const auto block_of = [&](int b) {
    return std::span<std::byte>(scratch.data() + static_cast<std::size_t>(b) * stripe_bytes_,
                                stripe_bytes_);
  };
  for (int row = 0; row < parity_count_; ++row) {
    std::memset(scratch.data(), 0, scratch.size());
    for (int f = 0; f < n; ++f) {
      const int b = (f + row) % n;
      if (contributes(me, f)) {
        const std::span<const std::byte> mine =
            data.subspan(stripe_index(me, f) * stripe_bytes_, stripe_bytes_);
        gf256::mul_acc(as_u8(block_of(b)), as_u8(mine), coefficient(row, me, f));
      }
      if (b == me) continue;
      blocks[static_cast<std::size_t>(b)] = {
          reinterpret_cast<const std::uint64_t*>(block_of(b).data()),
          stripe_bytes_ / sizeof(std::uint64_t)};
    }
    const std::span<std::byte> out =
        parity.subspan(static_cast<std::size_t>(row) * stripe_bytes_, stripe_bytes_);
    group.reduce_scatter_blocks<std::uint64_t, mpi::BXor>(
        blocks,
        {reinterpret_cast<std::uint64_t*>(out.data()), stripe_bytes_ / sizeof(std::uint64_t)},
        mpi::BXor{});
  }
}

std::vector<BlockRun> RSGroupCodec::encode_delta(mpi::Comm& group,
                                                 std::span<const std::byte> base,
                                                 std::span<const std::byte> next,
                                                 std::span<const std::byte> old_parity,
                                                 std::span<std::byte> parity,
                                                 std::span<const BlockRun> dirty) const {
  check_args(group, next.size(), parity.size());
  if (base.size() != next.size() || old_parity.size() != parity.size()) {
    throw std::invalid_argument("RSGroupCodec::encode_delta: buffer size mismatch");
  }
  const int n = group_size_;
  const auto stripes = static_cast<std::size_t>(n - parity_count_);

  // Same scheme as GroupCodec::encode_delta, with one reduction per piece
  // of a dirty family and parity row, rooted at that row's owner; each
  // source folds in its GF(2^8)-weighted diff.
  struct Piece {
    int family;
    int row;
    ByteRange range;  ///< within the family's stripes
  };
  const std::vector<StripeRuns> exchanged = exchange_runs(group, dirty, stripe_bytes_, stripes);
  if (2 * dirty_bytes(exchanged, stripe_bytes_) >=
      static_cast<std::size_t>(n) * stripes * stripe_bytes_) {
    encode(group, next, parity);
    std::vector<BlockRun> all;
    for (int row = 0; row < parity_count_; ++row) {
      all.push_back({static_cast<std::size_t>(row), 0, stripe_blocks(stripe_bytes_)});
    }
    return all;
  }

  std::vector<mpi::Comm::SparseReduction> reductions;
  std::vector<Piece> pieces;
  std::vector<BlockRun> changed;
  const int me = group.rank();
  for (int f = 0; f < n; ++f) {
    for (int row = 0; row < parity_count_; ++row) {
      // Sources in relative rank order from the row's owner, as in
      // GroupCodec.
      const int root = parity_owner(row, f);
      std::vector<std::pair<int, std::size_t>> contributors;
      for (int step = 1; step < n; ++step) {
        const int p = (root + step) % n;
        if (contributes(p, f)) contributors.emplace_back(p, stripe_index(p, f));
      }
      const std::vector<FamilyPiece> family = family_pieces(exchanged, stripes, contributors);
      for (const FamilyPiece& piece : family) {
        const ByteRange range = block_bytes(piece.first, piece.end, stripe_bytes_);
        reductions.push_back({.root = root, .sources = piece.sources, .bytes = range.size()});
        pieces.push_back({f, row, range});
      }
      if (root == me) append_changed(changed, static_cast<std::size_t>(row), family);
    }
  }

  if (parity.data() != old_parity.data()) {
    std::memcpy(parity.data(), old_parity.data(), parity.size());
  }
  group.reduce_sparse<std::uint64_t>(
      reductions, mpi::BXor{},
      [&](std::size_t i, std::size_t off, std::span<std::byte> out) {
        // c * (old ^ new) = c * old ^ c * new, accumulated straight into
        // the zeroed outgoing segment.
        const Piece& p = pieces[i];
        const std::size_t at = stripe_index(me, p.family) * stripe_bytes_ + p.range.begin + off;
        const std::uint8_t c = coefficient(p.row, me, p.family);
        kernels::gf256_mul_acc(as_u8(out), as_u8(base.subspan(at, out.size())), c);
        kernels::gf256_mul_acc(as_u8(out), as_u8(next.subspan(at, out.size())), c);
      },
      [&](std::size_t i, std::size_t off, std::span<const std::byte> in) {
        const Piece& p = pieces[i];
        const std::size_t at =
            static_cast<std::size_t>(p.row) * stripe_bytes_ + p.range.begin + off;
        kernels::xor_acc(parity.subspan(at, in.size()), in);
      });
  std::sort(changed.begin(), changed.end(), [](const BlockRun& a, const BlockRun& b) {
    return a.stripe != b.stripe ? a.stripe < b.stripe : a.first < b.first;
  });
  return changed;
}

void RSGroupCodec::rebuild(mpi::Comm& group, std::span<const int> failed,
                           std::span<std::byte> data, std::span<std::byte> parity) const {
  check_args(group, data.size(), parity.size());
  if (failed.empty()) return;
  std::vector<int> lost(failed.begin(), failed.end());
  std::sort(lost.begin(), lost.end());
  lost.erase(std::unique(lost.begin(), lost.end()), lost.end());
  if (static_cast<int>(lost.size()) > parity_count_) {
    throw std::invalid_argument("RSGroupCodec: at most parity_count failures recoverable");
  }
  for (int m : lost) {
    if (m < 0 || m >= group_size_) {
      throw std::invalid_argument("RSGroupCodec: bad member index");
    }
  }
  const auto is_lost = [&](int p) {
    return std::find(lost.begin(), lost.end(), p) != lost.end();
  };

  std::vector<LostBlock> blocks;
  for (int f = 0; f < group_size_; ++f) {
    // Partition this family's losses: contributors to re-solve vs parity
    // rows to recompute. A member is one or the other, never both, so
    // lost contributors + lost rows <= m and enough surviving rows exist.
    std::vector<int> lost_data;
    std::vector<int> alive_data;
    std::vector<int> lost_rows;
    std::vector<int> live_rows;
    for (int p = 0; p < group_size_; ++p) {
      if (contributes(p, f)) (is_lost(p) ? lost_data : alive_data).push_back(p);
    }
    for (int row = 0; row < parity_count_; ++row) {
      (is_lost(parity_owner(row, f)) ? lost_rows : live_rows).push_back(row);
    }

    // Lost contributor x_b solves an L x L Cauchy subsystem against the
    // first L surviving rows r_a: with syndromes S_a = P_{r_a} ^
    // sum_p c_{r_a}(p) * D_p over the surviving contributors p, D_{x_b} =
    // sum_a inv[b][a] * S_a.
    const std::size_t L = lost_data.size();
    std::vector<std::uint8_t> inv;
    if (L > 0) {
      std::vector<std::uint8_t> system(L * L);
      for (std::size_t a = 0; a < L; ++a) {
        for (std::size_t b = 0; b < L; ++b) {
          system[a * L + b] = coefficient(live_rows[a], lost_data[b], f);
        }
      }
      inv = gf_invert(std::move(system), L);
    }
    // An item sum_b lam[b] * D_{x_b} ^ sum_p mu[p] * D_p folds the inverse
    // into one weight per survivor: u[a] = sum_b lam[b] * inv[b][a] on
    // parity slot r_a, and mu[p] ^ sum_a u[a] * c_{r_a}(p) on stripe D_p.
    // The code is MDS, so every weight is nonzero: k terms per block.
    const auto add_block = [&](int member, BlockAt at, const std::vector<std::uint8_t>& lam,
                               std::vector<std::uint8_t> mu) {
      LostBlock block{.member = member, .at = at, .bytes = stripe_bytes_, .terms = {}};
      for (std::size_t a = 0; a < L; ++a) {
        std::uint8_t u = 0;
        for (std::size_t b = 0; b < L; ++b) u ^= gf256::mul(lam[b], inv[b * L + a]);
        for (std::size_t i = 0; i < alive_data.size(); ++i) {
          mu[i] ^= gf256::mul(u, coefficient(live_rows[a], alive_data[i], f));
        }
        const int row = live_rows[a];
        block.terms.push_back(
            {.member = parity_owner(row, f),
             .at = {.redundancy = true, .offset = static_cast<std::size_t>(row) * stripe_bytes_},
             .coeff = u});
      }
      for (std::size_t i = 0; i < alive_data.size(); ++i) {
        const int p = alive_data[i];
        block.terms.push_back(
            {.member = p,
             .at = {.redundancy = false, .offset = stripe_index(p, f) * stripe_bytes_},
             .coeff = mu[i]});
      }
      blocks.push_back(std::move(block));
    };
    for (std::size_t b = 0; b < L; ++b) {
      std::vector<std::uint8_t> lam(L, 0);
      lam[b] = 1;
      add_block(lost_data[b],
                {.redundancy = false, .offset = stripe_index(lost_data[b], f) * stripe_bytes_},
                lam, std::vector<std::uint8_t>(alive_data.size(), 0));
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
      add_block(parity_owner(row, f),
                {.redundancy = true, .offset = static_cast<std::size_t>(row) * stripe_bytes_},
                lam, std::move(mu));
    }
  }
  rebuild_lost_blocks(group, CodecKind::kXor, blocks, data, parity);
}

bool RSGroupCodec::verify(mpi::Comm& group, std::span<const std::byte> data,
                          std::span<const std::byte> parity) const {
  check_args(group, data.size(), parity.size());
  util::AlignedBytes recomputed(redundancy_bytes());
  // encode() writes only this member's slots; compare locally afterwards.
  encode(group, data, recomputed);
  const std::uint8_t ok =
      std::memcmp(recomputed.data(), parity.data(), redundancy_bytes()) == 0 ? 1 : 0;
  return group.allreduce_value<std::uint8_t>(ok, mpi::Min{}) == 1;
}

}  // namespace skt::enc
