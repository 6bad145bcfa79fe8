#include "encoding/group_codec.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
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

/// out = sum_i w[i] * in[i] or, `onto`, out += that sum: XOR with GF(2^8)
/// weights, or the signed sum over double lanes for SUM, whose first
/// source is never negated when it replaces `out`. Replacing, the first
/// two weight-1 XOR sources combine in one pass; every further source is
/// one pass over `out`.
void combine(CodecKind kind, std::span<std::byte> out,
             std::span<const std::span<const std::byte>> in, std::span<const Weight> w,
             bool onto) {
  std::size_t i = 0;
  if (kind == CodecKind::kSum) {
    const std::span<double> acc = as_lanes<double>(out);
    if (!onto) {
      std::memcpy(out.data(), in[0].data(), out.size());
      i = 1;
    }
    for (; i < in.size(); ++i) {
      (w[i].negate ? kernels::sum_sub : kernels::sum_acc)(acc, as_lanes<double>(in[i]));
    }
    return;
  }
  if (!onto) {
    if (in.size() >= 2 && w[0].coeff == 1 && w[1].coeff == 1) {
      kernels::xor_delta(out, in[0], in[1]);
      i = 2;
    } else if (w[0].coeff == 1) {
      std::memcpy(out.data(), in[0].data(), out.size());
      i = 1;
    } else {
      std::memset(out.data(), 0, out.size());
    }
  }
  const std::span<std::uint8_t> out8{reinterpret_cast<std::uint8_t*>(out.data()), out.size()};
  for (; i < in.size(); ++i) {
    kernels::gf256_mul_acc(
        out8, {reinterpret_cast<const std::uint8_t*>(in[i].data()), in[i].size()}, w[i].coeff);
  }
}

/// One weighted input of a block: bytes that `member` lends, as large as
/// the block's output. `bytes` is read on that member only.
struct Term {
  int member = 0;
  std::span<const std::byte> bytes;
  Weight weight;
};

/// One output of an operation: `writer` folds the weighted sum of `terms`
/// into `out`, replacing the bytes there or, with `onto`, adding to them.
/// `out` is written on the writer only.
struct Block {
  int writer = 0;
  std::span<std::byte> out;
  bool onto = false;
  std::vector<Term> terms;
};

/// Moves the bytes of `blocks`, which every member lists alike, by loans:
/// every term is lent to its block's writer, and each writer borrows its
/// blocks' terms and folds them into `out` one 64 KiB segment at a time,
/// so every source byte is read once where it sits and each segment of
/// `out` stays in cache while its sources combine into it. A writer passes
/// `failpoint` once per block, holding that block's views. Returns this
/// member's loans; the lent bytes must stay alive and unchanged until the
/// caller has waited on them.
[[nodiscard]] std::vector<mpi::Comm::Loan> lend_and_fold(mpi::Comm& group, CodecKind kind,
                                                         std::span<const Block> blocks,
                                                         std::string_view failpoint) {
  const int me = group.rank();
  // One tag for the whole operation: between any two members the loans go
  // out and are borrowed in block order, and the mailbox is FIFO per
  // source, tag and comm. Lending never blocks, so every member's terms
  // are out before anyone folds.
  const mpi::Tag tag = group.reserve_tag();
  std::vector<mpi::Comm::Loan> loans;
  for (const Block& block : blocks) {
    for (const Term& t : block.terms) {
      if (t.member == me) loans.push_back(group.lend(block.writer, tag, t.bytes));
    }
  }
  std::vector<mpi::Comm::Borrowed> views;
  std::vector<Weight> weights;
  std::vector<std::span<const std::byte>> in;
  for (const Block& block : blocks) {
    if (block.writer != me) continue;
    views.clear();
    weights.clear();
    for (const Term& t : block.terms) {
      views.push_back(group.borrow(t.member, tag, block.out.size()));
      weights.push_back(t.weight);
    }
    // Holding the block's views: a death here must stop the lenders,
    // whose bytes this member is reading.
    group.failpoint(failpoint);
    in.resize(views.size());
    for (std::size_t off = 0; off < block.out.size(); off += mpi::kCollectiveChunkBytes) {
      const std::size_t len = std::min(mpi::kCollectiveChunkBytes, block.out.size() - off);
      for (std::size_t i = 0; i < views.size(); ++i) in[i] = views[i].read(off, len);
      combine(kind, block.out.subspan(off, len), in, weights, block.onto);
    }
  }
  // The views go before the caller waits on this member's loans: their
  // borrowers may be waiting on loans of their own in turn.
  return loans;
}

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
  const std::size_t stripe = stripe_bytes_;
  // Slot j of member (f + j) mod n is row j of family f: its k stripes,
  // weighted by the generator. Blocks go in row order, so every owner
  // folds its slots in slot order.
  std::vector<Block> blocks;
  for (int row = 0; row < parity_count_; ++row) {
    for (int f = 0; f < n; ++f) {
      Block block{.writer = parity_owner(row, f),
                  .out = redundancy.subspan(static_cast<std::size_t>(row) * stripe, stripe)};
      for (int p = 0; p < n; ++p) {
        if (!contributes(p, f)) continue;
        block.terms.push_back({.member = p,
                               .bytes = data.subspan(stripe_index(p, f) * stripe, stripe),
                               .weight = {.coeff = coefficient(row, p, f)}});
      }
      blocks.push_back(std::move(block));
    }
  }
  for (mpi::Comm::Loan& loan : lend_and_fold(group, kind_, blocks, "enc.fold")) loan.wait();
}

std::vector<BlockRun> GroupCodec::encode_delta(mpi::Comm& group,
                                               std::span<const std::byte> base,
                                               std::span<const std::byte> next,
                                               std::span<std::byte> redundancy,
                                               std::span<const BlockRun> dirty) const {
  check_args(group, next.size(), redundancy.size());
  if (base.size() != next.size()) {
    throw std::invalid_argument("GroupCodec::encode_delta: base buffer size mismatch");
  }
  const int n = group_size_;
  const int me = group.rank();
  const std::size_t stripes = stripe_count();
  const std::size_t stripe = stripe_bytes_;

  // Every member sees every member's runs, so all of them take the same
  // path and list the same blocks.
  const std::vector<StripeRuns> exchanged = exchange_runs(group, dirty, stripe, stripes);
  const auto runs_of = [&](int p, std::size_t s) -> const StripeRuns& {
    return exchanged[static_cast<std::size_t>(p) * stripes + s];
  };

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

  // The diff of each of this member's runs, formed once and lent to every
  // row's owner, in scratch that outlives the loans: new ^ old, or
  // new - old over SUM lanes.
  util::AlignedBuffer scratch(dirty_bytes(
      std::span(exchanged).subspan(static_cast<std::size_t>(me) * stripes, stripes), stripe));
  std::vector<std::span<const std::byte>> diffs(stripes * kRunsPerStripe);
  std::size_t used = 0;
  for (std::size_t s = 0; s < stripes; ++s) {
    for (std::size_t i = 0; i < kRunsPerStripe; ++i) {
      const ByteRange r = block_bytes(runs_of(me, s).first[i], runs_of(me, s).end[i], stripe);
      if (r.size() == 0) continue;
      const std::span<std::byte> diff{scratch.data() + used, r.size()};
      const std::span<const std::byte> b = base.subspan(s * stripe + r.begin, r.size());
      const std::span<const std::byte> x = next.subspan(s * stripe + r.begin, r.size());
      if (kind_ == CodecKind::kSum) {
        std::memcpy(diff.data(), x.data(), diff.size());
        kernels::sum_sub(as_lanes<double>(diff), as_lanes<double>(b));
      } else {
        kernels::xor_delta(diff, b, x);
      }
      diffs[s * kRunsPerStripe + i] = diff;
      used += r.size();
    }
  }

  // One block per run and parity row: the row's owner folds the run's
  // diff, weighted by the row's coefficient, onto the old parity at the
  // run's offset, and its slot changes over the union of those runs.
  std::vector<Block> blocks;
  std::vector<BlockRun> changed;
  for (int row = 0; row < parity_count_; ++row) {
    const auto slot = static_cast<std::size_t>(row);
    for (int f = 0; f < n; ++f) {
      const int owner = parity_owner(row, f);
      for (int p = 0; p < n; ++p) {
        if (!contributes(p, f)) continue;
        const std::size_t s = stripe_index(p, f);
        const StripeRuns& runs = runs_of(p, s);
        for (std::size_t i = 0; i < kRunsPerStripe; ++i) {
          const ByteRange r = block_bytes(runs.first[i], runs.end[i], stripe);
          if (r.size() == 0) continue;
          blocks.push_back(
              {.writer = owner,
               .out = redundancy.subspan(slot * stripe + r.begin, r.size()),
               .onto = true,
               .terms = {{.member = p,
                          .bytes = p == me ? diffs[s * kRunsPerStripe + i]
                                           : std::span<const std::byte>{},
                          .weight = {.coeff = coefficient(row, p, f)}}}});
          if (owner == me) changed.push_back({slot, runs.first[i], runs.end[i]});
        }
      }
    }
  }
  for (mpi::Comm::Loan& loan : lend_and_fold(group, kind_, blocks, "enc.fold")) loan.wait();

  std::sort(changed.begin(), changed.end(), [](const BlockRun& a, const BlockRun& b) {
    return std::tie(a.stripe, a.first) < std::tie(b.stripe, b.first);
  });
  std::vector<BlockRun> merged;
  for (const BlockRun& run : changed) {
    if (!merged.empty() && merged.back().stripe == run.stripe && run.first <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, run.end);
    } else {
      merged.push_back(run);
    }
  }
  return merged;
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

  const int me = group.rank();
  const std::size_t stripe = stripe_bytes_;
  const auto slot = [&](int row) {
    return redundancy.subspan(static_cast<std::size_t>(row) * stripe, stripe);
  };
  const auto stripe_of = [&](int p, int f) {
    return data.subspan(stripe_index(p, f) * stripe, stripe);
  };
  std::vector<Block> blocks;
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
    const auto add_block = [&](int member, std::span<std::byte> out, std::vector<std::uint8_t> u,
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
      Block block{.writer = member, .out = out};
      for (std::size_t a = 0; a < L; ++a) {
        for (std::size_t i = 0; i < alive_data.size(); ++i) {
          mu[i] ^= gf256::mul(u[a], coefficient(live_rows[a], alive_data[i], f));
        }
        const int row = live_rows[a];
        block.terms.push_back(
            {.member = parity_owner(row, f), .bytes = slot(row), .weight = {.coeff = u[a]}});
      }
      for (std::size_t i = 0; i < alive_data.size(); ++i) {
        const int p = alive_data[i];
        block.terms.push_back(
            {.member = p,
             .bytes = stripe_of(p, f),
             .weight = {.coeff = mu[i], .negate = kind_ == CodecKind::kSum && L > 0}});
      }
      blocks.push_back(std::move(block));
    };
    for (std::size_t b = 0; b < L; ++b) {
      std::vector<std::uint8_t> lam(L, 0);
      lam[b] = 1;
      add_block(lost_data[b], stripe_of(lost_data[b], f), std::move(lam),
                std::vector<std::uint8_t>(alive_data.size(), 0));
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
      add_block(parity_owner(row, f), slot(row), std::move(lam), std::move(mu));
    }
  }

  // The encode's shape, with the lost members as the writers: every
  // survivor lends each of its terms to the lost member that needs it.
  std::vector<mpi::Comm::Loan> loans = lend_and_fold(group, kind_, blocks, "enc.rebuild");
  // Lent, not yet settled: a death here unwinds with bytes on loan.
  if (!is_lost(me)) group.failpoint("enc.rebuild");
  for (mpi::Comm::Loan& loan : loans) loan.wait();
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
