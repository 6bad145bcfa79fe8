// Memory-usage planning for the in-memory checkpoint strategies
// (Table 1 and Equations 2-4 of the paper).
//
// Given a per-process memory capacity and the encoding group size N, the
// planner answers "how much memory may the application itself use?" for
// each strategy:
//
//   single  : M + M + M/(N-1)            -> U = (N-1)/(2N-1)   (Eq. 4)
//   double  : M + 2M + 2M/(N-1)          -> U = (N-1)/(3N-1)   (Eq. 3)
//   self    : M + M + 2M/(N-1) = 2MN/(N-1) -> U = (N-1)/(2N)   (Eq. 2)
//   blcr    : M (checkpoints live on disk)
//
// With RS(k, m) parity (m = parity degree, k = N - m data stripes) every
// checksum stripe M/(N-1) becomes m parity stripes of M/(N-m):
//
//   double  : M + 2M + 2mM/(N-m)         -> U = (N-m)/(3N-m)
//   self    : M + M + 2mM/(N-m)          -> U = (N-m)/(2N)
//
// Single is always single-parity (Fig. 2), so it stays Eq. 4.
#pragma once

#include <cstddef>
#include <string_view>

namespace skt::ckpt {

enum class Strategy {
  kNone,    ///< no fault tolerance (original application)
  kSingle,  ///< single in-memory checkpoint (Fig. 2) — not fully fault-tolerant
  kDouble,  ///< double in-memory checkpoint (Fig. 3) — the SCR/Zheng baseline
  kSelf,    ///< self-checkpoint (Figs. 4-5) — the paper's contribution
  kBlcr,    ///< full-image checkpoint to a storage device (BLCR baseline)
};

[[nodiscard]] std::string_view to_string(Strategy strategy);

/// Fraction of per-process memory left for the application (Eqs. 2-4,
/// generalized to `parity_degree` m as above). group_size must be >= 2
/// for the in-memory strategies, and >= m + 2 for double and self when
/// m >= 2.
[[nodiscard]] double available_fraction(Strategy strategy, int group_size,
                                        int parity_degree = 1);

struct MemoryPlan {
  Strategy strategy = Strategy::kNone;
  int group_size = 0;
  std::size_t capacity_bytes = 0;   ///< per-process budget the plan fits in
  std::size_t app_bytes = 0;        ///< M — usable by the application (A1+A2)
  std::size_t checkpoint_bytes = 0; ///< full checkpoint copies (B [+ b])
  std::size_t checksum_bytes = 0;   ///< checksum stripes (C [+ D or c])
  [[nodiscard]] std::size_t total_bytes() const {
    return app_bytes + checkpoint_bytes + checksum_bytes;
  }
  [[nodiscard]] double fraction() const {
    return capacity_bytes == 0 ? 0.0
                               : static_cast<double>(app_bytes) /
                                     static_cast<double>(capacity_bytes);
  }
};

/// Largest application size M (8-byte aligned) whose strategy footprint
/// fits in `capacity_bytes`.
[[nodiscard]] MemoryPlan plan_memory(Strategy strategy, std::size_t capacity_bytes,
                                     int group_size);

/// Planning estimate of the PER-RANK persistent-store footprint a Session
/// with these parameters will allocate at open() — the Table 1 footprint
/// (M / U for the strategy's available fraction U) plus the async staging
/// segment and header slack. The StoreService admits a tenant against
/// this estimate BEFORE the protocol allocates anything, so an over-quota
/// open fails with zero segments created. `group_size` <= 0 means "one
/// job-wide group"; pass the world size. `level2` adds slack for the
/// level-2 disk flush.
[[nodiscard]] std::size_t estimate_session_bytes(Strategy strategy, std::size_t data_bytes,
                                                 std::size_t user_bytes, int group_size,
                                                 int parity_degree, bool async_staging,
                                                 bool level2);

}  // namespace skt::ckpt
