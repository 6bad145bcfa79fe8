// ABFT-HPL baseline: checksum-augmented LU (Huang & Abraham / Yao et al.).
//
// The augmented system is [A | b | s] with s_i = sum_j A(i,j) + b_i. Row
// operations preserve the row-sum invariant, so corruption of the trailing
// matrix is detectable by re-summing — the classic algorithm-based fault
// tolerance for LU. The paper's point, which this repo reproduces in
// bench/table03: ABFT detects and can correct data errors while MPI keeps
// running, but a powered-off node aborts the whole MPI job and ABFT holds
// no persistent state, so it CANNOT recover from a real node loss.
#pragma once

#include <cstdint>

#include "hpl/driver.hpp"
#include "mpi/comm.hpp"

namespace skt::hpl {

struct AbftConfig {
  HplConfig hpl;
  /// Verify the row-sum invariant after every this many panels (the
  /// detection overhead ABFT pays); 0 disables checks.
  std::int64_t verify_every_panels = 4;
};

struct AbftResult {
  HplResult hpl;
  int checks = 0;          ///< invariant verifications performed
  bool checksum_ok = true; ///< all checks passed
};

/// Collective over `world`.
AbftResult run_abft_hpl(mpi::Comm& world, const AbftConfig& config);

}  // namespace skt::hpl
