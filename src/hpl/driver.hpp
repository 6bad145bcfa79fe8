// Plain (non-fault-tolerant) HPL driver: generate, factorize, solve,
// verify, report. This is the "Original HPL" row of Table 3 and the
// baseline every efficiency figure normalizes against.
#pragma once

#include <cstdint>

#include "hpl/lu.hpp"
#include "mpi/comm.hpp"

namespace skt::hpl {

struct HplConfig {
  std::int64_t n = 512;   ///< problem size (matrix is n x (n+1) augmented)
  std::int64_t nb = 32;   ///< block size
  int grid_p = 2;         ///< process grid rows
  int grid_q = 2;         ///< process grid columns
  std::uint64_t seed = 42;
};

struct HplResult {
  double elapsed_s = 0.0;  ///< factor+solve wall time (rank-local)
  double virtual_s = 0.0;  ///< virtual network charge accrued during the run
  double gflops = 0.0;     ///< hpl_flops(n) / (elapsed_s + virtual_s)
  Residual residual;
};

/// Collective over `world` (size must equal grid_p * grid_q). Storage is a
/// plain heap buffer — full memory available to the application.
HplResult run_hpl(mpi::Comm& world, const HplConfig& config);

/// Problem size whose augmented local blocks fit `app_bytes` per process
/// on a PxQ grid with block size nb (largest n, rounded down to a multiple
/// of nb). This is how "available memory" translates into HPL problem
/// size throughout the paper's evaluation.
[[nodiscard]] std::int64_t max_problem_size(std::size_t app_bytes, std::int64_t nb, int P,
                                            int Q);

/// Measured per-rank dgemm throughput (GFLOP/s) used as the simulated
/// node's achievable peak when reporting HPL efficiency.
[[nodiscard]] double calibrate_peak_gflops(std::int64_t size = 256, int repeats = 3);

}  // namespace skt::hpl
