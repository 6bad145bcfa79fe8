#include "hpl/driver.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "hpl/blas.hpp"
#include "hpl/dist_matrix.hpp"
#include "util/clock.hpp"

namespace skt::hpl {

HplResult run_hpl(mpi::Comm& world, const HplConfig& config) {
  mpi::Grid grid(world, config.grid_p, config.grid_q);
  const std::int64_t elems = DistMatrix::max_local_elements(
      config.n, config.n + 1, config.nb, config.grid_p, config.grid_q);
  std::vector<double> storage(static_cast<std::size_t>(elems));
  DistMatrix a(grid, config.n, config.n + 1, config.nb, storage);

  generate(a, config.seed);
  world.barrier();

  const double virtual_before = world.virtual_seconds();
  util::WallTimer timer;
  lu_factorize(grid, a, config.n, 0);
  const std::vector<double> x = back_substitute(world, grid, a, config.n);
  const double elapsed = timer.seconds();
  const double virtual_delta = world.virtual_seconds() - virtual_before;

  HplResult result;
  result.elapsed_s = elapsed;
  result.virtual_s = virtual_delta;
  result.gflops = hpl_flops(config.n) / (elapsed + virtual_delta) * 1e-9;
  result.residual = verify(world, a, config.n, config.seed, x);
  return result;
}

std::int64_t max_problem_size(std::size_t app_bytes, std::int64_t nb, int P, int Q) {
  // Local doubles per rank ~= n*(n+1) / (P*Q); solve for the largest n and
  // then shrink until the max local block (which exceeds the average by up
  // to one block row/column) actually fits.
  const double ranks = static_cast<double>(P) * static_cast<double>(Q);
  const double budget = static_cast<double>(app_bytes) / sizeof(double);
  auto n = static_cast<std::int64_t>(std::sqrt(budget * ranks));
  n = n / nb * nb;
  while (n > 0 && DistMatrix::max_local_elements(n, n + 1, nb, P, Q) >
                      static_cast<std::int64_t>(budget)) {
    n -= nb;
  }
  return n;
}

double calibrate_peak_gflops(std::int64_t size, int repeats) {
  std::vector<double> a(static_cast<std::size_t>(size * size), 1.000001);
  std::vector<double> b(static_cast<std::size_t>(size * size), 0.999999);
  std::vector<double> c(static_cast<std::size_t>(size * size), 0.0);
  double best = 0.0;
  for (int i = 0; i < repeats; ++i) {
    util::WallTimer timer;
    blas::gemm_minus(size, size, size, a.data(), size, b.data(), size, c.data(), size);
    const double elapsed = timer.seconds();
    const double flops = 2.0 * static_cast<double>(size) * static_cast<double>(size) *
                         static_cast<double>(size);
    best = std::max(best, flops / elapsed * 1e-9);
  }
  return best;
}

}  // namespace skt::hpl
