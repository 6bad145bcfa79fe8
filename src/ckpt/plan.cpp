#include "ckpt/plan.hpp"

#include <algorithm>
#include <stdexcept>

namespace skt::ckpt {

std::string_view to_string(Strategy strategy) {
  switch (strategy) {
    case Strategy::kNone: return "none";
    case Strategy::kSingle: return "single-checkpoint";
    case Strategy::kDouble: return "double-checkpoint";
    case Strategy::kSelf: return "self-checkpoint";
    case Strategy::kBlcr: return "blcr";
  }
  return "?";
}

namespace {

void check_group(Strategy strategy, int group_size, int parity_degree = 1) {
  if ((strategy == Strategy::kSingle || strategy == Strategy::kDouble ||
       strategy == Strategy::kSelf) && group_size < 2) {
    throw std::invalid_argument("in-memory strategies need group_size >= 2");
  }
  if (parity_degree < 1) throw std::invalid_argument("parity_degree must be >= 1");
  if ((strategy == Strategy::kDouble || strategy == Strategy::kSelf) && parity_degree > 1 &&
      group_size < parity_degree + 2) {
    throw std::invalid_argument("RS(k, m) parity needs group_size >= parity_degree + 2");
  }
}

}  // namespace

double available_fraction(Strategy strategy, int group_size, int parity_degree) {
  check_group(strategy, group_size, parity_degree);
  const double n = group_size;
  const double m = parity_degree;
  switch (strategy) {
    case Strategy::kNone:
    case Strategy::kBlcr:
      return 1.0;
    case Strategy::kSingle:
      return (n - 1.0) / (2.0 * n - 1.0);  // Eq. 4
    case Strategy::kDouble:
      return (n - m) / (3.0 * n - m);  // Eq. 3 at m = 1
    case Strategy::kSelf:
      return (n - m) / (2.0 * n);  // Eq. 2 at m = 1
  }
  return 0.0;
}

std::size_t estimate_session_bytes(Strategy strategy, std::size_t data_bytes,
                                   std::size_t user_bytes, int group_size,
                                   int parity_degree, bool async_staging,
                                   bool level2) {
  const double m = static_cast<double>(data_bytes + user_bytes);
  double total = m;
  switch (strategy) {
    case Strategy::kNone:
      return 0;
    case Strategy::kBlcr:
      total = m;  // work buffer only; images live in the vault
      break;
    case Strategy::kSingle:
    case Strategy::kDouble:
    case Strategy::kSelf: {
      const int n = std::max(group_size, parity_degree > 1 ? parity_degree + 2 : 2);
      total = m / available_fraction(strategy, n, parity_degree);
      break;
    }
  }
  if (async_staging) total += m;  // the sealed S staging segment
  if (level2) total += m / 8.0;   // L2 manifest + transient flush image slack
  return static_cast<std::size_t>(total) + 4096;  // headers / padding slack
}

MemoryPlan plan_memory(Strategy strategy, std::size_t capacity_bytes, int group_size) {
  check_group(strategy, group_size);
  MemoryPlan plan;
  plan.strategy = strategy;
  plan.group_size = group_size;
  plan.capacity_bytes = capacity_bytes;

  const double fraction = available_fraction(strategy, group_size);
  std::size_t m = static_cast<std::size_t>(static_cast<double>(capacity_bytes) * fraction);
  m = m / 8 * 8;  // lane alignment
  plan.app_bytes = m;

  const double n = group_size;
  switch (strategy) {
    case Strategy::kNone:
      break;
    case Strategy::kBlcr:
      break;  // image lives on disk
    case Strategy::kSingle:
      plan.checkpoint_bytes = m;
      plan.checksum_bytes = static_cast<std::size_t>(static_cast<double>(m) / (n - 1.0));
      break;
    case Strategy::kDouble:
      plan.checkpoint_bytes = 2 * m;
      plan.checksum_bytes = static_cast<std::size_t>(2.0 * static_cast<double>(m) / (n - 1.0));
      break;
    case Strategy::kSelf:
      plan.checkpoint_bytes = m;  // B — the only full copy
      plan.checksum_bytes = static_cast<std::size_t>(2.0 * static_cast<double>(m) / (n - 1.0));
      break;
  }
  return plan;
}

}  // namespace skt::ckpt
