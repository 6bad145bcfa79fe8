#include "encoding/block_runs.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "mpi/comm.hpp"

namespace skt::enc {

RunSet::RunSet(std::size_t stripe_bytes, std::size_t stripe_count)
    : blocks_(stripe_blocks(stripe_bytes)), stripes_(stripe_count) {
  if (blocks_ > kMaxStripeBlocks) {
    throw std::length_error("RunSet: a stripe of " + std::to_string(stripe_bytes) +
                            " bytes holds " + std::to_string(blocks_) +
                            " blocks, beyond the exchange's " +
                            std::to_string(kMaxStripeBlocks));
  }
}

void RunSet::add(const BlockRun& run) {
  if (run.first == run.end) return;
  if (run.stripe >= stripes_.size() || run.first > run.end || run.end > blocks_) {
    throw std::out_of_range("RunSet::add: run outside the stripe geometry");
  }
  StripeRuns& slot = stripes_[run.stripe];
  // At most kRunsPerStripe + 1 ranges: the stored ones and the new one.
  std::array<std::pair<std::size_t, std::size_t>, kRunsPerStripe + 1> r{};
  std::size_t count = 0;
  for (std::size_t i = 0; i < kRunsPerStripe; ++i) {
    if (slot.first[i] != slot.end[i]) r[count++] = {slot.first[i], slot.end[i]};
  }
  r[count++] = {run.first, run.end};
  std::sort(r.begin(), r.begin() + static_cast<std::ptrdiff_t>(count));
  // Join ranges that overlap or touch.
  std::size_t kept = 0;
  for (std::size_t i = 1; i < count; ++i) {
    if (r[i].first <= r[kept].second) {
      r[kept].second = std::max(r[kept].second, r[i].second);
    } else {
      r[++kept] = r[i];
    }
  }
  count = kept + 1;
  // Over capacity: merge the two closest ranges across their gap.
  while (count > kRunsPerStripe) {
    std::size_t best = 0;
    for (std::size_t i = 1; i + 1 < count; ++i) {
      if (r[i + 1].first - r[i].second < r[best + 1].first - r[best].second) best = i;
    }
    r[best].second = r[best + 1].second;
    std::move(r.begin() + static_cast<std::ptrdiff_t>(best) + 2,
              r.begin() + static_cast<std::ptrdiff_t>(count),
              r.begin() + static_cast<std::ptrdiff_t>(best) + 1);
    --count;
  }
  slot = {};
  for (std::size_t i = 0; i < count; ++i) {
    slot.first[i] = static_cast<std::uint16_t>(r[i].first);
    slot.end[i] = static_cast<std::uint16_t>(r[i].second);
  }
}

void RunSet::add(std::span<const BlockRun> runs) {
  for (const BlockRun& run : runs) add(run);
}

void RunSet::add_all() {
  for (std::size_t s = 0; s < stripes_.size(); ++s) add({s, 0, blocks_});
}

void RunSet::clear() { std::fill(stripes_.begin(), stripes_.end(), StripeRuns{}); }

std::vector<BlockRun> RunSet::runs() const {
  std::vector<BlockRun> out;
  for (std::size_t s = 0; s < stripes_.size(); ++s) {
    for (std::size_t i = 0; i < kRunsPerStripe; ++i) {
      if (stripes_[s].first[i] != stripes_[s].end[i]) {
        out.push_back({s, stripes_[s].first[i], stripes_[s].end[i]});
      }
    }
  }
  return out;
}

std::vector<StripeRuns> exchange_runs(mpi::Comm& group, std::span<const BlockRun> runs,
                                      std::size_t stripe_bytes, std::size_t stripe_count) {
  RunSet mine(stripe_bytes, stripe_count);
  mine.add(runs);
  return group.allgather<StripeRuns>(mine.records());
}

std::size_t dirty_bytes(std::span<const StripeRuns> exchanged, std::size_t stripe_bytes) {
  std::size_t bytes = 0;
  for (const StripeRuns& r : exchanged) {
    for (std::size_t i = 0; i < kRunsPerStripe; ++i) {
      bytes += block_bytes(r.first[i], r.end[i], stripe_bytes).size();
    }
  }
  return bytes;
}

}  // namespace skt::enc
