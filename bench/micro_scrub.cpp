// Scrub-overhead gate: the background scrubber must cost the rank it
// protects at most 3% of an encode-like work unit, even at a cadence far
// more aggressive than production (200 us here vs. the 2 ms default). The
// scrubber runs on its own thread, so the cost it can impose on the rank
// is the commit-exclusion handshake: every commit takes the mutex the
// scrub pass re-acquires per chunk through Scrubber::lock_for_commit(),
// which makes a running pass give way, and a pass holds the mutex only to
// copy a 4 KiB chunk out, so a commit waits for at most that one copy —
// plus whatever cache pressure the scan leaks.
//
// Measurement discipline (same reasoning as monitor_overhead.cpp): on a
// shared host a full A/B wall-clock diff of the loop cannot resolve a
// sub-1% signal, so the gated quantity is measured DIRECTLY —
//
//  * t_work: per-iteration CPU time of the bare XOR-fold work unit
//    (min over reps of CLOCK_THREAD_CPUTIME_ID),
//  * t_wait: mean wall time a simulated commit spends acquiring the
//    commit-exclusion lock while the cadence thread scans a 2 MiB sealed
//    pair flat out (min over reps — noise only inflates waits),
//
// and the gate is t_wait / (work between commits) <= 3%. The end-to-end
// scrubber-on/off wall ratio is reported as `e2e_overhead_frac` for
// trending only. A detect-and-repair drill (flip one byte of the sealed
// pair, require the very next pass to find and fix it from the twin) runs
// last so the gate can never pass with a scrubber that scans nothing.
// Results land in BENCH_scrub.json.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <mutex>
#include <vector>

#include "ckpt/protocol.hpp"
#include "ckpt/scrubber.hpp"
#include "util/json_writer.hpp"

namespace {

using namespace skt;

constexpr std::size_t kLanes = 32768;        ///< 256 KiB of uint64 lanes per work unit
constexpr std::size_t kSealedBytes = 1 << 20;  ///< primary sealed buffer (twin doubles it)
constexpr std::size_t kResealBytes = 1 << 16;  ///< slice rewritten per simulated commit
constexpr int kIters = 400;                  ///< work units per rep
constexpr int kCommitEvery = 25;             ///< work units between simulated commits
constexpr int kReps = 7;                     ///< min-of per measurement
constexpr double kScrubInterval = 200e-6;    ///< aggressive cadence for the bench

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// A minimal CheckpointProtocol exposing one mirrored sealed pair — the
/// shape self-checkpoint's C/D checksum buffers take after a flush — so
/// the scrubber can be driven without a communicator. reseal() plays the
/// role of a commit's flush step: rewrite a slice, refresh the twin, and
/// advance the epoch (invalidating the scrubber's baselines exactly the
/// way a real commit does).
class ScrubTarget final : public ckpt::CheckpointProtocol {
 public:
  ScrubTarget() : primary_(kSealedBytes), twin_(kSealedBytes), user_(64) {
    reseal(0);
    epoch_.store(1, std::memory_order_release);
  }

  bool open(ckpt::CommCtx) override { return false; }
  std::span<std::byte> data() override { return primary_; }
  std::span<std::byte> user_state() override { return user_; }
  ckpt::CommitStats commit(ckpt::CommCtx) override { return {}; }
  ckpt::RestoreStats restore(ckpt::CommCtx) override { return {}; }
  [[nodiscard]] std::size_t memory_bytes() const override {
    return primary_.size() + twin_.size();
  }
  [[nodiscard]] ckpt::Strategy strategy() const override { return ckpt::Strategy::kSelf; }
  [[nodiscard]] std::uint64_t committed_epoch() const override {
    return epoch_.load(std::memory_order_acquire);
  }
  std::vector<ckpt::ScrubRegion> scrub_view() override {
    return {{"C", std::span<std::byte>(primary_), std::span<std::byte>(twin_)},
            {"D", std::span<std::byte>(twin_), std::span<std::byte>(primary_)}};
  }

  /// Caller holds the commit-exclusion lock (like a real flush).
  void reseal(std::uint64_t commit_index) {
    const std::size_t offset =
        (static_cast<std::size_t>(commit_index) * kResealBytes) % (kSealedBytes - kResealBytes);
    for (std::size_t i = 0; i < kResealBytes; ++i) {
      primary_[offset + i] =
          static_cast<std::byte>((commit_index * 131 + offset + i) & 0xff);
    }
    std::memcpy(twin_.data() + offset, primary_.data() + offset, kResealBytes);
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  std::vector<std::byte> primary_;
  std::vector<std::byte> twin_;
  std::vector<std::byte> user_;
  std::atomic<std::uint64_t> epoch_{0};
};

/// One encode-like work unit; returns nothing, folds into `sink`.
void work_unit(std::vector<std::uint64_t>& block, int it, std::uint64_t& sink) {
  std::uint64_t fold = 0;
  for (std::size_t i = 0; i < kLanes; ++i) fold ^= block[i] + static_cast<std::uint64_t>(it);
  sink ^= fold;
}

struct RepResult {
  double wall_s = 0.0;       ///< whole driver loop
  double mean_wait_s = 0.0;  ///< mean commit-exclusion acquisition wait
  double max_wait_s = 0.0;   ///< worst single acquisition this rep
};

/// One rep of the driver: kIters work units with a simulated commit
/// (lock exclusion, reseal a slice, bump the epoch) every kCommitEvery.
RepResult driver_rep(std::vector<std::uint64_t>& block, ScrubTarget& target,
                     ckpt::Scrubber& scrubber, std::uint64_t& sink,
                     std::uint64_t& commit_index) {
  RepResult rep;
  double wait_total = 0.0;
  int commits = 0;
  const double t0 = wall_seconds();
  for (int it = 0; it < kIters; ++it) {
    work_unit(block, it, sink);
    if ((it + 1) % kCommitEvery != 0) continue;
    const double w0 = wall_seconds();
    std::unique_lock lock = scrubber.lock_for_commit();
    const double wait = wall_seconds() - w0;
    target.reseal(++commit_index);
    lock.unlock();
    wait_total += wait;
    rep.max_wait_s = std::max(rep.max_wait_s, wait);
    ++commits;
  }
  rep.wall_s = wall_seconds() - t0;
  rep.mean_wait_s = commits > 0 ? wait_total / commits : 0.0;
  return rep;
}

bool shape_check(const char* what, bool ok) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what);
  return ok;
}

}  // namespace

int main() {
  std::vector<std::uint64_t> block(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) block[i] = 0x9e3779b97f4a7c15ull * (i + 1);
  std::uint64_t sink = 0;
  std::uint64_t commit_index = 0;

  ScrubTarget target;
  ckpt::Scrubber::Options options;
  options.interval_s = kScrubInterval;
  ckpt::Scrubber scrubber(target, options);

  // Bare work unit, thread CPU time (the gate's denominator).
  double bare_unit_s = 1e30;
  for (int r = 0; r < kReps; ++r) {
    const double t0 = thread_cpu_seconds();
    for (int it = 0; it < kIters; ++it) work_unit(block, it, sink);
    bare_unit_s = std::min(bare_unit_s, (thread_cpu_seconds() - t0) / kIters);
  }

  // Scrubber OFF: same driver, uncontended exclusion lock.
  double off_wall_s = 1e30;
  for (int r = 0; r < kReps; ++r) {
    const RepResult rep = driver_rep(block, target, scrubber, sink, commit_index);
    off_wall_s = std::min(off_wall_s, rep.wall_s);
  }

  // Scrubber ON at an aggressive cadence: every commit invalidates the
  // baselines mid-pass, so the cadence thread is near-continuously either
  // recapturing or aborting — the worst realistic lock traffic.
  scrubber.start();
  double on_wall_s = 1e30;
  double mean_wait_s = 1e30;
  double max_wait_s = 0.0;
  for (int r = 0; r < kReps; ++r) {
    const RepResult rep = driver_rep(block, target, scrubber, sink, commit_index);
    on_wall_s = std::min(on_wall_s, rep.wall_s);
    mean_wait_s = std::min(mean_wait_s, rep.mean_wait_s);
    max_wait_s = std::max(max_wait_s, rep.max_wait_s);
  }
  scrubber.stop();

  // Detect-and-repair drill: the gate must not be satisfiable by a
  // scrubber that never actually scans. Baseline the current epoch, flip
  // one byte of the sealed primary, and require the very next pass to
  // find it and repair it from the twin.
  scrubber.scrub_now();  // capture baselines for the final epoch
  const std::size_t flip_at = kSealedBytes / 2 + 17;
  std::byte expected{};
  {
    std::lock_guard lock(scrubber.commit_exclusion());
    std::span<std::byte> primary = target.scrub_view()[0].bytes;
    expected = primary[flip_at];
    primary[flip_at] ^= std::byte{0x40};
  }
  const ckpt::ScrubStats drill = scrubber.scrub_now();
  const bool drill_ok = drill.corruption_detected == 1 && drill.repaired == 1 &&
                        drill.unrepaired == 0 &&
                        target.scrub_view()[0].bytes[flip_at] == expected;
  const ckpt::ScrubStats totals = scrubber.stats();

  // Gate: what a commit pays for the handshake, as a fraction of the work
  // it rides on (kCommitEvery work units per commit).
  const double overhead = mean_wait_s / (kCommitEvery * bare_unit_s);
  const double e2e_overhead = on_wall_s / off_wall_s - 1.0;
  std::printf("--- scrub overhead (%zu KiB work unit, %zu KiB sealed pair, min of %d reps) ---\n",
              kLanes * sizeof(std::uint64_t) / 1024, 2 * kSealedBytes / 1024, kReps);
  std::printf("work unit        %9.3f us/iter (bare encode-like pass)\n", bare_unit_s * 1e6);
  std::printf("commit wait      %9.4f us mean, %9.3f us max (scrubber at %.0f us cadence)\n",
              mean_wait_s * 1e6, max_wait_s * 1e6, kScrubInterval * 1e6);
  std::printf("overhead         %+.3f%% per commit interval (end-to-end diff %+.2f%%, sink %llx)\n",
              overhead * 100.0, e2e_overhead * 100.0, static_cast<unsigned long long>(sink));
  std::printf("drill            detected %llu repaired %llu unrepaired %llu (lifetime passes %llu)\n",
              static_cast<unsigned long long>(drill.corruption_detected),
              static_cast<unsigned long long>(drill.repaired),
              static_cast<unsigned long long>(drill.unrepaired),
              static_cast<unsigned long long>(totals.passes));

  util::JsonWriter report;
  report.begin_object();
  report.field("block_bytes", static_cast<std::uint64_t>(kLanes * sizeof(std::uint64_t)));
  report.field("sealed_pair_bytes", static_cast<std::uint64_t>(2 * kSealedBytes));
  report.field("iters", static_cast<std::int64_t>(kIters));
  report.field("commit_every", static_cast<std::int64_t>(kCommitEvery));
  report.field("reps", static_cast<std::int64_t>(kReps));
  report.field("scrub_interval_s", kScrubInterval);
  report.field("work_unit_s", bare_unit_s);
  report.field("mean_commit_wait_s", mean_wait_s);
  report.field("max_commit_wait_s", max_wait_s);
  report.field("overhead_frac", overhead);
  report.field("e2e_overhead_frac", e2e_overhead);
  report.field("scrub_passes", totals.passes);
  report.field("scrub_chunks_verified", totals.chunks_verified);
  report.field("drill_detected", drill.corruption_detected);
  report.field("drill_repaired", drill.repaired);
  report.end_object();
  util::write_json_file(util::report_path("BENCH_scrub.json"), report);

  bool ok = true;
  ok &= shape_check("commit-exclusion overhead <= 3% of a commit interval", overhead <= 0.03);
  ok &= shape_check("injected flip detected and repaired from the twin on the next pass",
                    drill_ok);
  return ok ? 0 : 1;
}
