#include "ckpt/scrubber.hpp"

#include <chrono>
#include <cstring>

#include "telemetry/metrics.hpp"
#include "util/crc32c.hpp"

namespace skt::ckpt {
namespace {

std::size_t chunk_count(std::size_t bytes, std::size_t chunk) {
  return (bytes + chunk - 1) / chunk;
}

std::span<std::byte> chunk_of(std::span<std::byte> region, std::size_t index,
                              std::size_t chunk) {
  const std::size_t begin = index * chunk;
  return region.subspan(begin, std::min(chunk, region.size() - begin));
}

}  // namespace

Scrubber::Scrubber(CheckpointProtocol& protocol, Options options)
    : protocol_(protocol), options_(options) {}

Scrubber::~Scrubber() { stop(); }

void Scrubber::start() {
  std::lock_guard lock(thread_mutex_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { thread_loop(); });
}

void Scrubber::stop() {
  {
    std::lock_guard lock(thread_mutex_);
    if (!running_) return;
    stop_ = true;
  }
  thread_cv_.notify_all();
  thread_.join();
  std::lock_guard lock(thread_mutex_);
  running_ = false;
}

void Scrubber::thread_loop() {
  std::unique_lock lock(thread_mutex_);
  while (!stop_) {
    thread_cv_.wait_for(lock, std::chrono::duration<double>(options_.interval_s),
                        [this] { return stop_; });
    if (stop_) break;
    lock.unlock();
    run_pass(/*blocking=*/false);
    lock.lock();
  }
}

ScrubStats Scrubber::scrub_now() { return run_pass(/*blocking=*/true); }

std::unique_lock<std::mutex> Scrubber::lock_for_commit() {
  // Announce first: from here on no cadence pass starts another chunk, so
  // the lock comes free within the chunk copy in progress.
  commits_pending_.fetch_add(1);
  std::unique_lock lock(exclusion_);
  commits_pending_.fetch_sub(1);
  return lock;
}

ScrubStats Scrubber::run_pass(bool blocking) {
  static telemetry::Counter& c_passes = telemetry::metrics().counter("scrub.passes");
  static telemetry::Counter& c_chunks =
      telemetry::metrics().counter("scrub.chunks_verified");
  static telemetry::Counter& c_detected =
      telemetry::metrics().counter("scrub.corruption_detected");
  static telemetry::Counter& c_repaired = telemetry::metrics().counter("scrub.repaired");
  static telemetry::Counter& c_unrepaired =
      telemetry::metrics().counter("scrub.unrepaired");

  // One pass at a time: scrub_now must not interleave with a cadence tick
  // now that the exclusion lock is released between chunks.
  std::lock_guard pass_guard(pass_mutex_);

  ScrubStats delta;
  // The spans in the view (base pointers, lengths) are fixed while the
  // protocol is open; only their *contents* move under a commit, so the
  // list itself can be fetched without the exclusion lock.
  const std::vector<ScrubRegion> view = protocol_.scrub_view();
  const std::size_t chunk = Options::chunk_bytes;

  // Per-chunk acquisition: a chunk is copied out under the lock and its CRC
  // computed after the release, so a commit arriving mid-pass waits for at
  // most one 4 KiB copy, and a scrubber preempted mid-CRC holds nothing.
  // The cadence thread must never delay a commit, so it gives way to an
  // announced one and only try-locks; scrub_now blocks so tests get a
  // deterministic full pass.
  const auto acquire = [&] {
    std::unique_lock g(exclusion_, std::defer_lock);
    if (blocking) {
      g.lock();
    } else if (commits_pending_.load() == 0) {
      (void)g.try_lock();
    }
    return g;
  };

  std::uint64_t epoch = 0;
  {
    const std::unique_lock g = acquire();
    if (!g.owns_lock()) return delta;  // commit in flight: skip this tick
    epoch = protocol_.committed_epoch();
  }

  const bool capture = epoch != baseline_epoch_ || regions_.size() != view.size();
  if (capture) {
    // The buffers were just legitimately rewritten (or this is the first
    // pass): capture fresh baselines instead of verifying.
    regions_.assign(view.size(), {});
  }

  std::vector<std::byte> snapshot(chunk);
  bool aborted = false;
  for (std::size_t r = 0; r < view.size() && !aborted; ++r) {
    const ScrubRegion& region = view[r];
    const std::size_t chunks = capture ? chunk_count(region.bytes.size(), chunk)
                                       : regions_[r].baseline.size();
    if (capture) regions_[r].baseline.resize(chunks);
    for (std::size_t i = 0; i < chunks; ++i) {
      const std::span<std::byte> bytes = chunk_of(region.bytes, i, chunk);
      {
        const std::unique_lock g = acquire();
        if (!g.owns_lock() || protocol_.committed_epoch() != epoch) {
          // A commit is waiting for the lock or overtook the pass — the
          // bytes under scan are about to be (or were) legitimately
          // rewritten. Abandon the pass; the next one recaptures baselines
          // if the epoch moved.
          aborted = true;
          break;
        }
        std::memcpy(snapshot.data(), bytes.data(), bytes.size());
      }
      const std::uint32_t crc = util::crc32c(std::span(snapshot).first(bytes.size()));
      if (capture) {
        regions_[r].baseline[i] = crc;
        continue;
      }
      ++delta.chunks_verified;
      if (crc == regions_[r].baseline[i]) continue;
      // The snapshot diverged from the sealed baseline at this epoch: corrupt.
      // Repair needs the lock again (rare), and a commit that got in
      // meanwhile rewrote the chunk legitimately.
      const std::unique_lock g(exclusion_);
      if (protocol_.committed_epoch() != epoch) {
        aborted = true;
        break;
      }
      ++delta.corruption_detected;
      bool repaired = false;
      if (region.mirror.size() == region.bytes.size()) {
        // Trust the mirror only if it still matches the sealed baseline —
        // a double flip hitting both twins must not "repair" one corrupt
        // copy from the other.
        const std::span<std::byte> twin = chunk_of(region.mirror, i, chunk);
        if (util::crc32c(twin) == regions_[r].baseline[i]) {
          std::memcpy(bytes.data(), twin.data(), bytes.size());
          repaired = true;
        }
      }
      if (repaired) {
        ++delta.repaired;
      } else {
        ++delta.unrepaired;
      }
    }
  }

  if (aborted) {
    // A half-captured baseline set must never be verified against: force
    // the next pass to recapture from scratch.
    if (capture) {
      regions_.clear();
      baseline_epoch_ = ~std::uint64_t{0};
    }
  } else {
    if (capture) baseline_epoch_ = epoch;
    delta.passes = 1;
    c_passes.increment();
  }

  // Verification done before an abort still counts — every chunk was
  // checked (and repaired) under the lock at a consistent epoch.
  c_chunks.add(delta.chunks_verified);
  c_detected.add(delta.corruption_detected);
  c_repaired.add(delta.repaired);
  c_unrepaired.add(delta.unrepaired);
  std::lock_guard lock(stats_mutex_);
  stats_.passes += delta.passes;
  stats_.chunks_verified += delta.chunks_verified;
  stats_.corruption_detected += delta.corruption_detected;
  stats_.repaired += delta.repaired;
  stats_.unrepaired += delta.unrepaired;
  return delta;
}

ScrubStats Scrubber::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

}  // namespace skt::ckpt
