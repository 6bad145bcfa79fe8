// Background scrub-and-repair: a low-priority thread that re-verifies the
// CRC32C of every sealed checkpoint buffer between commits, catching the
// silent corruption (DRAM bit flips, wild writes) that an in-memory
// checkpoint is otherwise blind to until the restore that needed the bytes
// fails.
//
// Mechanics:
//
//   * The protocol exposes its sealed segments through scrub_view()
//     (protocol.hpp). Each region is split into fixed-size chunks; a
//     baseline CRC per chunk is captured whenever committed_epoch()
//     advances (the buffers were just rewritten) and re-verified on every
//     subsequent pass of the same epoch.
//
//   * Commits and scrub passes exclude each other through
//     commit_exclusion(): the Session takes it with lock_for_commit()
//     around every commit, commit() on the rank thread and commit_staged()
//     on its async worker, while a pass re-acquires it PER CHUNK, only long
//     enough to copy the chunk out; the CRC runs on the copy after the
//     release. A pass that observes the epoch advance between chunks
//     abandons itself (the buffers it was reading were legitimately
//     rewritten) and the next tick recaptures baselines. The cadence
//     thread only TRY-locks each chunk, so a held lock skips work instead
//     of queueing behind the commit.
//
//   * A commit never relies on mutex fairness to get in. std::mutex hands
//     the lock to whichever thread grabs it first, and a pass re-takes it
//     between chunks long before a sleeping waiter wakes, so a plain
//     lock() could wait out whole passes. lock_for_commit() raises a
//     commit-pending count before it queues; the cadence pass checks the
//     count before every chunk and abandons itself. A commit therefore
//     waits for at most the one 4 KiB copy in progress, which is what
//     keeps the scrub overhead on an encode-like workload under the 3%
//     bench gate. Only a repair holds the lock across a CRC.
//
//   * A corrupt chunk whose region has a byte-identical mirror (e.g. the
//     C/D checksum pair after a flush) is repaired in place by copying the
//     mirror chunk, after checking the mirror itself still matches the
//     baseline. Mirror-less corruption is counted as unrepaired — the
//     next restore must route around it via the erasure code.
//
// Telemetry: scrub.passes, scrub.chunks_verified, scrub.corruption_detected,
// scrub.repaired, scrub.unrepaired counters, aggregated into the RunReport
// like every other metric.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/protocol.hpp"

namespace skt::ckpt {

struct ScrubStats {
  std::uint64_t passes = 0;               ///< completed scrub passes
  std::uint64_t chunks_verified = 0;      ///< chunk CRCs recomputed
  std::uint64_t corruption_detected = 0;  ///< chunks whose CRC diverged
  std::uint64_t repaired = 0;             ///< chunks restored from a mirror
  std::uint64_t unrepaired = 0;           ///< corrupt chunks with no mirror
};

class Scrubber {
 public:
  struct Options {
    /// Cadence of the background thread; each tick try-locks the commit
    /// exclusion and runs one full pass over every region.
    double interval_s = 0.002;
    /// Verification granularity: the dirty tracker's block. Smaller
    /// chunks would localize repairs; larger ones amortize the
    /// table-driven CRC better.
    static constexpr std::size_t chunk_bytes = enc::kBlockBytes;
  };

  /// `protocol` must be open()ed already and outlive the scrubber.
  Scrubber(CheckpointProtocol& protocol, Options options);

  /// Stops and joins the background thread.
  ~Scrubber();

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  /// The raw commit/scrub exclusion lock, for short out-of-band writes
  /// such as fault-injection drills that flip a sealed byte. Locking it
  /// directly excludes a pass but does not make one give way, so a
  /// running pass can keep it for many chunks; commits take it through
  /// lock_for_commit() instead.
  [[nodiscard]] std::mutex& commit_exclusion() { return exclusion_; }

  /// Take commit_exclusion() for a commit: announce it first, so a
  /// cadence pass abandons itself at its next chunk instead of re-taking
  /// the lock ahead of the commit. Waits for at most one chunk copy while
  /// a pass is running (or for whoever else holds the lock).
  [[nodiscard]] std::unique_lock<std::mutex> lock_for_commit();

  /// Start the cadence thread (idempotent).
  void start();

  /// Stop and join the cadence thread (idempotent; also run by ~Scrubber).
  void stop();

  /// One deterministic synchronous pass — blocks on each chunk's exclusion
  /// acquisition instead of try-locking, so tests can inject a fault and
  /// assert the very next pass catches it. Returns the stats delta of this
  /// pass.
  ScrubStats scrub_now();

  /// Lifetime totals across background and synchronous passes.
  [[nodiscard]] ScrubStats stats() const;

 private:
  struct RegionState {
    std::vector<std::uint32_t> baseline;  ///< per-chunk CRC32C
  };

  /// Runs one pass, re-acquiring exclusion_ per chunk. `blocking` selects
  /// lock() (scrub_now) vs try_lock() (cadence thread) per acquisition; a
  /// pending commit, a failed try or a mid-pass epoch change abandons a
  /// cadence pass. Holds pass_mutex_ throughout, so passes themselves
  /// never interleave.
  ScrubStats run_pass(bool blocking);
  void thread_loop();

  CheckpointProtocol& protocol_;
  Options options_;

  std::mutex exclusion_;
  /// Commits inside lock_for_commit() that do not hold exclusion_ yet.
  std::atomic<int> commits_pending_{0};
  /// Serializes whole passes (cadence thread vs. scrub_now) now that
  /// exclusion_ is only held per chunk. Lock order: pass_mutex_ before
  /// exclusion_; commits take exclusion_ alone, so no cycle exists.
  std::mutex pass_mutex_;
  /// Epoch the baselines describe; re-captured when the protocol commits.
  std::uint64_t baseline_epoch_ = ~std::uint64_t{0};
  std::vector<RegionState> regions_;  // parallel to protocol_.scrub_view()

  mutable std::mutex stats_mutex_;
  ScrubStats stats_;

  std::mutex thread_mutex_;
  std::condition_variable thread_cv_;
  bool stop_ = false;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace skt::ckpt
