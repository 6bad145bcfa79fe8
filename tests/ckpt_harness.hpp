// A miniature checkpointed application used to exercise the protocols:
// every iteration rewrites the whole protected buffer (HPL-like full
// memory footprint) with a pattern that is a pure function of
// (seed, rank, iteration), then commits. After any failure/restart the
// harness restores and continues, and the caller verifies the final
// pattern — so a wrong epoch, a torn checkpoint, or a bad rebuild all
// surface as data mismatches.
//
// The harness drives the library the way applications do: through
// ckpt::Session. CommitMode::kAsync runs the asynchronous pipeline — the
// loop keeps mutating data() while the worker encodes the staged copy —
// so the same consistency checks cover both commit paths.
#pragma once

#include <cstring>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "ckpt/session.hpp"
#include "mpi/comm.hpp"
#include "util/rng.hpp"

namespace skt::testing {

struct CkptAppConfig {
  ckpt::Strategy strategy = ckpt::Strategy::kSelf;
  int group_size = 4;          ///< must divide world size
  std::size_t data_bytes = 4096;
  enc::CodecKind codec = enc::CodecKind::kXor;
  int parity_degree = 1;       ///< self-checkpoint only
  int iterations = 5;
  std::uint64_t seed = 2017;
  storage::Vault* vault = nullptr;  ///< BLCR / level 2 only
  ckpt::CommitMode mode = ckpt::CommitMode::kSync;
  /// > 0 wraps the strategy in a multi-level session (level-2 disk flush
  /// every N commits).
  int level2_every = 0;
  /// > 0: after the initial full fill, every iteration rewrites only a hot
  /// window of `hot_bytes` of data() and annotates the write through
  /// Session::mark_dirty, so commits run the partially-dirty staging and
  /// delta-encode paths. The window is the suffix of data() unless
  /// `hot_begin` places it. A suffix shares the last stripe with the user
  /// state, which every commit rewrites, so a suffix within that stripe
  /// dirties one stripe per member — the sparse delta, not the full encode.
  /// The cold remainder keeps its iteration-0 pattern and is verified
  /// against it — a protocol that forgets to carry clean blocks (in S, B,
  /// or the parity delta) fails the data check. Every partially-dirty
  /// commit must also put fewer bytes on the wire than a full encode.
  std::size_t hot_bytes = 0;
  /// Start of the hot window in data(); unset = the suffix. Need not be
  /// block-aligned.
  std::optional<std::size_t> hot_begin;
  /// > 0 starts the Session's background scrubber at this cadence.
  double scrub_interval = 0;
  /// Inject a silent bit flip into a sealed, mirror-backed checkpoint
  /// region after the iteration-2 commit and require the scrubber to
  /// detect AND repair it (throws otherwise, failing the job). Needs
  /// scrub_interval > 0.
  bool scrub_bitflip = false;
  /// Multi-tenant operation: open the Session against this StoreService
  /// under `tenant` (both or neither; see ckpt/store_service.hpp).
  ckpt::StoreService* service = nullptr;
  std::string tenant;
};

struct LoopState {
  std::uint64_t iteration = 0;
};

/// Fill `data` with `iteration`'s pattern; `first_lane` is the index of
/// data's first double within the whole buffer.
inline void fill_pattern(std::span<std::byte> data, std::uint64_t seed, int rank,
                         std::uint64_t iteration, std::size_t first_lane = 0) {
  std::span<double> lanes{reinterpret_cast<double*>(data.data()), data.size() / sizeof(double)};
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    lanes[i] = util::element_value(seed + iteration, static_cast<std::uint64_t>(rank),
                                   first_lane + i);
  }
}

/// Verify data against the harness pattern. `hot_bytes` == 0: the whole
/// buffer carries `iteration`'s pattern. Otherwise only the hot window
/// [hot_begin, hot_begin + hot_bytes) does, and the cold remainder must
/// still hold iteration 0's.
inline bool matches_pattern(std::span<const std::byte> data, std::uint64_t seed, int rank,
                            std::uint64_t iteration, double tolerance,
                            std::size_t hot_bytes = 0, std::size_t hot_begin = 0) {
  std::span<const double> lanes{reinterpret_cast<const double*>(data.data()),
                                data.size() / sizeof(double)};
  const std::size_t hot_first = hot_begin / sizeof(double);
  const std::size_t hot_end = hot_first + hot_bytes / sizeof(double);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const bool hot = hot_bytes == 0 || (i >= hot_first && i < hot_end);
    const std::uint64_t it = iteration == 0 || hot ? iteration : 0;
    const double expect = util::element_value(seed + it, static_cast<std::uint64_t>(rank), i);
    if (std::abs(lanes[i] - expect) > tolerance * (std::abs(expect) + 1.0)) return false;
  }
  return true;
}

/// The rank body. Throws (aborting the job) on any consistency violation so
/// the test's final success assertion catches protocol bugs.
inline void checkpointed_app(mpi::Comm& world, const CkptAppConfig& config) {
  ckpt::Session session = ckpt::SessionBuilder{}
                              .strategy(config.strategy)
                              .group_size(config.group_size)
                              .data_bytes(config.data_bytes)
                              .user_bytes(sizeof(LoopState))
                              .codec(config.codec)
                              .parity_degree(config.parity_degree)
                              .key_prefix("test")
                              .vault(config.vault)
                              .mode(config.mode)
                              .level2_flush_every(config.level2_every)
                              .scrub_interval(config.scrub_interval)
                              .service(config.service)
                              .tenant(config.tenant)
                              .build(world);

  // Partial-write mode: hot window rewritten (and annotated) per
  // iteration, cold remainder written once. Clamped so 0 and "everything"
  // coincide. The window is lane-aligned so the pattern's doubles stay
  // whole; it need not be block-aligned.
  const std::size_t hot =
      config.hot_bytes == 0 || config.hot_bytes >= config.data_bytes ? 0 : config.hot_bytes;
  const std::size_t hot_begin = config.hot_begin.value_or(config.data_bytes - hot);
  if (hot != 0 && (hot % sizeof(double) != 0 || hot_begin % sizeof(double) != 0 ||
                   hot_begin + hot > config.data_bytes)) {
    throw std::invalid_argument("checkpointed_app: hot window must be whole doubles in data()");
  }
  // A partially-dirty commit of an encoding strategy must take the sparse
  // delta path: fewer wire bytes than the full ring encode, which moves
  // n(n-1) stripes of the group (checksum_bytes holds one stripe per
  // parity row, and the ring makes one pass per row).
  const auto check_partial_commit = [&](const ckpt::CommitStats& stats) {
    if (hot == 0 || stats.checksum_bytes == 0 || stats.dirty_fraction >= 1.0) return;
    const auto n = static_cast<std::uint64_t>(config.group_size);
    const std::uint64_t full = n * (n - 1) * stats.checksum_bytes;
    if (stats.encode_wire_bytes >= full) {
      throw std::runtime_error("partially-dirty commit moved " +
                               std::to_string(stats.encode_wire_bytes) +
                               " wire bytes, not below the full encode's " +
                               std::to_string(full));
    }
  };

  auto* state = reinterpret_cast<LoopState*>(session.user_state().data());
  if (session.open() == ckpt::OpenOutcome::kRestored) {
    // The restored data must match the pattern of the restored iteration —
    // commit runs once per iteration, so epoch and iteration move together.
    const double tol = config.codec == enc::CodecKind::kXor ? 0.0 : 1e-9;
    if (!matches_pattern(session.data(), config.seed, world.rank(), state->iteration, tol,
                         hot, hot_begin)) {
      throw std::runtime_error("restored data does not match iteration " +
                               std::to_string(state->iteration));
    }
    const ckpt::RestoreStats rs = session.last_restore().value();
    if (rs.epoch != state->iteration) {
      throw std::runtime_error("restored epoch " + std::to_string(rs.epoch) +
                               " disagrees with iteration counter " +
                               std::to_string(state->iteration));
    }
  } else {
    state->iteration = 0;
    fill_pattern(session.data(), config.seed, world.rank(), 0);
    // The initial full fill must be declared too: once the app starts
    // annotating (partial mode), an unmarked cold region would never reach
    // the first checkpoint.
    if (hot != 0) session.mark_all_dirty();
  }

  const bool async = config.mode == ckpt::CommitMode::kAsync;
  ckpt::CommitTicket in_flight;
  while (state->iteration < static_cast<std::uint64_t>(config.iterations)) {
    world.failpoint("app.work");
    const std::uint64_t next = state->iteration + 1;
    if (hot != 0) {
      // Rewrite only the hot window and declare it — every strategy's
      // commit then copies/encodes just the covering blocks.
      fill_pattern(session.data().subspan(hot_begin, hot), config.seed, world.rank(), next,
                   hot_begin / sizeof(double));
      session.mark_dirty(hot_begin, hot);
    } else {
      fill_pattern(session.data(), config.seed, world.rank(), next);
      // Full rewrite: everything is dirty. The same commit as leaving the
      // epoch un-annotated, whose tracker already reports all-dirty; the
      // annotation keeps the loop explicit about what it wrote. (Moving
      // sparse windows are covered in test_protocols.cpp.)
      session.mark_all_dirty();
    }
    state->iteration = next;
    try {
      if (async) {
        // The next commit_async() (or the drain below) provides the
        // backpressure and settles the previous ticket, whose stats are
        // then checked. The loop immediately continues mutating data()
        // while the worker runs — that overlap is exactly what the staged
        // pipeline must tolerate.
        const ckpt::CommitTicket previous = std::exchange(in_flight, session.commit_async());
        if (previous.valid()) check_partial_commit(previous.wait());
      } else {
        check_partial_commit(session.commit());
      }
    } catch (const ckpt::Unrecoverable& e) {
      throw std::runtime_error(std::string("unrecoverable during commit: ") + e.what());
    }
    if (config.scrub_bitflip && state->iteration == 2 && session.scrubber() != nullptr) {
      // Silent-data-corruption drill: flip one bit of a sealed, mirror-
      // backed checksum region between commits. The scrubber must notice
      // the CRC mismatch against its seal-time baseline and repair the
      // chunk from the byte-identical twin while the loop keeps running.
      if (async) session.drain();  // quiesce the worker before touching sealed buffers
      session.scrubber()->scrub_now();  // baseline this epoch
      const ckpt::ScrubStats before = session.scrubber()->stats();
      {
        // Flip under the commit-exclusion lock so the cadence thread never
        // observes a torn write (it may be scanning concurrently).
        std::lock_guard<std::mutex> lock(session.scrubber()->commit_exclusion());
        for (ckpt::ScrubRegion& region : session.unsafe_protocol().scrub_view()) {
          if (region.mirror.empty()) continue;
          region.bytes[region.bytes.size() / 2] ^= std::byte{0x10};
          break;
        }
      }
      const ckpt::ScrubStats after_now = session.scrubber()->scrub_now();
      (void)after_now;
      const ckpt::ScrubStats after = session.scrubber()->stats();
      if (after.corruption_detected <= before.corruption_detected) {
        throw std::runtime_error("scrubber missed the injected bit flip");
      }
      if (after.repaired <= before.repaired || after.unrepaired > before.unrepaired) {
        throw std::runtime_error("scrubber failed to repair the injected bit flip");
      }
    }
  }
  if (async) {
    session.drain();
    if (in_flight.valid()) check_partial_commit(in_flight.wait());
  }

  world.failpoint("app.done");
  const double tol = config.codec == enc::CodecKind::kXor ? 0.0 : 1e-9;
  if (!matches_pattern(session.data(), config.seed, world.rank(),
                       static_cast<std::uint64_t>(config.iterations), tol, hot, hot_begin)) {
    throw std::runtime_error("final data mismatch");
  }
}

}  // namespace skt::testing
