// The checkpoint protocol SPI (service-provider interface) shared by every
// strategy. Applications should NOT program against this header directly:
// the front door is ckpt::Session (session.hpp), which owns the group
// communicator, drives restore-on-open, publishes telemetry, and runs the
// async commit pipeline. CheckpointProtocol is what a new *strategy*
// implements.
//
// Lifecycle (all calls are collective):
//
//   open()    — attach/create state; tells the caller whether a committed
//               checkpoint exists (restart) or the run is fresh.
//   data()    — the protected working buffer. For self-checkpoint this IS
//               the SHM-resident A1; the application computes in place.
//   user_state() — small POD area for loop counters etc. (A2 in Fig. 5).
//   commit()  — make a new checkpoint of the current contents.
//   restore() — after a restart, reconstruct data()/user_state() from the
//               newest consistent checkpoint, rebuilding any member whose
//               node was lost.
//
// Strategies built with FactoryParams::async_staging additionally run the
// staged pair:
//
//   stage()         — LOCAL, non-collective: seal a point-in-time copy of
//                     data()+user_state() into a staging buffer. This is
//                     the only step the application's critical path pays.
//   commit_staged() — collective: run the full encode/seal/flush state
//                     machine from the staged copy. Called from the async
//                     worker thread; plants "ckpt.async_*" failpoints in
//                     place of the synchronous "ckpt.*" ones.
//
// Between stage() and the end of commit_staged() the application may keep
// mutating data(); the staged copy is immutable. A strategy whose recovery
// reads the staging buffer (self) places it in the persistent store so a
// failure inside commit_staged() still recovers.
//
// Encoding happens inside a small *group* communicator (Section 2.1), but
// the commit state machine is synchronized over the *world* communicator:
// without global barriers between the seal and flush steps, two groups
// could roll back to different epochs after a failure. CommCtx carries
// both.
//
// Failpoints named "ckpt.*" (sync) / "ckpt.async_*" (staged) are planted
// between protocol steps so tests and benches can kill a node at every
// stage of the commit state machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/dirty_tracker.hpp"
#include "ckpt/plan.hpp"
#include "mpi/comm.hpp"

namespace skt::ckpt {

/// World + encoding-group communicators. When the application runs as a
/// single group, both references may point at the same Comm.
struct CommCtx {
  mpi::Comm& world;
  mpi::Comm& group;
};

struct CommitStats {
  std::uint64_t epoch = 0;     ///< epoch the commit produced
  double encode_s = 0.0;       ///< checksum calculation, wall time
  /// Modeled network time of this rank's encode messages alone.
  double encode_virtual_s = 0.0;
  double flush_s = 0.0;        ///< local overwrite of the old checkpoint
  double device_s = 0.0;       ///< virtual device time (disk strategies)
  /// Bytes written into the checkpoint copy: the flushed dirty runs for
  /// the in-memory strategies (equal to dirty_bytes; the full image only
  /// when everything is dirty), the whole image for BLCR.
  std::size_t checkpoint_bytes = 0;
  std::size_t checksum_bytes = 0;    ///< size of the checksum the commit re-encoded
  /// Payload bytes the encode put on the (simulated) wire, summed over
  /// every rank of the world, so every rank reads the same value; 0 for
  /// strategies that encode nothing.
  std::uint64_t encode_wire_bytes = 0;
  /// Bytes of the dirty runs this commit had to move, block-exact (see
  /// DirtyTracker::account; every strategy has a tracker). Equals the
  /// full image for un-annotated applications.
  std::size_t dirty_bytes = 0;
  /// Share of the tracked image's stripes that hold a dirty block; 1.0
  /// for un-annotated applications.
  double dirty_fraction = 1.0;
  [[nodiscard]] double total_s() const {
    return encode_s + encode_virtual_s + flush_s + device_s;
  }
};

struct RestoreStats {
  std::uint64_t epoch = 0;  ///< epoch restored to
  double rebuild_s = 0.0;   ///< decoding / image load, wall time
  /// Virtual device time of reading the image (disk restores); never part
  /// of rebuild_s, and 0 for the group-coded strategies.
  double device_s = 0.0;
  bool rebuilt_member = false;  ///< true on the rank that was reconstructed
  /// Payload bytes the rebuild lent on the (simulated) wire, summed over
  /// every rank of the world, so every rank reads the same value; 0 when
  /// no member was rebuilt and for strategies that restore from disk.
  std::uint64_t rebuild_wire_bytes = 0;
  /// Modeled network time of this rank's rebuild messages alone; never
  /// part of rebuild_s.
  double rebuild_virtual_s = 0.0;
};

/// Publish a finished commit into the process-wide telemetry registry:
/// ckpt.* phase histograms (encode/flush/device/total seconds), byte
/// counters, and the commit counter. Also stamps the epoch onto this
/// thread's subsequent trace spans.
///
/// SPI hook: ckpt::Session calls this once per completed commit, on the
/// rank thread or on its async worker, so protocols themselves must NOT.
/// Embedders that drive a CheckpointProtocol directly should call it after
/// each commit if they want run reports to aggregate identically across
/// strategies.
void record_commit_telemetry(const CommitStats& stats);

/// Restore-side counterpart: ckpt.restore_s histogram, restore/rebuild
/// counters, and the trace epoch. Same contract: called by the Session
/// layer, or by embedders driving the SPI directly.
void record_restore_telemetry(const RestoreStats& stats);

/// Copy bytes `r` of the combined image [data | user], whose two parts
/// live in separate buffers, to the same offsets of `dst` (a padded
/// combined-layout buffer). A range may straddle the boundary; bytes past
/// the combined image (stripe padding) are left alone.
void copy_combined(std::span<const std::byte> data, std::span<const std::byte> user,
                   enc::ByteRange r, std::byte* dst);

/// One sealed buffer a background scrubber may re-verify between commits
/// (see scrub_view()). `mirror`, when non-empty, is a same-size twin the
/// protocol guarantees byte-identical to `bytes` whenever no commit or
/// restore is in flight — e.g. self-checkpoint's C/D checksum pair after a
/// flush — so a corrupt chunk of one side can be repaired from the other.
struct ScrubRegion {
  std::string name;             ///< segment label for telemetry ("B", "C", ...)
  std::span<std::byte> bytes;   ///< the sealed contents
  std::span<std::byte> mirror;  ///< byte-identical twin, or empty
};

/// Thrown when no consistent checkpoint can recover the data (e.g. the
/// single-checkpoint strategy killed inside its update window, or two
/// failures in one group).
class Unrecoverable : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CheckpointProtocol {
 public:
  virtual ~CheckpointProtocol() = default;

  /// Collective. Returns true when a committed checkpoint exists anywhere
  /// (=> the caller must restore() instead of regenerating its data).
  virtual bool open(CommCtx ctx) = 0;

  /// The protected bulk buffer (A1). Stable address between open() and
  /// destruction. Size equals the data_bytes requested at construction.
  [[nodiscard]] virtual std::span<std::byte> data() = 0;

  /// Small user-state area (A2); checkpointed together with data().
  [[nodiscard]] virtual std::span<std::byte> user_state() = 0;

  /// Collective: checkpoint the current contents.
  virtual CommitStats commit(CommCtx ctx) = 0;

  /// LOCAL, non-collective: copy the current data()+user_state() into the
  /// staging buffer. Returns the seconds the copy took (the critical-path
  /// cost of an async commit). Precondition: no commit_staged() in flight.
  virtual double stage() {
    throw std::logic_error("stage(): strategy does not support async commit");
  }

  /// Collective: run the encode/seal/flush state machine over the staged
  /// copy, planting ckpt.async_* failpoints. Called from the async worker
  /// thread; must not touch data()/user_state().
  virtual CommitStats commit_staged(CommCtx ctx) {
    (void)ctx;
    throw std::logic_error("commit_staged(): strategy does not support async commit");
  }

  /// Sealed buffers a background scrubber may verify and repair between
  /// commits. Only valid after open(); spans stay stable until the
  /// protocol is destroyed, but their CONTENTS are only quiescent while no
  /// commit/restore runs — callers must exclude commits (the Session's
  /// scrub lock) before reading. Default: nothing to scrub.
  [[nodiscard]] virtual std::vector<ScrubRegion> scrub_view() { return {}; }

  /// Largest number of concurrently lost group members this strategy's
  /// encoding can rebuild (0 = none, m for RS(k, m) layouts). Recorded in
  /// the postmortem geometry.
  [[nodiscard]] virtual int max_failures() const { return 0; }

  /// The strategy's dirty tracker, or nullptr when it tracks nothing.
  /// Valid after open(). Applications annotate writes through it (usually
  /// via Session::mark_dirty) so stage()/commit() copy and encode only the
  /// dirty blocks; an un-annotated tracker degrades to full-cost commits.
  [[nodiscard]] virtual DirtyTracker* dirty_tracker() { return nullptr; }

  /// Collective: recover after a restart. Throws Unrecoverable when no
  /// consistent checkpoint exists.
  virtual RestoreStats restore(CommCtx ctx) = 0;

  /// Total per-process memory footprint (app + checkpoints + checksums),
  /// for the Table 1 accounting.
  [[nodiscard]] virtual std::size_t memory_bytes() const = 0;

  [[nodiscard]] virtual Strategy strategy() const = 0;

  /// Epoch of the newest locally committed checkpoint (0 = none).
  [[nodiscard]] virtual std::uint64_t committed_epoch() const = 0;
};

}  // namespace skt::ckpt
