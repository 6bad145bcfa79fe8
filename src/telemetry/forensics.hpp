// Failure forensics: a flight recorder for the facts a postmortem needs.
//
// The paper's Fig. 10 restart cycle treats diagnosis as out of scope; at
// production scale "which rank died, holding which epoch, and who rebuilt
// what from whom" is the first question an operator asks. This module
// collects exactly that, with two halves:
//
//  * Rank threads (via ckpt::Session and its async worker) leave NOTES as
//    they go: the encoding-group geometry at open(), every commit's epoch
//    and dirty footprint, every restore's epoch and rebuilt-member flag.
//    Notes are plain data — the recorder never reaches back into protocol
//    objects, so it can be read safely after the rank threads are gone.
//
//  * The launcher, when an attempt aborts, opens an INCIDENT: it snapshots
//    the notes (lost ranks/nodes, newest committed epoch anywhere), times
//    the Fig. 10 phases (detect / replace / restart) into the incident's
//    timeline, and after the relaunch attaches the restore notes the
//    surviving job produced (restored epoch, rebuilt stripe set, peers).
//    The finished Postmortem serializes to POSTMORTEM_<name>.json.
//
// Recording is always on (a mutex-guarded map update per commit — commits
// are seconds apart) so every launcher-driven run, tests included, yields
// a postmortem for every kill without opting in. JobLauncher::run() calls
// begin_job() to drop the previous job's notes; the postmortem history
// itself is append-only until clear().
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace skt::telemetry {

/// Encoding-group geometry of one rank's session, captured at open().
struct GroupGeometry {
  std::string strategy;        ///< ckpt::to_string of the strategy
  int group_index = -1;        ///< group ordinal when derivable, else -1
  int group_size = 0;
  /// Concurrent losses the group's erasure code tolerates (m of RS(k, m);
  /// 1 for the paper's single-parity layout, 0 for uncoded strategies).
  int parity_count = 0;
  std::vector<int> members;    ///< world ranks, group order
  std::vector<int> nodes;      ///< node id per member
  std::size_t data_bytes = 0;  ///< protected image per member
  std::size_t stripe_bytes = 0;
  std::size_t stripe_count = 0;  ///< stripes per member (dirty tracker's view)
};

/// One member rebuilt during a restore: the stripes it recovered and the
/// surviving peers they were decoded from.
struct RebuildInfo {
  int rank = -1;                ///< world rank of the rebuilt member
  std::uint64_t epoch = 0;      ///< epoch restored to
  double rebuild_s = 0.0;
  std::size_t stripe_begin = 0;  ///< member-local stripe range rebuilt
  std::size_t stripe_count = 0;
  std::size_t stripe_bytes = 0;
  std::vector<int> peers;       ///< surviving world ranks the data came from
  /// World ranks rebuilt in the SAME restore (this one included) — the
  /// concurrently lost set a wide-stripe RS(k, m) decode recovered at once.
  std::vector<int> concurrent_lost;
};

/// One Fig. 10 phase of the recovery cycle.
struct PhaseTiming {
  std::string phase;  ///< "detect" | "replace" | "restart" | "restore"
  double seconds = 0.0;
};

struct Postmortem {
  std::string name;       ///< job name; file is POSTMORTEM_<name>[_k].json
  int incident = 0;       ///< ordinal within the job (0 = first failure)
  int attempt = 0;        ///< launcher attempt that aborted
  std::string reason;     ///< abort reason string
  std::vector<int> lost_ranks;  ///< world ranks whose nodes died
  std::vector<int> lost_nodes;  ///< the node ids, matching lost_ranks
  /// Newest epoch any rank had committed when the job aborted: the epoch
  /// whose successor (if a commit was in flight) is the work at risk.
  std::uint64_t lost_epoch = 0;
  std::map<int, std::uint64_t> committed_epochs;  ///< per-rank, at abort
  bool recovered = false;        ///< a later attempt restored successfully
  std::uint64_t restored_epoch = 0;  ///< epoch the job resumed from
  GroupGeometry geometry;        ///< the (first) lost rank's group
  std::vector<RebuildInfo> rebuilds;
  std::vector<PhaseTiming> timeline;  ///< Fig. 10 phases, in order
  double detect_latency_s = -1.0;  ///< measured via HealthBoard; -1 = unmeasured
  double detect_phi = 0.0;         ///< suspicion score at detection
  std::size_t last_dirty_bytes = 0;      ///< of the newest commit anywhere
  double last_dirty_fraction = 1.0;
  std::uint64_t trace_spans = 0;    ///< spans surviving in the rank rings
  std::uint64_t trace_dropped = 0;  ///< spans lost to ring wrap-around
  /// Background scrubber activity up to the incident (scrub.* counters):
  /// silent-corruption events the job survived before/while it failed.
  std::uint64_t scrub_passes = 0;
  std::uint64_t scrub_corruption_detected = 0;
  std::uint64_t scrub_repaired = 0;
  std::uint64_t scrub_unrepaired = 0;

  /// The whole record as one JSON document.
  [[nodiscard]] std::string json() const;

  /// json() to `path`; false (with a stderr warning) on I/O error.
  bool write(const std::string& path) const;
};

namespace forensics {

/// Per-rank note content; see Recorder.
struct CommitNote {
  std::uint64_t epoch = 0;
  std::size_t dirty_bytes = 0;
  double dirty_fraction = 1.0;
};

struct RestoreNote {
  int rank = -1;
  std::uint64_t epoch = 0;
  bool rebuilt_member = false;
  double rebuild_s = 0.0;
};

class Recorder {
 public:
  static Recorder& instance();

  /// Forget the previous job's notes (geometry, commits, restores). The
  /// launcher calls this once per run(); postmortem history survives.
  void begin_job();

  // --- notes from rank threads ------------------------------------------
  void note_geometry(int world_rank, GroupGeometry geometry);
  void note_commit(int world_rank, const CommitNote& note);
  void note_restore(const RestoreNote& note);

  // --- queries the launcher assembles postmortems from ------------------
  [[nodiscard]] std::optional<GroupGeometry> geometry_of(int world_rank) const;
  [[nodiscard]] std::optional<CommitNote> last_commit(int world_rank) const;
  [[nodiscard]] std::map<int, std::uint64_t> committed_epochs() const;
  /// Monotone count of restore notes; pass a previous value to
  /// restores_since() to read only the notes a relaunch produced.
  [[nodiscard]] std::uint64_t restore_marker() const;
  [[nodiscard]] std::vector<RestoreNote> restores_since(std::uint64_t marker) const;

  // --- postmortem history -----------------------------------------------
  void add_postmortem(Postmortem pm);
  [[nodiscard]] std::vector<Postmortem> postmortems() const;
  void clear();  ///< history AND notes (test isolation)

 private:
  Recorder();
  struct Impl;
  Impl* impl_;
};

/// The process-wide recorder.
Recorder& recorder();

}  // namespace forensics
}  // namespace skt::telemetry
