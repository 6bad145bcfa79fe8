// The master-node daemon of Section 5.2: launches the job, watches for
// aborts, health-checks the ranklist, replaces lost nodes with spares, and
// relaunches. Survivor ranks keep their nodes (and their SHM checkpoints);
// a replacement rank starts on a blank node and must be rebuilt from the
// group's checksums.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/runtime.hpp"
#include "sim/cluster.hpp"
#include "sim/failure.hpp"
#include "telemetry/forensics.hpp"
#include "telemetry/health.hpp"

namespace skt::storage {
class Vault;
}

namespace skt::mpi {

/// Heartbeat-driven failure detection for the launcher's detect phase.
/// When enabled, the launcher resets and arms the HealthBoard, registers a
/// cluster power-off observer to stamp true death instants, and on abort
/// POLLS the board (every 0.2 ms, for at most 2 s of real time) until
/// every lost rank's suspicion crosses HealthBoard::kDefaultPhiThreshold —
/// so detection latency becomes a measured histogram
/// (`launcher.detect_latency_s`) instead of the implicit `detect_delay_s`.
struct HealthConfig {
  bool enabled = false;
};

struct LauncherConfig {
  int max_restarts = 8;
  int ranks_per_node = 1;
  /// First primary node of this job's contiguous placement. Concurrent
  /// launchers sharing one cluster (multi-tenant scenarios) give each job
  /// a disjoint node range by offsetting here; spares stay shared.
  int first_node = 0;
  /// Failure-detection latency charged as virtual time per cycle (the
  /// paper measures ~63 s on Tianhe-2, ~30 s on Tianhe-1A).
  double detect_delay_s = 0.0;
  /// Extra virtual seconds modelling job-manager replace/restart latency
  /// (10 s and 9 s respectively in Fig. 10). Real measured time is added
  /// on top.
  double replace_delay_s = 0.0;
  double restart_delay_s = 0.0;
  HealthConfig health;
  /// When set, every incident's postmortem is also written to
  /// `POSTMORTEM_<name>.json` (incident k > 0 appends `_<k>`).
  std::string postmortem_name;
  /// The job's durable tier, when its shards live on the job's own nodes:
  /// the replace phase wipes every dead node's shard, then gives each one
  /// Vault::replace_node(dead, spare), which hands the spare the dead
  /// node's placement slot and re-homes its extents from surviving
  /// replicas before the relaunch reads anything back. A vault with no
  /// shard on a lost node is left as it is.
  storage::Vault* vault = nullptr;
  RuntimeConfig runtime;
};

/// Timing of one work-fail-detect-restart cycle (Fig. 10).
struct CycleTiming {
  std::string reason;      ///< abort reason from the failed run
  double detect_s = 0.0;   ///< failure detection (virtual)
  double replace_s = 0.0;  ///< ranklist health check + spare substitution
  double restart_s = 0.0;  ///< job relaunch
  /// Measured (suspicion crossed) - (node died); -1 when health monitoring
  /// was off or no death stamp existed.
  double detect_latency_s = -1.0;
  double detect_phi = 0.0;     ///< worst lost-rank suspicion at detection
  std::vector<int> lost_ranks; ///< world ranks that died this cycle
};

struct LaunchResult {
  bool success = false;
  int restarts = 0;
  std::string failure;  ///< reason when success == false
  double total_real_s = 0.0;
  double total_virtual_s = 0.0;
  std::vector<CycleTiming> cycles;
  /// Named durations recorded by ranks, e.g. "checkpoint" (critical-path
  /// commit cost: the full sync commit, or only the staging copy in async
  /// mode), "ckpt_worker" (one async worker pipeline, off the critical
  /// path), and "recover". Max-merge semantics, at both levels: within an
  /// attempt each value is the largest single observation across ranks and
  /// calls (JobResult::times), and across attempts the per-attempt maxima
  /// are max-merged again. So times["checkpoint"] is the worst-case cost
  /// of ONE commit anywhere in the whole launch — not a total, not an
  /// average, and not summed over restarts.
  std::map<std::string, double> times;
  std::vector<int> final_ranklist;
  /// One forensic record per incident (also appended to the process-wide
  /// forensics::recorder() history, and to POSTMORTEM_*.json files when
  /// LauncherConfig::postmortem_name is set).
  std::vector<telemetry::Postmortem> postmortems;
};

class JobLauncher {
 public:
  JobLauncher(sim::Cluster& cluster, sim::FailureInjector* injector = nullptr,
              LauncherConfig config = {});

  /// Run `fn` over `nranks` ranks with restart-on-failure. Returns once the
  /// job completes, spares run out, or max_restarts is exceeded.
  LaunchResult run(int nranks, const std::function<void(Comm&)>& fn);

  /// Contiguous fill: rank r lands on primary node
  /// first_node + r / ranks_per_node.
  static std::vector<int> default_ranklist(const sim::Cluster& cluster, int nranks,
                                           int ranks_per_node, int first_node = 0);

 private:
  sim::Cluster& cluster_;
  sim::FailureInjector* injector_;
  LauncherConfig config_;
};

}  // namespace skt::mpi
