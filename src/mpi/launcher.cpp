#include "mpi/launcher.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>

#include "storage/vault.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace skt::mpi {
namespace {

/// Stand-in suspicion for a rank that never heartbeat: phi is +inf there
/// (immediately suspect), which JSON cannot hold.
constexpr double kNeverBeatPhi = 999.0;

/// Detect-phase polling cadence and give-up time (real seconds).
constexpr double kDetectPollS = 0.0002;
constexpr double kDetectMaxWaitS = 2.0;

/// Disarms the health board and death observer on every exit path.
struct MonitorScope {
  sim::Cluster& cluster;
  bool health_on;
  int observer_token;
  ~MonitorScope() {
    cluster.remove_power_off_observer(observer_token);
    if (health_on) telemetry::health().set_enabled(false);
  }
};

}  // namespace

JobLauncher::JobLauncher(sim::Cluster& cluster, sim::FailureInjector* injector,
                         LauncherConfig config)
    : cluster_(cluster), injector_(injector), config_(config) {
  if (config_.ranks_per_node <= 0) {
    throw std::invalid_argument("JobLauncher: ranks_per_node must be positive");
  }
}

std::vector<int> JobLauncher::default_ranklist(const sim::Cluster& cluster, int nranks,
                                               int ranks_per_node, int first_node) {
  if (nranks <= 0) throw std::invalid_argument("default_ranklist: nranks must be positive");
  if (first_node < 0) throw std::invalid_argument("default_ranklist: first_node must be >= 0");
  const int nodes_needed = (nranks + ranks_per_node - 1) / ranks_per_node;
  if (first_node + nodes_needed > cluster.config().num_nodes) {
    throw std::invalid_argument("default_ranklist: not enough primary nodes");
  }
  std::vector<int> ranklist(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    ranklist[static_cast<std::size_t>(r)] = first_node + r / ranks_per_node;
  }
  return ranklist;
}

LaunchResult JobLauncher::run(int nranks, const std::function<void(Comm&)>& fn) {
  LaunchResult result;
  std::vector<int> ranklist =
      default_ranklist(cluster_, nranks, config_.ranks_per_node, config_.first_node);

  // The launcher daemon is not a rank; label its log lines (and trace row)
  // so they don't appear prefix-less between the rank lines.
  util::set_thread_label("launcher");
  util::WallTimer total_timer;

  telemetry::forensics::Recorder& recorder = telemetry::forensics::recorder();
  recorder.begin_job();
  telemetry::HealthBoard& board = telemetry::health();
  if (config_.health.enabled) {
    board.reset();
    board.set_enabled(true);
  }
  // Death stamps feed detection-latency measurement even with heartbeats
  // off (the stamp alone costs one map insert per power-off).
  const int observer_token = cluster_.add_power_off_observer(
      [&board](int node_id, const std::string&) { board.note_death(node_id); });
  MonitorScope scope{cluster_, config_.health.enabled, observer_token};

  // Incident bookkeeping: the postmortem of incident k stays open until the
  // relaunched attempt k+1 finishes, because that attempt produces the
  // restore notes (restored epoch, rebuilt members) the record needs.
  std::optional<telemetry::Postmortem> pending;
  int incidents = 0;
  std::uint64_t restore_marker = recorder.restore_marker();

  const auto finalize_pending = [&](bool attempt_completed) {
    if (!pending) return;
    const std::vector<telemetry::forensics::RestoreNote> notes =
        recorder.restores_since(restore_marker);
    // All members this restore pass rebuilt, so each RebuildInfo can name
    // the set that was lost concurrently (the wide-stripe RS(k, m) case)
    // and exclude those members from its peer list.
    std::vector<int> rebuilt_ranks;
    for (const telemetry::forensics::RestoreNote& note : notes) {
      if (note.rebuilt_member) rebuilt_ranks.push_back(note.rank);
    }
    double restore_s = 0.0;
    for (const telemetry::forensics::RestoreNote& note : notes) {
      pending->restored_epoch = std::max(pending->restored_epoch, note.epoch);
      restore_s = std::max(restore_s, note.rebuild_s);
      if (!note.rebuilt_member) continue;
      telemetry::RebuildInfo rb;
      rb.rank = note.rank;
      rb.epoch = note.epoch;
      rb.rebuild_s = note.rebuild_s;
      if (const auto geo = recorder.geometry_of(note.rank)) {
        // Dirty tracking is block-granular but rebuild is whole-image: a
        // lost member re-decodes every stripe from its surviving peers.
        rb.stripe_begin = 0;
        rb.stripe_count = geo->stripe_count;
        rb.stripe_bytes = geo->stripe_bytes;
        for (const int m : geo->members) {
          const bool lost = std::find(rebuilt_ranks.begin(), rebuilt_ranks.end(), m) !=
                            rebuilt_ranks.end();
          if (lost) {
            rb.concurrent_lost.push_back(m);
          } else {
            rb.peers.push_back(m);
          }
        }
      } else {
        rb.concurrent_lost.push_back(note.rank);
      }
      pending->rebuilds.push_back(std::move(rb));
    }
    pending->recovered = !notes.empty() || attempt_completed;
    if (!notes.empty()) pending->timeline.push_back({"restore", restore_s});
    if (!config_.postmortem_name.empty()) {
      std::string path = "POSTMORTEM_" + config_.postmortem_name;
      if (pending->incident > 0) path += "_" + std::to_string(pending->incident);
      path += ".json";
      pending->write(path);
    }
    result.postmortems.push_back(*pending);
    recorder.add_postmortem(std::move(*pending));
    pending.reset();
  };

  for (int attempt = 0; attempt <= config_.max_restarts; ++attempt) {
    JobResult job;
    {
      SKT_SPAN("launcher.attempt");
      Runtime runtime(cluster_, ranklist, injector_, config_.runtime);
      job = runtime.run(fn);
    }
    // Restore notes recorded by this attempt close the previous incident.
    finalize_pending(job.completed);
    restore_marker = recorder.restore_marker();

    result.total_virtual_s += job.virtual_s;
    for (const auto& [name, seconds] : job.times) {
      double& slot = result.times[name];
      slot = std::max(slot, seconds);
    }
    if (job.completed) {
      result.success = true;
      result.restarts = attempt;
      result.final_ranklist = ranklist;
      result.total_real_s = total_timer.seconds();
      return result;
    }

    SKT_LOG_INFO("launcher: attempt {} aborted ({}), entering recovery cycle", attempt,
                 job.abort_reason);
    telemetry::metrics().counter("launcher.failures").increment();
    CycleTiming cycle;
    cycle.reason = job.abort_reason;

    // Who died: ranklist entries sitting on dead nodes (captured before the
    // replace phase rewrites them).
    std::vector<int> lost_ranks;
    std::vector<int> lost_nodes;
    for (int r = 0; r < nranks; ++r) {
      const int node_id = ranklist[static_cast<std::size_t>(r)];
      if (cluster_.node(node_id).alive()) continue;
      lost_ranks.push_back(r);
      lost_nodes.push_back(node_id);
    }
    cycle.lost_ranks = lost_ranks;

    {
      // Phase 1: failure detection. With health monitoring on, poll the
      // board until every lost rank's suspicion crosses the threshold —
      // the measured gap between the node's true power-off instant and
      // that crossing IS the detection latency. The configured
      // detect_delay_s stays a purely virtual charge, as before.
      SKT_SPAN("launcher.detect");
      if (config_.health.enabled && !lost_ranks.empty()) {
        const double deadline_us =
            telemetry::Tracer::instance().now_us() + kDetectMaxWaitS * 1e6;
        for (;;) {
          const double now_us = telemetry::Tracer::instance().now_us();
          bool all_suspect = true;
          double worst_phi = 0.0;
          for (const int r : lost_ranks) {
            const double p = board.phi(r, now_us);
            worst_phi = std::max(worst_phi, std::isfinite(p) ? p : kNeverBeatPhi);
            if (p < telemetry::HealthBoard::kDefaultPhiThreshold) all_suspect = false;
          }
          if (all_suspect || now_us >= deadline_us) {
            cycle.detect_phi = worst_phi;
            double death_us = std::numeric_limits<double>::infinity();
            for (const int node_id : lost_nodes) {
              if (const auto d = board.death_time_us(node_id)) {
                death_us = std::min(death_us, *d);
              }
            }
            if (std::isfinite(death_us)) {
              cycle.detect_latency_s = std::max(0.0, now_us - death_us) * 1e-6;
              telemetry::metrics()
                  .histogram("launcher.detect_latency_s")
                  .record(cycle.detect_latency_s);
            }
            break;
          }
          std::this_thread::sleep_for(std::chrono::duration<double>(kDetectPollS));
        }
      }
      cycle.detect_s = config_.detect_delay_s;
      result.total_virtual_s += config_.detect_delay_s;
    }

    // Open this incident's postmortem from the recorder's notes. It stays
    // pending until the relaunch reports what it restored.
    telemetry::Postmortem pm;
    pm.name = config_.postmortem_name.empty() ? "job" : config_.postmortem_name;
    pm.incident = incidents++;
    pm.attempt = attempt;
    pm.reason = job.abort_reason;
    pm.lost_ranks = lost_ranks;
    pm.lost_nodes = lost_nodes;
    pm.committed_epochs = recorder.committed_epochs();
    int newest_rank = -1;
    for (const auto& [rank, epoch] : pm.committed_epochs) {
      if (epoch >= pm.lost_epoch) {
        pm.lost_epoch = epoch;
        newest_rank = rank;
      }
    }
    if (newest_rank >= 0) {
      if (const auto note = recorder.last_commit(newest_rank)) {
        pm.last_dirty_bytes = note->dirty_bytes;
        pm.last_dirty_fraction = note->dirty_fraction;
      }
    }
    if (!lost_ranks.empty()) {
      if (const auto geo = recorder.geometry_of(lost_ranks.front())) pm.geometry = *geo;
    }
    pm.detect_latency_s = cycle.detect_latency_s;
    pm.detect_phi = cycle.detect_phi;
    pm.trace_spans = telemetry::Tracer::instance().collect().size();
    pm.trace_dropped = telemetry::Tracer::instance().total_dropped();
    auto& metrics = telemetry::metrics();
    pm.scrub_passes = metrics.counter("scrub.passes").value();
    pm.scrub_corruption_detected = metrics.counter("scrub.corruption_detected").value();
    pm.scrub_repaired = metrics.counter("scrub.repaired").value();
    pm.scrub_unrepaired = metrics.counter("scrub.unrepaired").value();
    pm.timeline.push_back(
        {"detect", cycle.detect_latency_s >= 0.0 ? cycle.detect_latency_s
                                                 : cycle.detect_s});

    // Phase 2: health-check the ranklist and swap dead nodes for spares.
    util::WallTimer replace_timer;
    bool replaced_ok = true;
    {
      SKT_SPAN("launcher.replace");
      // A dead node's shard bytes are gone the moment the node is. Wipe
      // EVERY dead shard before the first replace_node so a correlated
      // multi-node loss can never re-home an extent out of another dead
      // (but not yet replaced) shard — that would resurrect lost data and
      // hide a genuine hole in the replica invariant.
      if (config_.vault != nullptr) {
        for (const int node_id : lost_nodes) config_.vault->wipe_shard(node_id);
      }
      std::vector<int> replacement(static_cast<std::size_t>(cluster_.total_nodes()), -1);
      for (int& node_id : ranklist) {
        if (cluster_.node(node_id).alive()) continue;
        int& subst = replacement[static_cast<std::size_t>(node_id)];
        if (subst < 0) {
          const auto spare = cluster_.take_spare();
          if (!spare.has_value()) {
            result.failure =
                "spare pool exhausted while replacing node " + std::to_string(node_id);
            replaced_ok = false;
            break;
          }
          subst = *spare;
          SKT_LOG_INFO("launcher: replacing dead node {} with spare node {}", node_id, subst);
          // Reshard the durable tier before relaunch: the spare inherits
          // the dead node's placement slot and its extents are re-homed
          // from surviving replica shards, so the restarted job's L2
          // restore finds every extent where the placement map says.
          if (config_.vault != nullptr && config_.vault->has_shard(node_id)) {
            config_.vault->replace_node(node_id, subst);
            const storage::VaultStats vs = config_.vault->stats();
            SKT_LOG_INFO(
                "launcher: resharded vault (shard {} -> {}, {} extents re-homed, "
                "{} lost)",
                node_id, subst, vs.extents_rehomed, vs.extents_lost);
          }
        }
        node_id = subst;
      }
    }
    cycle.replace_s = replace_timer.seconds() + config_.replace_delay_s;
    result.total_virtual_s += config_.replace_delay_s;
    pm.timeline.push_back({"replace", cycle.replace_s});

    {
      // Phase 3: relaunch (charged; the real spawn happens at loop top).
      SKT_SPAN("launcher.restart");
      cycle.restart_s = config_.restart_delay_s;
      result.total_virtual_s += config_.restart_delay_s;
    }
    pm.timeline.push_back({"restart", cycle.restart_s});
    pending = std::move(pm);

    result.cycles.push_back(std::move(cycle));
    if (!replaced_ok) break;
  }

  // Terminal failure: close the last incident without restore notes.
  finalize_pending(false);

  if (result.failure.empty()) {
    result.failure = "max restarts (" + std::to_string(config_.max_restarts) + ") exceeded";
  }
  result.restarts = static_cast<int>(result.cycles.size());
  result.final_ranklist = ranklist;
  result.total_real_s = total_timer.seconds();
  return result;
}

}  // namespace skt::mpi
