// The SimMPI job runtime: one "mpirun" invocation.
//
// Ranks are threads pinned to simulated nodes by a ranklist (rank → node
// id), exactly how the paper's daemon restarts SKT-HPL: survivors keep
// their nodes (and their SHM checkpoints), the lost rank lands on a spare.
// When any node in use is powered off, the whole job aborts — the behaviour
// the paper observes in production MPI runtimes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpi/mailbox.hpp"
#include "sim/cluster.hpp"
#include "sim/failure.hpp"
#include "telemetry/metrics.hpp"

namespace skt::mpi {

class Comm;

/// Thrown inside rank threads when the job has been aborted (node failure,
/// peer error). Application code must let it propagate; the launcher
/// handles restart.
class JobAborted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct RuntimeConfig {
  /// Charge virtual network costs per message from the node profiles
  /// (latency + bytes / per-rank NIC share). Off by default so unit tests
  /// measure pure protocol behaviour.
  bool model_network = false;
};

struct JobResult {
  bool completed = false;
  std::string abort_reason;
  double elapsed_real_s = 0.0;
  /// Critical-path virtual seconds: max over ranks of per-rank charges,
  /// plus job-level charges (device flushes accounted collectively).
  double virtual_s = 0.0;
  /// Named durations recorded by ranks (e.g. "checkpoint", "recover",
  /// "ckpt_worker"). Each record_time() call max-merges: the stored value
  /// is the LARGEST single observation across all ranks and calls — a
  /// worst-case per-event duration, not a sum over the run.
  std::map<std::string, double> times;
  /// Total payload bytes and message count pushed through mailboxes over
  /// the whole job — the "bytes on the wire" the bandwidth benches report.
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_messages = 0;
  /// Payload bytes additionally copied through the mailbox layer (the
  /// zero-copy move/take paths don't pay this).
  std::uint64_t copied_bytes = 0;
};

class Runtime {
 public:
  /// `ranklist[r]` is the node id hosting world rank r.
  Runtime(sim::Cluster& cluster, std::vector<int> ranklist,
          sim::FailureInjector* injector = nullptr, RuntimeConfig config = {});

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Launch one rank thread per ranklist entry running `fn(world_comm)`.
  /// Blocks until all ranks return or the job aborts. Can be called once.
  JobResult run(const std::function<void(Comm&)>& fn);

  /// Abort the job (idempotent); wakes every blocked receive. The first
  /// reason is kept, except that a `provisional` one gives way to the next
  /// reason that is not: a lender unwinding with bytes on loan must abort
  /// before its own failure reaches run(), which then names that failure.
  void abort(const std::string& reason, bool provisional = false);

  /// True when `node_id` hosts at least one of this job's ranks.
  [[nodiscard]] bool uses_node(int node_id) const;

  // --- services used by Comm ------------------------------------------
  [[nodiscard]] int world_size() const { return static_cast<int>(ranklist_.size()); }
  [[nodiscard]] const std::atomic<bool>& aborted_flag() const { return aborted_; }
  [[nodiscard]] Mailbox& mailbox(int world_rank);
  [[nodiscard]] sim::Node& node_of(int world_rank);
  [[nodiscard]] int node_id_of(int world_rank) const;
  [[nodiscard]] sim::Cluster& cluster() { return cluster_; }
  [[nodiscard]] sim::FailureInjector* injector() { return injector_; }

  /// Throws JobAborted if the job aborted or this rank's node is dead.
  void check_alive(int world_rank) const;

  /// Virtual cost of moving `bytes` from rank src to rank dst under the
  /// configured network model; 0 when modelling is off or intra-node.
  [[nodiscard]] double message_cost(int src_world, int dst_world, std::size_t bytes) const;

  /// Thread-safe: a rank thread and its async checkpoint worker may charge
  /// the same rank's virtual clock concurrently.
  void charge_rank_virtual(int world_rank, double seconds);
  [[nodiscard]] double rank_virtual(int world_rank) const;
  void charge_job_virtual(double seconds);

  /// Record a named duration. Max-merged per call: JobResult::times keeps
  /// the largest single observation across ranks and calls.
  void record_time(const std::string& name, double seconds);

  /// Account one sent message; called by Comm on every send. Mirrored into
  /// the process-wide telemetry counters so a RunReport sees cumulative
  /// traffic across every launcher attempt, not just the last Runtime.
  void count_message(std::size_t payload_bytes) {
    wire_bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
    wire_messages_.fetch_add(1, std::memory_order_relaxed);
    static telemetry::Counter& wire = telemetry::metrics().counter("mpi.wire_bytes");
    static telemetry::Counter& msgs = telemetry::metrics().counter("mpi.wire_messages");
    wire.add(payload_bytes);
    msgs.increment();
  }
  /// Account payload bytes copied through the mailbox layer (copy-sends and
  /// copy-receives); the zero-copy move/take paths never report here.
  void count_copy(std::size_t payload_bytes) {
    copied_bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
    static telemetry::Counter& copied = telemetry::metrics().counter("mpi.copied_bytes");
    copied.add(payload_bytes);
  }
  [[nodiscard]] std::uint64_t wire_bytes() const {
    return wire_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t wire_messages() const {
    return wire_messages_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t copied_bytes() const {
    return copied_bytes_.load(std::memory_order_relaxed);
  }

 private:
  sim::Cluster& cluster_;
  std::vector<int> ranklist_;
  sim::FailureInjector* injector_;
  RuntimeConfig config_;

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::atomic<bool> aborted_{false};
  std::mutex abort_mutex_;
  std::string abort_reason_;
  bool reason_provisional_ = false;

  // Atomic because async checkpoint workers charge virtual time from their
  // own thread while the rank thread keeps communicating.
  std::unique_ptr<std::atomic<double>[]> rank_virtual_s_;
  std::atomic<std::int64_t> job_virtual_ns_{0};
  std::atomic<std::uint64_t> wire_bytes_{0};
  std::atomic<std::uint64_t> wire_messages_{0};
  std::atomic<std::uint64_t> copied_bytes_{0};

  std::mutex times_mutex_;
  std::map<std::string, double> times_;

  bool ran_ = false;
};

}  // namespace skt::mpi
