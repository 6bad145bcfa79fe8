// Shared plumbing of the benchmark: run options, the result line, order
// statistics, the environment stamp, message-counter snapshots and the
// span sink of the traced run.
//
// Every number the benchmark reports is measured around public library
// calls: wall-clock time, CPU time, or a count the calls return. Modeled
// time (the virtual network clock, storage device time) is never added in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mpi/comm.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds consumed so far by the whole process (every thread) or by
/// the calling thread. On a shared host CPU time follows the work done,
/// while wall time also follows how long the hypervisor keeps the vCPUs
/// away (steal).
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed loop
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  std::string out_dir = ".bench_out";
};

/// One run's verdict and metrics; printed as the single JSON result line.
class Outcome {
 public:
  explicit Outcome(bool trace) : trace_(trace) {}

  /// Record a metric; `name` must be one of the mode's metric names.
  void set(const std::string& name, double value);

  /// A failed correctness check (also reported on stderr).
  void fail(const std::string& why);

  /// One attempted operation (solve, epoch or incident) and whether it
  /// succeeded. A failed operation fails the run.
  void count_op(bool ok, const std::string& what);

  [[nodiscard]] bool correct() const { return correct_; }

  /// The result line. End-to-end metrics that were never set fail the run;
  /// per-layer metrics a workload does not exercise read 0.
  [[nodiscard]] std::string json();

 private:
  bool trace_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double> values_;
};

// --- order statistics ---------------------------------------------------

/// Linear-interpolation quantile of unsorted samples; 0 for no samples.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}
[[nodiscard]] double max_of(const std::vector<double>& samples);

/// Per-index maximum across ranks ("slowest rank"), over the indices every
/// rank reached.
[[nodiscard]] std::vector<double> slowest(const std::vector<std::vector<double>>& by_rank);

/// Per-index sum across ranks, over the indices every rank reached.
[[nodiscard]] std::vector<double> summed(const std::vector<std::vector<double>>& by_rank);

// --- environment --------------------------------------------------------

struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

/// Aggregate CPU jiffies from /proc/stat (zeros where unavailable).
[[nodiscard]] CpuTimes read_cpu_times();

/// Hand the heap's free memory back to the OS between launches, so each
/// launch starts from the heap a fresh process would have rather than from
/// whatever the previous launch's threads left in the allocator's arenas.
void release_free_memory();

/// High-water resident set size of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mib();

/// One diagnostic line on stderr: nproc, kernel tier, build type, and the
/// host's CPU-steal share over the workload.
void stamp_environment(const RunOptions& options, const CpuTimes& before,
                       const CpuTimes& after);

// --- collectives and counters -------------------------------------------

/// Rank 0 decides, every rank follows, so a timed loop stays collective.
[[nodiscard]] bool agree(skt::mpi::Comm& world, bool keep_going);

/// Deterministic per-purpose stream seeds derived from the run seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                                        std::uint64_t index);

/// Snapshot of the process-wide mpi.* traffic counters.
struct Traffic {
  double wire_bytes = 0;
  double messages = 0;
  double copied_bytes = 0;
};
[[nodiscard]] Traffic traffic_now();
[[nodiscard]] Traffic operator-(const Traffic& a, const Traffic& b);

/// Traffic between two snapshots rank 0 takes around `body`, with barriers
/// on both sides so every message `body` sends falls inside the window
/// (the barriers' own messages do too; subtract an empty bracket).
template <typename Body>
Traffic bracket(skt::mpi::Comm& world, Body&& body) {
  Traffic before;
  world.barrier();
  if (world.rank() == 0) before = traffic_now();
  world.barrier();
  body();
  world.barrier();
  Traffic delta;
  if (world.rank() == 0) delta = traffic_now() - before;
  world.barrier();
  return delta;
}

/// Median traffic of `reps` empty brackets (rank 0's view).
[[nodiscard]] Traffic empty_bracket(skt::mpi::Comm& world, int reps = 8);

/// Empty world barrier timed after a settling barrier; microseconds.
[[nodiscard]] double probe_barrier_us(skt::mpi::Comm& world);

// --- traced run ------------------------------------------------------------

/// Moves spans out of the tracer's per-rank rings at quiescent points (so
/// no ring wraps), keeps them in memory, and writes them when the run ends
/// together with a self-time table (a span's duration minus the spans
/// directly nested in it on the same row).
class SpanSink {
 public:
  /// Collect and clear the rings. Call only while no thread is recording.
  void harvest();

  /// A span whose bounds were stamped on different threads (the phases of
  /// a recovery); placed on its own row.
  void add_phase(const char* name, Clock::time_point t0, Clock::time_point t1);

  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Chrome trace_event JSON plus the self-time table; false on I/O error.
  bool write(const std::string& path) const;

 private:
  std::vector<skt::telemetry::SpanRecord> spans_;
  std::uint64_t dropped_ = 0;
};

/// Turn span recording on or off. Call only while no rank thread runs or
/// between two world barriers.
void set_tracing(bool on);

}  // namespace perfbench
