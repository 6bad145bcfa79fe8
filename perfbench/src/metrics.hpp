// The benchmark's metric names and units. BENCHMARK.json at the repository
// root lists the same names; `python3 perfbench/run.py --selftest` checks
// that the two agree.
//
// Every workload reports every metric of its mode. The end-to-end metrics
// are defined on all three workloads ("op" is a solve on hpl_ckpt, an epoch
// on sparse_async and a recovery on kill_restore) and are CPU time: on a
// shared host the hypervisor's steal moves wall time by up to 4x between
// runs while CPU time moves by a few percent. The wall-clock views of the
// same quantities are per-layer metrics (wall.*). A per-layer metric reads
// 0 on a workload that never calls into that layer.
#pragma once

#include <array>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

inline constexpr std::array<MetricSpec, 6> kEndToEnd{{
    {"setup_s", "s"},
    {"op_cpu_ms", "ms"},
    {"commit_cpu_p50_ms", "ms"},
    {"commit_cpu_p90_ms", "ms"},
    {"app_mem_frac", "ratio"},
    {"peak_rss_mib", "MiB"},
}};

inline constexpr std::array<MetricSpec, 42> kPerLayer{{
    {"wall.setup_s", "s"},
    {"wall.op_p50_ms", "ms"},
    {"wall.commit_p50_ms", "ms"},
    {"wall.commit_p90_ms", "ms"},
    {"wall.commits_per_s", "1/s"},
    {"hpl.gflops", "GFLOP/s"},
    {"hpl.plain_gflops", "GFLOP/s"},
    {"hpl.factor_s", "s"},
    {"hpl.backsolve_s", "s"},
    {"hpl.generate_s", "s"},
    {"ckpt.open_ms", "ms"},
    {"ckpt.commit_ms", "ms"},
    {"ckpt.flush_ms", "ms"},
    {"ckpt.stage_ms", "ms"},
    {"ckpt.backpressure_p50_ms", "ms"},
    {"ckpt.backpressure_p90_ms", "ms"},
    {"ckpt.pipeline_ms", "ms"},
    {"ckpt.dirty_fraction", "ratio"},
    {"ckpt.scrub_passes", "count"},
    {"ckpt.scrub_mib_per_s", "MiB/s"},
    {"ckpt.exclusion_wait_p99_us", "us"},
    {"ckpt.exclusion_wait_max_us", "us"},
    {"ckpt.restore_ms", "ms"},
    {"encoding.encode_ms", "ms"},
    {"encoding.encode_wire_mib", "MiB"},
    {"encoding.rebuild_ms", "ms"},
    {"mpi.barrier_p50_us", "us"},
    {"mpi.barrier_p90_us", "us"},
    {"mpi.wire_mib_per_commit", "MiB"},
    {"mpi.messages_per_commit", "count"},
    {"mpi.copied_mib_per_commit", "MiB"},
    {"mpi.wire_mib_per_solve", "MiB"},
    {"mpi.messages_per_solve", "count"},
    {"mpi.abort_unwind_ms", "ms"},
    {"mpi.relaunch_ms", "ms"},
    {"mpi.replace_ms", "ms"},
    {"telemetry.detect_ms", "ms"},
    {"telemetry.trace_overhead_frac", "ratio"},
    {"telemetry.spans_dropped", "count"},
    {"bench.ops", "count"},
    {"bench.commits", "count"},
    {"bench.recovery_p90_ms", "ms"},
}};

}  // namespace perfbench
