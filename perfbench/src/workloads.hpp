// The three workloads. Each runs one simulated 4-rank world inside this
// process, checks its outputs, and fills the metrics of the run's mode.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Fault-free SKT-HPL: repeated seeded solves with sync commits.
void run_hpl_ckpt(const RunOptions& options, Outcome& outcome);

/// Closed-loop stencil epochs committed through commit_async.
void run_sparse_async(const RunOptions& options, Outcome& outcome);

/// Repeated kill / replace / relaunch / restore incidents.
void run_kill_restore(const RunOptions& options, Outcome& outcome);

}  // namespace perfbench
