// SKT-HPL — fault-tolerant HPL over a pluggable checkpoint protocol
// (Section 5 of the paper, workflow of Fig. 9).
//
// The distributed matrix's local block lives inside the protocol's data()
// region — for the self-checkpoint strategy that region IS the SHM-backed
// A1, so the application computes in place and the working set doubles as
// the in-flight checkpoint. Checkpoints are taken at elimination-loop
// panel boundaries; after a restart the driver restores, skips generation,
// and resumes from the recorded panel.
//
// Strategy::kDouble reproduces the SCR-style in-memory baseline,
// Strategy::kBlcr the disk-based one, Strategy::kNone the original HPL.
#pragma once

#include <cstdint>
#include <string>

#include "ckpt/grouping.hpp"
#include "ckpt/session.hpp"
#include "hpl/driver.hpp"
#include "mpi/comm.hpp"

namespace skt::hpl {

struct SktHplConfig {
  HplConfig hpl;
  ckpt::Strategy strategy = ckpt::Strategy::kSelf;
  int group_size = 4;
  enc::CodecKind codec = enc::CodecKind::kXor;
  ckpt::Mapping mapping = ckpt::Mapping::kNeighbor;
  /// Checkpoint after every this many eliminated panels (0 = never).
  std::int64_t ckpt_every_panels = 8;
  std::string key_prefix = "skthpl";
  /// BLCR only; the vault's device prices the images.
  storage::Vault* vault = nullptr;
  /// Asynchronous commit pipeline: the elimination loop pays only the
  /// stage copy; encode + flush overlap the following panels on a
  /// background worker (bounded to one in-flight epoch).
  bool async = false;
  /// Multi-tenant operation: open the Session against this StoreService
  /// under `tenant` (both or neither; see ckpt/store_service.hpp). The
  /// service namespaces the keys, admits against the tenant quota, and
  /// fair-shares commit dispatch with the cluster's other jobs.
  ckpt::StoreService* service = nullptr;
  std::string tenant;
};

struct SktHplResult {
  HplResult hpl;
  bool restored = false;        ///< this run resumed from a checkpoint
  int checkpoints = 0;          ///< commits performed in this run
  double ckpt_total_s = 0.0;    ///< sum of commit times (encode+flush+device)
  double encode_total_s = 0.0;  ///< sum of encode wall times across commits
  double encode_virtual_total_s = 0.0;  ///< sum of modeled encode network time
  double encode_last_s = 0.0;   ///< encoding time of the last commit (Fig. 13)
  double restore_s = 0.0;       ///< recovery time when restored
  std::size_t ckpt_bytes = 0;   ///< per-process checkpoint size
  std::size_t checksum_bytes = 0;
  std::size_t memory_bytes = 0;  ///< protocol's total memory footprint
  /// Async mode only. In async runs ckpt_total_s is the CRITICAL-PATH
  /// commit cost (the stage copies alone); the encode/flush work the
  /// worker hid from the loop is accounted here.
  double ckpt_stage_total_s = 0.0;   ///< sum of stage() copies (== ckpt_total_s)
  double ckpt_worker_total_s = 0.0;  ///< sum of background pipeline times
  /// worker / (stage + worker): fraction of the full commit cost hidden
  /// from the elimination loop (0 in sync runs).
  double overlap_fraction = 0.0;
  /// Dirty-block footprint of the commits in this run (1.0 fraction =
  /// full-footprint epochs; less when the epoch is annotated with
  /// Session::mark_dirty).
  std::size_t dirty_bytes_last = 0;   ///< bytes encoded by the last commit
  std::size_t dirty_bytes_total = 0;  ///< summed over all commits
  double dirty_fraction_last = 1.0;
  double dirty_fraction_mean = 1.0;
};

/// Collective over `world`. Failpoints: protocol-internal "ckpt.*" plus
/// "hpl.panel" (after every panel) and "hpl.done" (before verification).
SktHplResult run_skt_hpl(mpi::Comm& world, const SktHplConfig& config);

}  // namespace skt::hpl
