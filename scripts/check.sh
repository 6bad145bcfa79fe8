#!/usr/bin/env bash
# Tier-1 check: the normal build + full ctest, a check that the pinned hot
# kernels start on 64-byte boundaries in a built binary, then a
# -DSKT_SIMD=OFF lane
# (the scalar kernel paths must be a complete, bit-identical implementation,
# not a vestige, and the HPL suites must solve on the scalar GEMM), an
# ASan/UBSan build (SKT_SANITIZE=ON) running the mpi, encoding, HPL and
# checkpoint-protocol suites — the code that moves buffers between threads
# by move, reinterprets byte spans as uint64/double lanes, issues unaligned
# and masked vector loads, packs GEMM operands by pointer arithmetic, and
# copies dirty block runs between checkpoint segments — a
# TSan pass over the async pipeline and monitor, a
# monitor lane that schema-validates the postmortem a real injected kill
# produces and gates monitoring overhead, a multi-tenant lane running the
# shared StoreService scenario under TSan and schema-checking its store.*
# gauges, a vault lane running the sharded durable tier under both
# sanitizers plus a live reshard drill with its bandwidth-scaling gate,
# and finally a bench regression gate against the committed
# micro_encoding baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== tier 1: build + ctest ==="
cmake -B build -S . >/dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo
echo "=== kernel pins: hot kernels start on 64-byte boundaries ==="
# The AVX2 encoding kernels and the HPL kernels (the GEMM's entry point,
# micro-tile and row block, the panel column step and the TRSM) carry
# aligned(64), so code added or deleted elsewhere in a binary does not move
# their loops across fetch blocks: placement alone once moved hpl_ckpt's
# op_cpu_ms by 5%. ft_hpl links both libraries. Every pattern must match at
# least one text symbol, and every match, compiler clones included (a
# .cold split is not an entry point), must sit at 0 mod 64.
pins=(
  'skt::enc::kernels::(anonymous namespace)::xor_acc_avx2('
  'skt::enc::kernels::(anonymous namespace)::xor_delta_avx2('
  'skt::enc::kernels::(anonymous namespace)::sum_acc_avx2('
  'skt::enc::kernels::(anonymous namespace)::sum_sub_avx2('
  'skt::enc::kernels::(anonymous namespace)::gf_mul_acc_avx2('
  'skt::hpl::blas::gemm_minus('
  'skt::hpl::blas::(anonymous namespace)::micro_tile<'
  'skt::hpl::blas::(anonymous namespace)::row_block<'
  'skt::hpl::blas::panel_column('
  'skt::hpl::blas::(anonymous namespace)::panel_column_avx2('
  'skt::hpl::blas::trsm_lower_unit('
  'skt::hpl::blas::(anonymous namespace)::trsm_lower_unit_avx2('
)
text_syms=$(nm -C build/examples/ft_hpl | awk '$2 == "t" || $2 == "T"' | grep -vF '[clone .cold]')
for pin in "${pins[@]}"; do
  matches=$(grep -F "$pin" <<<"$text_syms" || true)
  [ -n "$matches" ] || { echo "[FAIL] no text symbol in ft_hpl matches $pin"; exit 1; }
  while read -r addr _ name; do
    off=$((16#$addr % 64))
    [ "$off" -eq 0 ] || { echo "[FAIL] $name sits at $off mod 64"; exit 1; }
  done <<<"$matches"
  echo "[PASS] $pin... ($(wc -l <<<"$matches") symbol(s)) at 0 mod 64"
done

echo
echo "=== scalar lane: -DSKT_SIMD=OFF build, kernel + codec + protocol + HPL suites ==="
# The SIMD tier must be droppable at configure time with zero behaviour
# change: the kernels' scalar paths and the runtime dispatcher carry the
# same contracts, so the full kernel/codec/protocol suites run against a
# build where AVX2 code does not even exist. The delta encode forms its
# diffs and folds them with the XOR/SUM/GF(2^8) kernels on sub-stripe
# slices of every length a block run can have, which test_encoding's delta
# sweep and test_failure_matrix (sub-stripe commits killed mid-way,
# inside the delta's fold among other steps) carry. test_collectives runs
# here too: its chunked reduce combines ragged 96-byte segments, and its
# multi-segment allreduce 64 KiB ones, through the same XOR and SUM kernels.
# The HPL suites run here as well: the HPL kernels (the trailing-update
# GEMM, the panel column step and the TRSM) follow the same tier, so they
# solve and verify on the scalar loops.
cmake -B build-scalar -S . -DSKT_SIMD=OFF >/dev/null
cmake --build build-scalar -j --target \
  test_kernels test_encoding test_protocols test_collectives test_failure_matrix \
  test_hpl_core test_hpl_dist test_skt_hpl
(cd build-scalar && ctest --output-on-failure \
  -R '^(test_kernels|test_encoding|test_protocols|test_collectives|test_failure_matrix|test_hpl_core|test_hpl_dist|test_skt_hpl)$' -j)

echo
echo "=== sanitizers: asan+ubsan on mpi/encoding/hpl/checkpoint-protocol suites ==="
# test_kernels rides along for UBSan in particular: the vector kernels take
# arbitrarily misaligned spans and the property tests feed them offset
# slices, so any alignment-assuming load is caught here. test_hpl_core and
# test_hpl_dist cover the GEMM's B packing and its fringe tiles and the
# panel column step's and the TRSM's masked tails, whose pointer
# arithmetic must stay inside each operand's window; test_hpl_dist's
# NanPivot cases factor a matrix whose every pivot candidate in some
# column is NaN, which must abort before any rank writes a row.
# test_protocols and test_failure_matrix carry the checkpoint protocols'
# dirty-block commits, restores and moving-window sparse updates: the
# block-run copies between the work, staging and checkpoint segments.
# test_skt_hpl runs the panel LU's packed pivot-exchange and row-interchange
# buffers inside the self-checkpoint's segments. test_comm kills a lender
# while a peer reads its lent bytes, and test_encoding kills every member
# in turn inside the encode's owner fold and inside the lent rebuild
# (GroupCodecMultiSegment.NodeDeathInsideTheLentRebuildAbortsTheJobCleanly):
# a lender that freed its buffers before its borrowers let go would show
# as a use-after-free here. test_failure_matrix's RebuildKillMatrix rows
# kill a survivor with its terms on loan and the folding replacement
# during a relaunch's restore, and its four enc.fold SubStripeMatrix rows
# (xor_delta_fold, xor_async_delta_fold, rs4p2_delta_fold,
# rs4p2_async_delta_fold) kill an owner inside the delta encode's fold
# while it holds a lender's diff view, so lenders unwind with their diff
# scratch on loan while other owners may still be reading it: a lender
# that freed its scratch before its loans settled would show as a
# use-after-free.
# test_fuzz_failures runs 100 seeded kill schedules, every relaunch of
# which rebuilds over lent survivor segments. test_session builds and
# tears down Sessions whose async engine, scrubber and protocol must go in
# that order, and its builder cases throw before anything is built: a
# teardown out of order would show as a use-after-free here.
cmake -B build-asan -S . -DSKT_SANITIZE=ON >/dev/null
cmake --build build-asan -j --target \
  test_mailbox test_comm test_collectives test_comm_properties test_encoding test_kernels \
  test_hpl_core test_hpl_dist test_skt_hpl test_protocols test_failure_matrix \
  test_fuzz_failures test_session
(cd build-asan && ctest --output-on-failure \
  -R '^(test_mailbox|test_comm|test_collectives|test_comm_properties|test_encoding|test_kernels|test_hpl_core|test_hpl_dist|test_skt_hpl|test_protocols|test_failure_matrix|test_fuzz_failures|test_session)$' -j)

echo
echo "=== sanitizers: tsan on telemetry + async-commit suites ==="
# Rank threads record into the shared registry/tracer concurrently while
# tests snapshot them, and the Session async pipeline overlaps the rank
# thread (mutating data(), staging) with the per-process commit worker
# (encoding the staged copy) — exactly the interleavings TSan exists to
# check. test_session's SessionAsyncStress is the dedicated workload.
cmake -B build-tsan -S . -DSKT_SANITIZE_THREAD=ON >/dev/null
# test_encoding (the RS(k, m) encode and rebuild run one thread per member)
# and test_scrubber (cadence thread vs. rank thread vs. async worker over
# the commit-exclusion mutex) ride the same lane, as do test_kernels and
# test_collectives, whose chunked reduce and multi-segment allreduce have
# several ranks push into one mailbox at once. test_encoding also runs two
# delta encodes at once, on the rank thread and on a second thread over a
# dup()'d communicator that shares the rank's mailbox, beside user traffic.
# test_protocols and test_failure_matrix run the group-coded commit frame
# on the async worker and kill nodes inside it, the four enc.fold
# SubStripeMatrix rows (xor_delta_fold, xor_async_delta_fold,
# rs4p2_delta_fold, rs4p2_async_delta_fold) inside the delta's fold while
# an owner holds a lender's diff view;
# test_store_service tears a service down under a queued admission.
# test_hpl_dist and test_skt_hpl run the panel LU, whose pivot exchange and
# row interchanges post several sends before their receives across rank
# threads (and, in SKT-HPL, beside the async commit worker). test_mailbox
# and test_comm carry the loans: a loan's phase is shared by the lender,
# its borrower and the abort, and the lender sleeps on its own mailbox.
# Every rebuild lends too: the RebuildKillMatrix rows of
# test_failure_matrix abort a restore with survivors' terms on loan, and
# test_fuzz_failures' 100 seeded kill schedules rebuild on every relaunch.
cmake --build build-tsan -j --target \
  test_telemetry test_util test_session test_monitor test_encoding test_scrubber \
  test_kernels test_collectives test_store_service test_protocols test_failure_matrix \
  test_hpl_dist test_skt_hpl test_mailbox test_comm test_fuzz_failures
(cd build-tsan && ctest --output-on-failure \
  -R '^(test_telemetry|test_util|test_session|test_monitor|test_encoding|test_scrubber|test_kernels|test_collectives|test_store_service|test_protocols|test_failure_matrix|test_hpl_dist|test_skt_hpl|test_mailbox|test_comm|test_fuzz_failures)$' -j)

echo
echo "=== monitor lane: ft_jacobi --monitor forensics + overhead gate ==="
# The full observability loop under a real injected kill: heartbeats feed
# the launcher's detect phase, the aggregator streams the JSONL feed, and
# the forensics collector assembles POSTMORTEM_ft_jacobi.json. The example
# validates the live invariants itself (measured detection latency,
# aggregator ticks, feed on disk); jq then schema-checks the postmortem
# the way an external pipeline would consume it. monitor_overhead holds
# the instrumentation to <= 2% of an encode-like work unit.
cmake --build build -j --target ft_jacobi monitor_overhead
rm -rf build/monitor-lane && mkdir -p build/monitor-lane
(cd build/monitor-lane && ../examples/ft_jacobi --grid 128 --ranks 4 \
  --iters 60 --ckpt-every 10 --monitor lane >/dev/null)
pm=build/monitor-lane/POSTMORTEM_ft_jacobi.json
jq -e '(.schema == "skt-postmortem-v1" or .schema == "skt-postmortem-v2")
       and (.lost_ranks | length > 0)
       and .recovered
       and (.restored_epoch >= 1)
       and (.rebuilds | length > 0)
       and (.rebuilds[0].stripes.count > 0)
       and (.rebuilds[0].peers | length > 0)
       and (.timeline | map(.phase) | index("detect") != null)
       and (.detect_latency_s >= 0)' "$pm" >/dev/null \
  && echo "[PASS] $pm matches the skt-postmortem schema" \
  || { echo "[FAIL] $pm failed schema validation"; exit 1; }
jq -es 'length > 0' build/monitor-lane/lane_feed.jsonl >/dev/null \
  && echo "[PASS] monitor feed is well-formed JSONL" \
  || { echo "[FAIL] monitor feed is missing or malformed"; exit 1; }
(cd build && ./bench/monitor_overhead)

echo
echo "=== scrub lane: ft_jacobi --scrub --bitflip repair-under-load + overhead gate ==="
# Silent-data-corruption drill on a live RS(2, 2) job: a bit flip lands in
# a sealed checksum buffer after the first commit, the background scrubber
# must repair it from the mirror while the sweep loop keeps running, and
# the faulty pass (node kill + restore) must still converge bit-identically.
# ft_jacobi validates the counters itself; jq re-checks the RunReport the
# way an external pipeline would. micro_scrub holds the scrub duty cycle
# and the per-commit exclusion handshake to <= 3% of an encode-like pass.
cmake --build build -j --target ft_jacobi micro_scrub
rm -rf build/scrub-lane && mkdir -p build/scrub-lane
(cd build/scrub-lane && ../examples/ft_jacobi --grid 128 --ranks 4 \
  --iters 60 --ckpt-every 10 --scrub 0.001 --parity 2 --bitflip \
  --telemetry lane >/dev/null)
sr=build/scrub-lane/lane_report.json
jq -e '(.values.scrub_passes > 0)
       and (.values.scrub_corruption_detected > 0)
       and (.values.scrub_repaired > 0)
       and (.values.scrub_unrepaired == 0)
       and .values.identical' "$sr" >/dev/null \
  && echo "[PASS] $sr shows the flip detected, repaired, and a bit-identical result" \
  || { echo "[FAIL] $sr lacks the scrub-and-repair evidence"; exit 1; }
(cd build && ./bench/micro_scrub)

echo
echo "=== multi-tenant lane: StoreService under TSan + store.* gauge schema ==="
# Four tenants' rank threads, their async commit workers, and an over-
# quota probe all hammer one StoreService (admission queue, whole-job
# leases, fair-share turnstile) while a failpoint kills one tenant's node
# — exactly the interleavings TSan exists to check. The example validates
# the isolation/quota/recovery/fairness invariants itself and exits
# nonzero; jq then checks the RunReport carries the per-tenant store.*
# picture the way an external operator would consume it.
cmake --build build-tsan -j --target multi_tenant
rm -rf build/mt-lane && mkdir -p build/mt-lane
(cd build/mt-lane && ../../build-tsan/examples/multi_tenant --iters 6 \
  --monitor lane >/dev/null)
mt=build/mt-lane/lane_report.json
jq -e '(.metrics.gauges."store.capacity_bytes" > 0)
       and (.metrics.gauges."store.bytes_in_use" == 0)
       and (.metrics.gauges."store.tenants" == 5)
       and (.metrics.gauges."store.fairness_ratio" != null)
       and (.metrics.gauges."store.bypass_bound" == 8)
       and (.metrics.gauges."store.tenant.hpl-a.max_bypass"
            <= .metrics.gauges."store.bypass_bound")
       and (.metrics.gauges."store.tenant.jacobi-b.max_bypass"
            <= .metrics.gauges."store.bypass_bound")
       and (.metrics.gauges."store.tenant.accel-c.max_bypass"
            <= .metrics.gauges."store.bypass_bound")
       and (.metrics.gauges."store.tenant.hpl-a.commits" > 0)
       and (.metrics.gauges."store.tenant.jacobi-b.commits" > 0)
       and (.metrics.gauges."store.tenant.accel-c.commits" > 0)
       and (.metrics.gauges."store.tenant.jacobi-b.committed_bytes" > 0)
       and (.metrics.gauges."store.tenant.probe-e.commits" == 0)
       and (.values.jacobi_restarts == 1)
       and (.values.hpl_restarts == 0)
       and .values.bystander_bit_identical
       and .values.probe_rejected
       and .values.ok' "$mt" >/dev/null \
  && echo "[PASS] $mt carries the per-tenant store.* gauges and invariants" \
  || { echo "[FAIL] $mt lacks the multi-tenant evidence"; exit 1; }

echo
echo "=== vault lane: sharded tier under sanitizers + live reshard drill ==="
# The vault moves extents between shards while rank threads flush and
# the launcher reshards — pointer/lock discipline worth both sanitizers.
# Every BLCR image and level-2 flush goes through those extents, so
# test_extensions (4-8 rank threads flushing into one vault, kills, disk
# restores) runs beside the vault suites. Then a real drill: ft_jacobi
# stripes its L2 images over 4 shards, an injected kill takes a
# shard-hosting node down, and the
# replace phase must re-home the dead shard's extents onto the
# substitute with nothing lost and the run still bit-identical. jq
# checks the RunReport's vault.* gauges (including the replica
# invariant: physical bytes == 2x logical) the way an external operator
# would. vault_bandwidth holds the modeled flush scaling to >= 2x at 4
# shards vs 1.
cmake --build build-asan -j --target test_storage test_sharded_vault test_extensions
(cd build-asan && ctest --output-on-failure \
  -R '^(test_storage|test_sharded_vault|test_extensions)$' -j)
cmake --build build-tsan -j --target test_storage test_sharded_vault test_extensions
(cd build-tsan && ctest --output-on-failure \
  -R '^(test_storage|test_sharded_vault|test_extensions)$' -j)
cmake --build build -j --target ft_jacobi vault_bandwidth
rm -rf build/vault-lane && mkdir -p build/vault-lane
(cd build/vault-lane && ../examples/ft_jacobi --grid 128 --ranks 4 \
  --iters 60 --ckpt-every 10 --shards 4 --telemetry lane >/dev/null)
vr=build/vault-lane/lane_report.json
jq -e '(.metrics.gauges."vault.shards" == 4)
       and (.metrics.gauges."vault.rebalances" >= 1)
       and (.metrics.gauges."vault.extents_rehomed" > 0)
       and (.metrics.gauges."vault.bytes.physical"
            == 2 * .metrics.gauges."vault.bytes.logical")
       and (.values.vault_extents_lost == 0)
       and .values.identical' "$vr" >/dev/null \
  && echo "[PASS] $vr shows the reshard served the restore with nothing lost" \
  || { echo "[FAIL] $vr lacks the sharded-vault evidence"; exit 1; }
(cd build && ./bench/vault_bandwidth)

echo
echo "=== bench regression gate: micro_encoding vs committed baseline ==="
# Two tiers of gate, matched to how reproducible each metric is. Wire and
# mailbox-copy byte counts of the encode and rebuild rows (single parity
# at groups 4, 8 and 16, and RS(6, 2) at group 8) are exact functions of
# the algorithms — any growth past 10% of the committed
# baseline is a real regression (a rebuild back on a fan-in that
# copy-sends its stripes fails at once). Wall-clock speedups wobble with
# machine load, so they only have to stay above half the committed value;
# the bench's own internal bars (encode >= 2x sequential, GF(256) SIMD >=
# 3x scalar, bit-identical outputs) already run first and fail the script
# on their own.
cmake --build build -j --target micro_encoding
(cd build && ./bench/micro_encoding >/dev/null)
baseline=bench/BENCH_micro_encoding.baseline.json
current=build/out/BENCH_micro_encoding.json
jval() { awk -F: -v k="\"$2\"" '$1 ~ k {gsub(/[ ,]/, "", $2); print $2; exit}' "$1"; }
for k in encode_g4_new_wire_bytes encode_g8_new_wire_bytes encode_g16_new_wire_bytes \
         encode_g4_new_copied_bytes encode_g8_new_copied_bytes encode_g16_new_copied_bytes \
         rebuild_g4_wire_bytes rebuild_g8_wire_bytes rebuild_g16_wire_bytes \
         rebuild_g4_copied_bytes rebuild_g8_copied_bytes rebuild_g16_copied_bytes \
         encode_g8_m2_wire_bytes encode_g8_m2_copied_bytes \
         rebuild_g8_m2_wire_bytes rebuild_g8_m2_copied_bytes; do
  awk -v c="$(jval "$current" "$k")" -v b="$(jval "$baseline" "$k")" -v k="$k" 'BEGIN {
    ok = (c <= 1.10 * b)
    printf "[%s] %s: %s vs baseline %s (must stay within +10%%)\n", ok ? "PASS" : "FAIL", k, c, b
    exit ok ? 0 : 1
  }'
done
for k in encode_g4_speedup encode_g8_speedup encode_g16_speedup \
         gf256_simd_speedup accumulate_speedup; do
  awk -v c="$(jval "$current" "$k")" -v b="$(jval "$baseline" "$k")" -v k="$k" 'BEGIN {
    ok = (c >= 0.5 * b)
    printf "[%s] %s: %.2fx vs baseline %.2fx (must keep half)\n", ok ? "PASS" : "FAIL", k, c, b
    exit ok ? 0 : 1
  }'
done

echo
echo "all checks passed"
