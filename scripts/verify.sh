#!/usr/bin/env bash
# Full verification, a superset of tier-1 (ROADMAP.md: `cargo build
# --release && cargo test -q`, whose `default-members` in the root manifest
# are the root package and all thirteen crates, so it runs every suite the
# `--workspace` run below does): the release
# build, the whole workspace's tests, the exhaustive fp16 sweeps, the
# wse-dsl host-mirror sweep, the wse-arch stepper- and
# datapath-equivalence sweeps and the wse-lint class-sharing sweep
# (release, --ignored), clippy,
# rustfmt and warning-free rustdoc, the non-test line count per crate (informational, no gate), a
# grep that keeps the workspace single-threaded, the wse-lint
# static verifier over every shipped kernel configuration (its plain and
# --json stdout diffed against the checked-in output, once more with
# --stats) and broken fixture, three fault-injection smokes (one wafer, and
# two and three linked wafers; each run twice and diffed, then diffed
# against its checked-in stdout), a 128x128 SpMV
# smoke, the e2e-bench tests, and the exact simulated
# counters of all four benchmark workloads. The four cycle identities (an armed trace, the
# runtime sanitizer, the reference stepper and a framed k = 2 split all land
# on the plain run's cycles) are tier-1 tests:
#   tests/paper_claims.rs  traced_iteration_matches_the_calibrated_phase_model
#   crates/core/tests/sanitizer_clean.rs  bicgstab_iterates_clean_under_sanitizer
#   tests/stepper_dense_equiv.rs  dense_bicgstab_steps_identically_under_both_steppers
#   crates/core/src/multi.rs  transparent_split_matches_single_wafer_bit_for_bit
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q --workspace =="
cargo test -q --workspace

echo "== wse-float, wse-dsl, wse-arch and wse-lint sweeps (release, --ignored) =="
# Narrowing on all 2^32 binary32 inputs and fma16 on 4*10^8 random triples
# against the reference algorithms; the debug suite above covers every
# rounding boundary but not every input. wse-dsl: 20,000 seeded block and
# relay cases of the host mirrors against the f64-carried reference
# (crates/wse-dsl/tests/mirror_identity.rs). wse-arch: 2048 random stream
# programs, 2048 fault plans and 2048 more with the link drop drawn from the
# stream's wire window, each run under both steppers in lockstep
# (crates/wse-arch/tests/step_equiv.rs), and 8192 random tensor
# instructions, each run under the batched and the per-element datapath
# (crates/wse-arch/tests/core_equiv.rs; about 2 s). wse-lint: 1,024 seeded
# single-tile defects in clean programs, each linted with shared, unshared
# and all-colliding tile classes (crates/wse-lint/src/tests.rs; about 1 s).
cargo test --release -q -p wse-float -p wse-dsl -p wse-arch -p wse-lint -- --ignored

echo "== cargo clippy --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo doc --workspace --no-deps (warnings are errors) =="
# Every intra-doc link resolves and names a public item.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== non-test lines per crate (informational) =="
scripts/loc.sh

echo "== no host threads =="
# Must print nothing: threads come back with a workload that measures them
# (DESIGN.md §9 "One thread, one delivery"), not by accident.
if grep -rnE 'rayon|par_iter|std::thread|thread::(scope|spawn)|available_parallelism' \
    crates src tests examples vendor Cargo.toml Cargo.lock; then
  exit 1
fi

echo "== wse-lint (shipped kernel configurations, plain and --json) =="
# Every shipped configuration must lint clean (exit 0) with exactly the
# checked-in stdout (scripts/expected_shipped/wse-lint.{txt,json}; not under
# scripts/expected_lints/, where tests/lint_pins.rs requires every file to be
# a broken fixture).
lint_out="$(mktemp)"
cargo run -q --release --bin wse-lint > "$lint_out"
diff -u scripts/expected_shipped/wse-lint.txt "$lint_out"
cargo run -q --release --bin wse-lint -- --json > "$lint_out"
diff -u scripts/expected_shipped/wse-lint.json "$lint_out"
rm -f "$lint_out"

echo "== wse-lint --stats (work counters and per-pass host time) =="
# Every configuration reports its work counters and its per-pass split.
# (What the counters must *be* — one facts build per tile class, the
# catalog's class counts — is asserted in crates/wse-lint/src/tests.rs; the
# shipped-output diff above is what shows the default output did not move.)
stats_out="$(cargo run -q --release --bin wse-lint -- --stats 2>&1 >/dev/null)"
[ "$(grep -c ' stats: [0-9]* tiles, [0-9]* classes, ' <<<"$stats_out")" -eq 10 ]
[ "$(grep -c ' host us: routes [0-9]*, colors ' <<<"$stats_out")" -eq 10 ]

echo "== wse-lint fixtures (broken programs vs expected diagnostics) =="
# Every intentionally broken fixture must lint dirty with exactly the
# checked-in diagnostics (scripts/expected_lints/) and exit 1: the rules
# fire, the witnesses are stable, and nothing else regresses into the
# report.
fx_out="$(mktemp)"
fixtures=(deadlock-request-reply deadlock-backpressure race-overlapping-writes
          race-write-after-read starved-no-producer starved-unreached-consumer
          dsl-radius-overflow dsl-sram-overflow)
for fx in "${fixtures[@]}"; do
  status=0
  cargo run -q --release --bin wse-lint -- "fixture:$fx" > "$fx_out" 2>/dev/null || status=$?
  if [ "$status" -ne 1 ]; then
    echo "fixture $fx: expected exit status 1 (error diagnostics), got $status"
    exit 1
  fi
  diff -u "scripts/expected_lints/$fx.txt" "$fx_out"
done
rm -f "$fx_out"
echo "all ${#fixtures[@]} fixtures match their expected diagnostics"

# smoke_twice <label> <grep-pattern>... -- <cmd>...
# Runs <cmd> twice, requires bit-identical stdout (each smoke's stdout is
# deterministic by construction; wall timings go to stderr), and requires
# every pattern to match it. The first run's stdout is left in $smoke_out
# for stage-specific checks.
smoke_out="$(mktemp)"; smoke_again="$(mktemp)"
trap 'rm -f "$smoke_out" "$smoke_again"' EXIT
smoke_twice() {
  echo "== $1 =="; shift
  local patterns=()
  while [ "$1" != "--" ]; do patterns+=("$1"); shift; done
  shift
  "$@" > "$smoke_out"
  "$@" > "$smoke_again"
  diff -u "$smoke_out" "$smoke_again"
  for p in "${patterns[@]}"; do grep -q "$p" "$smoke_out"; done
}
bench_bin() { cargo run -q --release -p wse-bench --bin "$@"; }

# The smoke sweep solves a small wafer BiCGStab under one seeded fault per
# kind with checkpoint/rollback recovery enabled: the whole
# fault→watchdog→recovery pipeline is seeded and bit-for-bit reproducible,
# so every smoke's stdout is also diffed against the checked-in
# scripts/expected_shipped/fault_sweep-*.txt (a change that means to move
# it updates those files).
smoke_twice "fault-injection smoke (one seeded fault of each kind, twice, diffed)" \
  "baseline (fault-free): Converged" \
  -- bench_bin fault_sweep -- --smoke
diff -u scripts/expected_shipped/fault_sweep-smoke.txt "$smoke_out"

# The --multi 2 leg drives the k=2 hierarchical solver through every
# host-level fault class (frame drop/corrupt, link stall, wafer stall) with
# the reliable seam transport and ensemble checkpoint/rollback armed; every
# class must still converge in the smoke configuration (single fault,
# retransmission masks it).
smoke_twice "ensemble fault smoke (k=2 host-link faults, twice, diffed)" \
  "baseline (fault-free): Converged" \
  "host_link_drop" \
  -- bench_bin fault_sweep -- --multi 2 --smoke
diff -u scripts/expected_shipped/fault_sweep-multi2-smoke.txt "$smoke_out"

# The --multi 3 leg is the same sweep on three wafers: the only shipped
# check with more than one seam, so it is what notices a fault or a frame
# landing on the wrong seam or link direction.
smoke_twice "ensemble fault smoke (k=3 host-link faults, twice, diffed)" \
  "baseline (fault-free): Converged" \
  "host_link_drop" \
  -- bench_bin fault_sweep -- --multi 3 --smoke
diff -u scripts/expected_shipped/fault_sweep-multi3-smoke.txt "$smoke_out"

echo "== 128x128 Listing-1 SpMV smoke =="
# One SpMV over 16,384 tiles, far past the benchmarks' fabrics, bit-exact
# against the host DIA matvec (about 3 s in release): per-tile host state
# is what decides whether a wafer-sized fabric fits.
spmv_out="$(cargo run -q --release --example wafer_spmv -- 128 128 16)"
grep -q "bit-exact vs host: yes" <<<"$spmv_out" || { echo "$spmv_out"; exit 1; }

echo "== e2e-bench tests (standalone benchmark crate) =="
# The benchmark is its own workspace (BENCHMARK.json builds it from
# e2e-bench/Cargo.toml), so `cargo test --workspace` above never compiles
# it: this stage is what notices a wse-core API change that breaks it.
cargo test --release --offline --manifest-path e2e-bench/Cargo.toml

# expect_exact <workload> <line>... -- runs the workload for 3 s and
# requires each "<metric> <value> <unit>" line verbatim in its stdout.
# Host timings differ run to run, so this is not a smoke_twice; the
# simulated side of a workload repeats exactly, and a change that claims
# only host time (or no simulated change at all) has to leave every one of
# these lines as it is.
expect_exact() {
  local workload="$1"; shift
  echo "== e2e-bench $workload exact counters (a host-only change must not move them) =="
  cargo run --release --offline --quiet --manifest-path e2e-bench/Cargo.toml -- \
    --workload "$workload" --seconds 3 > "$smoke_out"
  local line
  for line in "$@"; do
    grep -qx "$workload $line" "$smoke_out" || {
      echo "$workload: expected '$line', got:"
      grep "^$workload ${line%% *} " "$smoke_out" || echo "(no such metric)"
      exit 1
    }
  done
}
# The stepper's workload: every tile busy.
expect_exact solve3d-dense \
  "op_sim_cycles 7185 cycles" \
  "wse-arch.flops_f16 1253376 count" \
  "wse-arch.flits_routed 303446 count" \
  "wse-arch.backpressure_cycles 167595 cycles" \
  "ops_failed 0 count"
# The lowering layer's workload: the four catalog operators, cold. A failed
# op is a wrong emitter, a lint diagnostic, or an apply that is not
# bit-exact against the wse_dsl::host mirror.
expect_exact compile-catalog \
  "op_sim_cycles 1308 cycles" \
  "wse-dsl.apply_sim_cycles.star5-2d 139 cycles" \
  "wse-dsl.apply_sim_cycles.star9-2d 238 cycles" \
  "wse-dsl.apply_sim_cycles.star7-3d 254 cycles" \
  "wse-dsl.apply_sim_cycles.star25-3d 677 cycles" \
  "wse-lint.diagnostics 0 count" \
  "wse-arch.flops_f16 250912 count" \
  "wse-arch.flits_routed 63680 count" \
  "ops_failed 0 count"
# The service's workload: admission, the program cache, batching, sojourn
# times. One 3x2 region of its 32 tiles steps at a time, so its op_host_ms
# bound in BENCHMARK.json is the wall-clock gate on sparse-activity
# stepping; no test asserts a host-time ratio. (That the activity-driven
# stepper and the full-scan oracle agree cycle for cycle is tier-1:
# crates/wse-arch/tests/step_equiv.rs and tests/stepper_dense_equiv.rs.)
expect_exact serve-mixed \
  "op_sim_cycles 27338491.227177482 cycles" \
  "sim_sojourn_us_p50 22237.520889691026 sim_us" \
  "wse-serve.tier_cold 3 count" \
  "wse-serve.tier_hit 21 count" \
  "wse-serve.tier_resident 24 count" \
  "wse-serve.rejected 0 count" \
  "wse-serve.completed 48 count" \
  "ops_failed 0 count"
# The ensemble driver's workload: seam windows, halo attribution, host combine.
expect_exact multiwafer-k2 \
  "op_sim_cycles 6722 cycles" \
  "wse-multi.halo_exposed_cycles 0 cycles" \
  "wse-multi.halo_hidden_cycles 1760 cycles" \
  "wse-multi.host_allreduce_cycles 1448 cycles" \
  "wse-arch.flops_f16 436224 count" \
  "wse-arch.flits_routed 78824 count" \
  "ops_failed 0 count"

echo "verify: OK"
