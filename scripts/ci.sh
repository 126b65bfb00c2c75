#!/usr/bin/env bash
# Repo CI gate: formatting, lints, and the tier-1 verify command.
#
# Everything runs offline — external dependencies resolve to the
# API-subset stand-ins under vendor/ (see DESIGN.md §7).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, no deps, rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== release binaries of every workspace crate (the stages below run them)"
# The root package is the default member, so the tier-1 build above
# does not rebuild ptb-bench, ptb-serve or ptb-cluster binaries.
cargo build --release --workspace

echo "== examples (each release example runs to a zero exit)"
# clippy --all-targets only builds them; this stage runs them.
cargo build --release --examples
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "-- $name"
    "./target/release/examples/$name" >/dev/null
done

echo "== full workspace test suite"
cargo test --workspace -q

echo "== structured fuzz (time-boxed; exit nonzero on any panic or audit finding)"
./target/release/fuzz_pipeline --seconds 20

echo "== audited sweep (PTB_VERIFY=sample over the four networks and six policies, zero findings)"
PTB_QUICK=1 ./target/release/verify_sweep --level sample

echo "== serial-reference oracle (PTB_VERIFY=full diffs all six policies against the serial reference)"
PTB_QUICK=1 PTB_VERIFY=full ./target/release/verify_sweep --level full

echo "== paper figures regenerate byte-identically (full fidelity, diffed against results/)"
# all_experiments writes results/ relative to its working directory, so
# running it from a temp dir leaves the checked-in copy untouched. Any
# change to shared model code that moves a figure fails here; a change
# meant to move the model regenerates results/ in the same commit.
ROOT="$(pwd)"
FIG_TMP="$(mktemp -d)"
(cd "$FIG_TMP" && env -u PTB_QUICK -u PTB_CACHE "$ROOT/target/release/all_experiments" >/dev/null)
diff -r --exclude=.cache "$FIG_TMP/results" results
rm -rf "$FIG_TMP"

echo "== bench smoke (oracle = production; a sweep drained by 1 and 2 threads is bit-identical)"
# The binary asserts that the serial per-tap oracle and the production
# kernel produce one report for every layer and TW, and that each
# network's sweep drained by one thread and by at least two produces
# the same reports, before timing them; PTB_BENCH_OUT keeps the
# checked-in full-fidelity recording untouched.
BENCH_TMP="$(mktemp)"
PTB_QUICK=1 PTB_BENCH_OUT="$BENCH_TMP" ./target/release/bench_sim_parallel
rm -f "$BENCH_TMP"

echo "== injected corruption must be caught (cache_load_flip + --expect-findings)"
CACHE_TMP="$(mktemp -d)"
# Warm a disk cache, then replay the same sweep with every disk load
# delivering one flipped bit: the audit must report findings (the flag
# inverts the exit code, so a silent pass fails CI).
(cd "$CACHE_TMP" && PTB_QUICK=1 PTB_CACHE=disk \
    "$ROOT/target/release/verify_sweep" --level off >/dev/null)
(cd "$CACHE_TMP" && PTB_QUICK=1 PTB_CACHE=disk PTB_FAILPOINTS="cache_load_flip=err" \
    "$ROOT/target/release/verify_sweep" --level sample --expect-findings >/dev/null)
rm -rf "$CACHE_TMP"

# Every stage below that needs a live daemon or fleet is one ptb-load
# scenario: ptb-load boots the daemons itself (sibling ptb-clusterd
# binary, ephemeral ports), stops and reaps them on every exit path,
# and exits nonzero on any failed check. `ptb-load --help` describes
# each scenario; the table in ptb_load.rs fixes its parameters.
echo "== ptb-serve smoke (smoke, cross-codec check, JSON + binary chaos, clean shutdown)"
./target/release/ptb-load --scenario serve

echo "== crash recovery (submit -> SIGKILL once journaled -> reboot -> job resumes and finishes)"
./target/release/ptb-load --scenario crash-recovery

echo "== cluster smoke (coordinator + 2 workers, sweep byte-identical to a lone worker)"
./target/release/ptb-load --scenario cluster

echo "== cluster worker-kill recovery (SIGKILL one worker mid-sweep, rows still bit-identical)"
./target/release/ptb-load --scenario worker-kill

echo "== governance soak (tiny budgets: evictions + sheds must happen, nothing may break)"
./target/release/ptb-load --scenario soak

echo "== cluster saturation (503-shedding worker must never be declared dead)"
./target/release/ptb-load --scenario saturate

echo "== coordinator failover (SIGKILL the active mid-sweep, standby promotes, rows bit-identical)"
./target/release/ptb-load --scenario failover

echo "== coordinator fencing (zombie active's stale-epoch dispatches rejected with 409)"
./target/release/ptb-load --scenario fence

echo "== release tests with debug assertions (overflow checks on the hot paths)"
# A separate target dir keeps the main release artifacts (used by the
# stages above) untouched.
RUSTFLAGS="-C debug-assertions" CARGO_TARGET_DIR=target/debug-assert \
    cargo test -q --release --workspace

echo "CI gate passed."
