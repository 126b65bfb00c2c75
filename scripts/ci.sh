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

echo "== full workspace test suite"
cargo test --workspace -q

echo "== structured fuzz (time-boxed; exit nonzero on any panic or audit finding)"
./target/release/fuzz_pipeline --seconds 20

echo "== audited sweep (PTB_VERIFY=sample over the three workloads, zero findings)"
PTB_QUICK=1 ./target/release/verify_sweep --level sample

echo "== serial-reference oracle (PTB_VERIFY=full gates the bit-parallel kernel)"
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

echo "== bench smoke (bit-parallel kernel path must actually be exercised)"
# The binary asserts word_kernel_calls() advanced and that the scalar
# reference, word-serial, and word-threaded reports are bit-identical;
# PTB_BENCH_OUT keeps the checked-in full-fidelity recording untouched.
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

echo "== ptb-serve smoke (ephemeral port, ptb-load --smoke, clean shutdown)"
PORT_FILE="$(mktemp)"
JOB_DIR="$(mktemp -d)"
trap 'rm -f "$PORT_FILE"; rm -rf "$JOB_DIR"' EXIT
PTB_VERIFY=sample \
    ./target/release/ptb-serve --addr 127.0.0.1:0 --workers 2 --job-dir off --port-file "$PORT_FILE" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$PORT_FILE" ] && break
    sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "ptb-serve never wrote its port"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
PORT="$(cat "$PORT_FILE")"
./target/release/ptb-load --addr "127.0.0.1:$PORT" --smoke

echo "== cross-codec check (JSON vs PTBW1 over one kept-alive connection, bit-identical)"
./target/release/ptb-load --addr "127.0.0.1:$PORT" --xcheck
./target/release/ptb-load --addr "127.0.0.1:$PORT" --shutdown
wait "$SERVE_PID"

echo "== crash recovery (submit -> kill -9 -> reboot -> poll resumes the job)"
# The sleep failpoint widens the kill window deterministically: each of
# the 3 shards dawdles 400 ms, so SIGKILL at ~1 s lands mid-job with the
# submission (and usually a shard or two) journaled.
: > "$PORT_FILE"
PTB_FAILPOINTS="shard_exec=sleep:400" \
    ./target/release/ptb-serve --addr 127.0.0.1:0 --workers 2 \
    --job-dir "$JOB_DIR" --port-file "$PORT_FILE" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$PORT_FILE" ] && break
    sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "ptb-serve (crash stage) never wrote its port"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
PORT="$(cat "$PORT_FILE")"
ACK="$(./target/release/ptb-load --addr "127.0.0.1:$PORT" --submit-tws 1,4,8)"
echo "submitted: $ACK"
JOB_ID="$(printf '%s' "$ACK" | tr -dc '0-9 ' | awk '{print $1}')"
[ -n "$JOB_ID" ] || { echo "could not parse job id from ack"; kill -9 "$SERVE_PID" 2>/dev/null; exit 1; }
sleep 1
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
ls "$JOB_DIR"/job-*.ptbj >/dev/null || { echo "no journal file written before the kill"; exit 1; }
: > "$PORT_FILE"
./target/release/ptb-serve --addr 127.0.0.1:0 --workers 2 \
    --job-dir "$JOB_DIR" --port-file "$PORT_FILE" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$PORT_FILE" ] && break
    sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "ptb-serve (reboot) never wrote its port"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
PORT="$(cat "$PORT_FILE")"
./target/release/ptb-load --addr "127.0.0.1:$PORT" --poll-job "$JOB_ID"
# Connection: close keeps this raw probe from waiting out the
# keep-alive idle timeout (connections now persist by default).
METRICS="$(exec 3<>"/dev/tcp/127.0.0.1/$PORT" && printf 'GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n' >&3 && cat <&3)"
printf '%s' "$METRICS" | grep -q '"resumed_jobs": 1' \
    || { echo "reboot did not resume the journaled job: $METRICS"; exit 1; }

echo "== chaos load (dropped/short-written connections must converge via retries)"
# ptb-load --chaos also asserts the daemon's audit_mismatches stayed 0.
./target/release/ptb-load --addr "127.0.0.1:$PORT" --requests 8 --concurrency 2 --chaos
# Same contract through the binary codec on kept-alive connections,
# with checksum-corrupted PTBW1 frames among the injected disruptions.
./target/release/ptb-load --addr "127.0.0.1:$PORT" --requests 8 --concurrency 2 \
    --codec bin --keepalive --chaos
./target/release/ptb-load --addr "127.0.0.1:$PORT" --shutdown
wait "$SERVE_PID"

echo "== cluster smoke (coordinator + 2 workers on ephemeral ports, sweep bit-identical)"
# ptb-load spawns the fleet itself (sibling ptb-clusterd binary), drives
# a sharded sweep through the coordinator, and byte-compares the
# response against the same sweep answered by one worker directly.
./target/release/ptb-load --cluster 2 --label ci

echo "== cluster worker-kill recovery (SIGKILL one worker mid-sweep, rows still bit-identical)"
# Same fleet, but one worker is kill -9'd with shards in flight; the
# survivor must reclaim them and the merged rows must match a lone
# daemon exactly.
./target/release/ptb-load --cluster 2 --cluster-kill --label ci-kill

echo "== governance soak (tiny budgets: evictions + sheds must happen, nothing may break)"
# Spawns its own budget-starved daemon: 64 KiB mem cache, 256 KiB disk
# cache, 4-deep queue, 1 s job retention. Exits nonzero unless evictions
# and admission sheds both occurred, only 503s ever failed, the disk
# footprint stayed within budget, an expired job answered the "gone"
# 404, and a final sweep was byte-identical to an unbudgeted daemon's.
./target/release/ptb-load --soak 8 --label ci-soak

echo "== cluster saturation (503-shedding worker must never be declared dead)"
# Worker 0's admission watermark is strangled to 1 byte so it sheds
# every shard; the sweep must complete byte-identically via
# backpressure re-dispatch with zero worker_deaths.
./target/release/ptb-load --cluster 2 --cluster-saturate --label ci-saturate

echo "== coordinator failover (SIGKILL the active mid-sweep, standby promotes, rows bit-identical)"
# The HA drill: a hot standby tails the active's journals over
# /journal/tail; the active is kill -9'd with shards in flight; the
# standby must promote at a higher epoch, replay the mirrored journal,
# and finish the job with rows identical to a lone worker — plus sync
# sweeps through the promoted coordinator byte-identical in both codecs.
./target/release/ptb-load --cluster 2 --standby --coordinator-kill --label ci-failover

echo "== coordinator fencing (zombie active's stale-epoch dispatches rejected with 409)"
# The active keeps dispatching but its tail route goes dark
# (coordinator_pause=err@2), so the standby promotes while the old
# active still runs. Workers must reject the zombie's stale epoch
# (fenced_dispatches >= 1), the zombie must demote itself, and the job
# must still finish via the new active.
./target/release/ptb-load --cluster 2 --standby --coordinator-fence --label ci-fence

echo "== release tests with debug assertions (overflow checks on the hot paths)"
# A separate target dir keeps the main release artifacts (used by the
# stages above) untouched.
RUSTFLAGS="-C debug-assertions" CARGO_TARGET_DIR=target/debug-assert \
    cargo test -q --release --workspace

echo "CI gate passed."
