#!/usr/bin/env python3
"""End-to-end benchmark of the simulation service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the release `ptb-serve`,
`ptb-clusterd` and `ptb_sim` binaries (into `$CARGO_TARGET_DIR`, default
`target`), boots the workload's daemons on loopback ports,
warms them, measures a closed loop of requests from one client for S
seconds (the client finishes the pass over its mix it is in at the
deadline, so every run measures whole passes), checks the answers,
stops every daemon, and prints one JSON line:
`{"correct", "attempted", "failed", "metrics"}`.

Workloads (see `workloads.py`):

* `warm_sweep`    — `POST /sweep` with a warm activity cache (simulation)
* `cluster_sweep` — the same sweeps through a coordinator and two
                    workers (shard placement and dispatch)

Correctness: every answer must be `200` (any failure makes the run
incorrect); repeated requests must return the bytes of their first
answer; a seed-chosen sample of answers must equal what the in-process
`ptb_sim` CLI computes for the same point; a coordinator's sweeps must
equal a lone worker's byte for byte.

`--trace 0` reports the end-to-end metrics: `sweep_p90_ms` and
`setup_s`, the median over three set-ups of booting the daemons and
warming them. The mix's sweeps differ several-fold in cost, so the
latencies of all requests pooled form one cluster per network, and a
pooled percentile jumps between clusters from run to run. Instead each
sweep of the mix gets its own p90 over the run's passes, and
`sweep_p90_ms` is their mean over the mix's 36 sweeps (about 20
samples each, so about 70 beyond the percentile in all). The same
statistic at the median is left out: on a shared 2-vCPU host it moved
twice as much between runs as the p90 (interquartile range over ten
seeds 14-21% of the median against 7-11%), more than a regression
bound can absorb, because the host's speed drifts over minutes and the
body of the distribution follows it while the tail is held up by
scheduling delays that do not. Completed requests per second is left
out as well: in a closed loop it is one over the mean latency.
`--trace 1` runs the same loop and reports per-layer metrics instead:

* client spans (`client_send_us`, `client_wait_ms`, `client_recv_us`):
  writing the request, waiting for the first response byte (server
  time plus loopback), reading the body;
* set-up split into booting the daemons and warming them;
* daemon counters over the window from `GET /metrics` (activity cache,
  report memo, keep-alive, shard dispatch);
* host time by system layer, from probes sent straight to a worker
  after the window: a fresh `/simulate` in the binary codec (generate,
  simulate, render the binary body), a one-point JSON `/sweep` of the
  same point (simulate on cached activity), then the first request
  twice more in JSON. Both are memo hits; only the first renders the
  memo's JSON body, since the binary request filled the binary one
  alone. So `spikegen_ms` is cold minus point, `simulate_ms` is point
  minus the last hit, `render_us` is the first JSON hit minus the last,
  and the last is `transport_us`. On `cluster_sweep`,
  `dispatch_overhead_ms` is a sweep through the coordinator minus the
  same sweep sent to a warm worker directly.

Which end-to-end number each layer should move: `simulate_ms` moves
both workloads; `transport_us` moves both by its share of a request;
`dispatch_overhead_ms` and the shard counters move `cluster_sweep`
only; `spikegen_ms` moves only `setup_s` (the measured window runs on a
warm cache); `render_us` (a `/simulate` report's JSON body) moves
neither, as sweeps answer with rows. The spans of the first requests are written
to `.perfbench/trace-<workload>-<seed>.json` (name, start, end, parent).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import fleet  # noqa: E402
from fleet import Conn
from workloads import NETWORKS, WORKER_ENV, WORKLOADS, Request, reference_ok, simulate

SETUPS = 3
PROBES = 16
TRACE_SPANS = 2000


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn a polite kill into an exception so the daemons are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = os.getcwd()
    try:
        bins = fleet.build(root)
    except (RuntimeError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    out_dir = os.path.join(root, ".perfbench")
    run_dir = fleet.fresh_dir(os.path.join(out_dir, "%s-%d" % (args.workload, os.getpid())))
    workload = WORKLOADS[args.workload](args.seed)
    env = fleet.clean_env(WORKER_ENV)

    fl = None
    try:
        setups = []
        for _ in range(SETUPS):
            if fl is not None:
                fl.stop()
            t0 = time.perf_counter()
            fl = fleet.Fleet(bins, run_dir, workload.workers, workload.coordinator, env)
            t1 = time.perf_counter()
            workload.warm(fl)
            setups.append((t1 - t0, time.perf_counter() - t1))

        before = counters(fl)
        records, sent, failed, wrong, connects = measure(fl, workload, args.seconds)
        after = counters(fl)
        correct = failed == 0 and wrong == 0 and bool(records) and verify(fl, workload, bins)

        if args.trace:
            spans = []
            probes = probe_layers(fl, workload, spans)
            metrics = layer_metrics(setups, records, before, after, connects, probes)
            write_spans(os.path.join(out_dir, "trace-%s-%d.json" % (args.workload, args.seed)), records, spans)
        else:
            metrics = end_to_end(records, setups)
    finally:
        if fl is not None:
            fl.stop()
    shutil.rmtree(run_dir, ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": sent,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def measure(fl, workload, seconds):
    """Replays passes over the workload's mix until `seconds` have passed
    and the pass in progress is done, so that every run's percentiles
    cover whole passes whatever the service's speed. Returns
    `(position in the mix, stamps)` of every request answered `200`, and
    the counts of requests sent, failed (transport error or non-200) and
    answered wrongly, and of connections opened."""
    deadline = time.perf_counter() + seconds
    conn = Conn(fl.front().addr)
    records, sent, failed, wrong = [], 0, 0, 0
    try:
        while time.perf_counter() < deadline:
            for k, (req, raw) in enumerate(zip(workload.mix, workload.rendered)):
                sent += 1
                try:
                    status, body, stamps = conn.send(raw)
                except OSError:
                    conn.close()
                    failed += 1
                    continue
                if status != 200:
                    failed += 1
                    continue
                if not workload.check(req, body):
                    wrong += 1
                records.append((k, stamps))
    finally:
        conn.close()
    return records, sent, failed, wrong, conn.connects


def verify(fl, workload, bins):
    """Checks a sample of answers against the in-process CLI and, behind
    a coordinator, against a lone worker's bytes."""
    direct = Conn(fl.workers[0].addr)
    try:
        for req, body in workload.references():
            if not reference_ok(bins["ptb_sim"], req, body, workload.rng):
                print("perfbench: %s %s differs from ptb_sim" % (req.path, req.fields), file=sys.stderr)
                return False
            if workload.coordinator:
                status, lone, _ = direct.send(req.raw())
                if status != 200 or lone != body:
                    print("perfbench: coordinator and lone worker disagree on %s" % req.fields, file=sys.stderr)
                    return False
    finally:
        direct.close()
    return True


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else median(values)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(records, setups):
    """Each sweep's p90 over the passes, averaged over the mix (see the
    module doc)."""
    by_sweep = {}
    for k, (start, _, _, done) in records:
        by_sweep.setdefault(k, []).append((done - start) * 1e3)
    sweeps = list(by_sweep.values()) or [[]]
    return {
        "sweep_p90_ms": metric(statistics.mean(p90(v) for v in sweeps), "ms"),
        "setup_s": metric(median([boot + warm for boot, warm in setups]), "s"),
    }


def counters(fl):
    """The `/metrics` of every daemon, keyed by role."""
    snap = {"workers": [w.get_json("/metrics") for w in fl.workers]}
    if fl.coordinator is not None:
        snap["coordinator"] = fl.coordinator.get_json("/metrics")
    return snap


def worker_delta(before, after, *path):
    total = 0
    for b, a in zip(before["workers"], after["workers"]):
        for key in path[:-1]:
            b, a = b[key], a[key]
        total += a[path[-1]] - b[path[-1]]
    return total


def layer_metrics(setups, records, before, after, connects, probes):
    coord_b, coord_a = before.get("coordinator"), after.get("coordinator")

    def coord(key):
        return coord_a[key] - coord_b[key] if coord_a else 0

    hits = worker_delta(before, after, "cache", "mem_hits")
    misses = worker_delta(before, after, "cache", "misses")
    stamps = [st for _, st in records]
    m = {
        "client_send_us": metric(median([(s - t) * 1e6 for t, s, _, _ in stamps]), "us"),
        "client_wait_ms": metric(median([(f - s) * 1e3 for _, s, f, _ in stamps]), "ms"),
        "client_recv_us": metric(median([(d - f) * 1e6 for _, _, f, d in stamps]), "us"),
        "client_connects": metric(connects, "count"),
        "boot_ms": metric(median([b * 1e3 for b, _ in setups]), "ms"),
        "warmup_ms": metric(median([w * 1e3 for _, w in setups]), "ms"),
        "cache_hits": metric(hits, "count"),
        "cache_misses": metric(misses, "count"),
        "cache_hit_ratio": metric(hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "cache_evictions": metric(worker_delta(before, after, "cache_evictions"), "count"),
        "cache_mem_mb": metric(sum(w["cache_mem_bytes"] for w in after["workers"]) / 2**20, "MiB"),
        "memo_hits": metric(worker_delta(before, after, "report_memo_hits"), "count"),
        "keepalive_reused": metric(worker_delta(before, after, "keepalive_reused"), "count"),
        "shards_dispatched": metric(coord("shards_dispatched"), "count"),
        "shards_redispatched": metric(
            coord("shards_reclaimed") + coord("backpressure_redispatch") + coord("dispatch_failures"), "count"
        ),
    }
    for name, values in probes.items():
        unit = name.rsplit("_", 1)[1]
        scale = 1e3 if unit == "ms" else 1e6
        m[name] = metric(median([v * scale for v in values]), unit)
    return m


def probe_layers(fl, workload, spans):
    """Host time by system layer, from requests sent straight to worker 0
    (see the module doc). Returns `{metric name: [seconds]}` and appends
    one `(name, start, end)` span per probe request to `spans`."""
    conn = Conn(fl.workers[0].addr)

    def timed(c, name, req, raw=None):
        status, _, (start, _, _, done) = c.send(raw or req.raw())
        if status != 200:
            raise RuntimeError("probe %s %s answered %d" % (req.path, req.fields, status))
        spans.append((name, start, done))
        return done - start

    out = {k: [] for k in ("spikegen_ms", "simulate_ms", "render_us", "transport_us", "dispatch_overhead_ms")}
    try:
        for i in range(PROBES):
            net = NETWORKS[i % len(NETWORKS)]
            fresh = simulate(net, "PTB+StSAP", 8, workload.rng.randrange(1, 2**32))
            point = Request("/sweep", {k: v for k, v in fresh.fields.items() if k != "tw"} | {"tws": [8]})
            cold = timed(conn, "probe.cold", fresh, fresh.raw_ptbw())
            warm = timed(conn, "probe.point", point)
            first_hit = timed(conn, "probe.first_hit", fresh)
            hit = timed(conn, "probe.hit", fresh)
            out["spikegen_ms"].append(cold - warm)
            out["simulate_ms"].append(warm - hit)
            out["render_us"].append(first_hit - hit)
            out["transport_us"].append(hit)
        if workload.coordinator:
            front = Conn(fl.front().addr)
            try:
                for req in workload.rng.sample(workload.mix, PROBES):
                    timed(conn, "probe.lone_warmup", req)  # worker 0 owns only some shards
                    lone = timed(conn, "probe.lone", req)
                    out["dispatch_overhead_ms"].append(timed(front, "probe.coordinator", req) - lone)
            finally:
                front.close()
    finally:
        conn.close()
    return out


def write_spans(path, records, probe_spans):
    """The first requests' spans (a `request` span and its `send` / `wait`
    / `recv` children) and the probes', in microseconds from the first."""
    if not records:
        return
    origin = records[0][1][0]

    def us(t):
        return round((t - origin) * 1e6, 1)

    spans = []
    for i, (_, (start, sent, first, done)) in enumerate(records[:TRACE_SPANS]):
        spans.append({"id": "r%d" % i, "name": "request", "parent": None, "start_us": us(start), "end_us": us(done)})
        for name, a, b in (("send", start, sent), ("wait", sent, first), ("recv", first, done)):
            spans.append({"id": "r%d.%s" % (i, name), "name": name, "parent": "r%d" % i, "start_us": us(a), "end_us": us(b)})
    for i, (name, a, b) in enumerate(probe_spans):
        spans.append({"id": "p%d" % i, "name": name, "parent": None, "start_us": us(a), "end_us": us(b)})
    with open(path, "w") as f:
        json.dump(spans, f)


if __name__ == "__main__":
    sys.exit(main())
