"""The benchmark's workloads and the reference checks of their answers.

Every workload is a closed loop with one client: it sends its next
request only after the previous answer arrived, so the numbers are
per-request service latency, not queueing under an arrival schedule.
The client replays whole passes over its mix, so every run's sample is
made of the same requests however fast the service is. The mix of
networks, policies and TW sizes is the same on every seed; the seed
picks only the activity seeds (and the order of the mix), so runs with
different seeds do the same amount of work.
"""

import json
import random
import subprocess

from fleet import KIND_SIMULATE, PTBW, Conn, ptbw_frame

NETWORKS = ("DVS-Gesture", "CIFAR10-DVS", "AlexNet", "CIFAR10")
SWEEP_POLICIES = ("baseline[14]", "PTB", "PTB+StSAP")
TWS = (1, 2, 4, 8, 16, 32, 64)
SWEEP_SEEDS = 3

# How the in-process CLI names what the service accepts.
CLI_NETWORK = {"DVS-Gesture": "dvs-gesture", "CIFAR10-DVS": "cifar10-dvs", "AlexNet": "alexnet", "CIFAR10": "cifar10"}
CLI_POLICY = {"baseline[14]": "baseline", "PTB": "ptb", "PTB+StSAP": "ptb-stsap"}

# Every worker's environment. The cache budget is several times what the
# mix's activity takes (`cache_mem_mb`), so the window evicts nothing.
WORKER_ENV = {"PTB_CACHE": "mem", "PTB_CACHE_MEM_BYTES": "128m", "PTB_WORKERS": "2", "PTB_VERIFY": "off"}

REFERENCE_CHECKS = 4


class Request:
    """One request of a workload's mix: what it asks and its bytes."""

    def __init__(self, path, fields):
        self.path = path
        self.fields = fields
        self.body = json.dumps(fields).encode()

    def raw(self):
        return Conn.render(b"POST", self.path, self.body)

    def raw_ptbw(self):
        """The same request in the binary codec (`/simulate` only)."""
        assert self.path == "/simulate"
        return Conn.render(b"POST", self.path, ptbw_frame(KIND_SIMULATE, self.fields), PTBW)


def simulate(network, policy, tw, seed):
    return Request("/simulate", {"network": network, "policy": policy, "tw": tw, "seed": seed, "quick": True})


def sweep(network, policy, seed):
    return Request("/sweep", {"network": network, "policy": policy, "tws": list(TWS), "seed": seed, "quick": True})


class WarmSweep:
    """Synchronous `POST /sweep` (3 policies x 4 networks x 3 activity
    seeds, all 7 TW sizes) against one daemon whose activity cache the
    warm-up filled: every point re-simulates, none regenerates spikes.
    The mix is replayed in a seed-shuffled order; after warm-up every
    answer must equal the first answer to the same request byte for
    byte."""

    workers = 1
    coordinator = False

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)
        # Several activity seeds per network: the seed then moves the
        # spike counts, and a coordinator's shard placement, less.
        seeds = [(net, self.rng.randrange(1, 2**32)) for net in NETWORKS for _ in range(SWEEP_SEEDS)]
        self.mix = [sweep(net, pol, seed) for net, seed in seeds for pol in SWEEP_POLICIES]
        self.rng.shuffle(self.mix)
        self.rendered = [req.raw() for req in self.mix]
        self.expected = {}

    def warm(self, fleet):
        """Sends every request of the mix once; the answers become the
        expected bytes for the measured window."""
        conn = Conn(fleet.front().addr)
        try:
            for req in self.mix:
                status, body, _ = conn.send(req.raw())
                if status != 200:
                    raise RuntimeError("warm-up %s %s answered %d: %r" % (req.path, req.fields, status, body[:200]))
                self.expected[req.body] = body
        finally:
            conn.close()

    def check(self, req, body):
        return self.expected.get(req.body) == body

    def references(self):
        """`(request, body)` pairs to check against the in-process CLI."""
        chosen = self.rng.sample(self.mix, min(REFERENCE_CHECKS, len(self.mix)))
        return [(req, self.expected[req.body]) for req in chosen]


class ClusterSweep(WarmSweep):
    """The warm-sweep mix sent through a `ptb-clusterd` coordinator that
    shards every sweep point across two worker daemons."""

    workers = 2
    coordinator = True


WORKLOADS = {
    "warm_sweep": WarmSweep,
    "cluster_sweep": ClusterSweep,
}


def cli_report(sim_bin, network, policy, tw, seed):
    """The report the in-process CLI computes for one point: no daemon,
    no cache, no memo, no transport."""
    out = subprocess.run(
        [sim_bin, "--network", CLI_NETWORK[network], "--policy", CLI_POLICY[policy], "--tw", str(tw), "--seed", str(seed), "--quick", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=True,
        timeout=120,
    )
    return json.loads(out.stdout)


def sweep_row(report, tw):
    """A `SweepRow` from a `NetworkReport`, summed in the harness's order
    so the floats come out bit-identical."""
    energy = [(sum(layer["energy"]["by_level"]) + layer["energy"]["compute_pj"]) * 1e-12 for _, layer in report["layers"]]
    seconds = [layer["seconds"] for _, layer in report["layers"]]
    return {"tw": tw, "energy_j": sum(energy), "seconds": sum(seconds), "edp": sum(e * s for e, s in zip(energy, seconds))}


def reference_ok(sim_bin, req, body, rng):
    """Checks one sweep answer against the CLI at one seed-chosen TW size
    (its other rows are checked on other seeds)."""
    f = req.fields
    rows = json.loads(body)
    if [r["tw"] for r in rows] != f["tws"]:
        return False
    i = rng.randrange(len(rows))
    tw = f["tws"][i]
    return rows[i] == sweep_row(cli_report(sim_bin, f["network"], f["policy"], tw, f["seed"]), tw)
