"""Build the service binaries, boot daemons, and talk HTTP/1.1 to them.

Everything here goes through the service's stable surfaces only: the
`ptb-serve` / `ptb-clusterd` command lines (`--addr`, `--port-file`,
`--workers`, `--job-dir`), the environment knobs they document, and
the wire protocol of `docs/PROTOCOL.md`. The benchmark never links the
crates, so refactors behind those surfaces do not break it.
"""

import json
import os
import shutil
import socket
import struct
import subprocess
import time

BINARIES = (("ptb-serve", "ptb-serve"), ("ptb-cluster", "ptb-clusterd"), ("ptb-bench", "ptb_sim"))

JSON = b"application/json"
PTBW = b"application/x-ptbw"
KIND_SIMULATE = 0x01

# Ports tried in turn for the workers. A coordinator's placement ring is
# seeded by its workers' addresses, so fixed ports give every run the
# same shard placement, where ephemeral ones would redraw it each time.
WORKER_PORTS = range(23417, 23433)


def build(root):
    """Builds the release binaries from the checkout at `root` and returns
    `{binary name: path}`. Raises `RuntimeError` when there is nothing to
    build or the build fails."""
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        raise RuntimeError("no Cargo.toml in %s: not a checkout of the workspace" % root)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"]
    for package, binary in BINARIES:
        cmd += ["-p", package, "--bin", binary]
    # Cargo's own chatter goes to stderr so stdout stays one JSON line.
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL, stderr=None)
    if proc.returncode != 0:
        raise RuntimeError("cargo build failed with exit code %d" % proc.returncode)
    target = os.environ.get("CARGO_TARGET_DIR", "target")
    release = os.path.join(root, target, "release")
    paths = {b: os.path.join(release, b) for _, b in BINARIES}
    for path in paths.values():
        if not os.access(path, os.X_OK):
            raise RuntimeError("build produced no executable %s" % path)
    return paths


def clean_env(extra):
    """The daemons' environment: the caller's, minus every `PTB_*` knob
    (so a stray setting cannot change what is measured), plus `extra`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PTB_")}
    env.update(extra)
    return env


class Daemon:
    """One spawned `ptb-serve` or `ptb-clusterd` process on `port` (0:
    an ephemeral one), discovered through its `--port-file` handshake."""

    def __init__(self, argv, run_dir, name, env, port=0):
        self.name = name
        port_file = os.path.join(run_dir, name + ".port")
        if os.path.exists(port_file):
            os.remove(port_file)
        self.log_path = os.path.join(run_dir, name + ".log")
        self.log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            argv + ["--addr", "127.0.0.1:%d" % port, "--job-dir", "off", "--port-file", port_file],
            stdin=subprocess.DEVNULL,
            stdout=self.log,
            stderr=subprocess.STDOUT,
            env=env,
        )
        self.addr = None
        try:
            self._wait_for_port(port_file)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.log.close()
            raise

    def _wait_for_port(self, port_file):
        deadline = time.monotonic() + 30
        while self.addr is None:
            if self.proc.poll() is not None:
                raise RuntimeError("%s exited with %s before binding; see %s" % (self.name, self.proc.returncode, self.log_path))
            if time.monotonic() > deadline:
                raise RuntimeError("%s did not bind within 30 s" % self.name)
            try:
                with open(port_file) as f:
                    text = f.read()
                if text.endswith("\n"):
                    self.addr = ("127.0.0.1", int(text))
                    continue
            except FileNotFoundError:
                pass
            time.sleep(0.002)

    def get_json(self, path):
        status, body = Conn(self.addr).once(b"GET", path, b"")
        if status != 200:
            raise RuntimeError("%s GET %s answered %d" % (self.name, path, status))
        return json.loads(body)

    def stop(self):
        """Asks the daemon to shut down, waits for it, and kills it if it
        does not go within ten seconds."""
        if self.proc.poll() is None:
            try:
                Conn(self.addr, timeout=5).once(b"POST", "/shutdown", b"")
            except (OSError, ValueError):
                pass  # the wait below kills it if the request never landed
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Fleet:
    """The daemons of one set-up: workers, and optionally a coordinator
    in front of them. Stopping the fleet stops every process it started."""

    def __init__(self, bins, run_dir, workers, coordinator, env):
        self.workers = []
        self.coordinator = None
        try:
            ports = iter(WORKER_PORTS)
            for i in range(workers):
                self.workers.append(spawn_worker(bins, run_dir, "worker%d" % i, env, ports))
            if coordinator:
                addrs = ",".join("%s:%d" % w.addr for w in self.workers)
                self.coordinator = Daemon([bins["ptb-clusterd"], "--workers", addrs], run_dir, "coordinator", env)
            for d in self.daemons():
                wait_healthy(d)
        except BaseException:
            self.stop()
            raise

    def daemons(self):
        return self.workers + ([self.coordinator] if self.coordinator else [])

    def front(self):
        """The daemon clients talk to."""
        return self.coordinator or self.workers[0]

    def stop(self):
        # Coordinator first, so it never probes a worker that is gone.
        for d in reversed(self.daemons()):
            d.stop()


def spawn_worker(bins, run_dir, name, env, ports):
    """A `ptb-serve` on the next free port of `ports`, or on an ephemeral
    one when all of them are taken."""
    for port in ports:
        try:
            return Daemon([bins["ptb-serve"]], run_dir, name, env, port)
        except RuntimeError:
            pass  # could not bind: the port is taken
    return Daemon([bins["ptb-serve"]], run_dir, name, env)


def wait_healthy(daemon):
    deadline = time.monotonic() + 30
    while True:
        try:
            status, _ = Conn(daemon.addr, timeout=5).once(b"GET", "/healthz", b"")
            if status == 200:
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise RuntimeError("%s never answered /healthz" % daemon.name)
        time.sleep(0.005)


class Conn:
    """A kept-alive HTTP/1.1 connection (PROTOCOL.md §1). Reconnects
    transparently after a response that carries `Connection: close`."""

    def __init__(self, addr, timeout=60):
        self.addr = addr
        self.timeout = timeout
        self.sock = None
        self.buf = bytearray()
        self.connects = 0

    def close(self):
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self.buf.clear()

    def _connect(self):
        self.sock = socket.create_connection(self.addr, timeout=self.timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.connects += 1

    @staticmethod
    def render(method, path, body, content_type=JSON):
        """The bytes of one request, rendered once and reused."""
        head = b"%s %s HTTP/1.1\r\nHost: bench\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n" % (
            method,
            path.encode(),
            content_type,
            len(body),
        )
        return head + body

    def send(self, raw):
        """Sends one rendered request and returns `(status, body, stamps)`
        where `stamps` is `(start, sent, first byte, done)` in
        `time.perf_counter()` seconds. A reconnect counts as sending."""
        t_start = time.perf_counter()
        if self.sock is None:
            self._connect()
        self.sock.sendall(raw)
        t_sent = time.perf_counter()
        t_first = None
        while True:
            end = self.buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = self.sock.recv(65536)
            if t_first is None:
                t_first = time.perf_counter()
            if not chunk:
                self.close()
                raise ConnectionError("connection closed before a response head")
            self.buf += chunk
        head = bytes(self.buf[:end]).decode("latin-1").split("\r\n")
        status = int(head[0].split(" ", 2)[1])
        length = 0
        close = False
        for line in head[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection":
                close = value.strip().lower() == "close"
        total = end + 4 + length
        while len(self.buf) < total:
            chunk = self.sock.recv(max(65536, total - len(self.buf)))
            if not chunk:
                self.close()
                raise ConnectionError("connection closed mid-body")
            self.buf += chunk
        body = bytes(self.buf[end + 4 : total])
        del self.buf[:total]
        t_done = time.perf_counter()
        if close:
            self.close()
        return status, body, (t_start, t_sent, t_first or t_done, t_done)

    def once(self, method, path, body):
        """One request on a fresh connection; returns `(status, body)`."""
        try:
            status, body, _ = self.send(Conn.render(method, path, body))
            return status, body
        finally:
            self.close()


def ptbw_frame(kind, value):
    """A `PTBW1` request frame (PROTOCOL.md §3): magic, version, payload
    length, FNV-1a-64 of the payload, then the kind byte and the value."""
    payload = bytes([kind]) + ptbw_value(value)
    digest = 0xCBF29CE484222325
    for byte in payload:
        digest = ((digest ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return b"PTBW1\x01" + struct.pack("<IQ", len(payload), digest) + payload


def ptbw_value(v):
    """The tagged encoding of a JSON value (PROTOCOL.md §3.2); integers
    are the service's unsigned ones."""
    if isinstance(v, bool):
        return b"\x02" if v else b"\x01"
    if isinstance(v, int):
        return b"\x03" + struct.pack("<Q", v)
    if isinstance(v, str):
        return b"\x07" + ptbw_str(v)
    if isinstance(v, list):
        return b"\x08" + struct.pack("<I", len(v)) + b"".join(ptbw_value(x) for x in v)
    if isinstance(v, dict):
        return b"\x09" + struct.pack("<I", len(v)) + b"".join(ptbw_str(k) + ptbw_value(x) for k, x in v.items())
    raise TypeError("no PTBW1 encoding for %r" % (v,))


def ptbw_str(s):
    raw = s.encode()
    return struct.pack("<I", len(raw)) + raw


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
