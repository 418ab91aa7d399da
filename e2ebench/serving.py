"""Socket serving workloads: ``serve-lone`` and ``serve-bulk``.

The benchmark provisions one tenant with the program's own calls
(keygen + lock, training, bundle write), starts ``python -m
repro.serving --tenant NAME=DIR`` on an ephemeral port, and drives it
over keep-alive HTTP/1.1 connections from this one process: a closed
loop, each connection sending its next request when the previous answer
has been read in full. Request bodies are serialized before timing
starts; responses are stored and checked after the measured phase
against an Eq. 9/10 recomputation (see ``checks``).
"""

from __future__ import annotations

import http.client
import json
import queue
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import common
import layers


@dataclass(frozen=True)
class Workload:
    name: str
    tenant: str
    n_features: int
    levels: int
    dim: int
    #: "demo": the serving demo's synthetic shape; "mnist": the
    #: synthetic MNIST benchmark (train 2000 / test 500 rows).
    dataset: str
    rows_per_request: int
    connections: int
    #: Requests per connection in one round.
    round_requests: int
    #: Distinct request bodies (lone: rows; bulk: 64-row blocks).
    distinct: int
    warmup: int


LONE = Workload(
    name="serve-lone", tenant="lone", n_features=196, levels=8, dim=2048,
    dataset="demo", rows_per_request=1, connections=1,
    round_requests=100, distinct=100, warmup=10,
)
BULK = Workload(
    name="serve-bulk", tenant="bulk", n_features=784, levels=16, dim=10_000,
    dataset="mnist", rows_per_request=64, connections=2,
    round_requests=12, distinct=6, warmup=2,
)
WORKLOADS = {w.name: w for w in (LONE, BULK)}

#: Key layers of both tenants.
LAYERS = 2
#: Served accuracy on the test rows must reach this (chance = 0.1).
MIN_ACCURACY = 0.5
#: Set-ups per run; setup_s is their median.
SETUPS = 3
CLASSES = 10
#: Server clocks every serving run must see called (with the kernel
#: clocks); ``serving.hex`` only where the workload encodes.
SERVER_CLOCKS = (
    "serving.json_decode", "serving.parse", "serving.key_gate", "serving.submit",
    "serving.flush_weighted", "serving.json_encode",
)
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0


def _seeds(seed: int) -> dict[str, int]:
    state = np.random.SeedSequence([seed, 0xE2E]).generate_state(4)
    return dict(zip(("data", "lock", "train", "order"), (int(s) for s in state)))


def make_inputs(w: Workload, seed: int):
    """Train split, and the test rows/labels the requests carry."""
    from repro.data.benchmarks import load_benchmark
    from repro.data.synthetic import SyntheticSpec, make_dataset

    seeds = _seeds(seed)
    if w.dataset == "mnist":
        data = load_benchmark("mnist", rng=seeds["data"])
    else:
        spec = SyntheticSpec(
            name="demo", n_features=w.n_features, n_classes=CLASSES,
            levels=w.levels, train_samples=400, test_samples=200,
            noise_sigma=0.25,
        )
        data = make_dataset(spec, rng=seeds["data"])
    order = np.random.default_rng(seeds["order"]).permutation(data.test_x.shape[0])
    picked = order[: w.distinct * w.rows_per_request]
    rows = data.test_x[picked].reshape(w.distinct, w.rows_per_request, w.n_features)
    labels = data.test_y[picked].reshape(w.distinct, w.rows_per_request)
    return data.train_x, data.train_y, rows, labels


def provision(w: Workload, seed: int, directory: Path, train_x, train_y):
    """Keygen + lock, train, write the tenant bundle (the program's calls)."""
    from repro.hdlock import lock
    from repro.model import train
    from repro.serving import registry

    seeds = _seeds(seed)
    system = lock.create_locked_encoder(
        n_features=w.n_features, levels=w.levels, dim=w.dim,
        layers=LAYERS, rng=seeds["lock"],
    )
    model = train.train_model(
        system.encoder, train_x, train_y, n_classes=CLASSES, binary=True,
        retrain_epochs=1, rng=seeds["train"],
    ).model
    registry.provision_tenant(directory, w.tenant, system, model)
    return system, model


class Server:
    """One ``python -m repro.serving`` process on an ephemeral port."""

    def __init__(self, w: Workload, tenant_dir: Path, trace_out: Path | None) -> None:
        args = ["--tenant", f"{w.tenant}={tenant_dir}", "--host", "127.0.0.1", "--port", "0"]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.serving", *args]
        else:
            launcher = str(Path(__file__).with_name("traced_server.py"))
            cmd = [sys.executable, launcher, "--trace-out", str(trace_out), *args]
        started = time.perf_counter()
        self.log = open(tenant_dir.parent / f"{tenant_dir.name}.server.log", "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.PIPE, stderr=self.log,
        )
        lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(
            target=lambda: [lines.put(raw) for raw in self.proc.stdout], daemon=True
        )
        self._reader.start()
        self.port = None
        try:
            deadline = started + BOOT_TIMEOUT_S
            while self.port is None:
                raw = lines.get(timeout=max(deadline - time.perf_counter(), 0.01))
                found = re.search(rb"on http://[\d.]+:(\d+)", raw)
                if found:
                    self.port = int(found.group(1))
            conn = self.connect()
            while True:
                status, _ = request(conn, "GET", "/healthz")
                if status == 200:
                    break
                time.sleep(0.01)
            conn.close()
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)

    def stop(self) -> None:
        common.stop(self.proc)
        self._reader.join()
        self.proc.stdout.close()
        self.log.close()


def request(conn: http.client.HTTPConnection, method: str, path: str, body: bytes | None = None):
    headers = {"content-type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


@dataclass
class Sent:
    op: str
    block: int
    status: int
    body: bytes
    seconds: float


def _schedule(w: Workload, connection: int) -> list[tuple[str, int]]:
    """One round of (op, block) for one connection.

    Lone: classify every distinct row once. Bulk: each block classified
    and encoded, the two connections starting on opposite operations.
    """
    if w.rows_per_request == 1:
        return [("classify", i) for i in range(w.round_requests)]
    ops = ("classify", "encode")
    return [(ops[(j + connection) % 2], j // 2) for j in range(w.round_requests)]


def drive(server: Server, w: Workload, bodies: list[bytes], connection: int,
           deadline: float, sent: list[Sent], rounds: list[float]) -> None:
    """Closed loop on one connection: whole rounds until the deadline."""
    conn = server.connect()
    plan = _schedule(w, connection)
    try:
        while True:
            round_start = time.perf_counter()
            for op, block in plan:
                path = f"/v1/{w.tenant}/{op}"
                start = time.perf_counter()
                try:
                    status, data = request(conn, "POST", path, bodies[block])
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = server.connect()
                    status, data = 0, b""
                sent.append(Sent(op, block, status, data, time.perf_counter() - start))
            end = time.perf_counter()
            rounds.append(end - round_start)
            if end >= deadline:
                return
    finally:
        conn.close()


def _expectations(system, model, rows: np.ndarray):
    """Per block: Eq. 10 sums and the (rows, K) allowed-label table."""
    indices, rotations = (np.asarray(a) for a in system.key.to_arrays())
    features = checks.feature_matrix(np.asarray(system.base_pool), indices, rotations)
    level_hvs = np.asarray(system.encoder.level_memory.matrix)
    classes = np.asarray(model.class_matrix)
    sums, allowed = [], []
    for block in rows:
        acc = checks.accumulators(features, level_hvs, block)
        sums.append(acc)
        allowed.append(checks.allowed_labels(acc, classes))
    return sums, allowed


def verify(w: Workload, item: Sent, sums, allowed, labels) -> tuple[bool, int]:
    """(passed, correctly classified rows) for one stored response."""
    if item.status != 200:
        return False, 0
    try:
        payload = json.loads(item.body)
    except ValueError:
        return False, 0
    if item.op == "encode":
        hexes = payload.get("packed_hex", [])
        acc = sums[item.block]
        ok = (
            payload.get("dim") == w.dim
            and len(hexes) == acc.shape[0]
            and all(checks.encode_row_ok(acc[r], text) for r, text in enumerate(hexes))
        )
        return ok, 0
    served = payload.get("labels", [])
    table = allowed[item.block]
    if len(served) != table.shape[0] or not all(
        isinstance(k, int) and 0 <= k < CLASSES and table[r, k] for r, k in enumerate(served)
    ):
        return False, 0
    return True, int(np.sum(np.asarray(served) == labels[item.block]))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[workload]
    if trace:
        import instrument

        instrument.install_provisioning()
    train_x, train_y, rows, labels = make_inputs(w, seed)
    if w.rows_per_request == 1:
        bodies = [json.dumps({"sample": block[0].tolist()}).encode() for block in rows]
    else:
        bodies = [json.dumps({"samples": block.tolist()}).encode() for block in rows]

    setup_times, boot_times = [], []
    server = None
    trace_out = common.WORK / "server-trace.json"
    try:
        for attempt in range(SETUPS):
            if server is not None:
                server.stop()
                server = None
            tenant_dir = common.fresh_dir(f"tenant{attempt}") / w.tenant
            started = time.perf_counter()
            system, model = provision(w, seed, tenant_dir, train_x, train_y)
            server = Server(w, tenant_dir, trace_out if trace else None)
            conn = server.connect()
            for op, block in _schedule(w, 0)[: w.warmup]:
                status, _ = request(conn, "POST", f"/v1/{w.tenant}/{op}", bodies[block])
                if status != 200:
                    raise RuntimeError(f"warm-up {op} answered {status}")
            conn.close()
            setup_times.append(time.perf_counter() - started)
            boot_times.append(server.boot_s)

        if trace:
            server.proc.send_signal(signal.SIGUSR1)  # zero the server's clocks
            conn = server.connect()
            request(conn, "GET", "/statusz?reset=1")
            conn.close()
            time.sleep(0.2)

        sent: list[list[Sent]] = [[] for _ in range(w.connections)]
        rounds: list[list[float]] = [[] for _ in range(w.connections)]
        started = time.perf_counter()
        deadline = started + seconds
        threads = [
            threading.Thread(target=drive, args=(server, w, bodies, c, deadline, sent[c], rounds[c]))
            for c in range(w.connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        measured_s = time.perf_counter() - started

        batch_rows = 0.0
        if trace:
            conn = server.connect()
            _, raw = request(conn, "GET", "/statusz")
            conn.close()
            stats = json.loads(raw)["batchers"][w.tenant]
            batches = sum(s["batches"] for s in stats.values())
            batch_rows = sum(s["rows"] for s in stats.values()) / batches if batches else 0.0
        rss_mb = common.peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()

    sums, allowed = _expectations(system, model, rows)
    items = [item for per in sent for item in per]
    failed = answered_rows = right = classified = 0
    latencies = []
    for item in items:
        ok, hits = verify(w, item, sums, allowed, labels)
        if not ok:
            failed += 1
            continue
        latencies.append(item.seconds)
        answered_rows += w.rows_per_request
        if item.op == "classify":
            classified += w.rows_per_request
            right += hits
    accuracy = right / classified if classified else 0.0
    all_rounds = [r for per in rounds for r in per]
    if not latencies:
        raise RuntimeError(f"{w.name}: no request succeeded")
    lat_ms = [s * 1e3 for s in latencies]
    e2e = {
        "setup_s": statistics.median(setup_times),
        "p50_ms": common.percentile(lat_ms, 50),
        "p80_ms": common.percentile(lat_ms, 80),
        "rows_per_s": answered_rows / measured_s,
        "wall_s": statistics.median(all_rounds),
        "peak_rss_mb": rss_mb,
    }
    print(
        f"{w.name}: {len(items)} requests, p90 {common.percentile(lat_ms, 90):.3f} ms, "
        f"p99 {common.percentile(lat_ms, 99):.3f} ms, "
        f"accuracy {accuracy:.3f}, setups {[round(s, 3) for s in setup_times]}",
        file=sys.stderr,
    )
    result = {
        "correct": accuracy >= MIN_ACCURACY,
        "attempted": len(items),
        "failed": failed,
        "e2e": e2e,
    }
    if trace:
        server_snap = json.loads(trace_out.read_text())
        result["layers"] = _serving_layers(
            w, server_snap, layers.snapshot(), e2e, latencies, batch_rows, boot_times
        )
    return result


def _serving_layers(w, snap, local, e2e, latencies, batch_rows, boot_times) -> dict[str, float]:
    import instrument

    encodes = w.rows_per_request > 1  # serve-lone only classifies
    layers.require(
        snap, SERVER_CLOCKS + instrument.KERNEL_CLOCKS + (("serving.hex",) if encodes else ())
    )
    layers.require(local, ("model.train", "hdlock.provision"))
    submits = snap["serving.submit"]["calls"]

    def share_us(name: str) -> float:
        return 1e6 * snap.get(name, {}).get("total_s", 0.0) / submits

    server_us = sum(
        share_us(name)
        for name in (
            "serving.json_decode", "serving.parse", "serving.key_gate",
            "serving.submit", "serving.hex", "serving.json_encode",
        )
    )
    client_us = 1e6 * sum(latencies) / len(latencies)
    out = {
        "serving.queue_wait_us": share_us("serving.submit") - share_us("serving.flush_weighted"),
        "serving.framework_us": client_us - server_us,
        "serving.json_decode_us": 1e6 * layers.per_call(snap, "serving.json_decode"),
        "serving.parse_us": 1e6 * layers.per_call(snap, "serving.parse"),
        "serving.key_gate_us": 1e6 * layers.per_call(snap, "serving.key_gate"),
        "serving.json_encode_us": 1e6 * layers.per_call(snap, "serving.json_encode"),
        "serving.rows_per_batch": batch_rows,
        "model.train_s": layers.per_call(local, "model.train"),
        "hdlock.provision_s": local["hdlock.provision"]["total_s"] / SETUPS,
        "serving.boot_s": statistics.median(boot_times),
    }
    if encodes:
        out["serving.hex_us"] = 1e6 * layers.per_call(snap, "serving.hex")
    out.update(instrument.kernel_metrics(snap))
    print(f"traced end-to-end: {json.dumps(e2e)}", file=sys.stderr)
    print(f"engine rows by mode: {instrument.engine_modes(snap)}", file=sys.stderr)
    return out
