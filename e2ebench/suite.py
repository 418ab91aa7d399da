"""The ``suite`` workload: ``python -m repro`` end to end.

Each round runs ``python -m repro --jobs 1 --no-cache --format json
--out <fresh dir> --seed <workload seed>`` at the default (reduced)
scale: one worker, no shared cache and an empty ``--out``, so every
round computes every experiment. Set-up is the same command on the
no-work experiment ``fig7``: the interpreter, import and worker-pool
start-up that every suite run pays.

Operations are the experiments of a round; one fails when the runner
reports an error for it or its record fails a property check.

The traced run executes the experiments in this process instead, with
clocks on the engine, attack, arena and training layers.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time

import checks
import common
import layers

SETUPS = 3
#: A round takes ~24 s, longer than a run's --seconds; at least this
#: many rounds run so the reported wall time is a median of several.
MIN_ROUNDS = 2
#: About three times a round, and two of them fit in a run's 180 s.
SUITE_TIMEOUT_S = 75.0
#: Clocks of ``instrument.install_suite`` that every traced suite run
#: must see called; the serving clocks are never entered here.
SUITE_CLOCKS = ("model.train", "attack.feature_extraction", "attack.score_rotations", "arena.duel")


def suite_cmd(seed: int, out_dir, only: str | None = None) -> list[str]:
    cmd = [
        sys.executable, "-m", "repro", "--jobs", "1", "--no-cache",
        "--format", "json", "--out", str(out_dir), "--seed", str(seed),
    ]
    if only:
        cmd += ["--only", only]
    return cmd


def invoke(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess | None]:
    """Wall time and outcome of one suite invocation; ``None`` on timeout."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=common.ROOT, env=common.child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        stdout, stderr = proc.communicate(timeout=SUITE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        common.kill_tree(proc)
        proc.communicate()
        return time.perf_counter() - started, None
    wall = time.perf_counter() - started
    return wall, subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


class TrueKeys:
    """Feature 0's key parameters of the Fig. 5/6 system, per child seed.

    Regenerated with the program's public ``create_locked_encoder`` at
    the experiment's recorded shape, so the check does not read the
    sweep's own idea of which candidate is the truth.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple[int, int], dict[tuple[str, int], int]] = {}

    def __call__(self, child_seed: int, dim: int) -> dict[tuple[str, int], int]:
        if (child_seed, dim) not in self._cache:
            from repro.data.benchmarks import benchmark_spec
            from repro.hdlock.lock import create_locked_encoder

            spec = benchmark_spec("mnist")
            system = create_locked_encoder(
                n_features=spec.n_features, levels=spec.levels, dim=dim,
                layers=2, pool_size=spec.n_features, rng=child_seed,
            )
            indices, rotations = system.key.to_arrays()
            self._cache[(child_seed, dim)] = {
                (param, layer): int(arr[0, layer])
                for param, arr in (("index", indices), ("rotation", rotations))
                for layer in range(arr.shape[1])
            }
        return self._cache[(child_seed, dim)]


def check_record(name: str, data: dict, child_seed: int, dim: int, keys: TrueKeys) -> list[str]:
    """Property problems of one experiment's payload (empty = passed)."""
    if name == "fig7":
        return checks.check_fig7(data)
    if name in ("fig5", "fig6"):
        return checks.check_fig56(name, data, keys(child_seed, dim))
    if name == "arena":
        return checks.check_arena(data)
    if name == "fig9":
        return checks.check_fig9(data)
    if name == "table1":
        return checks.check_table1(data)
    return []


def check_document(
    done: subprocess.CompletedProcess | None, expected: list[str], keys: TrueKeys
) -> dict[str, list[str]]:
    """Problems per expected experiment in one ``--format json`` output."""
    if done is None:
        return {name: [f"suite timed out after {SUITE_TIMEOUT_S:.0f} s"] for name in expected}
    try:
        doc = json.loads(done.stdout)
    except ValueError:
        return {name: ["suite printed no JSON document"] for name in expected}
    records = {r["experiment"]: r for r in doc.get("records", [])}
    statuses = doc.get("experiments", {})
    problems: dict[str, list[str]] = {}
    for name in expected:
        record = records.get(name)
        status = statuses.get(name, {}).get("status")
        if status != "run" or record is None:
            problems[name] = [f"{name}: status {status!r}"]
            continue
        problems[name] = check_record(
            name, record["data"], int(record["child_seed"]), int(record["scale"]["dim"]), keys
        )
    return problems


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.experiments.runner import EXPERIMENTS

    names = list(EXPERIMENTS)
    keys = TrueKeys()
    if trace:
        return _run_traced(seed, names, keys)

    setup_times = []
    for attempt in range(SETUPS):
        wall, done = invoke(suite_cmd(seed, common.fresh_dir(f"setup{attempt}"), "fig7"))
        found = check_document(done, ["fig7"], keys)["fig7"]
        if found or done.returncode != 0:
            detail = done.stderr.decode()[-2000:] if done is not None else ""
            raise RuntimeError(f"suite set-up failed: {'; '.join(found)} {detail}")
        setup_times.append(wall)

    walls: list[float] = []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        wall, done = invoke(suite_cmd(seed, common.fresh_dir(f"round{len(walls)}")))
        walls.append(wall)
        problems = check_document(done, names, keys)
        attempted += len(names)
        for name, found in problems.items():
            if found:
                failed += 1
                print("; ".join(found), file=sys.stderr)
        if len(walls) >= MIN_ROUNDS and time.perf_counter() - started >= seconds:
            break
    measured_s = time.perf_counter() - started
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    walls_ms = [w * 1e3 for w in walls]
    print(
        f"suite: {len(walls)} round(s) {[round(w, 2) for w in walls]} s, "
        f"setups {[round(s, 3) for s in setup_times]} s",
        file=sys.stderr,
    )
    return {
        # Each experiment that fails a check is counted in `failed`;
        # the run is correct if the others passed, and there are some.
        "correct": failed < attempted,
        "attempted": attempted,
        "failed": failed,
        "e2e": {
            "setup_s": statistics.median(setup_times),
            "p50_ms": common.percentile(walls_ms, 50),
            "p80_ms": common.percentile(walls_ms, 80),
            "rows_per_s": (attempted - failed) / measured_s,
            "wall_s": statistics.median(walls),
            "peak_rss_mb": rss_mb,
        },
    }


def _run_traced(seed: int, names: list[str], keys: TrueKeys) -> dict:
    """Every experiment in this process, each layer on a clock."""
    import instrument
    from repro.experiments.config import active_scale
    from repro.experiments.runner import EXPERIMENTS, child_seed

    instrument.install_kernels()
    instrument.install_suite()
    scale = active_scale()
    per_experiment: dict[str, float] = {}
    failed = 0
    started = time.perf_counter()
    for name in names:
        spec = EXPERIMENTS[name]
        child = child_seed(seed, name)
        t0 = time.perf_counter()
        result = spec.run(scale, child, None)
        per_experiment[name] = time.perf_counter() - t0
        found = check_record(name, spec.to_dict(result), child, scale.dim, keys)
        if found:
            failed += 1
            print("; ".join(found), file=sys.stderr)
    wall = time.perf_counter() - started
    snap = layers.snapshot()
    layers.require(snap, SUITE_CLOCKS + instrument.KERNEL_CLOCKS)
    print(f"traced end-to-end: {json.dumps({'wall_s': wall})}", file=sys.stderr)
    named = ("table1", "fig8", "arena")
    out = {
        "model.train_s": snap["model.train"]["total_s"],
        "attack.feature_extraction_s": snap["attack.feature_extraction"]["total_s"],
        "attack.score_rotations_s": snap["attack.score_rotations"]["total_s"],
        "attack.score_rotations_calls": snap["attack.score_rotations"]["calls"],
        "arena.duel_s": snap["arena.duel"]["total_s"],
        "arena.slowest_cell_s": snap["arena.duel"]["longest_s"],
        **{f"experiments.{n}_s": per_experiment[n] for n in named},
        "experiments.other_s": sum(t for n, t in per_experiment.items() if n not in named),
    }
    out.update(instrument.kernel_metrics(snap))
    print(f"engine rows by mode: {instrument.engine_modes(snap)}", file=sys.stderr)
    return {"correct": failed < len(names), "attempted": len(names), "failed": failed, "layers": out}
