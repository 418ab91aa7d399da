"""Do two sets of runs of the same code agree within the bounds?

Usage (from the repository root)::

    python3 e2ebench/steadiness.py --runs 5 [--workloads serve-lone,suite]

Runs ``e2ebench/run.py`` as two interleaved sets, A and B: for each
round and workload one A run and one B run, alternating which goes
first, every run on its own seed. It then prints, per end-to-end metric
and workload:

* each set's median and quartiles;
* ``spread``: the quartile distance of all runs pooled, as a share of
  their median (must stay within the bound; below a third of it is the
  target for a steady benchmark);
* ``shift``: how much worse B's median is than A's, as a share of A's
  (must stay within the bound).

``setup_s`` is exempt from the spread test. The share of failed
operations must be identical in the two sets. Exit code 1 when any
test fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import common


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = common.load_spec()
    workloads = (
        args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    results: dict[str, dict[str, list[dict]]] = {w: {"A": [], "B": []} for w in workloads}
    seed = args.first_seed
    for index in range(args.runs):
        for workload in workloads:
            order = ("A", "B") if index % 2 == 0 else ("B", "A")
            for side in order:
                result = one_run(workload, seed, spec["run_seconds"])
                seed += 1
                results[workload][side].append(result)
                print(f"{workload} {side} seed {result['seed']}: attempted "
                      f"{result['attempted']} failed {result['failed']}", file=sys.stderr)

    ok = True
    header = f"{'workload':<11} {'metric':<30} {'A median [q1, q3]':<34} {'B median [q1, q3]':<34} spread   shift    bound"
    print(header)
    for workload in workloads:
        sets = results[workload]
        shares = {
            side: {r["failed"] / r["attempted"] for r in runs} for side, runs in sets.items()
        }
        if len(shares["A"] | shares["B"]) != 1:
            ok = False
            print(f"{workload}: failed shares differ: {shares}")
        for name in sets["A"][0]["metrics"]:
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            qa, qb, pooled = quartiles(a), quartiles(b), quartiles(a + b)
            spread = (pooled[2] - pooled[0]) / pooled[1] if pooled[1] else float("inf")
            worse = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            shift = worse if better[name] == "lower" else -worse
            bound = bounds[name]
            flag = ""
            if (spread > bound and name != "setup_s") or shift > bound:
                flag = "  FAIL"
                ok = False
            elif spread > bound / 3 and name != "setup_s":
                flag = "  wide"
            print(
                f"{workload:<11} {name:<30} "
                f"{qa[1]:>11.5g} [{qa[0]:.5g}, {qa[2]:.5g}]".ljust(78)
                + f"{qb[1]:>11.5g} [{qb[0]:.5g}, {qb[2]:.5g}]".ljust(34)
                + f" {spread:6.3f}  {shift:+6.3f}  {bound}{flag}"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
