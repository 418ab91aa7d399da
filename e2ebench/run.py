"""Outside-in benchmark of the HDLock reproduction.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload serve-lone --seed 1 --seconds 10 --trace 0

Workloads: ``serve-lone``, ``serve-bulk`` (a real socket to ``python -m
repro.serving``) and ``suite`` (``python -m repro``). The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``. Diagnostics
go to stderr. See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

WORKLOADS = ("serve-lone", "serve-bulk", "suite")


def metric_specs() -> dict:
    spec = common.load_spec()
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="e2ebench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.bootstrap()
    specs = metric_specs()
    try:
        if args.workload == "suite":
            import suite

            result = suite.run(args.seed, args.seconds, bool(args.trace))
        else:
            import serving

            result = serving.run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        common.cleanup_work()

    wanted = specs["per_layer"] if args.trace else specs["end_to_end"]
    values = result["layers"] if args.trace else result["e2e"]
    unknown = sorted(set(values) - set(wanted))
    if unknown:
        raise SystemExit(f"e2ebench: metrics {unknown} are not in BENCHMARK.json")
    if args.trace:
        # A workload fails its traced run when a layer it enters records
        # no call, and reports no metric for a layer it never enters
        # (serving layers in the suite, attack and arena layers when
        # serving, the hex layer on serve-lone): those did no work, 0.
        values = {name: values.get(name, 0.0) for name in wanted}
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise SystemExit(f"e2ebench: no value for {missing}")
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in wanted.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
