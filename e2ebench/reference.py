"""Reference figures beside the benchmark (not part of any bound).

Usage (from the repository root)::

    python3 e2ebench/reference.py

Prints, with one BLAS thread:

* the in-process engine ceiling: ``encode_batch_packed`` and packed
  ``predict`` rows/s at the two served shapes, 64-row batches, no
  socket;
* the FPGA cost model, ``repro.hardware.throughput_samples_per_second``,
  at the same shapes;
* the wall time of ``python -m repro --jobs 2 --no-cache`` (the suite
  workload runs one worker).
"""

from __future__ import annotations

import time

import common

common.bootstrap()

import numpy as np  # noqa: E402

import serving  # noqa: E402
import suite  # noqa: E402

#: Suite workers of the reference run.
JOBS = 2


def engine_ceiling(w: serving.Workload, seconds: float = 3.0) -> tuple[float, float]:
    from repro.hdlock.lock import create_locked_encoder
    from repro.model.train import train_model

    train_x, train_y, rows, _ = serving.make_inputs(w, 1)
    system = create_locked_encoder(w.n_features, w.levels, w.dim, serving.LAYERS, rng=2)
    model = train_model(system.encoder, train_x, train_y, n_classes=10, retrain_epochs=1, rng=3).model
    batch = np.concatenate(list(rows))[:64]
    rates = []
    for call in (system.encoder.encode_batch_packed, model.predict):
        call(batch)
        done, started = 0, time.perf_counter()
        while time.perf_counter() - started < seconds:
            call(batch)
            done += batch.shape[0]
        rates.append(done / (time.perf_counter() - started))
    return rates[0], rates[1]


def main() -> int:
    from repro.hardware import throughput_samples_per_second

    for w in (serving.LONE, serving.BULK):
        encode, predict = engine_ceiling(w)
        model = throughput_samples_per_second(w.n_features, w.dim, 10, serving.LAYERS)
        print(
            f"{w.name} shape N={w.n_features} M={w.levels} D={w.dim} L={serving.LAYERS}: "
            f"in-process encode {encode:,.0f} rows/s, classify {predict:,.0f} rows/s; "
            f"FPGA model {model:,.0f} samples/s"
        )
    cmd = suite.suite_cmd(1, common.fresh_dir("reference-suite"))
    cmd[cmd.index("--jobs") + 1] = str(JOBS)
    wall, done = suite.invoke(cmd)
    common.cleanup_work()
    outcome = "timed out" if done is None else f"exit {done.returncode}"
    print(f"suite --jobs {JOBS}: {wall:.2f} s ({outcome})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
