"""Which public calls the traced run times, grouped by layer.

``install_kernels`` covers the engine, sign and model layers (used in
the traced server and in the in-process suite); ``install_serving`` the
request path of the server; ``install_suite`` the attack, arena and
training layers; ``install_provisioning`` the calls the benchmark makes
itself to provision a tenant. Call them after the program is imported.
"""

from __future__ import annotations

import functools
import time

import layers


#: Clocks of ``install_kernels``: every workload enters all of them.
KERNEL_CLOCKS = ("engine.encode", "engine.accumulate", "hv.sign", "model.predict")


def install_kernels() -> None:
    from repro.encoding import engine
    from repro.encoding.base import Encoder
    from repro.hv import packing
    from repro.model.classifier import HDClassifier

    layers.patch_method(Encoder, "encode_batch_packed", "engine.encode", rows_arg=1)
    for attr in ("accumulate", "accumulate_packed"):
        timed = layers.clock("engine.accumulate", getattr(engine.EncodingPlan, attr), 1)

        def by_mode(self, samples, *args, _timed=timed, **kwargs):
            # Which engine modes the workload reaches, counted in rows.
            layers.add(f"engine.mode.{self.mode}", 0.0, rows=len(samples))
            return _timed(self, samples, *args, **kwargs)

        setattr(engine.EncodingPlan, attr, by_mode)
    layers.patch_function(packing, "pack_signs", "hv.sign", rows_arg=0)
    layers.patch_function(packing, "sign_bits", "hv.sign", rows_arg=0)
    layers.patch_method(HDClassifier, "predict", "model.predict", rows_arg=1)


def install_serving() -> None:
    from repro.serving import asgi, registry, schemas
    from repro.serving.batcher import MicroBatcher

    layers.patch_method(asgi.Request, "json", "serving.json_decode")
    layers.patch_method(asgi.JSONResponse, "__init__", "serving.json_encode")
    layers.patch_method(registry.Tenant, "check_access", "serving.key_gate")
    layers.patch_function(schemas, "parse_samples", "serving.parse")
    layers.patch_function(schemas, "packed_rows_to_hex", "serving.hex")
    layers.patch_method(MicroBatcher, "submit", "serving.submit")

    flush = MicroBatcher._flush

    @functools.wraps(flush)
    def timed_flush(self):
        waiting = len(self._pending)
        start = time.perf_counter()
        try:
            return flush(self)
        finally:
            # Every request in the window spends the flush inside its
            # own submit; the rest of its submit is queue wait.
            layers.add(
                "serving.flush_weighted",
                (time.perf_counter() - start) * waiting,
                rows=waiting,
            )

    MicroBatcher._flush = timed_flush


def install_suite() -> None:
    from repro.arena import matrix
    from repro.attack import adaptive, feature_extraction
    from repro.model import train

    layers.patch_function(
        feature_extraction, "extract_feature_mapping", "attack.feature_extraction"
    )
    layers.patch_function(adaptive, "score_rotations", "attack.score_rotations")
    layers.patch_function(matrix, "duel", "arena.duel")
    layers.patch_function(train, "train_model", "model.train")


def install_provisioning() -> None:
    from repro.hdlock import lock
    from repro.model import train
    from repro.serving import registry

    layers.patch_function(lock, "create_locked_encoder", "hdlock.provision")
    layers.patch_function(registry, "provision_tenant", "hdlock.provision")
    layers.patch_function(train, "train_model", "model.train")


def engine_modes(snap: dict) -> dict[str, int]:
    """Rows accumulated per engine mode."""
    prefix = "engine.mode."
    return {k[len(prefix):]: v["rows"] for k, v in snap.items() if k.startswith(prefix)}


def kernel_metrics(snap: dict) -> dict[str, float]:
    """Engine, sign and search figures from a clock snapshot."""
    accumulate = snap.get("engine.accumulate", {})
    calls = accumulate.get("calls", 0)
    return {
        "engine.encode_us_per_row": 1e6 * layers.per_row(snap, "engine.encode"),
        # Self time: the sign/tie stage inside accumulate_packed is
        # reported on its own as hv.sign.
        "engine.accumulate_us_per_row": 1e6
        * layers.per_row(snap, "engine.accumulate", "self_s"),
        "engine.rows_per_call": accumulate.get("rows", 0) / calls if calls else 0.0,
        "hv.sign_us_per_row": 1e6 * layers.per_row(snap, "hv.sign"),
        "model.search_us_per_row": 1e6 * layers.per_row(snap, "model.predict", "self_s"),
    }
