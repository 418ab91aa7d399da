"""The benchmark's checks must accept the program's real outputs and
reject tampered ones; every kind of failed request must count.

Run from the repository root::

    python3 -m pytest e2ebench/test_checks.py -q
"""

from __future__ import annotations

import copy
import http.client
import http.server
import sys
import threading
import time

import common

common.bootstrap()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import serving  # noqa: E402
import suite  # noqa: E402
from repro.data.synthetic import SyntheticSpec, make_dataset  # noqa: E402
from repro.experiments.config import REDUCED_SCALE  # noqa: E402
from repro.experiments.runner import EXPERIMENTS, child_seed  # noqa: E402
from repro.hdlock.lock import create_locked_encoder  # noqa: E402
from repro.model.train import train_model  # noqa: E402
from repro.serving.schemas import packed_rows_to_hex  # noqa: E402


@pytest.fixture(scope="module")
def small():
    """A small locked system, a model trained on separable classes, and
    query rows whose sums include ties."""
    spec = SyntheticSpec(
        name="small", n_features=64, n_classes=4, levels=8, train_samples=200,
        test_samples=16, noise_sigma=0.25,
    )
    data = make_dataset(spec, rng=4)
    system = create_locked_encoder(n_features=64, levels=8, dim=512, layers=2, rng=5)
    model = train_model(
        system.encoder, data.train_x, data.train_y, n_classes=4, retrain_epochs=1, rng=7
    ).model
    rows = data.test_x
    indices, rotations = system.key.to_arrays()
    features = checks.feature_matrix(system.base_pool, indices, rotations)
    sums = checks.accumulators(features, system.encoder.level_memory.matrix, rows)
    return system, model, rows, features, sums


def test_eq9_matches_program_feature_matrix(small):
    system, _, _, features, _ = small
    assert np.array_equal(features, system.encoder.feature_matrix)


def test_served_encode_rows_pass(small):
    system, _, rows, _, sums = small
    served = packed_rows_to_hex(system.encoder.encode_batch_packed(rows))
    assert (sums == 0).any(), "fixture should exercise tie coordinates"
    assert all(checks.encode_row_ok(acc, text) for acc, text in zip(sums, served))


def test_flipped_non_tie_bit_is_rejected(small):
    system, _, rows, _, sums = small
    served = list(packed_rows_to_hex(system.encoder.encode_batch_packed(rows)))
    coord = int(np.flatnonzero(sums[3] != 0)[7])
    bits = checks.decode_row(served[3], sums.shape[1])
    bits[coord] = not bits[coord]
    packed = np.packbits(bits)
    packed = np.concatenate([packed, np.zeros(-len(packed) % 8, np.uint8)])
    served[3] = packed.view("<u8").astype(">u8").tobytes().hex()
    assert checks.decode_row(served[3], sums.shape[1])[coord] == bits[coord]
    assert not checks.encode_row_ok(sums[3], served[3])


def test_tie_bits_are_free(small):
    system, _, rows, _, sums = small
    served = packed_rows_to_hex(system.encoder.encode_batch_packed(rows))
    row = int(np.flatnonzero((sums == 0).any(axis=1))[0])
    bits = checks.decode_row(served[row], sums.shape[1])
    bits[sums[row] == 0] ^= True
    packed = np.packbits(bits)
    packed = np.concatenate([packed, np.zeros(-len(packed) % 8, np.uint8)])
    assert checks.encode_row_ok(sums[row], packed.view("<u8").astype(">u8").tobytes().hex())


def test_served_labels_pass_and_wrong_label_fails(small):
    _, model, rows, _, sums = small
    allowed = checks.allowed_labels(sums, model.class_matrix)
    served = model.predict(rows)
    assert allowed[np.arange(len(rows)), served].all()
    mism = ((np.sign(sums)[:, None, :] * model.class_matrix[None]) < 0).sum(-1)
    wrong = mism.argmax(axis=1)
    assert not allowed[np.arange(len(rows)), wrong].any()


@pytest.fixture(scope="module")
def fig5():
    spec = EXPERIMENTS["fig5"]
    scale = REDUCED_SCALE.__class__(**{**REDUCED_SCALE.to_dict(), "sweep_max_wrong": 20})
    seed = child_seed(3, "fig5")
    return spec.to_dict(spec.run(scale, seed, None)), seed, scale.dim


def test_fig5_record_passes(fig5):
    data, seed, dim = fig5
    assert suite.check_record("fig5", data, seed, dim, suite.TrueKeys()) == []


def test_swapped_candidate_order_is_rejected(fig5):
    data, seed, dim = fig5
    bad = copy.deepcopy(data)
    cands = bad["panels"][2]["candidates"]
    cands[0], cands[1] = cands[1], cands[0]
    assert suite.check_record("fig5", bad, seed, dim, suite.TrueKeys())


def test_suite_property_checks_bite():
    fig7 = EXPERIMENTS["fig7"]
    good = fig7.to_dict(fig7.run(REDUCED_SCALE, 0, None))
    assert checks.check_fig7(good) == []
    bad = copy.deepcopy(good)
    bad["checkpoints"][1]["computed"] *= 1.001
    assert checks.check_fig7(bad)

    fig9 = EXPERIMENTS["fig9"]
    good = fig9.to_dict(fig9.run(REDUCED_SCALE, 0, None))
    assert checks.check_fig9(good) == []
    bad = copy.deepcopy(good)
    bad["curves"]["mnist"][1][1] = 1.5
    assert checks.check_fig9(bad)

    cell = {"attacker": "a", "features_attacked": 4}
    arena = {"cells": [
        {**cell, "defender": "baseline-l2", "features_recovered": 0},
        {**cell, "defender": "shallow-l1", "features_recovered": 4},
    ]}
    assert checks.check_arena(arena) == []
    leaked = copy.deepcopy(arena)
    leaked["cells"][0]["features_recovered"] = 1
    assert checks.check_arena(leaked)
    held = copy.deepcopy(arena)
    held["cells"][1]["features_recovered"] = 3
    assert checks.check_arena(held)

    row = {"benchmark": "mnist", "binary": True, "original_accuracy": 0.8, "recovered_accuracy": 0.79}
    assert checks.check_table1({"rows": [row]}) == []
    assert checks.check_table1({"rows": [{**row, "recovered_accuracy": 0.6}]})


class _Misbehaving(http.server.BaseHTTPRequestHandler):
    """classify answers 500; encode hangs past the client timeout."""

    def do_POST(self):
        self.rfile.read(int(self.headers["content-length"]))
        if self.path.endswith("/classify"):
            self.send_response(500)
            self.send_header("content-length", "0")
            self.end_headers()
        else:
            time.sleep(0.5)

    def log_message(self, *args):
        pass


def test_error_status_timeout_and_bad_body_count_as_failed(small):
    _, _, rows, _, sums = small
    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Misbehaving)
    worker = threading.Thread(target=httpd.serve_forever)
    worker.start()

    class Stub:
        def connect(self):
            return http.client.HTTPConnection("127.0.0.1", httpd.server_address[1], timeout=0.2)

    sent, rounds = [], []
    try:
        serving.drive(Stub(), serving.BULK, [b"{}"] * serving.BULK.distinct, 0,
                       time.perf_counter(), sent, rounds)
    finally:
        httpd.shutdown()
        httpd.server_close()
        worker.join()
    assert len(sent) == serving.BULK.round_requests and len(rounds) == 1
    assert {item.status for item in sent} == {500, 0}
    allowed = [checks.allowed_labels(sums, np.ones((10, sums.shape[1])))]
    labels = [np.zeros(len(rows), dtype=int)]
    assert not any(serving.verify(serving.BULK, item, [sums], allowed, labels)[0] for item in sent)
    junk = serving.Sent("classify", 0, 200, b"not json", 0.0)
    assert not serving.verify(serving.BULK, junk, [sums], allowed, labels)[0]


def test_suite_timeout_fails_every_experiment_of_the_round(monkeypatch):
    monkeypatch.setattr(suite, "SUITE_TIMEOUT_S", 0.5)
    wall, done = suite.invoke([sys.executable, "-c", "import time; time.sleep(30)"])
    assert done is None and wall < 10
    problems = suite.check_document(done, ["fig7", "arena"], suite.TrueKeys())
    assert all(problems[name] for name in ("fig7", "arena"))


def test_a_silent_clock_of_an_entered_layer_fails_the_traced_run():
    snap = {"engine.encode": {"calls": 3}, "hv.sign": {"calls": 0}}
    layers.require(snap, ("engine.encode",))
    with pytest.raises(RuntimeError, match="hv.sign"):
        layers.require(snap, ("engine.encode", "hv.sign"))
    with pytest.raises(RuntimeError, match="model.predict"):
        layers.require(snap, ("model.predict",))
