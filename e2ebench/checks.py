"""Output checks computed apart from the program.

Serving checks rebuild the locked encoding from the provisioned
system's raw arrays (base pool, key indices and rotations, level
hypervectors) with the paper's equations in plain NumPy:

* Eq. 9: ``F_i = prod_l rho^{k_il}(B_{idx_il})`` with
  ``rho_k(HV) = {HV[k:], HV[:k]}``;
* Eq. 10: ``H = sum_i F_i * V_{x_i}``.

A served ``encode`` row must agree with ``sign(H)`` on every coordinate
whose sum is non-zero; ties may fall either way. A served ``classify``
label must be a nearest class (Hamming) under some resolution of the
query's tie coordinates.

Suite checks read the ``--format json`` records and test the paper's
properties: the closed-form complexities of Fig. 7, the true key
scoring best in every Fig. 5/6 panel, L = 2 holding and L = 1 falling
in the arena, the ~21 % two-layer latency overhead of Fig. 9, and the
stolen model tracking the original in Table 1.
"""

from __future__ import annotations

import numpy as np

#: Paper's Sec. 5.2 MNIST complexities and the shape they refer to.
PAPER_COMPLEXITY = {"N^2": 6.15e5, "N*D*P": 6.15e9, "N*(D*P)^2": 4.81e16}
MNIST_N = MNIST_P = 784
PAPER_D = 10_000

#: Fig. 9: two-layer latency overhead the paper reports, and the slack.
PAPER_L2_OVERHEAD = 0.21
L2_OVERHEAD_TOLERANCE = 0.02

#: Table 1: |stolen accuracy - original accuracy| allowed per row. At
#: reduced scale the test splits hold 80-104 rows; over suite seeds
#: 1-12 and 101-118 the largest gap seen was 0.05 (binary flavour).
TABLE1_ACCURACY_TOLERANCE = 0.10


# -- serving ------------------------------------------------------------


def rotate(hv: np.ndarray, k: int) -> np.ndarray:
    """The paper's rho_k: ``{HV[k:], HV[:k]}``."""
    k %= hv.shape[-1]
    return np.concatenate([hv[k:], hv[:k]])


def feature_matrix(pool: np.ndarray, indices: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """Eq. 9 for every feature: ``(N, D)`` int8 bipolar."""
    n_features, n_layers = indices.shape
    out = np.ones((n_features, pool.shape[1]), dtype=np.int8)
    for i in range(n_features):
        for layer in range(n_layers):
            out[i] *= rotate(pool[indices[i, layer]], int(rotations[i, layer])).astype(np.int8)
    return out


def accumulators(features: np.ndarray, levels: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Eq. 10 for a ``(B, N)`` level batch: ``(B, D)`` int64 sums.

    Grouped by level: ``H = sum_m V_m * (onehot_m(x) @ F)``; the float
    products are exact (integers far below 2**24).
    """
    feats = features.astype(np.float32)
    out = np.zeros((rows.shape[0], features.shape[1]), dtype=np.float32)
    for level in range(levels.shape[0]):
        onehot = (rows == level).astype(np.float32)
        if onehot.any():
            out += (onehot @ feats) * levels[level].astype(np.float32)
    return np.rint(out).astype(np.int64)


def decode_row(text: str, dim: int) -> np.ndarray:
    """Served packed hex -> ``(dim,)`` bool, coordinate 0 first.

    Each 16-hex-digit group is one uint64 word written big-endian; the
    word's little-endian bytes hold the coordinates MSB-first.
    """
    words = np.frombuffer(bytes.fromhex(text), dtype=">u8").astype("<u8")
    return np.unpackbits(words.view(np.uint8), count=dim).astype(bool)


def encode_row_ok(accum: np.ndarray, text: str) -> bool:
    """Every non-tie coordinate of a served row matches ``sign(H)``."""
    try:
        bits = decode_row(text, accum.shape[0])
    except ValueError:
        return False
    decided = accum != 0
    return bool(np.array_equal(bits[decided], accum[decided] > 0))


def allowed_labels(accums: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """``(B, K)`` bool: label k is nearest under some tie resolution.

    With non-tie mismatches ``a_k`` and, on the tie coordinates,
    ``h_lk`` places where classes l and k differ, resolving every tie
    towards class l is best for l against all k at once, so l is
    allowed iff ``a_l <= a_k + h_lk`` for every k.
    """
    signs = np.sign(accums)
    cls = np.sign(classes).astype(np.int64)
    ties = signs == 0
    mism = ((signs[:, None, :] * cls[None, :, :]) < 0).sum(axis=-1)  # (B, K)
    differ = cls[:, None, :] != cls[None, :, :]  # (K, K, D)
    out = np.empty(mism.shape, dtype=bool)
    for b in range(accums.shape[0]):
        h = (differ & ties[b][None, None, :]).sum(axis=-1)  # (K, K)
        out[b] = np.all(mism[b][:, None] <= mism[b][None, :] + h, axis=1)
    return out


# -- suite --------------------------------------------------------------


def check_fig7(data: dict) -> list[str]:
    n, d, p = MNIST_N, PAPER_D, MNIST_P
    closed = {"N^2": n * n, "N*D*P": n * d * p, "N*(D*P)^2": n * (d * p) ** 2}
    by_label = {c["label"]: c["computed"] for c in data["checkpoints"]}
    problems = []
    for form, value in closed.items():
        match = [v for label, v in by_label.items() if f"({form})" in label]
        if len(match) != 1:
            problems.append(f"fig7: no checkpoint for {form}")
            continue
        if abs(match[0] - value) > 1e-9 * value:
            problems.append(f"fig7: {form} computed {match[0]:.6g}, closed form {value:.6g}")
        if abs(value - PAPER_COMPLEXITY[form]) > 0.01 * PAPER_COMPLEXITY[form]:
            problems.append(f"fig7: {form} = {value:.4g} is not within 1% of the paper")
    return problems


def check_fig56(name: str, data: dict, true_values: dict[tuple[str, int], int]) -> list[str]:
    """The true key's value scores strictly best in every panel.

    ``true_values`` maps ``(parameter, layer)`` to the key's value for
    feature 0, taken from the key the benchmark regenerates itself.
    """
    problems = []
    for panel in data["panels"]:
        key = (panel["parameter"], int(panel["layer"]))
        candidates = list(panel["candidates"])
        scores = np.asarray(panel["scores"], dtype=float)
        truth = true_values[key]
        if candidates.count(truth) != 1 or len(candidates) != scores.size:
            problems.append(f"{name}: {key} does not list the true value once")
            continue
        at = candidates.index(truth)
        others = np.delete(scores, at)
        if panel["metric"] == "hamming":
            best = scores[at] < others.min()
        else:
            best = scores[at] > others.max()
        if not best:
            problems.append(f"{name}: true {key} does not score strictly best")
    return problems


def check_arena(data: dict) -> list[str]:
    cells = data["cells"]
    problems = []
    baseline = [c for c in cells if c["defender"] == "baseline-l2"]
    shallow = [c for c in cells if c["defender"] == "shallow-l1"]
    if not baseline or not shallow:
        return ["arena: baseline-l2 or shallow-l1 is missing"]
    for cell in baseline:
        if cell["features_recovered"] != 0:
            problems.append(f"arena: {cell['attacker']} recovered a feature of baseline-l2")
    if not any(
        c["features_attacked"] > 0 and c["features_recovered"] == c["features_attacked"]
        for c in shallow
    ):
        problems.append("arena: no attacker recovers every feature of shallow-l1")
    return problems


def check_fig9(data: dict) -> list[str]:
    problems = []
    for bench, curve in data["curves"].items():
        relative = dict((int(layers), float(v)) for layers, v in curve)
        overhead = relative[2] / relative[1] - 1.0
        if abs(overhead - PAPER_L2_OVERHEAD) > L2_OVERHEAD_TOLERANCE:
            problems.append(f"fig9: {bench} L=2 overhead {overhead:.1%} is not near 21%")
    return problems


def check_table1(data: dict) -> list[str]:
    problems = []
    for row in data["rows"]:
        gap = abs(row["recovered_accuracy"] - row["original_accuracy"])
        if gap > TABLE1_ACCURACY_TOLERANCE:
            problems.append(
                f"table1: {row['benchmark']}/{'binary' if row['binary'] else 'nonbinary'} "
                f"stolen accuracy off by {gap:.3f}"
            )
    return problems
