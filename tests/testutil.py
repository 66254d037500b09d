"""Shared helpers for the test suite."""

import csv
import json

import numpy as np
from hypothesis import strategies as st

from qsattack.models import ModelSpec, SoftmaxClassifier


def fd_input_gradient(model, x, label, step=1e-3):
    """Central finite differences of the loss w.r.t. every input entry."""
    grad = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        grad[idx] = (model.dataset_loss(xp[None], [label]) - model.dataset_loss(xm[None], [label])) / (2.0 * step)
    return grad


def rel_err(a, b, floor=1e-12):
    """Max absolute difference normalized by the larger gradient scale."""
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), floor)
    return float(np.max(np.abs(a - b)) / scale)


def make_model(arch, channels=2, samples=6, classes=2, seed=0, **kw):
    defaults = {"linear": (), "mlp": (5,), "tcn": (3,)}
    hidden = kw.pop("hidden", defaults[arch])
    if arch == "tcn":
        kw.setdefault("kernel_width", min(3, samples))
    spec = ModelSpec(arch, channels, samples, classes, hidden=hidden, seed=seed, **kw)
    return SoftmaxClassifier(spec)


def logistic_model(w, bias=0.0):
    """2-class linear model whose class-1 probability is sigmoid(<w, x> + bias)."""
    w = np.asarray(w, dtype=np.float64)
    c, t = w.shape
    model = make_model("linear", channels=c, samples=t, classes=2)
    model.set_parameters(np.zeros(model.spec.n_params))
    model.views["W0"][1, :] = w.ravel()
    model.views["b0"][1] = bias
    return model


class ThresholdModel:
    """1-D stub: label 1 iff the single value exceeds the threshold."""

    def __init__(self, threshold=0.3):
        self.threshold = threshold
        self.calls = 0

    def predict_batch(self, epochs):
        self.calls += 1
        epochs = np.asarray(epochs)
        return (epochs.reshape(len(epochs), -1)[:, 0] > self.threshold).astype(np.int64)


class FixedDrawRng:
    """Stub rng whose standard_normal returns queued arrays in order."""

    def __init__(self, draws):
        self.draws = [np.asarray(d, dtype=np.float64) for d in draws]
        self.i = 0

    def standard_normal(self, shape=None):
        draw = self.draws[min(self.i, len(self.draws) - 1)]
        self.i += 1
        return draw.reshape(shape) if shape is not None else draw


def write_config(tmp_path, **overrides):
    """Write a tiny 2-class experiment config; keyword overrides replace top-level keys."""
    cfg = {
        "data": {
            "generator": "blobs", "classes": 2, "channels": 2, "samples": 8,
            "train_per_class": 30, "test_per_class": 20, "pool_per_class": 30,
            "separation": 6.0, "noise_sigma": 1.0,
        },
        "target": {"architecture": "mlp", "hidden": [6],
                   "train": {"max_epochs": 40, "patience": 5, "batch_size": 16}},
        "substitute": {"architecture": "mlp", "hidden": [6],
                       "train": {"max_epochs": 5, "patience": 2, "batch_size": 16}},
        "balance": {"per_class": 10},
        "synthesis": {"n_iterations": 1, "per_iteration": 20, "bisection_steps": 4,
                      "offset_norm": 3.0},
        "jacobian": {"step_size": 0.5, "n_iterations": 1},
        "attack": {"epsilon": 0.4, "method": "ufgsm"},
        "method": "active",
        "runs": 1,
        "master_seed": 5,
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def read_rows(path):
    """Rows of a CSV file as dicts keyed by the header."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def mutations(good: bytes):
    """Strategy: ``good`` with up to four bytes overwritten, then cut short or left whole."""
    edits = st.lists(st.tuples(st.integers(0, len(good) - 1), st.integers(0, 255)), max_size=4)

    def apply(plan):
        raw = bytearray(good)
        for position, value in plan[0]:
            raw[position] = value
        return bytes(raw[:plan[1]])

    return st.tuples(edits, st.none() | st.integers(0, len(good))).map(apply)
