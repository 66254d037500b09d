"""Accuracy metrics, boundary agreement, sign test, and the budget-sweep curve.

Raw accuracy is the plain fraction correct; balanced accuracy averages
per-class recalls over the classes that actually occur in the label
vector (classes with zero support are excluded from the mean, which
avoids 0/0 and is recorded on the report).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import _MAX_VALUES, as_labels


@dataclass
class MetricReport:
    """Accuracy summary recomputable from the confusion matrix alone."""

    rca: float
    bca: float
    per_class_recall: np.ndarray  # NaN for classes with zero support
    confusion: np.ndarray         # (k, k) counts, rows = true, cols = predicted


def confusion_matrix(preds, labels, n_classes: int | None = None) -> np.ndarray:
    given = {"preds": np.asarray(preds), "labels": np.asarray(labels)}
    if (n := given["labels"].size) == 0:
        raise ValueError("cannot compute metrics on empty inputs")
    k = n_classes if n_classes is not None else 1 + max(  # one past the largest finite value, truncated
        (int(np.max(v, where=np.isfinite(v), initial=0)) for v in given.values() if v.dtype.kind in "biuf"), default=0)
    if k * k > _MAX_VALUES:  # before bincount asks for k * k counts
        raise ValueError(f"{k} classes need a {k}x{k} confusion matrix, past {_MAX_VALUES} counts")
    preds, labels = (as_labels(v, n, 0, k, name) for name, v in given.items())
    return np.bincount(labels * k + preds, minlength=k * k).reshape(k, k)


def metric_report(preds, labels, n_classes: int | None = None) -> MetricReport:
    matrix = confusion_matrix(preds, labels, n_classes)
    support = matrix.sum(axis=1)
    total = int(matrix.sum())
    recall = np.full(len(matrix), np.nan)
    present = support > 0
    recall[present] = np.diag(matrix)[present] / support[present]
    return MetricReport(
        rca=float(np.trace(matrix) / total),
        bca=float(np.nanmean(recall[present])),
        per_class_recall=recall,
        confusion=matrix,
    )


def rca(preds, labels) -> float:
    """Raw classification accuracy: unweighted fraction correct."""
    return metric_report(preds, labels).rca


def bca(preds, labels) -> float:
    """Balanced classification accuracy: mean per-class recall."""
    return metric_report(preds, labels).bca


def boundary_agreement(model, target_labels, epochs) -> float:
    """Fraction of epochs where the model reproduces the target's label.

    ``target_labels`` should be obtained once, outside any attack budget.
    """
    preds = model.predict_batch(epochs)
    return rca(preds, target_labels)


def paired_sign_test(a, b) -> float:
    """One-sided exact sign test that paired values of ``a`` run below ``b``.

    Ties are dropped; returns the probability under fair coin flips of at
    least the observed number of ``a < b`` wins.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("need equal-length 1-D paired samples")
    wins = int(np.sum(a < b))
    informative = int(np.sum(a != b))
    if informative == 0:
        return 1.0
    return sum(math.comb(informative, k) for k in range(wins, informative + 1)) / 2.0**informative


@dataclass
class SweepPoint:
    budget: int
    rca_mean: float
    rca_std: float
    bca_mean: float
    bca_std: float
    runs: int


@dataclass
class SweepCurve:
    """Aggregated metrics per query budget, budgets strictly increasing."""

    points: list = field(default_factory=list)


def sweep_curve(budgets, reports) -> SweepCurve:
    """Mean and population std per budget; ``reports[r][i]`` is run ``r`` at ``budgets[i]``."""
    curve = SweepCurve()
    for i, budget in enumerate(budgets):
        rcas = np.array([run[i].rca for run in reports])
        bcas = np.array([run[i].bca for run in reports])
        curve.points.append(
            SweepPoint(
                budget=budget,
                rca_mean=float(rcas.mean()),
                rca_std=float(rcas.std()),
                bca_mean=float(bcas.mean()),
                bca_std=float(bcas.std()),
                runs=len(reports),
            )
        )
    return curve
