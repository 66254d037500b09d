import numpy as np
import pytest

from qsattack import metrics
from qsattack.metrics import (
    MetricReport,
    bca,
    boundary_agreement,
    metric_report,
    paired_sign_test,
    rca,
    sweep_curve,
)
from qsattack.cli import main
from testutil import make_model, write_config

RNG = np.random.default_rng(31)


def brute_force_metrics(preds, labels):
    """Independent recomputation straight from per-class tallies."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    raw = sum(int(p == y) for p, y in zip(preds, labels)) / len(labels)
    recalls = []
    for c in sorted(set(labels.tolist())):
        members = [i for i, y in enumerate(labels) if y == c]
        recalls.append(sum(int(preds[i] == c) for i in members) / len(members))
    return raw, sum(recalls) / len(recalls)


def test_rca_hand_cases():
    assert rca([1, 0, 1, 1], [1, 1, 1, 0]) == 0.5
    assert rca([2, 0, 1], [2, 0, 1]) == 1.0
    with pytest.raises(ValueError):
        rca([], [])
    with pytest.raises(ValueError):
        rca([1, 0], [1])


def test_bca_hand_case():
    # recalls 2/3 and 1, averaged
    assert bca([0, 0, 1, 1], [0, 0, 0, 1]) == pytest.approx(5.0 / 6.0)


def test_balanced_classes_make_bca_equal_rca():
    preds = RNG.integers(0, 2, 40)
    labels = np.repeat([0, 1], 20)
    assert bca(preds, labels) == pytest.approx(rca(preds, labels))


def test_metrics_match_brute_force_oracle():
    for _ in range(50):
        k = int(RNG.integers(2, 6))
        n = int(RNG.integers(5, 60))
        labels = RNG.integers(0, k, n)
        preds = RNG.integers(0, k, n)
        expect_rca, expect_bca = brute_force_metrics(preds, labels)
        report = metric_report(preds, labels, k)
        assert report.rca == pytest.approx(expect_rca, abs=1e-12)
        assert report.bca == pytest.approx(expect_bca, abs=1e-12)


def test_confusion_matrix_consistency():
    labels = RNG.integers(0, 3, 200)
    preds = RNG.integers(0, 3, 200)
    report = metric_report(preds, labels, 3)
    support = report.confusion.sum(axis=1)
    assert np.array_equal(support, np.bincount(labels, minlength=3))
    assert report.rca == pytest.approx(np.trace(report.confusion) / 200)
    recalls = np.diag(report.confusion)[support > 0] / support[support > 0]
    assert report.bca == pytest.approx(recalls.mean())


def test_bca_excludes_absent_classes():
    report = metric_report([0, 1, 0], [0, 1, 0], n_classes=4)
    assert np.isnan(report.per_class_recall[2]) and np.isnan(report.per_class_recall[3])
    assert report.bca == 1.0


@pytest.mark.parametrize("preds, labels, n_classes, message", [
    ([0, 2], [0, 1], 2, r"preds must hold integer class indices in \[0, 2\)"),
    ([0, 1], [3, 1], 2, r"labels must hold integer class indices in \[0, 2\)"),
    ([0.7, 1], [0, 1], None, r"preds must hold integer class indices in \[0, 2\)"),
    ([0, 1], [0, np.nan], 2, "labels must hold integer class indices"),
    ([0, -1], [0, 1], None, "preds must hold integer class indices"),
    ([10**6], [0], None, "1000001 classes need a 1000001x1000001 confusion matrix"),  # 10**12 counts
    ([0], [0], 46341, "46341 classes need a"),  # the first square past 2**31
])
def test_confusion_matrix_refuses_what_is_not_a_class_index(monkeypatch, preds, labels, n_classes, message):
    monkeypatch.setattr(metrics.np, "bincount", lambda *a, **kw: pytest.fail("refused after bincount was called"))
    with pytest.raises(ValueError, match=message):
        metric_report(preds, labels, n_classes)


def test_boundary_agreement_definitions():
    model = make_model("mlp", seed=5)
    xs = RNG.standard_normal((60, 2, 6))
    own = model.predict_batch(xs)
    assert boundary_agreement(model, own, xs) == 1.0
    constant = make_model("linear")
    constant.set_parameters(np.zeros(constant.spec.n_params))
    labels = np.repeat([0, 1], 30)
    assert boundary_agreement(constant, labels, xs) == 0.5
    other = RNG.integers(0, 2, 60)
    assert boundary_agreement(model, other, xs) == rca(model.predict_batch(xs), other)


def test_paired_sign_test_hand_values():
    assert paired_sign_test([0, 0, 0, 0, 0], [1, 1, 1, 1, 1]) == pytest.approx(1 / 32)
    assert paired_sign_test([1, 1], [1, 1]) == 1.0  # all ties
    # 3 wins, 1 loss: P(X >= 3), X ~ Binomial(4, 1/2)
    assert paired_sign_test([0, 0, 0, 2], [1, 1, 1, 1]) == pytest.approx(5 / 16)
    with pytest.raises(ValueError, match="equal-length 1-D"):
        paired_sign_test([0, 0, 0], [1, 1])


def fixed_report(value):
    return MetricReport(rca=value, bca=value, per_class_recall=np.array([value]),
                        confusion=np.eye(2, dtype=np.int64))


def test_sweep_curve_echoes_single_run():
    curve = sweep_curve([100], [[fixed_report(0.7)]])
    point = curve.points[0]
    assert (point.budget, point.rca_mean, point.rca_std, point.runs) == (100, 0.7, 0.0, 1)


def test_sweep_curve_aggregation_matches_recomputation():
    values = {(b, r): float(RNG.random()) for b in (10, 20) for r in range(4)}
    reports = [[fixed_report(values[(b, r)]) for b in (10, 20)] for r in range(4)]
    curve = sweep_curve([10, 20], reports)
    for point in curve.points:
        expected = [values[(point.budget, r)] for r in range(4)]
        assert point.rca_mean == pytest.approx(np.mean(expected))
        assert point.rca_std == pytest.approx(np.std(expected))
        assert point.runs == 4


def test_sweep_curve_csv(tmp_path):
    cfg = write_config(tmp_path, runs=2, budgets=[20, 40])
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "budget,rca_mean,rca_std,bca_mean,bca_std,runs"
    assert len(lines) == 3


def test_write_results_csv(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["attack", "--config", str(cfg), "--out", str(tmp_path / "attack")]) == 0
    lines = (tmp_path / "attack" / "results.csv").read_text().strip().splitlines()
    assert lines[0] == ("dataset,target_model,substitute_model,method,budget,seed,"
                        "rca,bca,baseline_rca,baseline_bca,noisy_rca,noisy_bca")
    assert len(lines) == 2
