from dataclasses import replace
from functools import cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsattack import synthesis
from qsattack.data import LabeledSet, balance_by_predicted_label, gen_blobs
from qsattack.errors import (
    BoundaryLostError,
    BudgetExhaustedError,
    ClassBalanceError,
    DegenerateDirectionError,
    ShapeMismatchError,
)
from qsattack.metrics import boundary_agreement
from qsattack.models import ModelSpec, SoftmaxClassifier, TrainConfig
from qsattack.oracle import TargetOracle
from qsattack.synthesis import (
    JacobianConfig,
    OppositePair,
    QueryCounter,
    SynthesisConfig,
    binary_search_pair,
    jacobian_augment,
    mid_perpendicular,
    one_vs_one_quotas,
    synthesize_one_vs_one,
    train_substitute_active,
    train_substitute_jacobian,
)
from testutil import FixedDrawRng, ThresholdModel, logistic_model, make_model

RNG = np.random.default_rng(2024)


def random_opposite_pair(model, shape, rng, scale=1.0):
    """Find two points the model labels differently, or None for a constant model."""
    for factor in (1.0, 4.0, 16.0):
        draws = factor * scale * rng.standard_normal((256,) + shape)
        labels = model.predict_batch(draws)
        classes = np.unique(labels)
        if len(classes) >= 2:
            i = int(np.flatnonzero(labels == classes[0])[0])
            j = int(np.flatnonzero(labels == classes[1])[0])
            return OppositePair(draws[i], draws[j], int(labels[i]), int(labels[j]))
    return None


def test_opposite_pair_validation():
    x = np.zeros((1, 2))
    with pytest.raises(ValueError):
        OppositePair(x, np.zeros((2, 2)), 0, 1)
    with pytest.raises(ValueError):
        OppositePair(x, x, 1, 1)
    pair = OppositePair(x, [[1.0, 0.0]], 0, 1)  # an array is copied, a list converted
    for endpoint in (pair.x_plus, pair.x_minus):
        with pytest.raises(ValueError, match="read-only"):
            endpoint[0, 0] = np.nan


def test_binary_search_zero_steps_returns_input():
    pair = OppositePair([[1.0]], [[0.0]], 1, 0)
    out = binary_search_pair(pair, ThresholdModel(0.3), 0)
    assert np.array_equal(out.x_plus, pair.x_plus)
    assert np.array_equal(out.x_minus, pair.x_minus)


def test_binary_search_brackets_threshold():
    model = ThresholdModel(0.3)
    pair = OppositePair([[1.0]], [[0.0]], 1, 0)
    out = binary_search_pair(pair, model, 10)
    hi, lo = float(out.x_plus[0, 0]), float(out.x_minus[0, 0])
    assert hi - lo == pytest.approx(2.0**-10, rel=1e-12)
    assert lo <= 0.3 <= hi
    assert out.label_plus != out.label_minus


def test_binary_search_contraction_and_bracketing():
    checked = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        model = make_model("mlp", seed=seed)
        pair = random_opposite_pair(model, (2, 6), rng, scale=3.0)
        if pair is None:
            continue
        counter = QueryCounter()
        out = binary_search_pair(pair, model, 10, counter)
        ratio = out.distance / pair.distance
        assert abs(ratio - 2.0**-10) <= 1e-6 * 2.0**-10
        assert model.predict(out.x_plus) != model.predict(out.x_minus)
        assert counter.count == 10
        checked += 1
    assert checked >= 20


def test_binary_search_boundary_lost():
    model = ThresholdModel(0.5)
    pair = OppositePair([[0.8]], [[0.9]], 1, 0)  # both above threshold
    with pytest.raises(BoundaryLostError):
        binary_search_pair(pair, model, 5)


def test_mid_perpendicular_two_dimensional_case():
    # pair difference along the first coordinate; the draw (0.5, 2.0) must
    # lose its first component, normalize to (0, 1), and land on the midpoint
    model = ThresholdModel(0.5)
    pair = OppositePair([[1.0, 0.0]], [[0.0, 0.0]], 1, 0)
    rng = FixedDrawRng([np.array([0.5, 2.0])])
    out = mid_perpendicular(pair, model, 0, 1.0, rng)
    assert np.allclose(out, np.array([[0.5, 1.0]]))


def test_mid_perpendicular_orthogonality_and_norm():
    checked = 0
    for seed in range(35):
        rng = np.random.default_rng(seed + 1000)
        model = make_model("mlp", seed=seed, classes=2)
        pair = random_opposite_pair(model, (2, 6), rng, scale=3.0)
        if pair is None:
            continue
        q = 0.5 + 2.0 * rng.random()
        rng_draws = np.random.default_rng(seed)
        out = mid_perpendicular(pair, model, 6, q, rng_draws)
        refined = binary_search_pair(pair, model, 6)
        offset = out - 0.5 * (refined.x_plus + refined.x_minus)
        diff = pair.x_plus - pair.x_minus
        inner = abs(float(offset.ravel() @ diff.ravel()))
        assert inner <= 1e-6 * np.linalg.norm(offset) * np.linalg.norm(diff)
        assert np.linalg.norm(offset) == pytest.approx(q, abs=1e-6)
        checked += 1
    assert checked >= 25


def test_mid_perpendicular_degenerate_direction():
    model = ThresholdModel(0.5)
    pair = OppositePair([[1.0, 0.0]], [[0.0, 0.0]], 1, 0)
    parallel = FixedDrawRng([np.array([3.0, 0.0])] * 20)  # no orthogonal part
    with pytest.raises(DegenerateDirectionError):
        mid_perpendicular(pair, model, 0, 1.0, parallel)


def test_mid_perpendicular_coincident_pair_rejected():
    model = ThresholdModel(0.5)
    pair = OppositePair([[0.7, 0.1]], [[0.7, 0.1]], 1, 0)
    with pytest.raises(DegenerateDirectionError):
        mid_perpendicular(pair, model, 0, 1.0, np.random.default_rng(0))


def test_select_opposite_pair_forced_and_errors():
    # the kernel's pair pick, from classes of one member each, has one outcome
    data = LabeledSet(RNG.standard_normal((2, 1, 3)), np.array([0, 1]))
    assert synthesis._pick(data.class_indices(0), data.class_indices(1), np.random.default_rng(0)) == (0, 1)
    RNG.standard_normal((4, 1, 3))  # keeps the draws of the later tests in this module as they were
    multi = LabeledSet(RNG.standard_normal((3, 1, 3)), np.array([0, 1, 2]))
    assert synthesis._pick(multi.class_indices(0), multi.class_indices(2), np.random.default_rng(0)) == (0, 2)


def test_select_opposite_pair_uniform():
    data = LabeledSet(RNG.standard_normal((20, 1, 2)), np.repeat([0, 1], 10))
    rng = np.random.default_rng(77)
    counts = np.zeros(20)
    draws = 10_000
    for _ in range(draws):
        i, j = synthesis._pick(data.class_indices(0), data.class_indices(1), rng)
        counts[i] += 1
        counts[j] += 1
    freq = counts / draws
    assert np.all(np.abs(freq - 0.1) <= 0.02)


def test_one_vs_one_quotas():
    quotas = one_vs_one_quotas(4, 200)
    assert len(quotas) == 6
    assert list(quotas.values()) == [34, 34, 33, 33, 33, 33]
    assert sum(quotas.values()) == 200
    assert one_vs_one_quotas(2, 10) == {(0, 1): 10}
    with pytest.raises(ValueError):
        one_vs_one_quotas(1, 10)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(2, 8), total=st.integers(1, 2000))
def test_one_vs_one_quotas_split_the_total_evenly_in_pair_order(k, total):
    quotas = one_vs_one_quotas(k, total)
    pairs = list(combinations(range(k), 2))
    base, remainder = divmod(total, len(pairs))
    assert list(quotas) == pairs
    assert sum(quotas.values()) == total
    assert set(quotas.values()) <= {base, base + 1}
    assert [p for p in pairs if quotas[p] == base + 1] == pairs[:remainder]


def test_synthesize_one_vs_one_counts():
    data = gen_blobs(10, 4, 2, 6, separation=6.0, seed=3)
    model = make_model("mlp", classes=4, seed=5)
    cfg = SynthesisConfig(per_iteration=25, bisection_steps=4, offset_norm=2.0)
    out = synthesize_one_vs_one(data, model, 4, cfg, np.random.default_rng(9))
    assert len(out) == 25
    assert all(e.shape == (2, 6) for e in out)


def test_synthesize_one_vs_one_missing_class():
    # a labeled set without class 2 is refused before any forward or rng draw
    data = gen_blobs(10, 3, 2, 6, separation=6.0, seed=4)
    keep = data.labels != 2
    reduced = LabeledSet(data.epochs[keep], data.labels[keep])
    model, rng = ThresholdModel(), np.random.default_rng(10)
    cfg = SynthesisConfig(per_iteration=9, bisection_steps=4, offset_norm=2.0)
    with pytest.raises(ClassBalanceError, match=r"\[2\]"):
        synthesize_one_vs_one(reduced, model, 3, cfg, rng)
    assert model.calls == 0
    assert rng.bit_generator.state == np.random.default_rng(10).bit_generator.state


def test_jacobian_augment_zero_gradient_copies():
    data = gen_blobs(5, 2, 2, 4, seed=7)
    model = make_model("linear", channels=2, samples=4)
    model.set_parameters(np.zeros(model.n_parameters))
    out = jacobian_augment(data, model, 0.5)
    assert len(out) == len(data)
    for src, new in zip(data.epochs, out):
        assert np.array_equal(src, new)


def test_jacobian_augment_analytic_signs():
    w = np.array([[0.5, -1.0], [2.0, -0.25]])
    model = logistic_model(w)
    data = LabeledSet(RNG.standard_normal((6, 2, 2)), RNG.integers(0, 2, 6))
    out = jacobian_augment(data, model, 0.5)
    for x, new in zip(data.epochs, out):
        label = model.predict(x)
        grad = (model.probs(x)[1] - (1.0 if label == 1 else 0.0)) * w
        assert np.array_equal(new, x + 0.5 * np.sign(grad))



@pytest.mark.parametrize("arch, hidden", [("linear", ()), ("mlp", (16,)), ("tcn", (16,))])
def test_jacobian_augment_is_one_signed_step_at_the_predicted_label(arch, hidden):
    data = gen_blobs(20, 3, 2, 6, separation=4.0, seed=11)
    model, counter, x = make_model(arch, classes=3, seed=12, hidden=hidden), QueryCounter(), data.epochs
    expected = x + 0.3 * np.sign(model.input_gradient_batch(x, model.predict_batch(x)))
    out = jacobian_augment(data, model, 0.3, counter)
    assert (out.dtype, out.shape, out.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())
    assert counter.count == len(data)

def test_jacobian_augment_output_size():
    data = gen_blobs(200, 2, 2, 4, separation=5.0, seed=8)
    model = make_model("mlp", channels=2, samples=4, seed=9)
    assert len(jacobian_augment(data, model, 0.5)) == 400


def make_oracle_and_s0(n_s0=12, channels=2, samples=6, classes=2, budget=None):
    target = make_model("mlp", channels=channels, samples=samples, classes=classes, seed=31)
    oracle = TargetOracle(target, budget=budget)
    s0 = gen_blobs(n_s0 // classes, classes, channels, samples, separation=5.0, seed=17).epochs
    return target, oracle, s0


FAST_TRAIN = TrainConfig(max_epochs=3, patience=1, shuffle_seed=2)


def test_active_training_single_step_accounting():
    _, oracle, s0 = make_oracle_and_s0()
    cfg = SynthesisConfig(n_iterations=1, per_iteration=1, bisection_steps=5,
                          offset_norm=2.0, seed=12)
    model, trace = train_substitute_active(
        oracle, s0, ModelSpec("mlp", 2, 6, 2, hidden=(5,), seed=3), FAST_TRAIN, cfg
    )
    assert oracle.query_count == len(s0) + 1
    assert [row.train_set_size for row in trace.rows] == [len(s0), len(s0) + 1]
    assert [row.target_queries for row in trace.rows] == [len(s0), len(s0) + 1]
    assert trace.rows[1].synthesized.shape == (1, 2, 6)


def test_active_training_trace_invariants():
    _, oracle, s0 = make_oracle_and_s0(n_s0=20)
    cfg = SynthesisConfig(n_iterations=3, per_iteration=8, bisection_steps=6,
                          offset_norm=2.0, seed=13)
    _, trace = train_substitute_active(
        oracle, s0, ModelSpec("mlp", 2, 6, 2, hidden=(5,), seed=4), FAST_TRAIN, cfg
    )
    for i, row in enumerate(trace.rows):
        assert row.iteration == i
        assert row.train_set_size == 20 + i * 8
        assert row.target_queries == 20 + i * 8
        # two bisection runs per synthesized epoch
        assert row.substitute_queries == i * 8 * 2 * 6
    assert oracle.query_count == 20 + 3 * 8


def test_active_training_budget_precheck_leaves_counter():
    _, oracle, s0 = make_oracle_and_s0(n_s0=12, budget=15)
    cfg = SynthesisConfig(n_iterations=2, per_iteration=10, bisection_steps=4,
                          offset_norm=2.0)
    with pytest.raises(BudgetExhaustedError):
        train_substitute_active(
            oracle, s0, ModelSpec("mlp", 2, 6, 2, hidden=(5,), seed=5), FAST_TRAIN, cfg
        )
    assert oracle.query_count == 0


def test_jacobian_training_budget_precheck_leaves_counter():
    # |S0| = 5 and two doubling rounds need 5 + 5 * 3 = 20 labels; with 15 the
    # plan is refused before the first query instead of after spending 10
    _, oracle, s0 = make_oracle_and_s0(n_s0=10, budget=15)
    jac = JacobianConfig(step_size=0.5, n_iterations=2)
    with pytest.raises(BudgetExhaustedError):
        train_substitute_jacobian(
            oracle, s0[:5], ModelSpec("mlp", 2, 6, 2, hidden=(5,), seed=5), FAST_TRAIN, jac
        )
    assert oracle.query_count == 0


@pytest.mark.parametrize("trainer, cfg", [(train_substitute_active, SynthesisConfig(n_iterations=2, per_iteration=10)),
                                          (train_substitute_jacobian, JacobianConfig(n_iterations=2))],
                         ids=["active", "jacobian"])
def test_a_malformed_initial_set_raises_before_the_budget_check(trainer, cfg):
    # 12 (2, 6) epochs for a (2, 5) model, and a budget of 3 that no plan fits: the shape is refused first
    _, oracle, s0 = make_oracle_and_s0(n_s0=12, budget=3)
    with pytest.raises(ShapeMismatchError):
        trainer(oracle, s0, ModelSpec("mlp", 2, 5, 2, hidden=(5,), seed=5), FAST_TRAIN, cfg)
    assert oracle.query_count == 0


class ConstantSubstitute(SoftmaxClassifier):
    """Trains like any substitute but labels every epoch as class 0."""

    def predict(self, x):
        return 0

    def predict_batch(self, epochs):
        return np.zeros(len(epochs), dtype=np.int64)


def test_active_training_refuses_an_initial_set_the_target_labels_one_class():
    spec = ModelSpec("mlp", 2, 6, 2, hidden=(5,), seed=3)
    cfg = SynthesisConfig(n_iterations=1, per_iteration=2, bisection_steps=3, offset_norm=2.0, seed=4)
    # the target labels everything class 0, so the labeled set lacks class 1
    constant_target = make_model("linear", channels=2, samples=6)
    constant_target.set_parameters(np.zeros(constant_target.n_parameters))
    constant_target.views["b0"][0] = 1.0
    with pytest.raises(ClassBalanceError, match=r"\[1\]"):
        train_substitute_active(TargetOracle(constant_target), make_oracle_and_s0()[2], spec, FAST_TRAIN, cfg)


def test_binary_synthesis_falls_back_to_gaussian_epochs(monkeypatch):
    spec = ModelSpec("mlp", 2, 6, 2, hidden=(5,), seed=3)
    cfg = SynthesisConfig(n_iterations=1, per_iteration=2, bisection_steps=3, offset_norm=2.0, seed=4)
    s0 = make_oracle_and_s0()[2]
    # both classes are labeled but the substitute puts every pair on one side
    monkeypatch.setattr(synthesis, "SoftmaxClassifier", ConstantSubstitute)
    _, trace = train_substitute_active(make_oracle_and_s0()[1], s0, spec, FAST_TRAIN, cfg)
    assert trace.rows[-1].train_set_size == len(s0) + 2
    assert trace.rows[-1].substitute_queries == 0  # no pair was halved


def reference_round(data, model, n_classes, cfg, rng, counter):
    """One synthesis round composed per epoch from the public one-pair functions."""
    quotas = one_vs_one_quotas(n_classes, cfg.per_iteration)
    out = []
    for class_pair in sorted(quotas):
        for _ in range(quotas[class_pair]):
            for _ in range(synthesis._RESELECT_LIMIT):
                i, j = synthesis._pick(data.class_indices(class_pair[0]), data.class_indices(class_pair[1]), rng)
                pair = OppositePair(data.epochs[i], data.epochs[j], *class_pair)
                try:
                    refined = binary_search_pair(pair, model, cfg.bisection_steps, counter)
                except BoundaryLostError:
                    continue
                out.append(mid_perpendicular(refined, model, cfg.bisection_steps, cfg.offset_norm, rng, counter))
                break
            else:
                out.append(rng.standard_normal(data.shape))
    return np.stack(out)


class ZeroDrawRng:
    """Delegates to a seeded Generator, but its ``nth`` standard_normal call returns zeros."""

    def __init__(self, seed, nth):
        self.gen = np.random.default_rng(seed)
        self.bit_generator = self.gen.bit_generator
        self.nth, self.normal_calls = nth, 0

    def integers(self, *args, **kwargs):
        return self.gen.integers(*args, **kwargs)

    def standard_normal(self, shape=None):
        self.normal_calls += 1
        draw = self.gen.standard_normal(shape)
        return np.zeros_like(draw) if self.normal_calls == self.nth else draw


def trained_substitute(arch, k, seed, cls=SoftmaxClassifier):
    data = gen_blobs(10, k, 2, 6, separation=4.0, seed=seed)
    hidden = {"linear": (), "mlp": (5,), "tcn": (4,)}[arch]
    model = cls(ModelSpec(arch, 2, 6, k, hidden=hidden, seed=seed, kernel_width=3))
    model.fit(data, TrainConfig(max_epochs=20, patience=20, shuffle_seed=seed))
    return data, model


def assert_round_matches_reference(data, model, k, cfg, make_rng):
    rng, ref_rng = make_rng(), make_rng()
    counter, ref_counter = QueryCounter(), QueryCounter()
    out = synthesize_one_vs_one(data, model, k, cfg, rng, counter)
    ref = reference_round(data, model, k, cfg, ref_rng, ref_counter)
    assert np.array_equal(out, ref)
    assert counter.count == ref_counter.count
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return rng, ref_rng, counter


@pytest.mark.golden
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("arch", ["linear", "mlp", "tcn"])
def test_round_kernel_matches_per_epoch_reference(monkeypatch, arch, k):
    monkeypatch.setattr(synthesis, "_RESELECT_LIMIT", 2)  # so that planned and fallback epochs mix in a round
    data, model = trained_substitute(arch, k, seed=k)
    cfg = SynthesisConfig(per_iteration=23, bisection_steps=5, offset_norm=1.5)
    _, _, counter = assert_round_matches_reference(data, model, k, cfg, lambda: np.random.default_rng(k + 50))
    assert counter.count > 0


def test_round_kernel_redraws_a_degenerate_offset_mid_round():
    data, model = trained_substitute("mlp", 2, seed=1)
    cfg = SynthesisConfig(per_iteration=12, bisection_steps=4, offset_norm=1.5)
    rng, ref_rng, counter = assert_round_matches_reference(data, model, 2, cfg, lambda: ZeroDrawRng(7, nth=7))
    assert counter.count == 2 * 4 * 12  # every epoch planned, so the 7th draw was an offset
    assert ref_rng.normal_calls == 12 + 1  # one redraw
    assert rng.normal_calls == 12 + 7 + 1 + (12 - 7)  # the plan replayed up to the 7th draw, the rest planned again


def test_round_kernel_fallback_heavy():
    data, _ = trained_substitute("mlp", 3, seed=2)
    constant = ConstantSubstitute(ModelSpec("mlp", 2, 6, 3, hidden=(5,), seed=2))
    cfg = SynthesisConfig(per_iteration=10, bisection_steps=4, offset_norm=1.5)
    _, _, counter = assert_round_matches_reference(data, constant, 3, cfg, lambda: np.random.default_rng(3))
    assert counter.count == 0


@cache
def fitted_substitute(arch, k):
    return trained_substitute(arch, k, seed=k)


def halved_pairs(arch, k, m, steps, spread, seed):
    """m pairs as the round kernel plans them, endpoints the substitute splits, halved ``steps`` times.

    The endpoints are the substitute's training epochs moved by ``spread``
    Gaussian noise, so pairs also start off the data.  Returns the model,
    the endpoints and their labels before halving, and what ``_halve``
    returns.
    """
    data, model = fitted_substitute(arch, k)
    rng = np.random.default_rng(seed)
    points = data.epochs + spread * rng.standard_normal(data.epochs.shape)
    labels = model.predict_batch(points)
    assume(len(np.unique(labels)) > 1)
    i = rng.integers(len(points), size=m)
    j = np.array([rng.choice(np.flatnonzero(labels != labels[a])) for a in i])
    before = (points[i], points[j], labels[i], labels[j])
    return model, before, synthesis._halve(*before, model, steps)


PAIRS = dict(arch=st.sampled_from(["linear", "mlp", "tcn"]), k=st.sampled_from([2, 3]), m=st.integers(1, 8),
             steps=st.integers(1, 16), spread=st.sampled_from([0.0, 1.0, 8.0]), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(**PAIRS)
def test_halving_contracts_every_pair_and_keeps_its_bracket(arch, k, m, steps, spread, seed):
    model, (x_plus0, x_minus0, y_plus, _), (x_plus, x_minus, y_minus) = halved_pairs(arch, k, m, steps, spread, seed)
    before = np.linalg.norm((x_plus0 - x_minus0).reshape(m, -1), axis=1)
    after = np.linalg.norm((x_plus - x_minus).reshape(m, -1), axis=1)
    np.testing.assert_allclose(after / before, 2.0**-steps, rtol=1e-6)  # c03's tolerance
    assert np.array_equal(model.predict_batch(x_plus), y_plus)
    assert np.array_equal(model.predict_batch(x_minus), y_minus)  # a third class may take the minus end
    assert np.all(y_minus != y_plus)


@settings(max_examples=150, deadline=None)
@given(**PAIRS, q=st.floats(0.1, 10.0), along=st.floats(-10.0, 10.0), across=st.sampled_from([0.0, 1e-12, 1.0]))
def test_offset_is_orthogonal_at_norm_q_or_none_below_the_floor(arch, k, m, steps, spread, seed, q, along, across):
    # a draw of ``along`` units along the pair difference plus ``across`` times Gaussian noise
    _, _, (x_plus, x_minus, _) = halved_pairs(arch, k, m, steps, spread, seed)
    noise = np.random.default_rng(seed + 1).standard_normal(x_plus.shape)
    diffs = (x_plus - x_minus).reshape(m, -1)
    draws = np.stack([along * (diff / np.linalg.norm(diff)).reshape(x_plus.shape[1:]) for diff in diffs])
    draws += across * noise
    batched, kept = synthesis._offsets(diffs, draws.reshape(m, -1), q)  # the round kernel's one batched step
    for row, (diff, draw) in enumerate(zip(diffs, draws)):
        offset = synthesis._offset(diff, draw, q)
        assert kept[row] == (offset is not None)
        if offset is not None:
            assert np.array_equal(batched[row], offset.ravel())
        if across < 1.0:  # the orthogonal part is at most 1e-12 times a noise vector, or rounding
            assert offset is None
            continue
        assert offset.shape == draw.shape
        assert abs(float(offset.ravel() @ diff)) <= 1e-6 * np.linalg.norm(offset) * np.linalg.norm(diff)
        assert abs(np.linalg.norm(offset) - q) <= 1e-6  # c04's tolerances


class CountingClassifier(SoftmaxClassifier):
    """Counts single-epoch and batched forwards."""

    predict_calls = batch_calls = 0

    def predict(self, x):
        self.predict_calls += 1
        return super().predict(x)

    def predict_batch(self, epochs):
        self.batch_calls += 1
        return super().predict_batch(epochs)


@pytest.mark.parametrize("k", [2, 3])
def test_round_runs_batched_forwards_only(k):
    data, model = trained_substitute("mlp", k, seed=4, cls=CountingClassifier)
    model.predict_calls = model.batch_calls = 0
    cfg = SynthesisConfig(per_iteration=40, bisection_steps=6, offset_norm=1.5)
    counter = QueryCounter()
    synthesize_one_vs_one(data, model, k, cfg, np.random.default_rng(5), counter)
    assert model.predict_calls == 0
    assert model.batch_calls <= 2 * 6 + 1
    assert counter.count == 2 * 6 * 40  # no epoch fell back to a random draw


def test_active_training_improves_boundary_agreement():
    # paired over 10 seeds on a modest 2-class task
    train_cfg = TrainConfig(max_epochs=60, patience=8, batch_size=16)
    gains = []
    for seed in range(10):
        target = make_model("mlp", channels=2, samples=8, seed=seed + 100, hidden=(8,))
        data = gen_blobs(60, 2, 2, 8, separation=5.0, seed=seed)
        target.fit(data, train_cfg)
        probe = gen_blobs(100, 2, 2, 8, separation=5.0, seed=seed + 500).epochs
        probe_labels = target.predict_batch(probe)
        s0 = gen_blobs(10, 2, 2, 8, separation=5.0, seed=seed + 900).epochs

        spec = ModelSpec("mlp", 2, 8, 2, hidden=(8,), seed=seed + 7)
        pre = SoftmaxClassifier(spec)
        pre.fit(LabeledSet(s0, TargetOracle(target).query_labels(s0)), train_cfg)
        before = boundary_agreement(pre, probe_labels, probe)

        cfg = SynthesisConfig(n_iterations=1, per_iteration=30, bisection_steps=8,
                              offset_norm=4.0, seed=seed)
        trained, _ = train_substitute_active(TargetOracle(target), s0, spec, train_cfg, cfg)
        after = boundary_agreement(trained, probe_labels, probe)
        gains.append(after - before)
    assert np.mean(gains) >= 0.0


def test_active_training_multiclass_uses_one_vs_one():
    target = make_model("mlp", channels=2, samples=6, classes=3, seed=41)
    target.fit(gen_blobs(20, 3, 2, 6, separation=6.0, seed=18, structure_seed=19), TrainConfig(max_epochs=50))
    # S0 holds every class the target labels, as the pipeline's balancing gives it
    pool = gen_blobs(30, 3, 2, 6, separation=6.0, seed=19).epochs
    s0 = balance_by_predicted_label(TargetOracle(target), pool, per_class=8, seed=20)
    oracle = TargetOracle(target)
    cfg = SynthesisConfig(n_iterations=2, per_iteration=10, bisection_steps=4,
                          offset_norm=2.0, seed=23)
    _, trace = train_substitute_active(
        oracle, s0, ModelSpec("mlp", 2, 6, 3, hidden=(5,), seed=6), FAST_TRAIN, cfg
    )
    assert oracle.query_count == 24 + 20
    assert trace.rows[-1].train_set_size == 44


def test_jacobian_training_exponential_growth():
    _, oracle, s0 = make_oracle_and_s0(n_s0=8)
    jac = JacobianConfig(step_size=0.5, n_iterations=3)
    _, trace = train_substitute_jacobian(
        oracle, s0, ModelSpec("mlp", 2, 6, 2, hidden=(5,), seed=7), FAST_TRAIN, jac
    )
    # new queries after N rounds: 8 * (2**N - 1)
    assert [row.target_queries for row in trace.rows] == [8, 16, 32, 64]
    assert oracle.query_count - 8 == 8 * (2**3 - 1)


def test_active_training_zero_rounds_is_round_zero():
    # n_iterations=0 stops after round 0: S0 labeled, a fresh substitute
    # trained on it, exactly what row 0 of a longer run keeps
    _, oracle, s0 = make_oracle_and_s0(n_s0=20)
    spec = ModelSpec("mlp", 2, 6, 2, hidden=(5,), seed=4)
    cfg = SynthesisConfig(n_iterations=0, per_iteration=8, bisection_steps=4, offset_norm=2.0)
    model, trace = train_substitute_active(oracle, s0, spec, FAST_TRAIN, cfg)
    assert oracle.query_count == 20
    [row] = trace.rows
    assert (row.iteration, row.target_queries, row.substitute_queries, row.train_set_size) == (0, 20, 0, 20)
    assert row.synthesized is None
    _, oracle, s0 = make_oracle_and_s0(n_s0=20)
    _, longer = train_substitute_active(oracle, s0, spec, FAST_TRAIN, replace(cfg, n_iterations=2))
    assert len(longer.rows) == 3
    assert np.array_equal(longer.rows[0].substitute.parameters, model.parameters)


@pytest.mark.parametrize("trainer", ["active", "jacobian"])
@pytest.mark.parametrize("arch, hidden", [("mlp", (5,)), ("tcn", (3,))])
def test_every_trace_row_is_the_run_that_stops_there(trainer, arch, hidden):
    spec = ModelSpec(arch, 2, 6, 2, hidden=hidden, kernel_width=3, seed=4)

    def run(rounds):
        target, oracle, s0 = make_oracle_and_s0(n_s0=8)
        if trainer == "active":
            cfg = SynthesisConfig(n_iterations=rounds, per_iteration=4, bisection_steps=3, offset_norm=2.0, seed=5)
            return target, s0, *train_substitute_active(oracle, s0, spec, FAST_TRAIN, cfg)
        return target, s0, *train_substitute_jacobian(oracle, s0, spec, FAST_TRAIN, JacobianConfig(0.5, rounds))

    target, s0, model, trace = run(2)
    assert [row.iteration for row in trace.rows] == [0, 1, 2]
    assert trace.rows[-1].substitute is not model
    model.fit(LabeledSet(s0, target.predict_batch(s0)), FAST_TRAIN)  # the live model trains on: no row moves
    for i, row in enumerate(trace.rows):
        _, _, alone, _ = run(i)
        assert row.substitute.parameters.tobytes() == alone.parameters.tobytes()
        assert row.substitute._adam_t == alone._adam_t
        assert np.array_equal(row.labels, target.predict_batch(s0 if i == 0 else row.synthesized))


def test_synthesis_config_validation():
    SynthesisConfig(n_iterations=0)  # pretrain only
    JacobianConfig(n_iterations=0)
    with pytest.raises(ValueError):
        SynthesisConfig(n_iterations=-1)
    with pytest.raises(ValueError):
        JacobianConfig(n_iterations=-1)
    with pytest.raises(ValueError):
        SynthesisConfig(offset_norm=0.0)
    with pytest.raises(ValueError):
        JacobianConfig(step_size=0.0)
