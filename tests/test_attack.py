import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsattack.attack import (
    AttackConfig,
    craft_batch,
    fgsm,
    random_noise,
    save_adversarial_batch,
    ufgsm,
)
from qsattack.data import gen_blobs, read_epochs
from qsattack.metrics import rca
from qsattack.models import TrainConfig
from testutil import logistic_model, make_model

RNG = np.random.default_rng(55)


@pytest.mark.parametrize("method", ["fgsm", "ufgsm", "noise"])
def test_crafted_arrays_are_read_only_and_the_inputs_stay_the_callers(method):
    model, xs, labels = make_model("mlp", classes=3), RNG.standard_normal((3, 2, 6)), np.array([0, 2, 1])
    examples = craft_batch(model, xs, AttackConfig(0.1, method), true_labels=labels)
    for arr in (examples.original, examples.delta, examples.label_used, examples[0].original, examples[0].delta):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    xs[...], labels[...] = 0.0, 1  # crafting copied them: the caller's arrays stay writable
    assert np.isfinite(examples.original).all() and examples.original.any()


@settings(max_examples=150, deadline=None)
@given(arch=st.sampled_from(["linear", "mlp", "tcn"]), method=st.sampled_from(["fgsm", "ufgsm", "noise"]),
       n=st.integers(0, 8), epsilon=st.floats(0.0, 10.0), seed=st.integers(0, 2**32 - 1))
def test_crafted_deltas_are_quantized_steps(arch, method, n, epsilon, seed):
    rng = np.random.default_rng(seed)
    model = make_model(arch, classes=3, seed=seed % 997)
    xs = 5.0 * rng.standard_normal((n, 2, 6))
    cfg = AttackConfig(epsilon, method, noise_seed=seed)
    batch = craft_batch(model, xs, cfg, true_labels=rng.integers(0, 3, n))
    assert batch.delta.shape == xs.shape
    assert np.all(np.isin(batch.delta, [-epsilon, 0.0, epsilon]))
    assert np.array_equal(batch.perturbed, xs + batch.delta)


def test_zero_epsilon_is_identity():
    model = make_model("mlp", seed=1)
    x = RNG.standard_normal((2, 6))
    for example in (
        fgsm(model, x, 1, 0.0),
        ufgsm(model, x, 0.0),
        random_noise(x, 0.0, np.random.default_rng(0)),
    ):
        assert np.array_equal(example.perturbed, x)
        assert np.all(example.delta == 0.0)


def test_all_positive_gradient_steps_everywhere():
    w = -np.ones((2, 3))  # gradient for label 1 is (p1 - 1) * w > 0 everywhere
    model = logistic_model(w)
    x = RNG.standard_normal((2, 3))
    example = fgsm(model, x, 1, 0.25)
    assert np.array_equal(example.delta, 0.25 * np.ones((2, 3)))


def test_fgsm_logistic_componentwise_signs():
    w = np.array([[0.5, -2.0, 0.0], [1.5, -0.1, 0.7]])
    model = logistic_model(w)
    x = RNG.standard_normal((2, 3))
    for label, indicator in ((0, 0.0), (1, 1.0)):
        example = fgsm(model, x, label, 0.1)
        expected = 0.1 * np.sign((model.probs(x)[1] - indicator) * w)
        assert np.array_equal(example.delta, expected)


def test_ufgsm_equals_fgsm_on_agreement():
    model = make_model("mlp", seed=3)
    x = RNG.standard_normal((2, 6))
    label = model.predict(x)
    a = ufgsm(model, x, 0.15)
    b = fgsm(model, x, label, 0.15)
    assert np.array_equal(a.perturbed, b.perturbed)
    assert a.label_used == b.label_used == label


def test_noise_components_and_sign_frequency():
    rng = np.random.default_rng(11)
    x = np.zeros((100, 100))
    example = random_noise(x, 0.3, rng)
    values, counts = np.unique(example.delta, return_counts=True)
    assert set(values) <= {-0.3, 0.3}
    plus_freq = counts[values == 0.3][0] / example.delta.size
    assert abs(plus_freq - 0.5) <= 0.02


def test_max_norm_and_quantized_steps():
    rng = np.random.default_rng(21)
    for seed in range(10):
        model = make_model("mlp", seed=seed)
        x = rng.standard_normal((2, 6)) * 3.0
        eps = float(rng.random())
        for example in (fgsm(model, x, 0, eps), ufgsm(model, x, eps),
                        random_noise(x, eps, rng)):
            assert np.max(np.abs(example.perturbed - example.original)) <= eps + 1e-9
            assert np.all(np.isin(example.delta, [-eps, 0.0, eps]))


def test_invalid_inputs_rejected():
    model = make_model("mlp")
    x = RNG.standard_normal((2, 6))
    with pytest.raises(ValueError):
        fgsm(model, x, 5, 0.1)
    with pytest.raises(ValueError):
        fgsm(model, x, 0, -0.1)
    with pytest.raises(ValueError):
        AttackConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        AttackConfig(method="pgd")
    with pytest.raises(ValueError, match=r"^noise_seed must be >= 0, got -2$"):  # numpy takes no negative seed
        AttackConfig(noise_seed=-2)
    with pytest.raises(ValueError, match=r"^epsilon must be a finite number, got nan$"):
        AttackConfig(epsilon=float("nan"))
    with pytest.raises(ValueError):
        craft_batch(model, x[None], AttackConfig(method="fgsm"))  # needs labels


@pytest.mark.parametrize("method", ["fgsm", "ufgsm"])
def test_gradient_methods_refuse_a_missing_model(method):
    with pytest.raises(ValueError, match=f"^{method} needs a model"):
        craft_batch(None, RNG.standard_normal((2, 2, 6)), AttackConfig(0.1, method), true_labels=[0, 1])


def test_craft_batch_matches_single_calls():
    model = make_model("mlp", seed=9)
    xs = RNG.standard_normal((6, 2, 6))
    examples = craft_batch(model, xs, AttackConfig(epsilon=0.2, method="ufgsm"))
    assert len(examples) == 6
    for i, example in enumerate(examples):
        assert example.label_used == model.predict(xs[i])
        assert np.all(np.isin(example.delta, [-0.2, 0.0, 0.2]))


def test_noise_crafting_is_seeded():
    xs = RNG.standard_normal((4, 2, 6))
    cfg = AttackConfig(epsilon=0.1, method="noise", noise_seed=77)
    a = craft_batch(None, xs, cfg).perturbed
    b = craft_batch(None, xs, cfg).perturbed
    assert np.array_equal(a, b)


def test_noise_batch_consumes_the_stream_like_per_epoch_draws():
    # one (n, C, T) draw must equal n per-epoch (C, T) draws, so a caller-supplied
    # rng shared with other code stays in step after random_noise
    xs = RNG.standard_normal((5, 2, 6))
    batch = craft_batch(None, xs, AttackConfig(epsilon=0.3, method="noise", noise_seed=8))
    reference = np.random.default_rng(8)
    expected = np.stack([0.3 * np.sign(reference.standard_normal((2, 6))) for _ in xs])
    assert np.array_equal(batch.delta, expected)
    assert np.array_equal(batch.label_used, [-1] * 5) and batch[0].label_used is None
    shared = np.random.default_rng(8)
    singles = [random_noise(x, 0.3, shared).delta for x in xs]
    assert np.array_equal(np.stack(singles), expected)
    assert shared.standard_normal() == reference.standard_normal()


def test_save_adversarial_batch(tmp_path):
    model = make_model("mlp", seed=2)
    xs = RNG.standard_normal((5, 2, 6))
    examples = craft_batch(model, xs, AttackConfig(epsilon=0.1, method="ufgsm"))
    save_adversarial_batch(tmp_path / "adv", examples)
    originals = read_epochs(tmp_path / "adv" / "originals.epo")
    perturbed = read_epochs(tmp_path / "adv" / "perturbed.epo")
    assert len(originals) == len(perturbed) == 5
    manifest = json.loads((tmp_path / "adv" / "manifest.json").read_text())
    assert manifest["gradient_source"] == "substitute"
    assert manifest["method"] == "ufgsm"
    assert manifest["count"] == 5
    noise = AttackConfig(epsilon=0.1, method="noise")
    save_adversarial_batch(tmp_path / "noise", craft_batch(None, xs, noise))
    assert json.loads((tmp_path / "noise" / "manifest.json").read_text())["gradient_source"] == "noise-generator"


@pytest.mark.parametrize("method", ["fgsm", "ufgsm", "noise"])
def test_a_batch_carries_the_config_that_crafted_it(method):
    model, xs, cfg = make_model("mlp", seed=4), RNG.standard_normal((3, 2, 6)), AttackConfig(0.2, method, 5)
    batch = craft_batch(model, xs, cfg, true_labels=[0, 1, 1])
    assert batch.config is cfg and all(batch[i].config is cfg for i in range(len(batch)))


def test_saved_manifest_reads_the_batch_config(tmp_path):
    # fgsm is a batch the pipeline never writes: its manifest can only come from the batch itself
    cfg = AttackConfig(epsilon=0.25, method="fgsm", noise_seed=7)
    batch = craft_batch(make_model("mlp", seed=4), RNG.standard_normal((3, 2, 6)), cfg, true_labels=[1, 0, 1])
    save_adversarial_batch(tmp_path / "adv", batch)
    manifest = json.loads((tmp_path / "adv" / "manifest.json").read_text())
    assert (manifest["method"], manifest["epsilon"], manifest["noise_seed"]) == ("fgsm", 0.25, 7)
    assert (manifest["count"], manifest["gradient_source"]) == (3, "substitute")


def test_a_numpy_config_is_saved_as_python_numbers(tmp_path):
    cfg = AttackConfig(np.float64(0.25), "noise", np.int64(3))
    assert (type(cfg.epsilon), type(cfg.noise_seed)) == (float, int) and cfg == AttackConfig(0.25, "noise", 3)
    save_adversarial_batch(tmp_path / "adv", craft_batch(None, RNG.standard_normal((3, 2, 6)), cfg))
    manifest = json.loads((tmp_path / "adv" / "manifest.json").read_text())
    assert (manifest["method"], manifest["epsilon"], manifest["noise_seed"]) == ("noise", 0.25, 3)


def test_ufgsm_beats_noise_on_simple_task():
    # compact paired check; the acceptance suite runs the full-size version
    train_cfg = TrainConfig(max_epochs=80, patience=8, batch_size=16)
    ufgsm_acc, noise_acc = [], []
    for seed in range(3):
        data = gen_blobs(80, 2, 2, 8, separation=6.0, seed=seed)
        test = gen_blobs(50, 2, 2, 8, separation=6.0, seed=seed + 50,
                         structure_seed=seed)
        target = make_model("mlp", channels=2, samples=8, seed=seed, hidden=(8,))
        target.fit(data, train_cfg)
        eps = 0.8
        adv = craft_batch(target, test.epochs, AttackConfig(eps, "ufgsm")).perturbed
        noisy = craft_batch(None, test.epochs, AttackConfig(eps, "noise", noise_seed=seed)).perturbed
        ufgsm_acc.append(rca(target.predict_batch(adv), test.labels))
        noise_acc.append(rca(target.predict_batch(noisy), test.labels))
    assert np.mean(ufgsm_acc) < np.mean(noise_acc)
