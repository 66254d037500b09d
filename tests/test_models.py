import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsattack import models
from qsattack.data import LabeledSet, gen_blobs
from qsattack.errors import MalformedCheckpointError, ShapeMismatchError
from qsattack.models import (
    ModelSpec,
    SoftmaxClassifier,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
)
from testutil import fd_input_gradient, logistic_model, make_model, mutations, rel_err

DATA = Path(__file__).parent / "data"

RNG = np.random.default_rng(1234)


@pytest.mark.parametrize("architecture, hidden", [("linear", ()), ("mlp", (16,)), ("mlp", (16, 8)), ("tcn", (4,))],
                         ids=["linear", "mlp16", "mlp16x8", "tcn"])
def test_a_spec_counts_its_parameters_once(architecture, hidden):
    spec = ModelSpec(architecture, 3, 12, 3, hidden=hidden, kernel_width=5, seed=1)
    assert spec.n_params == SoftmaxClassifier(spec).n_parameters
    # an attribute, not a field: checkpoint keys, equality and repr stay as they were
    assert "n_params" not in {f.name for f in dataclasses.fields(ModelSpec)} and "n_params" not in repr(spec)
    assert spec == dataclasses.replace(spec) and spec.n_params == dataclasses.replace(spec).n_params


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("resnet", 2, 4, 2)
    with pytest.raises(ValueError):
        ModelSpec("linear", 2, 4, 1)
    with pytest.raises(ValueError):
        ModelSpec("linear", 0, 4, 2)
    with pytest.raises(ValueError):
        ModelSpec("linear", 2, 4, 2, hidden=(8,))
    with pytest.raises(ValueError):
        ModelSpec("mlp", 2, 4, 2, hidden=())
    with pytest.raises(ValueError):
        ModelSpec("mlp", 2, 4, 2, hidden=(4, 4, 4))
    with pytest.raises(ValueError):
        ModelSpec("mlp", 2, 4, 2, hidden=(4, 0))
    with pytest.raises(ValueError):
        ModelSpec("tcn", 2, 4, 2, hidden=(3,), kernel_width=5)
    with pytest.raises(ValueError):
        ModelSpec("linear", 2, 4, 2, activation="gelu")



def test_parameter_count_is_exact_past_int64(monkeypatch):
    # np.prod wraps a (2, 2**62) weight to -2**63 and a (4, 2**62) one to 0; the spec's count must not,
    # and a model past 2**31 parameters is refused before anything is allocated
    monkeypatch.setattr(models.np, "zeros", lambda *args: pytest.fail("allocated"))
    for classes in (2, 4):
        with pytest.raises(ValueError, match=f"hidden \\[\\] gives {classes * 2**62 + classes} parameters"):
            ModelSpec("linear", 2**31, 2**31, classes)
    with pytest.raises(ValueError, match=r"hidden \[1048576\] gives 4298113026 parameters, more than 2147483648"):
        ModelSpec("mlp", 64, 64, 2, hidden=(1048576,))
    assert ModelSpec("linear", 1, 2**30 - 1, 2).samples == 2**30 - 1  # 2**31 parameters exactly: accepted
    with pytest.raises(ValueError, match=f"gives {2**31 + 2} parameters"):
        ModelSpec("linear", 1, 2**30, 2)

def test_zero_weights_give_uniform_probs():
    for classes in (2, 3, 5):
        model = make_model("linear", classes=classes)
        model.set_parameters(np.zeros(model.n_parameters))
        probs = model.probs(RNG.standard_normal((2, 6)))
        assert np.allclose(probs, 1.0 / classes)


def test_logistic_closed_form_probability():
    w = np.array([[0.7, -1.2, 0.3], [0.0, 2.0, -0.5]])
    model = logistic_model(w)
    x = np.array([[1.0, 0.5, -2.0], [0.25, -1.0, 3.0]])
    z = float(np.sum(w * x))
    expected = 1.0 / (1.0 + math.exp(-z))
    assert model.probs(x)[1] == pytest.approx(expected, abs=1e-12)


def test_probs_sum_to_one_every_architecture():
    for arch in ("linear", "mlp", "tcn"):
        for seed in range(5):
            model = make_model(arch, classes=3, seed=seed)
            for _ in range(10):
                p = model.probs(RNG.standard_normal((2, 6)) * 10.0)
                assert abs(p.sum() - 1.0) < 1e-6
                assert np.all(p >= 0.0)


@pytest.mark.parametrize("k", range(2, 13))
def test_softmax_and_logsumexp_equal_the_reduce_formulas_bit_for_bit(k):
    rng = np.random.default_rng(k)
    z = np.concatenate([
        rng.uniform(-700.0, 700.0, (50, k)),
        rng.standard_normal((50, k)) * 10.0 ** rng.uniform(-3.0, 2.0, (50, 1)),
        rng.integers(-2, 3, (50, k)).astype(float),  # tied maxima
        np.where(rng.random((20, k)) < 0.5, -0.0, 0.0),  # ties of signed zeros
        np.full((1, k), -700.0), np.zeros((1, k)), np.full((1, k), 700.0),  # all-equal logits
    ])
    m = np.maximum.reduce(z, axis=1, keepdims=True)
    e = np.exp(z - m)
    z_bytes = z.tobytes()
    assert models._softmax(z).tobytes() == (e / np.add.reduce(e, axis=1, keepdims=True)).tobytes()
    assert models._logsumexp(z).tobytes() == (m[:, 0] + np.log(np.add.reduce(e, axis=1))).tobytes()
    assert z.tobytes() == z_bytes  # both kernels work in place on their own z - max temporary
    # the validation mean is ndarray.mean's sum and division, at every batch size a fit can hold out
    model = make_model("mlp", classes=k, seed=k)
    X, y = 3.0 * rng.standard_normal((300, 2, 6)), rng.integers(0, k, 300)
    for n in range(1, 301):
        logits, _ = model._forward(X[:n])
        mean = float((models._logsumexp(logits) - logits[np.arange(n), y[:n]]).mean())
        assert model._mean_loss(X[:n], y[:n]).hex() == mean.hex()


def test_predict_tie_breaks_to_lowest_index():
    model = make_model("linear", classes=4)
    model.set_parameters(np.zeros(model.n_parameters))
    assert model.predict(RNG.standard_normal((2, 6))) == 0


def test_predict_matches_constructed_probabilities():
    model = make_model("linear")
    model.set_parameters(np.zeros(model.n_parameters))
    model.views["b0"][:] = np.log([0.2, 0.8])
    x = RNG.standard_normal((2, 6))
    assert np.allclose(model.probs(x), [0.2, 0.8])
    assert model.predict(x) == 1


def test_predict_agrees_with_argmax_of_forward():
    for arch in ("linear", "mlp", "tcn"):
        model = make_model(arch, classes=3, seed=7)
        xs = RNG.standard_normal((1000, 2, 6))
        batch = model.predict_batch(xs)
        for i in range(0, 1000, 97):
            assert batch[i] == int(np.argmax(model.probs(xs[i])))
        assert np.array_equal(batch, np.argmax(model.probs_batch(xs), axis=1))


def test_forward_rejects_bad_shape():
    model = make_model("mlp")
    with pytest.raises(ShapeMismatchError):
        model.probs(np.zeros((3, 6)))
    with pytest.raises(ShapeMismatchError):
        model.predict_batch(np.zeros((4, 2, 7)))


def test_input_gradient_zero_model_is_flat():
    model = make_model("linear", classes=3)
    model.set_parameters(np.zeros(model.n_parameters))
    g = model.input_gradient(RNG.standard_normal((2, 6)), 1)
    assert np.all(g == 0.0)


def test_input_gradient_logistic_analytic():
    w = np.array([[0.5, -1.0, 2.0], [0.1, 0.0, -0.7]])
    model = logistic_model(w)
    x = RNG.standard_normal((2, 3))
    p1 = model.probs(x)[1]
    for label, indicator in ((1, 1.0), (0, 0.0)):
        expected = (p1 - indicator) * w
        assert np.allclose(model.input_gradient(x, label), expected, atol=1e-12)


def test_input_gradient_matches_finite_differences():
    for arch, seed in (("mlp", 3), ("tcn", 4), ("linear", 5)):
        model = make_model(arch, classes=3, seed=seed)
        x = np.random.default_rng(seed).standard_normal((2, 6))
        analytic = model.input_gradient(x, 2)
        numeric = fd_input_gradient(model, x, 2)
        assert rel_err(analytic, numeric) < 1e-4


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("arch, hidden, width", [
    ("linear", (), 3), ("mlp", (5,), 3), ("mlp", (5, 4), 3),
    ("tcn", (3,), 1), ("tcn", (3,), 3), ("tcn", (3,), 6),  # width 6 == samples: one window
])
def test_param_gradient_matches_finite_differences(arch, hidden, width, activation, step=1e-6):
    model = make_model(arch, classes=3, seed=width, hidden=hidden, activation=activation, kernel_width=width)
    rng = np.random.default_rng(21)
    X, y = rng.standard_normal((5, 2, 6)), rng.integers(0, 3, 5)
    analytic = model._loss_and_param_grad(X, np.eye(3)[y])
    theta, numeric = model.parameters, np.zeros(model.n_parameters)
    for i in range(theta.size):
        for sign in (1.0, -1.0):
            shifted = theta.copy()
            shifted[i] += sign * step
            model.set_parameters(shifted)
            numeric[i] += sign * model.dataset_loss(X, y) / (2.0 * step)
    assert rel_err(analytic, numeric) < 1e-7


def _per_tap_filter_bank(X, conv_w, conv_b, activation):
    """Reference tcn features: one shifted multiply-add per filter tap, (n, F, C, windows)."""
    n_filters, width = conv_w.shape
    windows = X.shape[2] - width + 1
    conv = np.zeros((X.shape[0], n_filters, X.shape[1], windows))
    for tap in range(width):
        conv += conv_w[None, :, tap, None, None] * X[:, None, :, tap : tap + windows]
    feat = conv + conv_b[None, :, None, None]
    act = np.maximum(feat, 0.0) if activation == "relu" else np.tanh(feat)
    return conv, act


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), channels=st.integers(1, 4), samples=st.integers(1, 20),
       n_filters=st.integers(1, 6), activation=st.sampled_from(["relu", "tanh"]),
       data=st.data())
def test_filter_bank_matches_per_tap_loop_and_its_adjoint(n, channels, samples, n_filters, activation, data):
    width = data.draw(st.integers(1, samples), label="kernel_width")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    spec = ModelSpec("tcn", channels, samples, 3, hidden=(n_filters,), activation=activation,
                     kernel_width=width, seed=seed)
    model = SoftmaxClassifier(spec)
    rng = np.random.default_rng(seed)
    X, y = rng.standard_normal((n, channels, samples)), rng.integers(0, 3, n)
    conv_w, conv_b, W0 = model.views["conv_w"], model.views["conv_b"], model.views["W0"]
    conv, act = _per_tap_filter_bank(X, conv_w, conv_b, activation)
    _, cache = model._forward(X)
    assert np.max(np.abs(cache["acts"][0] - act.mean(axis=3).reshape(n, -1))) <= 1e-12
    # the input gradient is conv^T(G) for G = act' * (pooled-feature gradient spread over the windows)
    dlogits = model.probs_batch(X)
    dlogits[np.arange(n), y] -= 1.0
    dpooled = (dlogits @ W0).reshape(n, n_filters, channels, 1) / conv.shape[3]
    G = ((act > 0) if activation == "relu" else 1.0 - act * act) * dpooled
    dX = model.input_gradient_batch(X, y)
    scale = np.sum(np.abs(conv * G)) + np.sum(np.abs(X * dX))
    assert abs(np.sum(conv * G) - np.sum(X * dX)) <= 1e-12 * scale
    # the mean loss's filter gradients: dconv_w[f, tap] = sum G * X shifted by tap, dconv_b[f] = sum G
    grads = model._loss_and_param_grad(X, np.eye(3)[y])
    n_w = n_filters * width  # conv_w then conv_b lead the flat vector
    dconv_w, dconv_b = grads[:n_w].reshape(n_filters, width), grads[n_w : n_w + n_filters]
    windows = conv.shape[3]
    terms = np.stack([G * X[:, None, :, tap : tap + windows] for tap in range(width)], axis=-1) / n
    assert np.all(np.abs(dconv_w - terms.sum(axis=(0, 2, 3))) <= 1e-12 * np.abs(terms).sum(axis=(0, 2, 3)))
    assert np.all(np.abs(dconv_b - G.sum(axis=(0, 2, 3)) / n) <= 1e-12 * np.abs(G).sum(axis=(0, 2, 3)) / n)


@pytest.mark.parametrize("arch", ["linear", "mlp", "tcn"])
def test_input_gradient_batch_matches_single(arch):
    model = make_model(arch, classes=3, seed=11)
    xs = RNG.standard_normal((5, 2, 6))
    labels = [0, 1, 2, 1, 1]
    batch, probs = model.input_gradient_batch(xs, labels), model.probs_batch(xs)
    for i in range(5):
        assert np.allclose(batch[i], model.input_gradient(xs[i], labels[i]), atol=1e-12)
        assert np.allclose(probs[i], model.probs(xs[i]), atol=1e-12)


@pytest.mark.parametrize("arch", ["linear", "mlp", "tcn"])
def test_empty_batch_gives_empty_gradients_and_refuses_a_mean_loss(arch):
    model = make_model(arch, classes=3)
    empty = np.zeros((0, 2, 6))
    assert model.input_gradient_batch(empty, []).shape == (0, 2, 6)
    assert model.probs_batch(empty).shape == (0, 3)
    with pytest.raises(ValueError, match="empty batch"):
        model.dataset_loss(empty, [])


def test_input_gradient_rejects_bad_label():
    model = make_model("mlp")
    with pytest.raises(ValueError):
        model.input_gradient(RNG.standard_normal((2, 6)), 2)
    with pytest.raises(ValueError):
        model.input_gradient(RNG.standard_normal((2, 6)), -1)


@pytest.mark.parametrize("arch", ["linear", "mlp", "tcn"])
@pytest.mark.parametrize("n_labels", [2, 4])
def test_label_count_must_equal_batch_size(arch, n_labels):
    model = make_model(arch, classes=2)
    xs, labels = RNG.standard_normal((3, 2, 6)), [0, 1, 0, 1][:n_labels]
    for loss_or_gradient in (model.input_gradient_batch, model.dataset_loss):
        with pytest.raises(ShapeMismatchError, match=rf"3 epochs .*\(3,\), got \({n_labels},\)"):
            loss_or_gradient(xs, labels)


def test_train_fits_separable_blobs():
    data = gen_blobs(20, 2, 2, 6, separation=6.0, noise_sigma=1.0, seed=0)
    model = make_model("mlp", seed=1)
    model.fit(data, TrainConfig(max_epochs=200, patience=10, shuffle_seed=0))
    acc = float(np.mean(model.predict_batch(data.epochs) == data.labels))
    assert acc >= 0.95


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(patience=0)


def test_train_rejects_empty_data():
    model = make_model("linear")
    empty = LabeledSet(np.zeros((0, 2, 6)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        model.fit(empty, TrainConfig())


def test_train_is_deterministic():
    data = gen_blobs(15, 2, 2, 6, separation=4.0, seed=3)
    val_losses, params = [], []
    for _ in range(2):
        model = make_model("mlp", seed=9)
        hist = model.fit(data, TrainConfig(max_epochs=30, patience=5, shuffle_seed=21))
        val_losses.append(hist.val_loss)
        params.append(model.parameters)
    assert val_losses[0] == val_losses[1]
    assert np.array_equal(params[0], params[1])


def test_train_restores_best_validation_parameters():
    data = gen_blobs(25, 2, 2, 6, separation=3.0, seed=5)
    cfg = TrainConfig(max_epochs=40, patience=40, shuffle_seed=17)
    model = make_model("mlp", seed=6)
    hist = model.fit(data, cfg)
    # replicate the documented split to score the returned parameters
    rng = np.random.default_rng(cfg.shuffle_seed)
    perm = rng.permutation(len(data))
    n_val = min(max(int(round(models._VALIDATION_FRACTION * len(data))), 1), len(data) - 1)
    val = perm[:n_val]
    final_val_loss = model.dataset_loss(data.epochs[val], data.labels[val])
    assert final_val_loss <= min(hist.val_loss) + 1e-12
    assert hist.best_epoch == int(np.argmin(hist.val_loss))


# SHA-256 of the parameters, both Adam moments, the step count and the val_loss reprs after each of
# two consecutive fits.  They pin the training step's float operations and their order where no
# benchmark workload reaches: early stopping and tanh.  linear has no activation: its rows agree.
_GOLDEN_FITS = {
    ("linear", "relu", 3): "a986a7f1dbeade028b27daff0f7401ea39648728f535379eea4dacbc34138730",
    ("linear", "relu", 40): "3f7768dca6f439dc6d05c84dcb1e25ddc9bf5320e5eb944d8bd2cec40d1e2d80",
    ("linear", "tanh", 3): "a986a7f1dbeade028b27daff0f7401ea39648728f535379eea4dacbc34138730",
    ("linear", "tanh", 40): "3f7768dca6f439dc6d05c84dcb1e25ddc9bf5320e5eb944d8bd2cec40d1e2d80",
    ("mlp16", "relu", 3): "7937e94e1c54b85cdadb78a006abfe00ea8c493e131fa27ad260258fe6498d51",
    ("mlp16", "relu", 40): "e230d357d27b13cd6cfb70ce29a2c8af95d493a4e4e6f0920bd7de88644036dc",
    ("mlp16", "tanh", 3): "aecb6dbfe42685e2bae6677c237f32257fd09f4ba53327503c66d66b901fdbdd",
    ("mlp16", "tanh", 40): "11a1ce8c8a4614ff82e6065c410d81aae890bbfdc3e939290fea43aeabfdbc5a",
    ("mlp16x8", "relu", 3): "b7f49c2fa2190708fbb23f9af9d6e546e3708dee421349f7f9de9417f04a42cc",
    ("mlp16x8", "relu", 40): "d16d67f3752123a30ea41be643c18d8a4fd0ca6914e913aeefc19424a0f9502d",
    ("mlp16x8", "tanh", 3): "b68c35faca65bd56aca57f6ad9d0cd94fe8c5697d6cb93074f938220df99f17c",
    ("mlp16x8", "tanh", 40): "1710c2a3365882cfd0d65607259d4cef470b0689a2ad05f80599b13f4e663674",
    ("tcn", "relu", 3): "40003e8375fca1e8f8d3e8d8c4c3dbdb6c982c2c9729c32fb9411c9ff70c3397",
    ("tcn", "relu", 40): "ad6d4bae86fc15648a969188b61dd1714ec3693da0af62611f2b7ed655cc8d01",
    ("tcn", "tanh", 3): "88e245271377114d537f37c1f856d7f143f5fe31996f0e2fd658b3769658a354",
    ("tcn", "tanh", 40): "876bf8817a5144c420e83d22f2ba4a56e8d5033501627817fe0543ff856a131d",
}
_GOLDEN_ARCHS = {"linear": ("linear", ()), "mlp16": ("mlp", (16,)), "mlp16x8": ("mlp", (16, 8)), "tcn": ("tcn", (4,))}


@pytest.mark.golden
@pytest.mark.parametrize("name, activation, patience", sorted(_GOLDEN_FITS))
def test_two_fits_reproduce_the_golden_bytes(name, activation, patience):
    arch, hidden = _GOLDEN_ARCHS[name]
    data = gen_blobs(20, 3, 2, 6, separation=2.0, noise_sigma=1.0, seed=7)  # 48 train rows: batches of 32 and 16
    model = SoftmaxClassifier(ModelSpec(arch, 2, 6, 3, hidden=hidden, activation=activation, kernel_width=3, seed=5))
    digest = hashlib.sha256()
    for shuffle_seed in (1, 2):  # the second fit starts from the first's parameters and moments
        hist = model.fit(data, TrainConfig(max_epochs=40, patience=patience, shuffle_seed=shuffle_seed))
        assert (hist.n_epochs < 40) == (patience < 40)  # patience 3 stops early, patience 40 never does
        for values in (model.parameters, model._adam_m, model._adam_v):
            digest.update(values.tobytes())
        digest.update(repr((model._adam_t, hist.val_loss)).encode())
    assert digest.hexdigest() == _GOLDEN_FITS[name, activation, patience]


_GOLDEN_PROBES = {
    ("linear", "relu"): "e79be04ca137bfa366520fabc727277cf2e07428dc69ba253c8dac6ef45f601e",
    ("linear", "tanh"): "e79be04ca137bfa366520fabc727277cf2e07428dc69ba253c8dac6ef45f601e",
    ("mlp16", "relu"): "8c847895721d01415a0916e64b2ca6e37297eb5e533d2efc44540ad8ac00de09",
    ("mlp16", "tanh"): "91d0f7583fa3f41088f1d144375adc421ab030f56a929e97841e3e9d09494425",
    ("mlp16x8", "relu"): "c37385dbc466fc07c30107969171da1293ecceff9ab484fcb76ba9a66b4f4f2e",
    ("mlp16x8", "tanh"): "8bcafb1c91c16c825919e166ca3bf45d74628ea65b49c42d323acaa5718e76e3",
    ("tcn", "relu"): "d47c8fadfa2c1e8907c63847e0f6cf0810a5d17dce0ad81b1985868201cfa57d",
    ("tcn", "tanh"): "978242ef61e7a05847553b491ed2802b9102ad9cca7db67d54c0eca2ee8523b1",
}


@pytest.mark.golden
@pytest.mark.parametrize("name, activation", sorted(_GOLDEN_PROBES))
def test_probing_reproduces_the_golden_bytes(name, activation):
    # prediction, input gradients and the loss share the fit's forward and backward, but fit never asks for dX
    arch, hidden = _GOLDEN_ARCHS[name]
    data = gen_blobs(20, 3, 2, 6, separation=2.0, noise_sigma=1.0, seed=7)
    model = SoftmaxClassifier(ModelSpec(arch, 2, 6, 3, hidden=hidden, activation=activation, kernel_width=3, seed=5))
    digest = hashlib.sha256()
    for _ in range(2):  # at initialization, then after one short fit
        for values in (model.probs_batch(data.epochs), model.predict_batch(data.epochs),
                       model.input_gradient_batch(data.epochs, data.labels)):
            digest.update(values.tobytes())
        digest.update(repr(model.dataset_loss(data.epochs, data.labels)).encode())
        model.fit(data, TrainConfig(max_epochs=5, patience=5, shuffle_seed=1))
    assert digest.hexdigest() == _GOLDEN_PROBES[name, activation]


@pytest.mark.parametrize("name", sorted(_GOLDEN_ARCHS))
def test_copy_trains_on_alone_as_the_original_would(name):
    # a copy builds its own layer tables: training it must not touch the original's bytes
    arch, hidden = _GOLDEN_ARCHS[name]
    data = gen_blobs(20, 3, 2, 6, separation=2.0, noise_sigma=1.0, seed=7)
    model = SoftmaxClassifier(ModelSpec(arch, 2, 6, 3, hidden=hidden, kernel_width=3, seed=5))
    model.fit(data, TrainConfig(max_epochs=5, patience=5, shuffle_seed=1))
    twin = model.copy()

    def state(m):
        return m.parameters.tobytes(), m._adam.tobytes(), m._adam_t, m.probs_batch(data.epochs).tobytes()

    before, second = state(model), TrainConfig(max_epochs=5, patience=5, shuffle_seed=2)
    twin.fit(data, second)
    assert state(model) == before
    model.fit(data, second)
    assert state(model) == state(twin) != before


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_set_parameters_refuses_non_finite_values(bad):
    model = make_model("mlp", seed=3)
    before, values = model.parameters, model.parameters
    values[[4, 7]] = bad
    with pytest.raises(ValueError, match=f"parameter 4 is not finite: {bad}"):
        model.set_parameters(values)
    assert model.parameters.tobytes() == before.tobytes()


def test_single_class_training_fits():
    epochs = RNG.standard_normal((10, 2, 6))
    data = LabeledSet(epochs, np.zeros(10, dtype=np.int64))
    model = make_model("mlp", seed=8)
    model.fit(data, TrainConfig(max_epochs=2, patience=1))


def test_checkpoint_roundtrip(tmp_path):
    for arch in ("linear", "mlp", "tcn"):
        model = make_model(arch, classes=3, seed=13)
        path = tmp_path / f"{arch}.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.spec == model.spec
        assert np.array_equal(loaded.parameters, model.parameters)
        x = RNG.standard_normal((2, 6))
        assert np.array_equal(loaded.probs(x), model.probs(x))


def test_tcn_checkpoint_fixture_reproduces_probabilities(tmp_path):
    # written before tcn shared the dense head (its views were W_out/b_out);
    # the flat order conv_w, conv_b, W0, b0 is the same, so it loads as is
    model = load_checkpoint(DATA / "tcn-tiny.ckpt")
    save_checkpoint(model, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == (DATA / "tcn-tiny.ckpt").read_bytes()
    assert list(model.views) == ["conv_w", "conv_b", "W0", "b0"]
    expected = np.loadtxt(DATA / "tcn-tiny-probs.txt").reshape(4, 3)
    probs = model.probs_batch(np.random.default_rng(11).standard_normal((4, 2, 6)))
    assert np.max(np.abs(probs - expected)) <= 1e-12


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("format: something-else\nparams:\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_errors_are_typed_and_name_the_fault(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_model("mlp", seed=4), path)
    good = path.read_text(encoding="utf-8")
    lines = good.splitlines()
    first = lines.index("params:") + 1  # 0-based index of the first parameter line
    cases = {
        "'n_params'": "\n".join(l for l in good.splitlines() if not l.startswith("n_params:")),
        "'channels'": good.replace("channels: 2", "channels: two"),
        "not a number": good + "not-a-number\n",
        "declares": good + "0.5\n",  # one parameter more than n_params
        "UTF-8": good.replace("mlp", "ml\udcff"),
        "seed must be >= 0": good.replace("seed: 4", "seed: -4"),
        f"line {lines.index('seed: 4') + 2}: key 'seed' repeats": good.replace("seed: 4\n", "seed: 4\nseed: 7\n"),
        "key 'hidden' has invalid value ','": good.replace("hidden: 5\n", "hidden: ,\n"),
        "key 'hidden' has invalid value '5,'": good.replace("hidden: 5\n", "hidden: 5,\n"),
    }
    # shapes of more than 2**31 parameters (the first overflows int64) are refused before any allocation
    for arch, size, hidden, n_params in (("linear", 2**31, "", 2 * 2**62 + 2), ("mlp", 64, "1048576", 4298113026)):
        cases[f"invalid model: hidden [{hidden}] gives {n_params} parameters"] = "\n".join(
            ["format: qsattack-model-1", f"architecture: {arch}", f"channels: {size}", f"samples: {size}",
             "classes: 2", f"hidden: {hidden}", "activation: relu", "kernel_width: 1", "seed: 0", "n_params: 3",
             "params:", "0.0", "0.0", "0.0"]) + "\n"
    for bad in ("nan", "inf", "-Infinity"):
        text = "\n".join(lines[:first] + [bad] + lines[first + 1 :]) + "\n"
        cases[f"line {first + 1}: parameter {bad!r} is not finite"] = text
    for fragment, text in cases.items():
        path.write_text(text, encoding="utf-8", errors="surrogateescape")
        with pytest.raises(MalformedCheckpointError) as info:
            load_checkpoint(path)
        assert fragment in str(info.value)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checkpoint_mutations_load_or_raise_the_typed_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    save_checkpoint(make_model("mlp", seed=4), path)
    path.write_bytes(data.draw(mutations(path.read_bytes())))
    try:
        load_checkpoint(path)
    except MalformedCheckpointError:
        pass
