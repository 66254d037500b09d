import dataclasses
import hashlib
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    assert spec.n_params == SoftmaxClassifier(spec).parameters.size
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
    with pytest.raises(ValueError, match="tcn takes exactly one hidden size"):
        ModelSpec("tcn", 2, 4, 2, hidden=(3, 3), kernel_width=3)
    with pytest.raises(ValueError):
        ModelSpec("linear", 2, 4, 2, activation="gelu")


@pytest.mark.parametrize("hidden", [(1.5,), ("5",), (True,), (8, False), (0,), (np.int64(-1),), (8.0,)],
                         ids=["fraction", "text", "true", "false-second", "zero", "numpy-negative", "integral-float"])
def test_spec_refuses_a_hidden_size_it_would_truncate(hidden):
    # int() would make 1.5, "5" and True the sizes 1, 5 and 1
    with pytest.raises(ValueError, match=rf"^hidden sizes must all be integers >= 1, got {re.escape(repr(hidden))}$"):
        ModelSpec("mlp", 2, 6, 2, hidden=hidden)


def test_spec_stores_numpy_hidden_sizes_as_ints():
    spec = ModelSpec("mlp", 2, 6, 2, hidden=np.array([4, 3]))
    assert spec.hidden == (4, 3) and all(type(h) is int for h in spec.hidden)
    assert spec == ModelSpec("mlp", 2, 6, 2, hidden=(4, 3))


def test_numpy_shape_fields_are_counted_as_python_ints():
    # int64 math.prod would wrap 2**32 * 2**32 to 0 and accept 50 parameters; the spec stores int
    with pytest.raises(ValueError, match=f"gives {16 * 2**64 + 16 + 16 * 2 + 2} parameters"):
        ModelSpec("mlp", channels=np.int64(2**32), samples=np.int64(2**32), classes=2, hidden=(16,))
    spec = ModelSpec("mlp", np.int64(2), np.int32(6), np.int64(2), hidden=(4,), kernel_width=np.int64(3),
                     seed=np.uint8(1))
    assert spec == ModelSpec("mlp", 2, 6, 2, hidden=(4,), kernel_width=3, seed=1)
    assert all(type(getattr(spec, name)) is int for name in ("channels", "samples", "classes", "kernel_width", "seed"))



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
        model.set_parameters(np.zeros(model.spec.n_params))
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
    model.set_parameters(np.zeros(model.spec.n_params))
    assert model.predict(RNG.standard_normal((2, 6))) == 0


def test_predict_matches_constructed_probabilities():
    model = make_model("linear")
    model.set_parameters(np.zeros(model.spec.n_params))
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
    model.set_parameters(np.zeros(model.spec.n_params))
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
    theta, numeric = model.parameters, np.zeros(model.spec.n_params)
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
    with pytest.raises(ValueError, match=r"^shuffle_seed must be >= 0, got -1$"):  # numpy takes no negative seed
        TrainConfig(shuffle_seed=-1)


def test_train_rejects_empty_data():
    model = make_model("linear")
    empty = LabeledSet(np.zeros((0, 2, 6)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        model.fit(empty, TrainConfig())
    with pytest.raises(ShapeMismatchError, match=r"data shape \(2, 5\) does not match model input \(2, 6\)"):
        model.fit(gen_blobs(3, 2, 2, 5, seed=0), TrainConfig())


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
    ("linear", "relu", 3): "f77cfd55bf63b73f69955162bcb8d64b4cec6f36fa805d637563c398cb8fd046",
    ("linear", "relu", 40): "fda9f3d45532d36924db9a1f3cb3e667bbe594dbcd88ef81ce7f0915670f1950",
    ("linear", "tanh", 3): "f77cfd55bf63b73f69955162bcb8d64b4cec6f36fa805d637563c398cb8fd046",
    ("linear", "tanh", 40): "fda9f3d45532d36924db9a1f3cb3e667bbe594dbcd88ef81ce7f0915670f1950",
    ("mlp16", "relu", 3): "3c18341344282c34d061ef5cd040c0b503f460991d5d8ba399c0ceda6eb83212",
    ("mlp16", "relu", 40): "521f1fa3393afcd469a3a763ab4cda10b871fa3541f61a7229495ee78de371db",
    ("mlp16", "tanh", 3): "ce1bfb0e5cef50c3ed33e9dc9c97b121947772811ff0fbe1e6db2588ca627117",
    ("mlp16", "tanh", 40): "dca5aca160cc8fd8419d88694151469d686da7e392015016c7596934ccadb6af",
    ("mlp16x8", "relu", 3): "3cf229721e44325605c0ae150e93c0c141a77b7d9268bc8e910e5c0aee0c8ef1",
    ("mlp16x8", "relu", 40): "63840d21d200365e19391076b5224983f65eac346de519245256566c1c4dc6ad",
    ("mlp16x8", "tanh", 3): "f76ea1a2b0f16bb657a1f2ed733900d9c0163519b3750d8da3a24a08022d81c9",
    ("mlp16x8", "tanh", 40): "8674d153c75ed84dd84834b3ba5a0d79d49722eb27d2f5ec28c67129176237fc",
    ("tcn", "relu", 3): "6305b8c6e5bcfbad014375853897909e0905124f380a4fd84f7600a88310c2b3",
    ("tcn", "relu", 40): "3f84c59791621b6c1682ea188f054fd9a7b58c798b92a4e20156c31e7b1e1429",
    ("tcn", "tanh", 3): "dfefb28d55ac85f9fcf1c6e35a313ec38ec50aa2721a8451224cf689e38bb2b9",
    ("tcn", "tanh", 40): "b376fa38fa0295426c4e21e9711ee2bee6831e9099d72f5feca971ca108ad8fb",
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
    ("linear", "relu"): "f15961e43b16b0f0b81e9ff024a3604060d1de645623df6916c0aab9ab78a613",
    ("linear", "tanh"): "f15961e43b16b0f0b81e9ff024a3604060d1de645623df6916c0aab9ab78a613",
    ("mlp16", "relu"): "9c1d37e2738e25f6d89d382572d64e4e175a504475576d3aa88dfecf3c86d365",
    ("mlp16", "tanh"): "c0ab9780bc64fb9333cfced147b7601959aea87f3ab160a8ac2bb93049f61fd6",
    ("mlp16x8", "relu"): "b3aa942267cf05992d28d629f6c8caa90ba72490509c1cc55f16b2868ac84e23",
    ("mlp16x8", "tanh"): "346c7ece0e2567777536b14dbe26f95f334c22a1b353ed05a80c516a9febec53",
    ("tcn", "relu"): "30231ba15fb0b9eb34eddebcc002b4380a0bb5ea33382285df2c0d66c8d6b0bb",
    ("tcn", "tanh"): "83a7fcf90497a86070a50cfeb64da5fa0d7e3bafe9b40826063576f35a118b7b",
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
    with pytest.raises(ValueError, match=f"expected {len(before)} parameters, got {len(before) - 1}"):
        model.set_parameters(before[1:])
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
        f"line {lines.index('seed: 4') + 2}: expected key 'n_params', found 'seed: 7'":
            good.replace("seed: 4\n", "seed: 4\nseed: 7\n"),
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


def test_checkpoint_refuses_values_save_checkpoint_never_writes(tmp_path):
    # each reads as a number, but writing it back gives other text
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_model("mlp", seed=3), path)
    good = path.read_text(encoding="utf-8")
    lines = good.splitlines()
    first, seed, hidden = (lines.index(line) + 1 for line in ("params:", "seed: 3", "hidden: 5"))
    cases = {
        f"line {seed} reads 'seed: 0_3\\n', where save_checkpoint writes 'seed: 3\\n'":
            good.replace("seed: 3\n", "seed: 0_3\n"),
        f"line {seed} reads 'seed: \u0663\\n'": good.replace("seed: 3\n", "seed: \u0663\n"),
        f"line {hidden} reads 'hidden: +5\\n', where save_checkpoint writes 'hidden: 5\\n'":
            good.replace("hidden: 5\n", "hidden: +5\n"),
        f"line {first + 1} reads '1_0.5\\n', where save_checkpoint writes '10.5\\n'":
            good.replace(f"\n{lines[first]}\n", "\n1_0.5\n", 1),
    }
    for fragment, text in cases.items():
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedCheckpointError) as info:
            load_checkpoint(path)
        assert fragment in str(info.value)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checkpoint_mutations_load_or_raise_the_typed_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    save_checkpoint(make_model("mlp", seed=4), path)
    raw = data.draw(mutations(path.read_bytes()))
    path.write_bytes(raw)
    try:
        model = load_checkpoint(path)
    except MalformedCheckpointError:
        return
    save_checkpoint(model, path)
    assert path.read_bytes() == raw


def test_checkpoint_refuses_every_text_but_the_one_save_checkpoint_writes(tmp_path):
    # texts save_checkpoint never writes: each is refused, naming the line where it departs
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_model("tcn", seed=2), path)
    good = path.read_bytes().decode("utf-8")
    lines = good.splitlines()
    seed, first = lines.index("seed: 2") + 1, lines.index("params:") + 2  # 1-based line numbers
    cases = {
        "no final newline": (good[:-1], len(lines)),
        "tab after a colon": (good.replace("seed: 2", "seed:\t2"), seed),
        "\\r\\n line ends": (good.replace("\n", "\r\n"), 1),
        "trailing space on a key": (good.replace("seed: 2\n", "seed: 2 \n"), seed),
        "trailing space on a parameter": (good.replace(f"\n{lines[first - 1]}\n", f"\n{lines[first - 1]} \n"), first),
        "reordered keys": (good.replace("channels: 2\nsamples: 6\n", "samples: 6\nchannels: 2\n"), 3),
        "blank line in the keys": (good.replace("seed: 2\n", "\nseed: 2\n"), seed),
        "blank line before the parameters": (good.replace("params:\n", "params:\n\n"), first),
        "blank line at the end": (good + "\n", len(lines) + 1),
    }
    for name, (text, lineno) in cases.items():
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(MalformedCheckpointError, match=rf"^line {lineno}[: ]"):
            load_checkpoint(path)


FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max, -sys.float_info.max]


@st.composite
def model_specs(draw):
    """Every architecture and activation, shapes of a few parameters, any seed; ``kernel_width`` is free but for ``tcn``."""
    architecture, samples = draw(st.sampled_from(["linear", "mlp", "tcn"])), draw(st.integers(1, 6))
    hidden = {"linear": st.just(()), "mlp": st.lists(st.integers(1, 4), min_size=1, max_size=2),
              "tcn": st.tuples(st.integers(1, 3))}[architecture]
    kernel_width = st.integers(1, samples) if architecture == "tcn" else st.integers(-3, 12)
    return ModelSpec(architecture, draw(st.integers(1, 3)), samples, draw(st.integers(2, 4)), hidden=draw(hidden),
                     activation=draw(st.sampled_from(["relu", "tanh"])), kernel_width=draw(kernel_width),
                     seed=draw(st.integers(0, 2**70)))


@settings(max_examples=200, deadline=None)
@given(spec=model_specs(), data=st.data())
def test_checkpoint_round_trips_every_spec_and_parameter_bit_for_bit(tmp_path_factory, spec, data):
    model = SoftmaxClassifier(spec)
    finite = st.sampled_from(FLOAT_EDGES) | st.floats(allow_nan=False, allow_infinity=False)
    model.set_parameters(data.draw(arrays(np.float64, spec.n_params, elements=finite)))
    path = tmp_path_factory.getbasetemp() / "spec.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    loaded = load_checkpoint(path)
    assert loaded.spec == spec and loaded.parameters.tobytes() == model.parameters.tobytes()
    save_checkpoint(loaded, path)
    assert path.read_bytes() == raw
