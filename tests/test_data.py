import dataclasses
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qsattack.attack import AdversarialExample, AttackConfig, craft_batch
from qsattack.data import (
    LabeledSet,
    as_epoch_batch,
    balance_by_predicted_label,
    gen_blobs,
    gen_synthetic_epochs,
    read_epochs,
    write_epochs,
)
from qsattack.errors import ClassBalanceError, MalformedEpochFileError, ShapeMismatchError
from qsattack.metrics import confusion_matrix
from qsattack.models import TrainConfig
from qsattack.oracle import TargetOracle
from qsattack.synthesis import OppositePair
from testutil import make_model, mutations

RNG = np.random.default_rng(99)


def test_labeled_set_validation():
    with pytest.raises(ValueError):
        LabeledSet(np.zeros((3, 2, 4)), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        LabeledSet(np.full((1, 2, 4), np.nan), np.zeros(1, dtype=np.int64))
    with pytest.raises(ValueError):
        LabeledSet(np.zeros((1, 2, 4)), np.array([-2]))


def test_labeled_set_is_frozen_so_written_labels_stay_checked(tmp_path):
    # labels swapped in after the check would reach write_epochs' <i4 cast and read back truncated
    data = LabeledSet(np.zeros((2, 1, 2)), [0, 1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.labels = np.array([0.7, 1.9])
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.epochs = np.full((2, 1, 2), np.nan)
    write_epochs(tmp_path / "set.epo", data)
    assert np.array_equal(read_epochs(tmp_path / "set.epo").labels, [0, 1])


def test_labeled_set_labels_are_read_only():
    # numpy's int64 setitem would truncate the labels past as_labels' check
    data = LabeledSet(np.zeros((2, 1, 2)), [0, 1])
    with pytest.raises(ValueError, match="read-only"):
        data.labels[:] = [0.7, 1.9]
    assert np.array_equal(data.labels, [0, 1])


FROZEN_RECORDS = {  # each built from the caller's (2, 1, 2) array x
    "LabeledSet": lambda x: LabeledSet(x, [0, 1]),
    "AdversarialExample": lambda x: AdversarialExample(x, x, np.array([0, 1]), AttackConfig()),
    "OppositePair": lambda x: OppositePair(x, x, 0, 1),
}


@pytest.mark.parametrize("build", FROZEN_RECORDS.values(), ids=FROZEN_RECORDS)
def test_a_frozen_record_keeps_read_only_copies_of_the_callers_arrays(build):
    # a NaN written afterwards, through the array or a view made before, would land past the finiteness check
    x = np.zeros((2, 1, 2))
    view = x[:]
    record = build(x)
    view[0, 0, 0] = np.nan  # the caller's array and its views stay writable
    x[1, 0, 0] = np.nan
    arrays = [v for v in vars(record).values() if isinstance(v, np.ndarray)]
    assert arrays and all(np.isfinite(arr).all() for arr in arrays)
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


LABEL_XS = RNG.standard_normal((4, 2, 6))
INT_LABELS = np.array([0, 1, 1, 0])


def _fit_with_labels(labels):
    data = LabeledSet(LABEL_XS, INT_LABELS)
    object.__setattr__(data, "labels", labels)  # past the frozen set's own check: fit must check them itself
    model = make_model("mlp", seed=3)
    model.fit(data, TrainConfig(max_epochs=2, patience=1, batch_size=2))
    return model.parameters


# every public entry point that takes a label vector for the 4 epochs of LABEL_XS, returning what it computes
LABEL_ENTRY_POINTS = {
    "LabeledSet": lambda y: LabeledSet(LABEL_XS, y).labels,
    "extended": lambda y: LabeledSet(LABEL_XS[:1], [1]).extended(LABEL_XS, y).labels,
    "fit": _fit_with_labels,
    "dataset_loss": lambda y: make_model("mlp", seed=3).dataset_loss(LABEL_XS, y),
    "input_gradient_batch": lambda y: make_model("tcn", seed=3).input_gradient_batch(LABEL_XS, y),
    "craft_batch": lambda y: craft_batch(make_model("linear", seed=3), LABEL_XS, AttackConfig(0.1, "fgsm"),
                                         true_labels=y).delta,
    "confusion_matrix.preds": lambda y: confusion_matrix(y, INT_LABELS, 2),
    "confusion_matrix.labels": lambda y: confusion_matrix(INT_LABELS, y, 2),
}


@pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
@pytest.mark.parametrize("labels, error", [
    ([0.7, 1.9, 1.0, 0.0], ValueError),
    ([0, np.nan, 1, 0], ValueError),
    ([0, np.inf, 1, 0], ValueError),
    ([0, 2**70, 1, 0], ValueError),
    ([0, 2.0**70, 1, 0], ValueError),
    ([0, -2, 1, 0], ValueError),
    ([0, 1, 1], ShapeMismatchError),
], ids=["fractional", "nan", "inf", "int-2**70", "float-2**70", "out-of-range", "wrong-count"])
def test_every_label_entry_point_refuses_what_is_not_an_integer_label(entry, labels, error):
    message = "must hold integer class indices" if error is ValueError else r"epochs need a \w+ vector of shape"
    with pytest.raises(error, match=message) as caught:
        LABEL_ENTRY_POINTS[entry](labels)
    assert error is ShapeMismatchError or not isinstance(caught.value, ShapeMismatchError)


@pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
@pytest.mark.parametrize("labels", [INT_LABELS.astype(np.float64), INT_LABELS.astype(bool)], ids=["floats", "bools"])
def test_every_label_entry_point_takes_integer_valued_labels_as_ints(entry, labels):
    assert np.array_equal(LABEL_ENTRY_POINTS[entry](labels), LABEL_ENTRY_POINTS[entry](INT_LABELS))


def test_as_epoch_batch_shape_check():
    with pytest.raises(ShapeMismatchError):
        as_epoch_batch(np.zeros((2, 3, 4)), shape=(2, 4))
    with pytest.raises(ShapeMismatchError, match=r"expected epochs of shape \(n, C, T\), got \(2, 4\)"):
        as_epoch_batch(np.zeros((2, 4)))  # one epoch, not a batch of them
    out = as_epoch_batch([np.zeros((2, 4)), np.ones((2, 4))])
    assert out.shape == (2, 2, 4)


def test_blobs_zero_noise_collapses_to_means():
    data = gen_blobs(5, 3, 2, 4, separation=4.0, noise_sigma=0.0, seed=1)
    means = []
    for c in range(3):
        block = data.epochs[data.class_indices(c)]
        assert np.all(block == block[0])
        means.append(block[0].ravel())
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(means[i] - means[j]) == pytest.approx(4.0, abs=1e-9)


def test_blobs_deterministic_and_structure_shared():
    a = gen_blobs(4, 2, 2, 4, seed=5)
    b = gen_blobs(4, 2, 2, 4, seed=5)
    assert np.array_equal(a.epochs, b.epochs) and np.array_equal(a.labels, b.labels)
    # same structure, different sampling noise
    c = gen_blobs(4, 2, 2, 4, noise_sigma=0.0, seed=6, structure_seed=5)
    d = gen_blobs(4, 2, 2, 4, noise_sigma=0.0, seed=7, structure_seed=5)
    assert np.array_equal(c.epochs, d.epochs)
    assert not np.array_equal(
        gen_blobs(4, 2, 2, 4, seed=6).epochs, gen_blobs(4, 2, 2, 4, seed=7).epochs
    )


def test_blobs_well_separated_task_is_learnable():
    data = gen_blobs(40, 2, 2, 6, separation=6.0, noise_sigma=1.0, seed=2)
    model = make_model("linear", channels=2, samples=6)
    model.fit(data, TrainConfig(max_epochs=150, patience=10, shuffle_seed=0))
    acc = float(np.mean(model.predict_batch(data.epochs) == data.labels))
    assert acc >= 0.99


def test_blobs_validation():
    with pytest.raises(ValueError):
        gen_blobs(0, 2, 2, 4)
    with pytest.raises(ValueError):
        gen_blobs(4, 2, 2, 4, separation=0.0)
    with pytest.raises(ValueError):
        gen_blobs(4, 9, 2, 4)  # k > C*T


@pytest.mark.parametrize("generate, args, message", [
    *[(generate, (0, 2, 2, 8), "n_per_class must be >= 1") for generate in (gen_blobs, gen_synthetic_epochs)],
    *[(generate, (4, 1, 2, 8), "n_classes must be >= 2") for generate in (gen_blobs, gen_synthetic_epochs)],
    (gen_synthetic_epochs, (4, 2, 2, 7), "need channels >= 1 and samples >= 8"),
    (gen_synthetic_epochs, (4, 2, 0, 8), "need channels >= 1 and samples >= 8"),
], ids=["blobs-n_per_class", "erp-n_per_class", "blobs-n_classes", "erp-n_classes", "erp-samples", "erp-channels"])
def test_generator_refusals(generate, args, message):
    with pytest.raises(ValueError) as info:
        generate(*args)
    assert str(info.value) == message


def test_erp_epochs_noise_free_are_identical_within_class():
    data = gen_synthetic_epochs(6, 2, 3, 16, seed=3, noise_amplitude=0.0)
    for c in range(2):
        block = data.epochs[data.class_indices(c)]
        assert np.all(block == block[0])


def test_erp_epochs_rms_normalized():
    data = gen_synthetic_epochs(30, 3, 4, 32, seed=4)
    assert np.sqrt(np.mean(data.epochs**2)) == pytest.approx(1.0, abs=0.1)


def test_erp_templates_same_class_correlate_more():
    data = gen_synthetic_epochs(1, 3, 4, 32, seed=8, noise_amplitude=0.0)
    flat = data.epochs.reshape(3, -1)
    same = np.mean([flat[c] @ flat[c] for c in range(3)])
    cross = np.mean([flat[a] @ flat[b] for a in range(3) for b in range(3) if a != b])
    assert same > cross


def test_balance_counts_and_determinism():
    target = make_model("linear", channels=2, samples=4, seed=1)
    pool = gen_blobs(120, 2, 2, 4, separation=6.0, seed=11).epochs
    oracle = TargetOracle(target)
    s0 = balance_by_predicted_label(oracle, pool, 30, seed=5)
    assert oracle.query_count == len(pool)
    assert s0.shape == (60, 2, 4)
    oracle2 = TargetOracle(target)
    s0_again = balance_by_predicted_label(oracle2, pool, 30, seed=5)
    assert np.array_equal(s0, s0_again)


def test_balance_strict_and_lenient_modes():
    target = make_model("linear", channels=2, samples=4)
    target.set_parameters(np.zeros(target.spec.n_params))  # constant predictor: class 0
    pool = RNG.standard_normal((15, 2, 4))
    with pytest.raises(ClassBalanceError):  # class 1 has no members; a short class is never kept
        balance_by_predicted_label(TargetOracle(target), pool, 5, seed=0)
    with pytest.raises(ValueError, match="per_class must be >= 1"):
        balance_by_predicted_label(TargetOracle(target), pool, 0, seed=0)


def test_epo_roundtrip_bit_exact(tmp_path):
    data = gen_blobs(7, 2, 3, 5, seed=21)
    f32 = LabeledSet(data.epochs.astype(np.float32), data.labels)
    path = tmp_path / "set.epo"
    write_epochs(path, f32)
    back = read_epochs(path)
    assert np.array_equal(back.epochs, f32.epochs)
    assert np.array_equal(back.labels, f32.labels)
    path2 = tmp_path / "again.epo"
    write_epochs(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_epo_empty_set_keeps_its_epoch_shape(tmp_path):
    path = tmp_path / "empty.epo"
    write_epochs(path, LabeledSet(np.zeros((0, 2, 3)), np.zeros(0, dtype=np.int64)))
    assert path.read_bytes() == b"EPO1" + struct.pack("<III", 0, 2, 3)
    back = read_epochs(path)
    assert back.epochs.shape == (0, 2, 3) and len(back.labels) == 0


F32_MAX = float(np.finfo(np.float32).max)


@pytest.mark.parametrize("epochs, labels, message", [
    (np.full((1, 1, 2), 1e39), [0], "epoch 0 holds a value binary32 cannot hold"),
    ([[[0.0, 1.0]], [[2.0, -1e39]]], [2**31, 0], "epoch 0 holds label 2147483648, outside"),
    ([[[0.0, 1.0]], [[2.0, -1e39]]], [0, 2**31], "epoch 1 holds a value binary32 cannot hold"),
    (np.zeros((3, 1, 2)), [0, -1, 2**31], "epoch 2 holds label 2147483648, outside"),
], ids=["value-past-binary32", "label-first", "value-first", "label-past-int32"])
def test_epo_write_refuses_what_the_format_cannot_hold_and_leaves_no_file(tmp_path, epochs, labels, message):
    path = tmp_path / "x.epo"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast warning either
        with pytest.raises(ValueError, match=message):
            write_epochs(path, LabeledSet(epochs, labels))
    assert not path.exists()
    # the edges of both ranges round-trip
    edges = LabeledSet([[[F32_MAX, -F32_MAX]], [[0.0, 1.0]]], [2**31 - 1, -1])
    write_epochs(path, edges)
    back = read_epochs(path)
    assert np.array_equal(back.epochs, edges.epochs) and np.array_equal(back.labels, edges.labels)


def test_epo_byte_length_formula(tmp_path):
    for n, c, t in ((1, 2, 3), (4, 1, 8), (3, 5, 2)):
        dataset = LabeledSet(RNG.standard_normal((n, c, t)), RNG.integers(0, 2, n))
        path = tmp_path / f"{n}x{c}x{t}.epo"
        write_epochs(path, dataset)
        assert path.stat().st_size == 4 + 12 + 4 * n * c * t + 4 * n


def test_epo_unlabeled_sentinel(tmp_path):
    dataset = LabeledSet(RNG.standard_normal((3, 2, 2)), np.array([0, -1, 1]))
    path = tmp_path / "u.epo"
    write_epochs(path, dataset)
    assert np.array_equal(read_epochs(path).labels, [0, -1, 1])


def test_epo_bad_magic(tmp_path):
    path = tmp_path / "bad.epo"
    path.write_bytes(b"XXXX" + bytes(40))
    with pytest.raises(MalformedEpochFileError) as info:
        read_epochs(path)
    assert info.value.offset == 0


def test_epo_truncated_payload(tmp_path):
    dataset = LabeledSet(RNG.standard_normal((2, 2, 3)), np.array([0, 1]))
    path = tmp_path / "t.epo"
    write_epochs(path, dataset)
    good = path.read_bytes()
    path.write_bytes(good[:-5])
    with pytest.raises(MalformedEpochFileError) as info:
        read_epochs(path)
    assert info.value.offset == len(good) - 5


def test_epo_shape_overflow(tmp_path):
    path = tmp_path / "o.epo"
    path.write_bytes(b"EPO1" + struct.pack("<III", 2**30, 2**10, 2**10))
    with pytest.raises(MalformedEpochFileError):
        read_epochs(path)


@pytest.mark.parametrize("offset, patch", [
    (8, struct.pack("<I", 0)),
    (12, struct.pack("<I", 0)),
    (16 + 4 * 5, struct.pack("<f", np.nan)),
    (16 + 4 * 7, struct.pack("<f", -np.inf)),
    (16 + 4 * 12 + 4, struct.pack("<i", -2)),  # the second of three labels after 12 values
], ids=["zero-channels", "zero-samples", "nan-value", "inf-value", "label-below-minus-one"])
def test_epo_refuses_bad_shape_values_and_labels_at_their_offset(tmp_path, offset, patch):
    path = tmp_path / "x.epo"
    write_epochs(path, LabeledSet(RNG.standard_normal((3, 2, 2)), np.array([0, 1, -1])))
    raw = bytearray(path.read_bytes())
    raw[offset:offset + 4] = patch
    path.write_bytes(bytes(raw))
    with pytest.raises(MalformedEpochFileError) as info:
        read_epochs(path)
    assert info.value.offset == offset


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_epo_mutations_read_back_exactly_or_raise_the_typed_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.epo"
    write_epochs(path, LabeledSet(np.arange(12.0).reshape(3, 2, 2), np.array([0, 1, -1])))
    raw = data.draw(mutations(path.read_bytes()))
    path.write_bytes(raw)
    try:
        dataset = read_epochs(path)
    except MalformedEpochFileError:
        return
    write_epochs(path, dataset)
    assert path.read_bytes() == raw


F32_EDGES = [0.0, -0.0, 1e-45, -1e-45, float(np.finfo(np.float32).tiny), F32_MAX, -F32_MAX]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_epo_round_trips_every_shape_label_and_binary32_value(tmp_path_factory, data):
    n, c, t = data.draw(st.tuples(st.integers(0, 4), st.integers(1, 4), st.integers(1, 4)))
    binary32 = st.sampled_from(F32_EDGES) | st.floats(width=32, allow_nan=False, allow_infinity=False)
    values = data.draw(arrays(np.float32, (n, c, t), elements=binary32))
    labels = data.draw(arrays(np.int64, n, elements=st.integers(-1, 2**31 - 1)))
    path = tmp_path_factory.getbasetemp() / "any.epo"
    write_epochs(path, LabeledSet(values, labels))
    raw = path.read_bytes()
    back = read_epochs(path)
    assert back.epochs.astype("<f4").tobytes() == values.astype("<f4").tobytes()  # -0.0 keeps its sign
    assert np.array_equal(back.labels, labels)
    write_epochs(path, back)
    assert path.read_bytes() == raw


def test_extended_returns_new_set():
    base = gen_blobs(3, 2, 2, 4, seed=1)
    grown = base.extended(RNG.standard_normal((2, 2, 4)), [1, 0])
    assert len(base) == 6 and len(grown) == 8
    assert not (grown.epochs.flags.writeable or grown.labels.flags.writeable)
    with pytest.raises(ShapeMismatchError):
        base.extended(RNG.standard_normal((2, 3, 4)), [0, 1])


def test_balance_paper_scale_counts():
    train_cfg = TrainConfig(max_epochs=40, patience=5, batch_size=32)
    target = make_model("linear", channels=2, samples=4, seed=2)
    target.fit(gen_blobs(60, 2, 2, 4, separation=8.0, seed=12), train_cfg)
    pool2 = gen_blobs(450, 2, 2, 4, separation=8.0, seed=120, structure_seed=12).epochs
    s0 = balance_by_predicted_label(TargetOracle(target), pool2, 200, seed=1)
    assert len(s0) == 400  # 2 classes x 200
    target4 = make_model("linear", channels=2, samples=4, classes=4, seed=3)
    target4.fit(gen_blobs(60, 4, 2, 4, separation=8.0, seed=13), train_cfg)
    pool4 = gen_blobs(400, 4, 2, 4, separation=8.0, seed=130, structure_seed=13).epochs
    s0 = balance_by_predicted_label(TargetOracle(target4), pool4, 100, seed=1)
    assert len(s0) == 400  # 4 classes x 100
