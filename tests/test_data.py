import numpy as np
import pytest

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
from qsattack.models import TrainConfig
from qsattack.oracle import TargetOracle
from testutil import make_model

RNG = np.random.default_rng(99)


def test_labeled_set_validation():
    with pytest.raises(ValueError):
        LabeledSet(np.zeros((3, 2, 4)), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        LabeledSet(np.full((1, 2, 4), np.nan), np.zeros(1, dtype=np.int64))
    with pytest.raises(ValueError):
        LabeledSet(np.zeros((1, 2, 4)), np.array([-2]))
    s = LabeledSet(np.zeros((2, 2, 4)), np.array([0, -1]))
    assert s.present_classes() == [0]


def test_as_epoch_batch_shape_check():
    with pytest.raises(ShapeMismatchError):
        as_epoch_batch(np.zeros((2, 3, 4)), shape=(2, 4))
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
    target.set_parameters(np.zeros(target.n_parameters))  # constant predictor: class 0
    pool = RNG.standard_normal((15, 2, 4))
    with pytest.raises(ClassBalanceError):
        balance_by_predicted_label(TargetOracle(target), pool, 5, seed=0, strict=True)
    lenient = balance_by_predicted_label(TargetOracle(target), pool, 5, seed=0, strict=False)
    assert lenient.shape == (5, 2, 4)  # class 1 contributes nothing


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
    import struct

    path = tmp_path / "o.epo"
    path.write_bytes(b"EPO1" + struct.pack("<III", 2**30, 2**10, 2**10))
    with pytest.raises(MalformedEpochFileError):
        read_epochs(path)


def test_extended_returns_new_set():
    base = gen_blobs(3, 2, 2, 4, seed=1)
    grown = base.extended(RNG.standard_normal((2, 2, 4)), [1, 0])
    assert len(base) == 6 and len(grown) == 8
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
