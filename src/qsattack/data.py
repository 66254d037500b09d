"""Synthetic multichannel epochs, class balancing, and the EPO1 file format.

An epoch is a plain ``(channels, samples)`` float ndarray; a dataset is a
:class:`LabeledSet`.  Label ``-1`` marks an unlabeled epoch.

EPO1 format (little-endian throughout):

=========  ======  =====================================================
offset     size    content
=========  ======  =====================================================
0          4       magic bytes ``EPO1``
4          4       u32 ``n``, number of epochs
8          4       u32 ``C``, channels per epoch
12         4       u32 ``T``, samples per channel
16         4nCT    IEEE-754 binary32 values, row-major [epoch][channel][time]
16+4nCT    4n      i32 labels, ``-1`` meaning unlabeled
=========  ======  =====================================================

Total byte length is ``16 + 4*n*C*T + 4*n``.  Values are stored as
binary32: :func:`write_epochs` casts on write, so a write/read round trip
is bit-exact whenever the in-memory values are binary32-representable
(which holds for anything previously read from an EPO1 file).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ClassBalanceError, MalformedEpochFileError, ShapeMismatchError

_MAGIC = b"EPO1"
_HEADER = struct.Struct("<III")
_MAX_VALUES = 1 << 31  # refuse shapes whose payload could not possibly be intended


def as_epoch_batch(epochs, shape=None) -> np.ndarray:
    """Stack epochs into an (n, C, T) float64 array, validating shape and finiteness."""
    if isinstance(epochs, np.ndarray) and epochs.ndim == 3:
        arr = np.asarray(epochs, dtype=np.float64)
    else:
        seq = list(epochs)
        if not seq:
            c, t = shape if shape is not None else (0, 0)
            return np.zeros((0, c, t))
        arr = np.stack([np.asarray(e, dtype=np.float64) for e in seq])
    if arr.ndim != 3:
        raise ShapeMismatchError(f"expected epochs of shape (n, C, T), got {arr.shape}")
    if shape is not None and tuple(arr.shape[1:]) != tuple(shape):
        raise ShapeMismatchError(
            f"epoch shape {tuple(arr.shape[1:])} does not match expected {tuple(shape)}"
        )
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("epochs must contain only finite values")
    return arr


@dataclass
class LabeledSet:
    """Epochs of one common shape paired with integer class labels."""

    epochs: np.ndarray  # (n, C, T) float64
    labels: np.ndarray  # (n,) int64, -1 for unlabeled

    def __post_init__(self):
        self.epochs = as_epoch_batch(self.epochs)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1:
            raise ValueError("labels must be a 1-D integer array")
        if len(self.labels) != len(self.epochs):
            raise ValueError(
                f"{len(self.epochs)} epochs but {len(self.labels)} labels"
            )
        if len(self.labels) and self.labels.min() < -1:
            raise ValueError("labels must be >= -1 (-1 marks unlabeled)")

    def __len__(self) -> int:
        return len(self.epochs)

    @property
    def shape(self) -> tuple[int, int]:
        """(channels, samples) of every epoch in the set."""
        return tuple(self.epochs.shape[1:])

    def present_classes(self) -> list[int]:
        """Sorted labels (>= 0) that occur at least once."""
        return sorted(int(c) for c in np.unique(self.labels) if c >= 0)

    def class_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)

    def extended(self, epochs, labels) -> "LabeledSet":
        """A new set with the given epochs appended; the original is untouched."""
        add = as_epoch_batch(epochs, self.shape if len(self) else None)
        lab = np.asarray(labels, dtype=np.int64)
        return LabeledSet(np.concatenate([self.epochs, add]), np.concatenate([self.labels, lab]))


def gen_blobs(
    n_per_class: int,
    n_classes: int,
    channels: int,
    samples: int,
    separation: float = 4.0,
    noise_sigma: float = 1.0,
    seed: int = 0,
    structure_seed: int | None = None,
) -> LabeledSet:
    """Gaussian clusters with mutually equidistant means.

    Class means are placed along orthonormal directions scaled so every
    pair of means is exactly ``separation`` apart; points are the mean
    plus isotropic noise of scale ``noise_sigma``.  ``structure_seed``
    controls the means alone, so several splits (train/test/pool) drawn
    with different ``seed`` values share one class geometry; it defaults
    to ``seed``.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    if separation <= 0:
        raise ValueError("separation must be > 0")
    dim = channels * samples
    if dim < n_classes:
        raise ValueError("channels * samples must be >= n_classes for distinct means")
    structure_rng = np.random.default_rng(seed if structure_seed is None else structure_seed)
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(structure_rng.standard_normal((dim, n_classes)))
    means = (separation / np.sqrt(2.0)) * basis.T  # (k, dim), pairwise distance == separation
    epochs = np.empty((n_per_class * n_classes, dim))
    labels = np.empty(n_per_class * n_classes, dtype=np.int64)
    for c in range(n_classes):
        block = slice(c * n_per_class, (c + 1) * n_per_class)
        epochs[block] = means[c] + noise_sigma * rng.standard_normal((n_per_class, dim))
        labels[block] = c
    return LabeledSet(epochs.reshape(-1, channels, samples), labels)


def gen_synthetic_epochs(
    n_per_class: int,
    n_classes: int,
    channels: int,
    samples: int,
    seed: int = 0,
    noise_amplitude: float = 0.5,
    structure_seed: int | None = None,
) -> LabeledSet:
    """Event-related-potential style epochs: per-class bump plus sinusoid plus noise.

    Each class has its own bump latency, bump amplitude and oscillation
    frequency; channels differ by fixed gains and phases controlled by
    ``structure_seed`` (defaulting to ``seed``), so splits drawn with
    different ``seed`` values share one set of class templates.  The
    whole dataset is rescaled to unit RMS at the end.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    if channels < 1 or samples < 8:
        raise ValueError("need channels >= 1 and samples >= 8")
    structure_rng = np.random.default_rng(seed if structure_seed is None else structure_seed)
    rng = np.random.default_rng(seed)
    gains = 0.5 + structure_rng.random(channels)
    phases = structure_rng.uniform(0.0, 2.0 * np.pi, channels)
    t = np.arange(samples) / samples
    templates = np.empty((n_classes, channels, samples))
    for c in range(n_classes):
        latency = (c + 1) / (n_classes + 1)
        bump = (1.0 + 0.5 * c) * np.exp(-0.5 * ((t - latency) / 0.08) ** 2)
        osc = 0.4 * np.sin(2.0 * np.pi * (4.0 + c) * t[None, :] + phases[:, None])
        templates[c] = gains[:, None] * bump[None, :] + osc
    labels = np.repeat(np.arange(n_classes), n_per_class)
    epochs = templates[labels] + noise_amplitude * rng.standard_normal(
        (len(labels), channels, samples)
    )
    epochs /= np.sqrt(np.mean(epochs**2))
    return LabeledSet(epochs, labels)


def balance_by_predicted_label(
    oracle, pool, per_class: int, seed: int = 0, strict: bool = True
) -> np.ndarray:
    """Downsample a pool to ``per_class`` epochs per oracle-predicted class.

    Labels the whole pool through the oracle (consuming ``len(pool)``
    target queries), groups epochs by the predicted label, and samples
    uniformly without replacement inside each group.  In strict mode every
    class must have at least ``per_class`` members; in lenient mode a
    short class contributes everything it has.

    Returns the selected epochs as an (m, C, T) array, grouped by class.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    xs = as_epoch_batch(pool, oracle.epoch_shape)
    labels = oracle.query_labels(xs)
    rng = np.random.default_rng(seed)
    picks = []
    for c in range(oracle.n_classes):
        idx = np.flatnonzero(labels == c)
        if len(idx) < per_class:
            if strict:
                raise ClassBalanceError(
                    f"predicted class {c} has {len(idx)} epochs, need {per_class}"
                )
            take = idx
        else:
            take = rng.choice(idx, size=per_class, replace=False)
        picks.append(np.sort(take))
    return xs[np.concatenate(picks)]


def write_epochs(path, data: LabeledSet) -> None:
    """Write a LabeledSet in EPO1 format (values cast to binary32)."""
    n = len(data)
    c, t = data.shape if n else (data.epochs.shape[1], data.epochs.shape[2])
    payload = np.ascontiguousarray(data.epochs, dtype="<f4").tobytes()
    labels = np.ascontiguousarray(data.labels, dtype="<i4").tobytes()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(n, c, t))
        fh.write(payload)
        fh.write(labels)


def read_epochs(path) -> LabeledSet:
    """Read an EPO1 file, validating magic, header and exact payload length."""
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != _MAGIC:
        raise MalformedEpochFileError("bad magic, expected b'EPO1'", offset=0)
    if len(raw) < 16:
        raise MalformedEpochFileError("truncated header", offset=len(raw))
    n, c, t = _HEADER.unpack_from(raw, 4)
    n_values = n * c * t
    if n_values > _MAX_VALUES:
        raise MalformedEpochFileError(f"shape ({n}, {c}, {t}) overflows sane limits", offset=4)
    expected = 16 + 4 * n_values + 4 * n
    if len(raw) != expected:
        raise MalformedEpochFileError(
            f"payload length mismatch, expected {expected} bytes, found {len(raw)}",
            offset=min(len(raw), expected),
        )
    values = np.frombuffer(raw, dtype="<f4", count=n_values, offset=16)
    labels = np.frombuffer(raw, dtype="<i4", count=n, offset=16 + 4 * n_values)
    return LabeledSet(
        values.astype(np.float64).reshape(n, c, t), labels.astype(np.int64)
    )
