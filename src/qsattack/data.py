"""Synthetic multichannel epochs, class balancing, and the EPO1 file format.

Balancing draws the same number of epochs from every class the target
predicts, and refuses a pool in which any class falls short.

An epoch is a plain ``(channels, samples)`` float ndarray; a dataset is a
:class:`LabeledSet`.  Label ``-1`` marks an unlabeled epoch.  Every label vector
passes :func:`as_labels`: integer values only (ints, bools, integral floats), else
``ValueError`` and never a truncation; a wrong count raises ShapeMismatchError.

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


def as_labels(labels, n: int, low: int, high: int = 1 << 63, name: str = "labels") -> np.ndarray:
    """The one label check: an (n,) int64 vector of integers in [low, high), ``high`` at most int64's end."""
    arr = np.asarray(labels)
    if arr.shape != (n,):
        raise ShapeMismatchError(f"{n} epochs need a {name} vector of shape ({n},), got {arr.shape}")
    high = min(high, 1 << 63)
    if arr.dtype.kind in "uif":  # a float16 compares with inf for 1 << 63: every finite one is below it
        with np.errstate(over="ignore"):
            ok = (arr >= low) & (arr < high) & (arr == np.floor(arr))  # comparisons are False for NaN
    else:  # bools (a bool array cannot be compared with 1 << 63), strings, Python ints past uint64
        ok = np.array([isinstance(v, (int, np.integer)) and low <= v < high for v in arr.tolist()], dtype=bool)
    if len(bad := np.flatnonzero(~ok)):
        raise ValueError(f"{name} must hold integer class indices in [{low}, {high}), not {arr[bad[0]]} at {bad[0]}")
    return arr.astype(np.int64, copy=False)


def freeze(record, **arrays) -> None:
    """Set read-only copies of arrays on a frozen record: no array or view a caller holds can write into it."""
    for name, arr in arrays.items():
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(record, name, arr)


@dataclass(frozen=True)
class LabeledSet:
    """Epochs of one common shape paired with integer class labels, checked once and frozen, arrays included."""

    epochs: np.ndarray  # (n, C, T) float64, read-only
    labels: np.ndarray  # (n,) int64, -1 for unlabeled, read-only

    def __post_init__(self):
        epochs = as_epoch_batch(self.epochs)
        freeze(self, epochs=epochs, labels=as_labels(self.labels, len(epochs), -1))  # -1 marks unlabeled

    def __len__(self) -> int:
        return len(self.epochs)

    @property
    def shape(self) -> tuple[int, int]:
        """(channels, samples) of every epoch in the set."""
        return tuple(self.epochs.shape[1:])

    def class_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)

    def extended(self, epochs, labels) -> "LabeledSet":
        """A new set with the given epochs appended; the original is untouched."""
        add = as_epoch_batch(epochs, self.shape if len(self) else None)
        lab = as_labels(labels, len(add), -1)
        return LabeledSet(np.concatenate([self.epochs, add]), np.concatenate([self.labels, lab]))


def _streams(n_per_class: int, n_classes: int, seed: int, structure_seed: int | None):
    """Both generators' common refusals, then their structure stream (seeded ``seed`` by default) and sample stream."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    return np.random.default_rng(seed if structure_seed is None else structure_seed), np.random.default_rng(seed)


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
    structure_rng, rng = _streams(n_per_class, n_classes, seed, structure_seed)
    if separation <= 0:
        raise ValueError("separation must be > 0")
    dim = channels * samples
    if dim < n_classes:
        raise ValueError("channels * samples must be >= n_classes for distinct means")
    basis, _ = np.linalg.qr(structure_rng.standard_normal((dim, n_classes)))
    means = (separation / np.sqrt(2.0)) * basis.T  # (k, dim), pairwise distance == separation
    epochs = np.empty((n_per_class * n_classes, channels, samples))
    labels = np.empty(n_per_class * n_classes, dtype=np.int64)
    for c in range(n_classes):
        block = slice(c * n_per_class, (c + 1) * n_per_class)
        epochs.reshape(-1, dim)[block] = means[c] + noise_sigma * rng.standard_normal((n_per_class, dim))
        labels[block] = c
    return LabeledSet(epochs, labels)


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
    structure_rng, rng = _streams(n_per_class, n_classes, seed, structure_seed)
    if channels < 1 or samples < 8:
        raise ValueError("need channels >= 1 and samples >= 8")
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


def balance_by_predicted_label(oracle, pool, per_class: int, seed: int = 0) -> np.ndarray:
    """Downsample a pool to ``per_class`` epochs per oracle-predicted class.

    Labels the whole pool through the oracle (consuming ``len(pool)``
    target queries), groups epochs by the predicted label, and samples
    uniformly without replacement inside each group.  Raises
    :class:`ClassBalanceError` when a class has fewer than ``per_class``
    members.

    Returns the selected epochs as a ``(per_class * n_classes, C, T)``
    array, grouped by class.
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
            raise ClassBalanceError(f"predicted class {c} has {len(idx)} epochs, need {per_class}")
        picks.append(np.sort(rng.choice(idx, size=per_class, replace=False)))
    return xs[np.concatenate(picks)]


def write_epochs(path, data: LabeledSet) -> None:
    """Write a LabeledSet in EPO1 format (values cast to binary32), refusing first what :func:`read_epochs` would."""
    n = len(data)
    c, t = data.shape
    with np.errstate(over="ignore"):  # a value past binary32's range casts to inf, refused below
        values = np.ascontiguousarray(data.epochs, dtype="<f4")
    fits = np.isfinite(values).reshape(n, c * t).all(axis=1)
    if len(bad := np.flatnonzero(~fits | (data.labels < -1) | (data.labels >= 2**31))):
        e = int(bad[0])
        fault = f"label {data.labels[e]}, outside [-1, 2**31 - 1]" if fits[e] else "a value binary32 cannot hold"
        raise ValueError(f"epoch {e} holds {fault}; nothing was written")
    payload = values.tobytes()
    labels = np.ascontiguousarray(data.labels, dtype="<i4").tobytes()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(n, c, t))
        fh.write(payload)
        fh.write(labels)


def read_epochs(path) -> LabeledSet:
    """Read an EPO1 file, validating magic, header, exact payload length, values and labels.

    Raises :class:`MalformedEpochFileError` at the offset of the first
    problem: C or T of 0, a non-finite value, or a label below -1.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != _MAGIC:
        raise MalformedEpochFileError("bad magic, expected b'EPO1'", offset=0)
    if len(raw) < 16:
        raise MalformedEpochFileError("truncated header", offset=len(raw))
    n, c, t = _HEADER.unpack_from(raw, 4)
    if c == 0 or t == 0:
        raise MalformedEpochFileError(f"an epoch needs C and T >= 1, got C={c} T={t}", offset=8 if c == 0 else 12)
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
    if len(bad := np.flatnonzero(~np.isfinite(values))):
        raise MalformedEpochFileError(f"value {values[bad[0]]} is not finite", offset=16 + 4 * int(bad[0]))
    if len(bad := np.flatnonzero(labels < -1)):  # labels follow the values
        raise MalformedEpochFileError(f"label {labels[bad[0]]} is below -1",
                                      offset=16 + 4 * (n_values + int(bad[0])))
    return LabeledSet(values.reshape(n, c, t), labels)
