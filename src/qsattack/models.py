"""Small differentiable softmax classifiers with exact input gradients.

Three architectures over (channels, samples) epochs, all ending in one
dense head: optional nonlinear hidden layers, a dense output layer,
softmax.

* ``linear``: flatten, then the dense head with no hidden layer.
* ``mlp``: flatten, then the dense head with one or two hidden layers.
* ``tcn``: a filter bank in front of the dense head: one bank of 1-D
  filters shared across channels and slid along the time axis,
  activation, global average pooling per (filter, channel); the dense
  head reads the pooled features and has no hidden layer.  The bank is
  one matmul against a banded filter matrix and the pooling one matmul
  against a fixed averaging matrix; their gradients are matmuls too.

Parameters, their gradient and Adam's moments (two rows of one array) are
flat float64 vectors with named views.  One forward and backward serve
prediction, input gradients and training, whose step updates all of them
in place, in the textbook formulas' order of float operations.  Both read
layer tables built once per model (the hidden and head ``(W, b)`` views,
the backward's reversed ``(layer, gW, gb, W)`` rows, the architecture
flag, the activation and its derivative); a row's max folds
``np.maximum`` over the class columns, exact in any order; softmax,
log-sum-exp and bias adds work in place on their own temporaries, and a
fit builds its batch views once.  ``spec.n_params`` is the one parameter
count; specs of over 2**31 parameters are refused.
All math is deterministic given the seeds.

The labels of ``fit``, ``dataset_loss`` and ``input_gradient_batch`` pass
:func:`qsattack.data.as_labels` once per call: integers in ``[0, classes)``,
else ``ValueError`` (none is truncated); a wrong count raises ShapeMismatchError.

Checkpoint format: UTF-8, ``\\n`` line ends, these lines in this order.  A
file loads only in the exact bytes :func:`save_checkpoint` writes::

    format: qsattack-model-1
    architecture: mlp
    channels: 4
    samples: 16
    classes: 2
    hidden: 16,8          # comma-separated integers, empty for none
    activation: relu
    kernel_width: 9
    seed: 3
    n_params: 1234
    params:
    <one repr()-formatted decimal value per line, flat vector order>
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .data import _MAX_VALUES, LabeledSet, as_epoch_batch, as_labels
from .errors import MalformedCheckpointError, ShapeMismatchError, check_fields, is_integer, ranged

_ARCHITECTURES = ("linear", "mlp", "tcn")
_ACTIVATIONS = {  # in place on z; the derivative from the activation alone: relu(z) > 0 exactly where z > 0
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda a: a > 0),
    "tanh": (lambda z: np.tanh(z, out=z), lambda a: 1.0 - a * a),
}
_CHECKPOINT_FORMAT = "qsattack-model-1"
_BETA1, _BETA2, _ADAM_EPSILON = 0.9, 0.999, 1e-8  # Kingma & Ba (2015)
_LEARNING_RATE = 1e-2
_VALIDATION_FRACTION = 0.2  # of each fit's labeled set, held out for early stopping


@dataclass(frozen=True)
class ModelSpec:
    """Architecture and shape of one classifier.

    ``hidden`` is the hidden layer widths for ``mlp`` (one or two entries)
    and the filter count for ``tcn`` (exactly one entry); ``linear`` takes
    none.  ``kernel_width`` only matters for ``tcn``.  ``n_params`` counts the parameters.
    """

    architecture: str = ranged(choices=_ARCHITECTURES)
    channels: int = ranged(low=1)
    samples: int = ranged(low=1)
    classes: int = ranged(low=2)
    hidden: tuple = ()
    activation: str = ranged("relu", choices=_ACTIVATIONS)
    kernel_width: int = 9
    seed: int = ranged(0, low=0)  # numpy takes no negative seed

    def __post_init__(self):
        check_fields(self)
        if not all(is_integer(h) and h >= 1 for h in self.hidden):  # none truncated: 1.5, "5" and True are refused
            raise ValueError(f"hidden sizes must all be integers >= 1, got {self.hidden!r}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.architecture == "linear" and self.hidden:
            raise ValueError("linear architecture takes no hidden sizes")
        if self.architecture == "mlp" and not 1 <= len(self.hidden) <= 2:
            raise ValueError("mlp takes one or two hidden sizes")
        if self.architecture == "tcn":
            if len(self.hidden) != 1:
                raise ValueError("tcn takes exactly one hidden size (the filter count)")
            if not 1 <= self.kernel_width <= self.samples:
                raise ValueError("tcn kernel_width must be in [1, samples]")
        n_params = sum(math.prod(shape) for _, shape, _ in _layer_table(self))  # Python ints: no overflow
        if n_params > _MAX_VALUES:  # refused before anything is allocated
            raise ValueError(f"hidden {list(self.hidden)} gives {n_params} parameters, more than {_MAX_VALUES}")
        object.__setattr__(self, "n_params", n_params)  # not a field: keys, ==, repr and checkpoints skip it

    @property
    def input_shape(self) -> tuple[int, int]:
        return (self.channels, self.samples)


_SPEC_KEYS = [f.name for f in dataclasses.fields(ModelSpec)]  # checkpoint key order


@dataclass(frozen=True)
class TrainConfig:
    """Adam + cross-entropy + early-stopping hyperparameters beside the module's fixed rate and split."""

    max_epochs: int = ranged(200, low=1)
    patience: int = ranged(10, low=1)
    batch_size: int = ranged(32, low=1)
    shuffle_seed: int = ranged(0, low=0)

    def __post_init__(self):
        check_fields(self)


@dataclass
class TrainHistory:
    """Per-epoch validation losses; the model keeps the parameters of ``best_epoch``."""

    val_loss: list
    best_epoch: int

    @property
    def n_epochs(self) -> int:
        return len(self.val_loss)


def _layer_table(spec: ModelSpec):
    """(name, shape, fan_in) for every parameter tensor, in initialization order."""
    table, inputs, hidden = [], spec.channels * spec.samples, spec.hidden
    if spec.architecture == "tcn":  # the filter bank; the dense head reads its F*C pooled features
        n_filters, width = spec.hidden[0], spec.kernel_width
        table = [("conv_w", (n_filters, width), width), ("conv_b", (n_filters,), width)]
        inputs, hidden = n_filters * spec.channels, ()
    sizes = (inputs,) + hidden + (spec.classes,)
    for i in range(len(sizes) - 1):
        table.append((f"W{i}", (sizes[i + 1], sizes[i]), sizes[i]))
        table.append((f"b{i}", (sizes[i + 1],), sizes[i]))
    return table


def _row_max(z: np.ndarray) -> np.ndarray:
    m = z[:, 0]
    for c in range(1, z.shape[1]):
        m = np.maximum(m, z[:, c])
    return m


def _softmax(z: np.ndarray) -> np.ndarray:
    e = z - _row_max(z)[:, None]  # exponentiated and divided in place: z stays as it was
    np.exp(e, out=e)
    return np.divide(e, np.add.reduce(e, axis=1, keepdims=True), out=e)  # not a fold: numpy sums 8+ classes pairwise


def _logsumexp(z: np.ndarray) -> np.ndarray:
    m = _row_max(z)
    e = z - m[:, None]  # exponentiated in place, its row sums logged and added to in place: z stays as it was
    s = np.add.reduce(np.exp(e, out=e), axis=1)
    return np.add(np.log(s, out=s), m, out=s)  # m + log(sum): float addition commutes


class SoftmaxClassifier:
    """k-class classifier over (C, T) epochs, usable as target or substitute."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self._params, self._grad = np.zeros(spec.n_params), np.zeros(spec.n_params)  # _backward writes _grad in place
        self.views, self._grads, offset = {}, {}, 0  # named reshaped views into each flat vector
        rng = np.random.default_rng(spec.seed)  # scaled-uniform init, bound 1/sqrt(fan_in)
        for name, shape, fan_in in _layer_table(spec):
            size = math.prod(shape)
            self.views[name] = self._params[offset : offset + size].reshape(shape)
            self._grads[name] = self._grad[offset : offset + size].reshape(shape)
            bound = 1.0 / np.sqrt(fan_in)
            self.views[name][...] = rng.uniform(-bound, bound, size=shape)
            offset += size
        # layer tables, built once: updates are in place, so these views stay live
        dense = [name for name in self.views if not name.startswith("conv")]
        pairs = list(zip(dense[::2], dense[1::2]))  # the dense head's (W, b) names per layer
        *self._hidden, self._head = [(self.views[w], self.views[b]) for w, b in pairs]
        self._backprop = [(layer, self._grads[w], self._grads[b], self.views[w])  # (layer, gW, gb, W), head first
                          for layer, (w, b) in enumerate(pairs)][::-1]
        self._tcn, (self._activate, self._derivative) = spec.architecture == "tcn", _ACTIVATIONS[spec.activation]
        if self._tcn:  # flat indices of band[w + j, w*F + f] = conv_w[f, j]
            windows, (n_filters,) = spec.samples - spec.kernel_width + 1, spec.hidden
            w, f, j = np.ix_(np.arange(windows), np.arange(n_filters), np.arange(spec.kernel_width))
            self._band_idx = (w + j) * (windows * n_filters) + w * n_filters + f  # (windows, F, k)
            self._pool = np.tile(np.eye(n_filters) / windows, (windows, 1))  # (windows*F, F) mean
        self._adam = np.zeros((2, spec.n_params))  # Adam's moments, updated in place
        self._adam_m, self._adam_v = self._adam  # its rows: first and second moment
        self._adam_t = 0

    # -- parameters ------------------------------------------------------

    @property
    def parameters(self) -> np.ndarray:
        """Copy of the flat parameter vector."""
        return self._params.copy()

    def set_parameters(self, values) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self._params.shape:
            raise ValueError(
                f"expected {self._params.size} parameters, got {values.size}"
            )
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:  # a NaN or inf weight would label every epoch class 0
            raise ValueError(f"parameter {bad[0]} is not finite: {float(values[bad[0]])}")
        self._params[:] = values

    def copy(self) -> "SoftmaxClassifier":
        """An independent copy with these parameters and Adam state: it predicts and trains on as this model would."""
        twin = type(self)(self.spec)
        twin._params[:], twin._adam[...], twin._adam_t = self._params, self._adam, self._adam_t
        return twin

    # -- forward ---------------------------------------------------------

    def _forward(self, X: np.ndarray):
        """Batched logits plus the cache needed for backprop; every caller has checked the shape of ``X``."""
        (n, C, T), activate, cache = X.shape, self._activate, {}
        if self._tcn:  # banded filter matrix: one row per (epoch, channel), one matmul
            n_filters, X2d, band = self.spec.hidden[0], X.reshape(n * C, T), np.zeros((T, self._pool.shape[0]))
            band.reshape(band.size)[self._band_idx] = self.views["conv_w"]  # written anew every forward
            act = X2d @ band  # (n*C, windows*F)
            by_filter = act.reshape(act.size // n_filters, n_filters)  # a view: add the bias in place
            by_filter += self.views["conv_b"]
            activate(act)
            cache = {"X2d": X2d, "band": band, "act": act}
            # mean over the windows by one matmul; the dense head reads (filter, channel) order
            pooled = (act @ self._pool).reshape(n, C, n_filters)
            acts = [pooled.transpose(0, 2, 1).reshape(n, n_filters * C)]
        else:
            acts = [X.reshape(n, C * T)]
        for W, b in self._hidden:  # each layer adds its bias in place to its matmul result
            z = acts[-1] @ W.T
            acts.append(activate(np.add(z, b, z)))
        W, b = self._head
        cache["acts"] = acts
        logits = acts[-1] @ W.T
        return np.add(logits, b, logits), cache

    def _backward(self, X, cache, dlogits, to_inputs: bool):
        """Backprop ``dlogits`` to input gradients (returned) if ``to_inputs``, else to the parameters' ``_grad``."""
        tcn, derivative = self._tcn, self._derivative
        acts, delta = cache["acts"], dlogits
        for layer, gW, gb, W in self._backprop:
            if not to_inputs:
                np.add.reduce(delta, axis=0, out=gb)
                np.matmul(delta.T, acts[layer], out=gW)
            if layer == 0 and not (to_inputs or tcn):
                return None
            delta = delta @ W
            if layer:
                delta *= derivative(acts[layer])
        if not tcn:
            return delta.reshape(X.shape)
        # filter bank: the averaging matmul's transpose spreads dpooled over the windows
        X2d, band, act = cache["X2d"], cache["band"], cache["act"]
        n, n_filters, C = X.shape[0], self.spec.hidden[0], self.spec.channels
        dpooled = delta.reshape(n, n_filters, C).transpose(0, 2, 1).reshape(n * C, n_filters)
        dfeat = dpooled @ self._pool.T  # (n*C, windows*F)
        dfeat *= derivative(act)
        if not to_inputs:  # conv_w sums X2d.T @ dfeat along each tap's band diagonal
            by_filter = dfeat.reshape(dfeat.size // n_filters, n_filters)
            np.matmul(np.ones(len(by_filter)), by_filter, out=self._grads["conv_b"])
            np.add.reduce((X2d.T @ dfeat).ravel()[self._band_idx], axis=0, out=self._grads["conv_w"])
            return None
        return (dfeat @ band.T).reshape(X.shape)

    def probs_batch(self, epochs) -> np.ndarray:
        logits, _ = self._forward(as_epoch_batch(epochs, self.spec.input_shape))
        return _softmax(logits)

    def probs(self, x) -> np.ndarray:
        """Class probability vector for one epoch."""
        return self.probs_batch(np.asarray(x, dtype=np.float64)[None])[0]

    def predict_batch(self, epochs) -> np.ndarray:
        return np.argmax(self.probs_batch(epochs), axis=1).astype(np.int64, copy=False)  # argmax's labels, not a copy

    def predict(self, x) -> int:
        """Argmax of :meth:`probs`; ties break toward the lowest class index."""
        return int(np.argmax(self.probs(x)))

    # -- loss and gradients ----------------------------------------------

    def dataset_loss(self, epochs, labels) -> float:
        """Mean cross-entropy over a non-empty batch."""
        X = as_epoch_batch(epochs, self.spec.input_shape)
        y = as_labels(labels, len(X), 0, self.spec.classes)
        if len(X) == 0:
            raise ValueError("cannot take the mean loss of an empty batch")
        return self._mean_loss(X, y)

    def _mean_loss(self, X, y) -> float:
        """Mean cross-entropy of checked, non-empty epochs and labels."""
        logits, _ = self._forward(X)
        v = _logsumexp(logits)  # less each label's logit in place, then ndarray.mean's sum and division
        return float(np.add.reduce(np.subtract(v, logits[np.arange(len(y)), y], out=v)) / len(y))

    def input_gradient_batch(self, epochs, labels) -> np.ndarray:
        """Per-epoch gradient of the cross-entropy w.r.t. the input."""
        X = as_epoch_batch(epochs, self.spec.input_shape)
        y = as_labels(labels, len(X), 0, self.spec.classes)
        logits, cache = self._forward(X)
        dlogits = _softmax(logits)
        dlogits[np.arange(len(y)), y] -= 1.0
        return self._backward(X, cache, dlogits, to_inputs=True)

    def input_gradient(self, x, label: int) -> np.ndarray:
        """Exact analytic gradient of the scalar loss w.r.t. every input entry."""
        return self.input_gradient_batch(np.asarray(x, dtype=np.float64)[None], [label])[0]

    def _loss_and_param_grad(self, X, targets):
        """Flat gradient (``_grad``, until the next call) of the mean cross-entropy of one-hot ``targets``."""
        logits, cache = self._forward(X)
        dlogits = _softmax(logits)
        dlogits -= targets  # exactly 1.0 off each label's probability, 0.0 off the rest
        dlogits *= 1.0 / len(targets)  # times the reciprocal: a division rounds differently
        self._backward(X, cache, dlogits, False)  # positional: no keyword matching per step
        return self._grad

    def _adam_step(self, grads: np.ndarray, m_hat: np.ndarray, v_hat: np.ndarray) -> None:
        m, v, self._adam_t = self._adam_m, self._adam_v, self._adam_t + 1
        m *= _BETA1
        m += np.multiply(1.0 - _BETA1, grads, out=m_hat)  # m = b1*m + (1-b1)*g
        v *= _BETA2
        v += np.multiply(np.multiply(1.0 - _BETA2, grads, out=v_hat), grads, out=v_hat)  # v = b2*v + (1-b2)*g*g
        np.divide(m, 1.0 - _BETA1**self._adam_t, out=m_hat)
        np.sqrt(np.divide(v, 1.0 - _BETA2**self._adam_t, out=v_hat), out=v_hat)
        v_hat += _ADAM_EPSILON
        m_hat *= _LEARNING_RATE
        self._params -= np.divide(m_hat, v_hat, out=m_hat)  # lr*m_hat / (sqrt(v_hat) + eps)

    def fit(self, data: LabeledSet, cfg: TrainConfig) -> TrainHistory:
        """Minibatch Adam with early stopping on a held-out validation split.

        Restores the parameters of the best validation epoch before
        returning.  Fully deterministic given ``cfg.shuffle_seed`` and the
        current parameters.
        """
        n = len(data)
        if n < 2:
            raise ValueError(f"need at least 2 examples to hold out validation data, got {n}")
        y = as_labels(data.labels, n, 0, self.spec.classes)
        if data.shape != self.spec.input_shape:
            raise ShapeMismatchError(f"data shape {data.shape} does not match model input {self.spec.input_shape}")
        rng = np.random.default_rng(cfg.shuffle_seed)
        perm = rng.permutation(n)
        n_val = min(max(int(round(_VALIDATION_FRACTION * n)), 1), n - 1)
        val_idx, train_idx = perm[:n_val], perm[n_val:]
        X_val, y_val, targets = data.epochs[val_idx], y[val_idx], np.eye(self.spec.classes)[y]

        best_loss, best_params, stall, val_losses = np.inf, self._params.copy(), 0, []
        m_hat, v_hat = np.empty((2, self.spec.n_params))  # Adam's scratch, written in place every step
        X_epoch, T_epoch = data.epochs[train_idx], targets[train_idx]  # each epoch's shuffled rows, refilled
        batches = [(X_epoch[i : i + cfg.batch_size], T_epoch[i : i + cfg.batch_size])  # views, built once
                   for i in range(0, len(train_idx), cfg.batch_size)]
        step, loss_grad = self._adam_step, self._loss_and_param_grad
        for _ in range(cfg.max_epochs):
            order = train_idx[rng.permutation(len(train_idx))]
            data.epochs.take(order, 0, X_epoch, "clip")  # rows all in range: "clip" only skips a buffered copy
            targets.take(order, 0, T_epoch, "clip")
            for X_batch, T_batch in batches:
                step(loss_grad(X_batch, T_batch), m_hat, v_hat)
            val_losses.append(self._mean_loss(X_val, y_val))
            if val_losses[-1] < best_loss:
                best_loss, best_params, stall = val_losses[-1], self._params.copy(), 0
            else:
                stall += 1
            if stall >= cfg.patience:
                break
        self._params[:] = best_params
        return TrainHistory(val_losses, int(np.argmin(val_losses)))


def _checkpoint_text(model: SoftmaxClassifier) -> str:
    """The whole text :func:`save_checkpoint` writes: the one text :func:`load_checkpoint` accepts."""
    spec = dataclasses.asdict(model.spec) | {"hidden": ",".join(map(str, model.spec.hidden))}  # in _SPEC_KEYS order
    lines = [f"format: {_CHECKPOINT_FORMAT}", *(f"{key}: {value}" for key, value in spec.items()),
             f"n_params: {model.spec.n_params}", "params:"]
    lines += map(repr, model.parameters.tolist())  # Python floats: repr gives the bare decimal
    return "\n".join(lines) + "\n"


def save_checkpoint(model: SoftmaxClassifier, path) -> None:
    """Write the documented plain-text checkpoint format, as UTF-8 bytes with ``\\n`` line ends on every platform."""
    Path(path).write_bytes(_checkpoint_text(model).encode("utf-8"))


def load_checkpoint(path) -> SoftmaxClassifier:
    """Read a checkpoint in exactly the bytes :func:`save_checkpoint` writes.

    The keys are read in writer order.  Every fault raises
    :class:`MalformedCheckpointError`, which names the line at fault when
    there is one; a file that loads but would be written back otherwise
    (``\\r\\n``, spacing, ``seed: 0_3``, a parameter ``1e1``) names its first
    such line.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")  # not read_text: it turns \r\n into \n
    except UnicodeDecodeError as exc:
        raise MalformedCheckpointError(f"checkpoint is not UTF-8 text: {exc}") from None
    lines = text.removesuffix("\n").split("\n")  # the final newline is checked with the rest below
    if lines[0] != f"format: {_CHECKPOINT_FORMAT}":
        raise MalformedCheckpointError(f"line 1: unsupported checkpoint format {lines[0]!r}")
    keys, values = [*_SPEC_KEYS, "n_params"], {}
    parsers = {"architecture": str, "activation": str,
               "hidden": lambda v: tuple(int(h) for h in v.split(",")) if v else ()}  # int("") refuses an empty item
    for lineno, (key, line) in enumerate(zip_longest(keys, lines[1 : len(keys) + 1], fillvalue=""), 2):
        if not line.startswith(f"{key}: "):
            raise MalformedCheckpointError(f"line {lineno}: expected key {key!r}, found {line!r}")
        value = line[len(key) + 2 :]
        try:
            values[key] = parsers.get(key, int)(value)
        except ValueError:
            raise MalformedCheckpointError(f"line {lineno}: key {key!r} has invalid value {value!r}") from None
    params, first = [], len(keys) + 3  # line len(keys) + 2 is "params:"
    for lineno, line in enumerate(lines[first - 1 :], first):
        try:
            params.append(float(line))
        except ValueError:
            raise MalformedCheckpointError(f"line {lineno}: parameter {line!r} is not a number") from None
        if not math.isfinite(params[-1]):
            raise MalformedCheckpointError(f"line {lineno}: parameter {line!r} is not finite")
    n_params = values.pop("n_params")
    try:
        spec = ModelSpec(**values)
    except ValueError as exc:
        raise MalformedCheckpointError(f"checkpoint describes an invalid model: {exc}") from None
    if len(params) != n_params or n_params != spec.n_params:
        raise MalformedCheckpointError(
            f"checkpoint key 'n_params' declares {n_params} parameters, the file holds "
            f"{len(params)} and the model needs {spec.n_params}"
        )
    model = SoftmaxClassifier(spec)
    model.set_parameters(params)
    if (written := _checkpoint_text(model)) != text:  # also every line the parse above let through
        lineno, found, wanted = next((n, got, want) for n, (got, want) in enumerate(
            zip_longest(text.splitlines(True), written.splitlines(True), fillvalue=""), 1) if got != want)
        raise MalformedCheckpointError(f"line {lineno} reads {found!r}, where save_checkpoint writes {wanted!r}")
    return model
