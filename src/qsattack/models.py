"""Small differentiable softmax classifiers with exact input gradients.

Three architectures over (channels, samples) epochs, all ending in one
dense head: optional nonlinear hidden layers, a dense output layer,
softmax.

* ``linear``: flatten, then the dense head with no hidden layer.
* ``mlp``: flatten, then the dense head with one or two hidden layers.
* ``tcn``: a filter bank in front of the dense head: one bank of 1-D
  filters shared across channels and slid along the time axis,
  activation, global average pooling per (filter, channel); the dense
  head reads the pooled features and has no hidden layer.

Parameters are a single flat float64 vector with named views, which keeps
Adam and checkpointing trivial.  All math is float64 and fully
deterministic given the seeds involved.

Checkpoint format (plain text, documented keys)::

    format: qsattack-model-1
    architecture: mlp
    channels: 4
    samples: 16
    classes: 2
    hidden: 16,8          # comma-separated, empty for none
    activation: relu
    kernel_width: 9
    seed: 3
    n_params: 1234
    params:
    <one repr()-formatted decimal value per line, flat vector order>
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import LabeledSet, as_epoch_batch
from .errors import MalformedCheckpointError, ShapeMismatchError

_ARCHITECTURES = ("linear", "mlp", "tcn")
_ACTIVATIONS = ("relu", "tanh")
_CHECKPOINT_FORMAT = "qsattack-model-1"


@dataclass(frozen=True)
class ModelSpec:
    """Architecture and shape of one classifier.

    ``hidden`` is the hidden layer widths for ``mlp`` (one or two entries)
    and the filter count for ``tcn`` (exactly one entry); ``linear`` takes
    none.  ``kernel_width`` only matters for ``tcn``.
    """

    architecture: str
    channels: int
    samples: int
    classes: int
    hidden: tuple = ()
    activation: str = "relu"
    kernel_width: int = 9
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.architecture not in _ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.classes < 2:
            raise ValueError("classes must be >= 2")
        if self.channels < 1 or self.samples < 1:
            raise ValueError("channels and samples must be >= 1")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden sizes must all be >= 1")
        if self.architecture == "linear" and self.hidden:
            raise ValueError("linear architecture takes no hidden sizes")
        if self.architecture == "mlp" and not 1 <= len(self.hidden) <= 2:
            raise ValueError("mlp takes one or two hidden sizes")
        if self.architecture == "tcn":
            if len(self.hidden) != 1:
                raise ValueError("tcn takes exactly one hidden size (the filter count)")
            if not 1 <= self.kernel_width <= self.samples:
                raise ValueError("tcn kernel_width must be in [1, samples]")

    @property
    def input_shape(self) -> tuple[int, int]:
        return (self.channels, self.samples)


_SPEC_KEYS = [f.name for f in dataclasses.fields(ModelSpec)]  # checkpoint key order


@dataclass(frozen=True)
class TrainConfig:
    """Adam + cross-entropy + early-stopping hyperparameters."""

    learning_rate: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    max_epochs: int = 200
    patience: int = 10
    validation_fraction: float = 0.2
    class_weights: str = "uniform"  # "uniform" | "inverse-frequency"
    batch_size: int = 32
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("Adam betas must be in [0, 1)")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.class_weights not in ("uniform", "inverse-frequency"):
            raise ValueError(f"unknown class_weights mode {self.class_weights!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class TrainHistory:
    """Per-epoch validation losses; the model keeps the parameters of ``best_epoch``."""

    val_loss: list
    best_epoch: int

    @property
    def n_epochs(self) -> int:
        return len(self.val_loss)


def class_weight_vector(labels, n_classes: int, mode: str = "uniform") -> np.ndarray:
    """Per-class loss weights; inverse class frequency normalized to mean 1.

    Classes absent from ``labels`` keep weight 1 (never used).  With two
    or fewer distinct classes required for inverse weighting to make
    sense, single-class data is rejected in that mode.
    """
    if mode == "uniform":
        return np.ones(n_classes)
    if mode != "inverse-frequency":
        raise ValueError(f"unknown class_weights mode {mode!r}")
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels, minlength=n_classes)
    present = counts > 0
    if present.sum() < 2:
        raise ValueError("inverse-frequency weighting needs at least two classes present")
    weights = np.ones(n_classes)
    inv = 1.0 / counts[present]
    weights[present] = inv / inv.mean()
    return weights


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


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _logsumexp(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1)
    return m + np.log(np.exp(z - m[:, None]).sum(axis=1))


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def _act_prime(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    return (z > 0).astype(np.float64) if kind == "relu" else 1.0 - a * a


class SoftmaxClassifier:
    """k-class classifier over (C, T) epochs, usable as target or substitute."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self._table = _layer_table(spec)
        total = sum(int(np.prod(shape)) for _, shape, _ in self._table)
        self._params = np.zeros(total)
        self.views, offset = {}, 0  # named reshaped views into the flat vector
        rng = np.random.default_rng(spec.seed)  # scaled-uniform init, bound 1/sqrt(fan_in)
        for name, shape, fan_in in self._table:
            size = int(np.prod(shape))
            self.views[name] = self._params[offset : offset + size].reshape(shape)
            bound = 1.0 / np.sqrt(fan_in)
            self.views[name][...] = rng.uniform(-bound, bound, size=shape)
            offset += size
        # the dense head's (W, b) per layer; updates are in place, so these views stay live
        dense = [view for name, view in self.views.items() if not name.startswith("conv")]
        self._dense = list(zip(dense[::2], dense[1::2]))
        self._adam_m = np.zeros(total)
        self._adam_v = np.zeros(total)
        self._adam_t = 0

    # -- parameters ------------------------------------------------------

    @property
    def n_parameters(self) -> int:
        return self._params.size

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
        self._params[:] = values

    # -- forward ---------------------------------------------------------

    def _forward(self, X: np.ndarray):
        """Batched logits plus the cache needed for backprop."""
        spec = self.spec
        n = X.shape[0]
        cache = {}
        if spec.architecture == "tcn":  # correlate each channel with every filter, pool over time
            windows = np.lib.stride_tricks.sliding_window_view(X, spec.kernel_width, axis=2)
            feat = np.einsum("nclk,fk->nfcl", windows, self.views["conv_w"])
            feat += self.views["conv_b"][None, :, None, None]
            act = _act(feat, spec.activation)
            cache = {"windows": windows, "feat": feat, "act": act}
            acts = [act.mean(axis=3).reshape(n, -1)]
        else:
            acts = [X.reshape(n, -1)]
        pre = []
        for W, b in self._dense[:-1]:
            pre.append(acts[-1] @ W.T + b)
            acts.append(_act(pre[-1], spec.activation))
        W, b = self._dense[-1]
        cache.update(acts=acts, pre=pre)
        return acts[-1] @ W.T + b, cache

    def _backward(self, X, cache, dlogits, want_params: bool, want_inputs: bool):
        """Backprop ``dlogits`` to the flat parameter gradient and/or input gradients."""
        spec = self.spec
        tcn = spec.architecture == "tcn"
        acts, pre = cache["acts"], cache["pre"]
        grads = []  # per-tensor parameter gradients, last table entry first
        delta = dlogits
        for layer in range(len(self._dense) - 1, -1, -1):
            if want_params:
                grads += [delta.sum(axis=0), delta.T @ acts[layer]]
            if layer == 0 and not (want_inputs or tcn):
                break
            delta = delta @ self._dense[layer][0]
            if layer:
                delta *= _act_prime(pre[layer - 1], acts[layer], spec.activation)
        dX = delta.reshape(X.shape) if want_inputs and not tcn else None
        if tcn:  # filter bank: spread the pooled-feature gradient evenly over the time windows
            windows, feat, act = cache["windows"], cache["feat"], cache["act"]
            window_count = act.shape[3]
            dpooled = delta.reshape(X.shape[0], spec.hidden[0], spec.channels)
            dact = np.broadcast_to(dpooled[..., None] / window_count, act.shape)
            dfeat = dact * _act_prime(feat, act, spec.activation)
            if want_params:
                grads += [dfeat.sum(axis=(0, 2, 3)), np.einsum("nfcl,nclk->fk", dfeat, windows)]
            if want_inputs:
                dX = np.zeros_like(X)
                for k in range(spec.kernel_width):
                    dX[:, :, k : k + window_count] += np.einsum(
                        "nfcl,f->ncl", dfeat, self.views["conv_w"][:, k]
                    )
        flat = np.concatenate([g.ravel() for g in reversed(grads)]) if want_params else None
        return flat, dX

    def probs_batch(self, epochs) -> np.ndarray:
        X = as_epoch_batch(epochs, self.spec.input_shape)
        if len(X) == 0:
            return np.zeros((0, self.spec.classes))
        logits, _ = self._forward(X)
        return _softmax(logits)

    def probs(self, x) -> np.ndarray:
        """Class probability vector for one epoch."""
        return self.probs_batch(np.asarray(x, dtype=np.float64)[None])[0]

    def predict_batch(self, epochs) -> np.ndarray:
        return np.argmax(self.probs_batch(epochs), axis=1).astype(np.int64)

    def predict(self, x) -> int:
        """Argmax of :meth:`probs`; ties break toward the lowest class index."""
        return int(np.argmax(self.probs(x)))

    # -- loss and gradients ----------------------------------------------

    def _check_labels(self, labels) -> np.ndarray:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size and (labels.min() < 0 or labels.max() >= self.spec.classes):
            raise ValueError(
                f"labels must be in [0, {self.spec.classes - 1}], got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        return labels

    def dataset_loss(self, epochs, labels, class_weights=None) -> float:
        """Mean weighted cross-entropy over a batch."""
        X = as_epoch_batch(epochs, self.spec.input_shape)
        y = self._check_labels(labels)
        logits, _ = self._forward(X)
        ce = _logsumexp(logits) - logits[np.arange(len(y)), y]
        if class_weights is not None:
            ce = np.asarray(class_weights)[y] * ce
        return float(ce.mean())

    def input_gradient_batch(self, epochs, labels, class_weights=None) -> np.ndarray:
        """Per-epoch gradient of the (weighted) cross-entropy w.r.t. the input."""
        X = as_epoch_batch(epochs, self.spec.input_shape)
        y = self._check_labels(labels)
        logits, cache = self._forward(X)
        dlogits = _softmax(logits)
        dlogits[np.arange(len(y)), y] -= 1.0
        if class_weights is not None:
            dlogits *= np.asarray(class_weights)[y][:, None]
        _, dX = self._backward(X, cache, dlogits, want_params=False, want_inputs=True)
        return dX

    def input_gradient(self, x, label: int, class_weights=None) -> np.ndarray:
        """Exact analytic gradient of the scalar loss w.r.t. every input entry."""
        return self.input_gradient_batch(np.asarray(x, dtype=np.float64)[None], [label], class_weights)[0]

    def _loss_and_param_grad(self, X, y, weights):
        logits, cache = self._forward(X)
        w = weights[y]
        dlogits = _softmax(logits)
        dlogits[np.arange(len(y)), y] -= 1.0
        dlogits *= (w / len(y))[:, None]
        grads, _ = self._backward(X, cache, dlogits, want_params=True, want_inputs=False)
        return grads

    def _adam_step(self, grads: np.ndarray, cfg: TrainConfig) -> None:
        self._adam_t += 1
        self._adam_m = cfg.beta1 * self._adam_m + (1.0 - cfg.beta1) * grads
        self._adam_v = cfg.beta2 * self._adam_v + (1.0 - cfg.beta2) * grads * grads
        m_hat = self._adam_m / (1.0 - cfg.beta1**self._adam_t)
        v_hat = self._adam_v / (1.0 - cfg.beta2**self._adam_t)
        self._params -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_epsilon)

    def fit(self, data: LabeledSet, cfg: TrainConfig) -> TrainHistory:
        """Minibatch Adam with early stopping on a held-out validation split.

        Restores the parameters of the best validation epoch before
        returning.  Fully deterministic given ``cfg.shuffle_seed`` and the
        current parameters.
        """
        n = len(data)
        if n == 0:
            raise ValueError("training data is empty")
        if n < 2:
            raise ValueError("need at least 2 examples to hold out validation data")
        y = self._check_labels(data.labels)
        if data.shape != self.spec.input_shape:
            raise ShapeMismatchError(
                f"data shape {data.shape} does not match model input {self.spec.input_shape}"
            )
        weights = class_weight_vector(y, self.spec.classes, cfg.class_weights)
        rng = np.random.default_rng(cfg.shuffle_seed)
        perm = rng.permutation(n)
        n_val = min(max(int(round(cfg.validation_fraction * n)), 1), n - 1)
        val_idx, train_idx = perm[:n_val], perm[n_val:]
        X_train, y_train = data.epochs[train_idx], y[train_idx]
        X_val, y_val = data.epochs[val_idx], y[val_idx]

        best_loss = np.inf
        best_params = self._params.copy()
        stall = 0
        val_losses = []
        for _ in range(cfg.max_epochs):
            order = rng.permutation(len(train_idx))
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                grads = self._loss_and_param_grad(X_train[batch], y_train[batch], weights)
                self._adam_step(grads, cfg)
            val_losses.append(self.dataset_loss(X_val, y_val, weights))
            if val_losses[-1] < best_loss:
                best_loss = val_losses[-1]
                best_params = self._params.copy()
                stall = 0
            else:
                stall += 1
            if stall >= cfg.patience:
                break
        self._params[:] = best_params
        return TrainHistory(val_losses, int(np.argmin(val_losses)))


def save_checkpoint(model: SoftmaxClassifier, path) -> None:
    """Write the documented plain-text checkpoint format."""
    lines = [f"format: {_CHECKPOINT_FORMAT}"]
    for key in _SPEC_KEYS:
        value = getattr(model.spec, key)
        lines.append(f"{key}: " + (",".join(str(h) for h in value) if key == "hidden" else f"{value}"))
    lines += [f"n_params: {model.n_parameters}", "params:"]
    lines.extend(repr(float(v)) for v in model.parameters)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_checkpoint(path) -> SoftmaxClassifier:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Structural problems raise :class:`MalformedCheckpointError` naming the
    key or line at fault.
    """
    fields = {}
    params = []
    in_params = False
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if in_params:
            try:
                params.append(float(line))
            except ValueError:
                raise MalformedCheckpointError(
                    f"line {lineno}: parameter {line!r} is not a number"
                ) from None
            continue
        if line == "params:":
            in_params = True
            continue
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    if fields.get("format") != _CHECKPOINT_FORMAT:
        raise MalformedCheckpointError(f"unsupported checkpoint format {fields.get('format')!r}")
    unknown = set(fields) - {"format", "n_params", *_SPEC_KEYS}
    if unknown:
        raise MalformedCheckpointError(f"unknown checkpoint keys: {sorted(unknown)}")

    def field(key, parse=int):
        if key not in fields:
            raise MalformedCheckpointError(f"checkpoint is missing key {key!r}")
        try:
            return parse(fields[key])
        except ValueError:
            raise MalformedCheckpointError(
                f"checkpoint key {key!r} has invalid value {fields[key]!r}"
            ) from None

    parsers = {"architecture": str, "activation": str,
               "hidden": lambda v: tuple(int(h) for h in v.split(",") if h)}
    values = {key: field(key, parsers.get(key, int)) for key in _SPEC_KEYS}
    try:
        spec = ModelSpec(**values)
    except ValueError as exc:
        raise MalformedCheckpointError(f"checkpoint describes an invalid model: {exc}") from None
    n_params = field("n_params")
    model = SoftmaxClassifier(spec)
    if len(params) != n_params or n_params != model.n_parameters:
        raise MalformedCheckpointError(
            f"checkpoint key 'n_params' declares {n_params} parameters, the file holds "
            f"{len(params)} and the model needs {model.n_parameters}"
        )
    model.set_parameters(np.array(params))
    return model
