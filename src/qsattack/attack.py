"""Sign-gradient adversarial perturbations and the random-sign control.

All three methods emit quantized steps: every perturbation component is
exactly ``-epsilon``, ``0`` or ``+epsilon`` (``sign(0) == 0``), so the
max-norm bound holds by construction.  The stored ``delta`` is computed
directly as ``epsilon * sign(...)`` and the perturbed epoch as
``original + delta``; nothing is clipped afterwards, signals have no box
bounds here.

Crafting is batch-first: :func:`craft_batch` is the one implementation
and returns a single :class:`AdversarialExample` record for the whole
batch; :func:`fgsm`, :func:`ufgsm` and :func:`random_noise` are
single-epoch wrappers that return its one-epoch view.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import LabeledSet, as_epoch_batch, as_labels, freeze, write_epochs
from .errors import check_fields, ranged

_METHODS = ("fgsm", "ufgsm", "noise")


@dataclass(frozen=True)
class AttackConfig:
    """Perturbation bound and crafting method."""

    epsilon: float = ranged(0.1, low=0)
    method: str = ranged("ufgsm", choices=_METHODS)
    noise_seed: int = ranged(0, low=0)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class AdversarialExample:
    """Originals and quantized deltas from one crafting call, and the ``config`` that crafted them.

    :func:`craft_batch` returns (n, C, T) arrays and an (n,) int64
    ``label_used`` holding the loss label per epoch, ``-1`` for noise.
    Indexing gives the single-epoch view: (C, T) arrays and an int label,
    or None for noise, with the same ``config``.
    """

    original: np.ndarray
    delta: np.ndarray
    label_used: np.ndarray | int | None
    config: AttackConfig

    def __post_init__(self):
        freeze(self, **{name: v for name, v in vars(self).items() if isinstance(v, np.ndarray)})

    @property
    def perturbed(self) -> np.ndarray:
        return self.original + self.delta

    def __len__(self) -> int:
        return len(self.original)

    def __getitem__(self, i: int) -> "AdversarialExample":
        label = int(self.label_used[i])
        return AdversarialExample(self.original[i], self.delta[i], label if label >= 0 else None, self.config)


def fgsm(model, x, label: int, epsilon: float) -> AdversarialExample:
    """Supervised one-step sign-gradient perturbation of max-norm ``epsilon``."""
    return craft_batch(model, [x], AttackConfig(epsilon, "fgsm"), true_labels=[label])[0]


def ufgsm(model, x, epsilon: float) -> AdversarialExample:
    """Unsupervised variant: the model's own prediction replaces the true label."""
    return craft_batch(model, [x], AttackConfig(epsilon, "ufgsm"))[0]


def random_noise(x, epsilon: float, rng: np.random.Generator) -> AdversarialExample:
    """Control perturbation: ``epsilon`` times the sign of a standard-normal draw."""
    return craft_batch(None, [x], AttackConfig(epsilon, "noise"), rng=rng)[0]


def craft_batch(model, epochs, cfg: AttackConfig, true_labels=None, rng=None) -> AdversarialExample:
    """Apply the configured method to every epoch at once.

    ``fgsm`` needs ``true_labels`` (checked by ``as_labels``); ``ufgsm`` and ``noise``
    ignore them.  ``model`` may be None only for noise (else ``ValueError``), which
    draws from ``rng`` when given and from ``cfg.noise_seed`` otherwise; one (n, C, T)
    draw consumes the stream exactly as n per-epoch draws would.
    """
    if model is None and cfg.method != "noise":
        raise ValueError(f"{cfg.method} needs a model to take input gradients from, got None")
    xs = as_epoch_batch(epochs, model.spec.input_shape if model is not None else None)
    if cfg.method == "noise":
        rng = rng if rng is not None else np.random.default_rng(cfg.noise_seed)
        delta = cfg.epsilon * np.sign(rng.standard_normal(xs.shape))
        return AdversarialExample(xs, delta, np.full(len(xs), -1, dtype=np.int64), cfg)
    if cfg.method == "fgsm":  # missing true_labels have the wrong shape: ShapeMismatchError
        labels = as_labels(true_labels, len(xs), 0, model.spec.classes, "true_labels")
    else:
        labels = model.predict_batch(xs)
    grads = model.input_gradient_batch(xs, labels)
    return AdversarialExample(xs, cfg.epsilon * np.sign(grads), labels, cfg)


def save_adversarial_batch(out_dir, examples: AdversarialExample) -> None:
    """Write originals and perturbed epochs as EPO1 files plus a JSON manifest of the batch's ``config``.

    Its provenance, ``gradient_source``, is ``noise-generator`` for the noise control, else ``substitute``.
    """
    out, cfg = Path(out_dir), examples.config
    out.mkdir(parents=True, exist_ok=True)
    write_epochs(out / "originals.epo", LabeledSet(examples.original, examples.label_used))
    write_epochs(out / "perturbed.epo", LabeledSet(examples.perturbed, examples.label_used))
    manifest = {
        "method": cfg.method,
        "epsilon": cfg.epsilon,
        "noise_seed": cfg.noise_seed,
        "count": len(examples),
        "gradient_source": "noise-generator" if cfg.method == "noise" else "substitute",
        "files": ["originals.epo", "perturbed.epo"],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")
