"""Query-synthesis substitute training and the gradient-step baseline.

The active strategy brackets the substitute's decision boundary by
repeated midpoint halving between an opposite-labeled pair, then queries
a point offset from the refined midpoint along a direction orthogonal to
the pair difference.  Only the freshly synthesized epochs are sent to the
target oracle; all boundary probing happens against the substitute.

Accounting conventions:

* one target query per epoch the oracle labels;
* one substitute query per midpoint evaluation inside the halving loop,
  so a synthesized epoch costs ``2 * bisection_steps`` substitute queries
  (one halving run to refine the pair, a second one inside the
  mid-perpendicular step).  Endpoint labels are free: a round reads them
  from one batched forward over the labeled set, and runs its halvings
  in lockstep as ``2 * bisection_steps`` more batched forwards.

The baseline's step, :func:`jacobian_augment`, is the ``ufgsm`` craft at ``epsilon = step_size``.  Every round after
round 0 labels its epochs and extends the immutable :class:`LabeledSet`; one :func:`advance` then fits a copy of the
last round's substitute on it, so its :class:`TraceRow` keeps how a run stopping there ends.  A run that stops inside a
doubling round is a leaf, which :func:`branch` makes from the trajectory's rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations

import numpy as np

from .attack import AttackConfig, craft_batch
from .data import LabeledSet, as_epoch_batch, freeze
from .errors import (BoundaryLostError, BudgetExhaustedError, ClassBalanceError, DegenerateDirectionError,
                     check_fields, ranged)
from .models import ModelSpec, SoftmaxClassifier, TrainConfig

_NORM_FLOOR = 1e-8
_RESELECT_LIMIT = 32  # pair picks per epoch before it falls back to a Gaussian draw
_RESAMPLE_LIMIT = 16  # offset draws before an orthogonalization counts as degenerate


@dataclass(frozen=True)
class OppositePair:
    """Two same-shape epochs carrying different class labels, as read-only arrays."""

    x_plus: np.ndarray
    x_minus: np.ndarray
    label_plus: int
    label_minus: int

    def __post_init__(self):
        freeze(self, **{name: np.asarray(getattr(self, name), dtype=np.float64) for name in ("x_plus", "x_minus")})
        if self.x_plus.shape != self.x_minus.shape:
            raise ValueError("pair endpoints must share one shape")
        if self.label_plus == self.label_minus:
            raise ValueError("pair labels must differ")

    @property
    def distance(self) -> float:
        return float(np.linalg.norm(self.x_plus - self.x_minus))


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs of the active augmentation loop."""

    n_iterations: int = ranged(2, low=0)                 # augment-and-retrain rounds after round 0; 0 pretrains only
    per_iteration: int = ranged(200, low=1)              # synthesized epochs per round
    bisection_steps: int = ranged(10, low=1)             # midpoint halvings per boundary search
    offset_norm: float = ranged(1.0, low=0, above=True)  # L2 magnitude of the orthogonal offset
    seed: int = ranged(0, low=0)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class JacobianConfig:
    """Gradient-step augmentation baseline."""

    step_size: float = ranged(0.5, low=0, above=True)
    n_iterations: int = ranged(1, low=0)  # doubling rounds after round 0; 0 pretrains only

    def __post_init__(self):
        check_fields(self)


class QueryCounter:
    """Monotone counter used for substitute-query bookkeeping."""

    def __init__(self):
        self.count = 0

    def add(self, n: int = 1) -> None:
        self.count += n


@dataclass
class TraceRow:
    """One round, whose number is the row's index in ``trace.rows``: its counts, new epochs (None in row 0), what
    the oracle labeled them (S0 in row 0) and a copy of the substitute the round left, Adam state included."""

    target_queries: int
    substitute_queries: int
    train_set_size: int
    synthesized: np.ndarray | None = None
    labels: np.ndarray | None = None
    substitute: SoftmaxClassifier | None = None


@dataclass
class AugmentationTrace:
    """Per-iteration accounting for one substitute training run.

    Row 0 describes the state right after the initial set was labeled and
    the substitute pre-trained; row ``i`` the state after outer iteration
    ``i``.  Query counts are relative to the start of the run.
    """

    rows: list = field(default_factory=list)

    @property
    def substitute_query_total(self) -> int:
        return self.rows[-1].substitute_queries if self.rows else 0


def _halve(x_plus, x_minus, y_plus, y_minus, model, steps: int):
    """``steps`` midpoint halvings of m pairs (rows) in lockstep, one batched forward each.

    A midpoint labeled ``y_plus[k]`` replaces ``x_plus[k]``; any other label
    replaces ``x_minus[k]`` and becomes ``y_minus[k]``.  Returns the new
    ``(x_plus, x_minus, y_minus)``.
    """
    for _ in range(steps):
        mid = 0.5 * (x_plus + x_minus)
        y_mid = model.predict_batch(mid)
        plus = y_mid == y_plus
        mask = plus.reshape((-1,) + (1,) * (mid.ndim - 1))
        x_plus, x_minus = np.where(mask, mid, x_plus), np.where(mask, x_minus, mid)
        y_minus = np.where(plus, y_minus, y_mid)
    return x_plus, x_minus, y_minus


def binary_search_pair(pair: OppositePair, model, steps: int, counter: QueryCounter | None = None) -> OppositePair:
    """Shrink an opposite pair toward the substitute boundary by midpoint halving.

    Each step replaces one endpoint with the midpoint, so the endpoint
    distance contracts by exactly ``2**-steps``.  Issues ``steps``
    substitute queries; the endpoint validation peek is not counted.
    Raises :class:`BoundaryLostError` when the substitute puts both
    endpoints in one class.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    y_plus, y_minus = model.predict_batch(np.stack([pair.x_plus, pair.x_minus]))
    if y_plus == y_minus:
        raise BoundaryLostError(f"substitute labels both endpoints as class {y_plus}; reselect the pair")
    x_plus, x_minus, label_minus = _halve(pair.x_plus[None], pair.x_minus[None], y_plus, [y_minus], model, steps)
    if counter is not None:
        counter.add(steps)
    return OppositePair(x_plus[0], x_minus[0], int(y_plus), int(label_minus[0]))


def _offset(diff: np.ndarray, draw: np.ndarray, offset_norm: float) -> np.ndarray | None:
    """:func:`_offsets` of one pair, shaped as ``draw``: None below the norm floor; raises on coincident endpoints."""
    if float(diff @ diff) < _NORM_FLOOR**2:
        raise DegenerateDirectionError("pair endpoints coincide; no direction to keep")
    offsets, kept = _offsets(diff[None], draw.reshape(1, -1), offset_norm)
    return offsets[0].reshape(draw.shape) if kept[0] else None


def _offsets(diffs: np.ndarray, draws: np.ndarray, offset_norm: float) -> tuple[np.ndarray, np.ndarray]:
    """Each (m, C*T) row ``d`` of ``draws`` less its projection on the row ``v`` of ``diffs``, at norm ``offset_norm``.

    That is ``c * offset_norm / ||c||`` with ``c = d - (v . d / v . v) v``, every dot one BLAS ``vecdot``;
    the mask holds the rows that get one: ``v . v >= floor**2`` and ``||c|| >= floor``.
    """
    denom = np.vecdot(diffs, diffs)
    with np.errstate(divide="ignore", invalid="ignore"):  # from the rows that get no offset
        candidates = draws - (np.vecdot(diffs, draws) / denom)[:, None] * diffs
        norm = np.sqrt(np.vecdot(candidates, candidates))
        return (offset_norm / norm)[:, None] * candidates, ~(denom < _NORM_FLOOR**2) & (norm >= _NORM_FLOOR)


def _redraw(diff, rng, shape, offset_norm: float, draws: int) -> np.ndarray:
    """The first of up to ``draws`` fresh offsets that clears the norm floor."""
    for _ in range(draws):
        offset = _offset(diff, rng.standard_normal(shape), offset_norm)
        if offset is not None:
            return offset
    raise DegenerateDirectionError(f"orthogonal component stayed below {_NORM_FLOOR} after all redraws")


def mid_perpendicular(pair: OppositePair, model, steps: int, offset_norm: float, rng: np.random.Generator,
                      counter: QueryCounter | None = None) -> np.ndarray:
    """Synthesize one epoch offset orthogonally from a refined boundary midpoint.

    A random epoch is orthogonalized against the pair difference
    (projection removal), rescaled to L2 norm ``offset_norm``, and added
    to the midpoint of a fresh ``steps``-step halving run on the pair.
    Raises :class:`DegenerateDirectionError` when all ``_RESAMPLE_LIMIT``
    draws leave an orthogonal component below the norm floor.
    """
    if offset_norm <= 0:
        raise ValueError("offset_norm must be > 0")
    diff = (pair.x_plus - pair.x_minus).ravel()
    offset = _redraw(diff, rng, pair.x_plus.shape, offset_norm, _RESAMPLE_LIMIT)
    refined = binary_search_pair(pair, model, steps, counter)
    return offset + 0.5 * (refined.x_plus + refined.x_minus)


# two scalar draws: one rng.integers([len_a, len_b]) gives the same picks and stream but is ~3x slower
def _pick(idx_a: np.ndarray, idx_b: np.ndarray, rng: np.random.Generator) -> tuple[int, int]:
    """One uniformly random index from each of ``idx_a`` and ``idx_b``, in that order."""
    return idx_a[int(rng.integers(len(idx_a)))], idx_b[int(rng.integers(len(idx_b)))]


def _plan(class_pairs, labels, members, shape, rng):
    """Every rng draw for one epoch per entry of ``class_pairs``, in order, with no forward pass.

    Per epoch: index picks until the substitute ``labels`` of the two
    endpoints differ (at most ``_RESELECT_LIMIT`` tries), then one draw, the
    offset of a planned pair or the whole epoch of a Gaussian fallback.
    Returns the endpoint indices (None for a fallback) and the stacked draws.
    """
    ends, draws = [], []
    for a, b in class_pairs:
        end = None
        for _ in range(_RESELECT_LIMIT):
            i, j = _pick(members[a], members[b], rng)
            if labels[i] != labels[j]:
                end = (i, j)
                break
        ends.append(end)
        draws.append(rng.standard_normal(shape))
    return ends, np.stack(draws)


def one_vs_one_quotas(n_classes: int, total: int) -> dict[tuple[int, int], int]:
    """Split ``total`` epochs across the class pairs of a one-vs-one decomposition.

    Base quota is ``total // k2`` per pair with the remainder going to the
    first pairs in canonical (a < b) lexicographic order.
    """
    if n_classes < 2:
        raise ValueError("one-vs-one decomposition needs n_classes >= 2")
    if total < 1:
        raise ValueError("total must be >= 1")
    pairs = list(combinations(range(n_classes), 2))
    base, remainder = divmod(total, len(pairs))
    return {p: base + (1 if i < remainder else 0) for i, p in enumerate(pairs)}


def synthesize_one_vs_one(data: LabeledSet, model, n_classes: int, cfg: SynthesisConfig, rng: np.random.Generator,
                          counter: QueryCounter | None = None) -> np.ndarray:
    """One round's ``per_iteration`` epochs across all class pairs, as (m, C, T).

    ``data`` must hold every class, as a balanced initial set does: a
    missing class raises :class:`ClassBalanceError` before any forward.
    Two classes make the single pair (0, 1), which carries every epoch.
    One batched forward labels every endpoint, :func:`_plan` makes the rng
    draws in per-epoch order, both halving runs advance all pairs in
    lockstep, and :func:`_offsets` computes every offset in one batched
    step.  An offset below the norm floor, the one data-dependent draw, is
    redrawn after replaying the plan up to it, and the rest is planned again.
    """
    quotas = one_vs_one_quotas(n_classes, cfg.per_iteration)
    members = {c: data.class_indices(c) for c in range(n_classes)}
    if missing := [c for c, idx in members.items() if not len(idx)]:
        raise ClassBalanceError(f"labeled set lacks class(es) {missing}; synthesis needs every class")
    todo = [pair for pair, m in quotas.items() for _ in range(m)]
    labels = model.predict_batch(data.epochs)
    steps, epochs, done = cfg.bisection_steps, [], 0
    while done < len(todo):
        state = rng.bit_generator.state
        ends, draws = _plan(todo[done:], labels, members, data.shape, rng)
        rows = [r for r, end in enumerate(ends) if end is not None]
        if rows:
            i, j = np.array([ends[r] for r in rows]).T
            x_plus, x_minus, y_minus = _halve(data.epochs[i], data.epochs[j], labels[i], labels[j], model, steps)
            diffs = (x_plus - x_minus).reshape(len(rows), -1)
            offsets, kept = _offsets(diffs, draws[rows].reshape(len(rows), -1), cfg.offset_norm)
            if not kept.all():  # the first row with none: redraw it in place, then plan the rest again
                r = rows[k := int(np.argmin(kept))]
                _offset(diffs[k], draws[r], cfg.offset_norm)  # raises when the pair's endpoints coincide
                rng.bit_generator.state = state  # the replay leaves the generator right after draw r
                _plan(todo[done : done + r + 1], labels, members, data.shape, rng)
                offsets[k] = _redraw(diffs[k], rng, data.shape, cfg.offset_norm, _RESAMPLE_LIMIT - 1).ravel()
                rows, draws = rows[: k + 1], draws[: r + 1]
            n = len(rows)
            x_plus, x_minus, _ = _halve(x_plus[:n], x_minus[:n], labels[i[:n]], y_minus[:n], model, steps)
            draws[rows] = offsets[:n].reshape(x_plus.shape) + 0.5 * (x_plus + x_minus)
            if counter is not None:
                counter.add(2 * steps * n)
        epochs.append(draws)
        done += len(draws)
    return np.concatenate(epochs)


def jacobian_augment(
    data: LabeledSet, model, step_size: float, counter: QueryCounter | None = None
) -> np.ndarray:
    """Baseline augmentation: the ``ufgsm`` craft of every epoch at ``epsilon = step_size``, as (n, C, T).

    One signed loss-gradient step at the substitute's own label (one counted
    substitute query per epoch), so no target queries are needed to build
    the candidates.  ``sign(0) == 0``, hence a flat loss copies the input.
    """
    if step_size <= 0:
        raise ValueError("step_size must be > 0")
    if counter is not None:
        counter.add(len(data))
    return craft_batch(model, data.epochs, AttackConfig(step_size, "ufgsm")).perturbed


def advance(row: TraceRow, data: LabeledSet, new, labels, train_cfg: TrainConfig, spent: int) -> TraceRow:
    """The round after ``row``: a copy of ``row.substitute`` fit on ``data``, its set with ``new`` appended.

    ``labels`` are the oracle's labels of ``new``; the row adds them and ``spent`` substitute queries to
    ``row``'s counts.  Its round is the index it takes in ``trace.rows``, one past ``row``'s.
    """
    model = row.substitute.copy()
    model.fit(data, train_cfg)
    return TraceRow(row.target_queries + len(labels), row.substitute_queries + spent, len(data), new, labels, model)


def branch(trace, initial, done: int, oracle, train_cfg: TrainConfig, step_size: float, seed: int) -> AugmentationTrace:
    """The leaf of the ``jacobian`` ``trace`` that stops ``oracle.budget`` epochs into round ``done + 1``: one
    :func:`advance` from round ``done``'s set, rebuilt from ``initial`` and the rows, on the sorted ``seed`` sample of
    round ``done + 1``'s proposal (crafted only past the trace's last row), labeled on ``oracle``."""
    rows = trace.rows[: done + 1]
    data = LabeledSet(np.concatenate([initial, *(row.synthesized for row in rows[1:])]),
                      np.concatenate([row.labels for row in rows]))
    new = trace.rows[done + 1].synthesized if done + 1 < len(trace.rows) else jacobian_augment(
        data, rows[-1].substitute, step_size)
    new = new[np.sort(np.random.default_rng(seed).choice(len(new), oracle.budget, replace=False))]
    labels = oracle.query_labels(new)
    return AugmentationTrace(rows + [advance(rows[-1], data.extended(new, labels), new, labels, train_cfg, len(data))])


def _augment_rounds(oracle, initial_epochs, model_spec: ModelSpec, train_cfg: TrainConfig, rounds: int, needed, propose,
                    round0=None):
    """The loop both trainers share: round 0, then ``rounds`` rounds of :func:`advance`.

    Before the first query, a malformed initial set raises, then a plan whose
    ``needed(len(initial))`` exceeds ``oracle.remaining``: all or nothing.
    Round 0 labels the initial set and trains a fresh substitute on it (trace
    row 0, ``synthesized`` None), or takes a copy of ``round0``, that same fit
    made earlier; each later round labels ``propose(data, substitute,
    counter=counter)``, the (m, C, T) epochs proposed from the last row.
    Trace query counts are relative to the oracle counter at entry.
    Returns a copy of the last row's substitute and the trace.
    """
    xs = as_epoch_batch(initial_epochs, model_spec.input_shape)
    need, left = needed(len(xs)), oracle.remaining
    if left is not None and left < need:
        raise BudgetExhaustedError(f"plan needs {need} target queries but only {left} remain", remaining=left)
    data = LabeledSet(xs, labels := oracle.query_labels(xs))
    model = SoftmaxClassifier(model_spec) if round0 is None else round0.copy()
    if round0 is None:
        model.fit(data, train_cfg)
    rows = [TraceRow(len(xs), 0, len(xs), None, labels, model)]
    for _ in range(rounds):
        new = propose(data, rows[-1].substitute, counter=(counter := QueryCounter()))
        data = data.extended(new, labels := oracle.query_labels(new))  # frees the last round's set before the fit
        rows.append(advance(rows[-1], data, new, labels, train_cfg, counter.count))
    return rows[-1].substitute.copy(), AugmentationTrace(rows)


def train_substitute_active(oracle, initial_epochs, model_spec: ModelSpec, train_cfg: TrainConfig,
                            syn_cfg: SynthesisConfig, round0=None) -> tuple[SoftmaxClassifier, AugmentationTrace]:
    """Label the initial set and pre-train (round 0), then augment by query synthesis.

    Per later round, ``per_iteration`` epochs are synthesized against
    the current substitute over the one-vs-one class pairs (a single pair
    for two classes), labeled by the target in one batch, appended, and
    the substitute fine-tuned.  Target queries total
    ``len(initial) + n_iterations * per_iteration`` exactly, all or nothing:
    :func:`_augment_rounds` refuses a plan the oracle cannot pay for before
    its first query.  Round ``i`` runs exactly as the last round of an
    ``n_iterations=i`` run would (``n_iterations=0`` stops after round 0), so
    trace row ``i`` holds that shorter run's labels and substitute;
    ``round0`` skips the round-0 fit (see :func:`_augment_rounds`).
    The initial set must hold every class the target labels, as
    :func:`balance_by_predicted_label` returns it.
    """
    propose = partial(synthesize_one_vs_one, n_classes=model_spec.classes, cfg=syn_cfg,
                      rng=np.random.default_rng(syn_cfg.seed))
    return _augment_rounds(oracle, initial_epochs, model_spec, train_cfg, syn_cfg.n_iterations,
                           lambda n: n + syn_cfg.n_iterations * syn_cfg.per_iteration, propose, round0)


def train_substitute_jacobian(oracle, initial_epochs, model_spec: ModelSpec, train_cfg: TrainConfig,
                              jac_cfg: JacobianConfig, round0=None) -> tuple[SoftmaxClassifier, AugmentationTrace]:
    """Baseline substitute training by repeated signed-gradient augmentation.

    Each round doubles the labeled set, so after N rounds the new target
    queries total ``len(initial) * (2**N - 1)``, all or nothing.  Trace row
    ``i`` and ``round0`` work as in :func:`train_substitute_active`.
    """
    propose = partial(jacobian_augment, step_size=jac_cfg.step_size)
    return _augment_rounds(oracle, initial_epochs, model_spec, train_cfg, jac_cfg.n_iterations,
                           lambda n: n * 2**jac_cfg.n_iterations, propose, round0)
