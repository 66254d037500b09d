"""Config-driven experiment orchestration.

Both the ``attack`` and ``sweep`` commands iterate one loop over run
indices, :func:`experiment_runs`.  Per run index, :func:`prepare_run`
generates the seeded train/test/pool splits, trains the target once and
scores it on clean and noise-perturbed test epochs, none of which depends
on method or budget.  :func:`attack_runs` then wraps that target in
counted label-only oracles, balances the initial substitute set by
predicted label once, fits one round-0 substitute on it, trains each
requested method's substitute from there (active synthesis or the
gradient-step baseline, whose step is the ``ufgsm`` craft), crafts
perturbations from it and scores the target on them, at every budget of
the grid.  The splits are immutable (frozen) :class:`LabeledSet` values
that every method and budget shares.  :func:`run_attack_experiment` runs
one run index at one budget.

Budget accounting: the *training budget* of a run is the number of target
queries spent on substitute training (initial set plus augmentation).
The initial set S0 always holds ``per_class`` epochs of every class.
:func:`check_budgets` plans each budget of a non-empty list as ``(budget,
whole rounds, leftover)`` before anything trains; None is what the
configured rounds label: ``|S0| + n_iterations * per_iteration`` for
``active``, ``|S0| * 2**n_iterations`` for ``jacobian`` and 0 for ``noise``.
Balancing the pool costs ``len(pool)`` additional queries, which are
identical across methods and reported separately in the trace.  Balancing
labels on an oracle capped at ``len(pool)``, the trajectory on its own
oracle capped at what its whole rounds label, and each ``jacobian`` leaf
on an oracle capped at the rows of its partial round.
Evaluating the attack (labeling clean or perturbed test epochs) bypasses
the oracle: that is the experimenter measuring the outcome, not the
attacker querying.

Per-stage seeds are derived from ``(master_seed, run_index, stage_name)``
by :func:`derive_seed`, ``sha256(repr(...))`` reduced to 63 bits; stage
names are fixed strings ("data-train", "target-init", "balance", ...), so
every run is reproducible in isolation and stays paired across methods
and budgets.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .attack import AdversarialExample, AttackConfig, craft_batch
from .data import _MAX_VALUES, LabeledSet, balance_by_predicted_label, gen_blobs, gen_synthetic_epochs
from .errors import ConfigError, check_fields, is_integer, ranged
from .metrics import MetricReport, metric_report
from .models import ModelSpec, SoftmaxClassifier, TrainConfig, TrainHistory
from .oracle import TargetOracle
from .synthesis import (
    AugmentationTrace,
    JacobianConfig,
    SynthesisConfig,
    branch,
    train_substitute_active,
    train_substitute_jacobian,
)

_METHODS = ("active", "jacobian", "noise")
_GENERATORS = ("blobs", "erp")


@dataclass(frozen=True)
class DataConfig:
    generator: str = ranged("blobs", choices=_GENERATORS)
    classes: int = ranged(2, low=2)
    channels: int = ranged(4, low=1)
    samples: int = ranged(16, low=1)
    train_per_class: int = ranged(200, low=1)
    test_per_class: int = ranged(100, low=1)
    pool_per_class: int = ranged(300, low=0)
    separation: float = ranged(4.0, low=0, above=True)  # blobs only
    noise_sigma: float = ranged(1.0, low=0)             # blobs only
    noise_amplitude: float = ranged(0.5, low=0)         # erp only

    def __post_init__(self):
        check_fields(self, "data.", ConfigError)
        epoch_values = self.classes * self.channels * self.samples  # Python ints, as check_fields stores them
        for name in ("train_per_class", "test_per_class", "pool_per_class"):
            if getattr(self, name) * epoch_values > _MAX_VALUES:
                raise ConfigError(f"data.{name} * classes * channels * samples exceeds {_MAX_VALUES} values")
        if self.generator == "erp" and self.samples < 8:
            raise ConfigError(f"data.samples must be >= 8 for erp epochs, got {self.samples}")
        if self.generator == "blobs" and self.channels * self.samples < self.classes:
            raise ConfigError(f"data.classes {self.classes} exceeds channels * samples = "
                              f"{self.channels * self.samples}, the blobs' distinct means")


@dataclass(frozen=True)
class NetConfig:
    architecture: str = "mlp"
    hidden: tuple = (16,)
    kernel_width: int = 9
    train: TrainConfig = field(default_factory=TrainConfig)


@dataclass(frozen=True)
class BalanceConfig:
    per_class: int = ranged(100, low=1)  # budgets are planned in multiples of the initial set size
    strict: bool = True  # accepted only as true: every predicted class fills ``per_class``

    def __post_init__(self):
        check_fields(self, "balance.", ConfigError)
        if self.strict is not True:
            raise ConfigError("balance.strict must be true: a class short of per_class is refused")


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig = field(default_factory=DataConfig)
    target: NetConfig = field(default_factory=NetConfig)
    substitute: NetConfig = field(default_factory=NetConfig)
    balance: BalanceConfig = field(default_factory=BalanceConfig)
    synthesis: SynthesisConfig = field(default_factory=SynthesisConfig)
    jacobian: JacobianConfig = field(default_factory=JacobianConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    method: str = ranged("active", choices=_METHODS)
    runs: int = ranged(1, low=1)
    budgets: tuple = ()
    master_seed: int = 0
    out_dir: str = "runs/out"

    def __post_init__(self):
        check_fields(self, "", ConfigError)
        if self.attack.method == "noise":  # a substitute run would craft noise and be labeled with it
            raise ConfigError("attack.method must be fgsm or ufgsm; the noise control is method 'noise'")
        if any(not is_integer(b) or b < 0 for b in self.budgets):
            raise ConfigError(f"budgets must be non-negative integers, got {list(self.budgets)}")
        budgets = tuple(int(b) for b in self.budgets)
        object.__setattr__(self, "budgets", budgets)
        if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
            raise ConfigError("budgets must be strictly increasing")
        for name in ("target", "substitute"):  # refuse a bad model before any data or training
            check_fields(getattr(self, name), f"{name}.", ConfigError)
            try:
                _build_spec(getattr(self, name), self.data, 0)
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc


# seeds the pipeline derives per run index and stage, replacing any configured value
_DERIVED_SEEDS = {
    "synthesis.seed", "target.train.shuffle_seed", "substitute.train.shuffle_seed", "attack.noise_seed",
}


def _config_from_dict(cls, raw: dict, path: str):
    """Build ``cls`` from JSON: a dataclass-typed field is a nested section, a ``tuple`` an integer array."""
    types = typing.get_type_hints(cls)
    unknown = set(raw) - set(types)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {path or 'config'}")
    kwargs = {}
    for key, value in raw.items():
        where = f"{path}.{key}" if path else key
        kind = types[key]
        if where in _DERIVED_SEEDS:
            raise ConfigError(f"{where} cannot be set: it derives from master_seed")
        if dataclasses.is_dataclass(kind):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be a JSON object")
            value = _config_from_dict(kind, value, where)
        elif kind is tuple:
            if not isinstance(value, list) or any(type(v) is not int for v in value):
                raise ConfigError(f"{where} must be a JSON array of integers")
            value = tuple(value)
        kwargs[key] = value  # a scalar of the wrong type is refused by its record's own check
    try:
        return cls(**kwargs)
    except ConfigError:  # a pipeline config's own refusal already names its key
        raise
    except ValueError as exc:  # a library config's names its field: prefix the section
        raise ConfigError(f"{path}.{exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Parse a JSON experiment config; unknown or repeated keys and text that is not UTF-8 JSON are hard errors."""
    def unique(pairs):  # json would keep a repeated key's last value
        keys = [key for key, _ in pairs]
        if repeated := sorted({key for key in keys if keys.count(key) > 1}):
            raise ConfigError(f"config {path} repeats the key(s) {repeated}")
        return dict(pairs)

    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:  # a JSON error names its line and column
        raise ConfigError(f"config {path} is not UTF-8 JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return _config_from_dict(ExperimentConfig, raw, "")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """``dataclasses.asdict(cfg)`` less the derived seeds: the JSON that :func:`load_config` reads back."""
    out = dataclasses.asdict(cfg)
    for where in _DERIVED_SEEDS:
        *sections, key = where.split(".")
        del functools.reduce(dict.__getitem__, sections, out)[key]
    return out


def derive_seed(master: int, *parts) -> int:
    """Derive a child seed from a master seed and any hashable name parts."""
    digest = hashlib.sha256(repr((int(master),) + tuple(parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def stage_seeds(master_seed: int, run_index: int) -> dict:
    """All derived seeds for one run, keyed by stage name; ``run_index`` is an integer >= 0, hashed as an int."""
    if not is_integer(run_index) or run_index < 0:  # np.int64(1) or 1.0 would hash to another run's seeds
        raise ValueError(f"run_index must be an integer >= 0, got {run_index!r}")
    stages = (
        "data-structure", "data-train", "data-test", "data-pool",
        "target-init", "target-train",
        "balance", "substitute-init", "substitute-train", "synthesis", "noise", "run",
    )
    return {s: derive_seed(master_seed, int(run_index), s) for s in stages}


def _generate(data_cfg: DataConfig, n_per_class: int, seed: int, structure_seed: int | None = None) -> LabeledSet:
    if n_per_class == 0:  # an empty pool: train-target needs none, balancing it raises ClassBalanceError
        return LabeledSet(np.zeros((0, data_cfg.channels, data_cfg.samples)), [])
    shape = (n_per_class, data_cfg.classes, data_cfg.channels, data_cfg.samples)
    if data_cfg.generator == "blobs":
        return gen_blobs(*shape, separation=data_cfg.separation, noise_sigma=data_cfg.noise_sigma,
                         seed=seed, structure_seed=structure_seed)
    return gen_synthetic_epochs(*shape, seed=seed, noise_amplitude=data_cfg.noise_amplitude,
                                structure_seed=structure_seed)


def generate_splits(data_cfg: DataConfig, seeds: dict) -> dict:
    """The seeded ``train``, ``test`` and ``pool`` sets of one run, by split name.

    ``seeds`` are the run's :func:`stage_seeds`; the pool is empty when
    ``pool_per_class`` is 0.
    """
    return {
        name: _generate(data_cfg, getattr(data_cfg, f"{name}_per_class"), seeds[f"data-{name}"],
                        seeds["data-structure"])
        for name in ("train", "test", "pool")
    }


def model_name(net: NetConfig) -> str:
    sizes = "x".join(str(h) for h in net.hidden)
    return net.architecture + (f"-{sizes}" if sizes else "")


def dataset_name(data_cfg: DataConfig) -> str:
    return f"{data_cfg.generator}-k{data_cfg.classes}-{data_cfg.channels}x{data_cfg.samples}"


def _build_spec(net: NetConfig, data_cfg: DataConfig, seed: int) -> ModelSpec:
    return ModelSpec(
        architecture=net.architecture,
        channels=data_cfg.channels,
        samples=data_cfg.samples,
        classes=data_cfg.classes,
        hidden=net.hidden,
        kernel_width=net.kernel_width,
        seed=seed,
    )


@dataclass
class PreparedRun:
    """Everything of one run that does not depend on method or budget."""

    cfg: ExperimentConfig
    seeds: dict
    test_set: LabeledSet
    pool_set: LabeledSet
    target: SoftmaxClassifier
    history: TrainHistory
    baseline: MetricReport
    noisy: MetricReport
    noisy_examples: AdversarialExample


@dataclass
class RunResult:
    """One method and budget of one run index; its substitute and training queries are read from ``trace``."""

    method: str
    budget: int
    baseline: MetricReport
    noisy: MetricReport
    attacked: MetricReport
    trace: AugmentationTrace | None  # None for the noise control
    balance_queries: int
    seeds: dict
    examples: AdversarialExample  # its ``config`` is what crafted it
    target: SoftmaxClassifier

    @property
    def substitute(self) -> SoftmaxClassifier | None:
        """The substitute that ends ``trace``, which crafted ``examples``."""
        return None if self.trace is None else self.trace.rows[-1].substitute

    @property
    def training_queries(self) -> int:
        """The target queries that trained the substitute, beside ``balance_queries``."""
        return 0 if self.trace is None else self.trace.rows[-1].target_queries


def check_budgets(cfg: ExperimentConfig, budgets) -> list:
    """``(budget, whole rounds, leftover)`` that spend each of a non-empty list of budgets exactly, for ``cfg.method``.

    A None budget is what the configured rounds label; ``noise`` plans ``(budget, None, 0)``, 0 for None.
    ``active`` rounds add ``per_iteration`` epochs, so its leftover is 0.  ``jacobian`` rounds double the
    labeled set: the plan is the most whole rounds a budget covers, then one more kept to ``leftover`` epochs.
    Raises :class:`ConfigError` for an empty list, with a config's own text for a budget ``cfg.budgets`` refuses
    (before any method rule), and for a budget the method cannot spend; needs no data or training, so
    :func:`experiment_runs` checks before it trains.
    """
    if not budgets:
        raise ConfigError("budgets must be a non-empty list")
    given = iter(replace(cfg, budgets=[b for b in budgets if b is not None]).budgets)  # the rule of cfg.budgets
    method, s0_size, per_iteration = cfg.method, cfg.balance.per_class * cfg.data.classes, cfg.synthesis.per_iteration
    configured = {"active": s0_size + cfg.synthesis.n_iterations * per_iteration,
                  "jacobian": s0_size * 2**cfg.jacobian.n_iterations, "noise": 0}[method]
    plans = []
    for budget in (configured if budget is None else next(given) for budget in budgets):
        extra = budget - s0_size
        if method == "noise":
            plans.append((budget, None, 0))
        elif extra < 0:
            raise ConfigError(f"method {method!r}: budget {budget} is below the initial set size {s0_size}")
        elif method == "jacobian":  # r rounds label s0_size * 2**r in all
            rounds = (budget // s0_size).bit_length() - 1
            plans.append((budget, rounds, budget - s0_size * 2**rounds))
        elif extra % per_iteration:
            raise ConfigError(f"method {method!r}: budget {budget} minus initial {s0_size} "
                              f"must be a multiple of per_iteration={per_iteration}")
        else:
            plans.append((budget, extra // per_iteration, 0))
    return plans


def prepare_run(cfg: ExperimentConfig, run_index: int = 0) -> PreparedRun:
    """Splits, trained target, and the clean and noisy reports of one run."""
    seeds = stage_seeds(cfg.master_seed, run_index)
    train_set, test_set, pool_set = generate_splits(cfg.data, seeds).values()

    target = SoftmaxClassifier(_build_spec(cfg.target, cfg.data, seeds["target-init"]))
    history = target.fit(train_set, replace(cfg.target.train, shuffle_seed=seeds["target-train"]))

    baseline = metric_report(target.predict_batch(test_set.epochs), test_set.labels, cfg.data.classes)

    noise_cfg = AttackConfig(epsilon=cfg.attack.epsilon, method="noise", noise_seed=seeds["noise"])
    noisy_examples = craft_batch(None, test_set.epochs, noise_cfg)
    noisy_preds = target.predict_batch(noisy_examples.perturbed)
    noisy = metric_report(noisy_preds, test_set.labels, cfg.data.classes)
    return PreparedRun(cfg, seeds, test_set, pool_set, target, history, baseline, noisy, noisy_examples)


def _train_substitutes(prepared: PreparedRun, s0, plans: dict) -> dict:
    """``{method: [the trace of the run each plan stops]}``, one trajectory of whole rounds per method.

    Each trajectory's oracle labels S0 and is capped at what its rounds label.  Only the first fits round 0; the
    rest start from its row-0 substitute, the fit they would make on the same S0, spec and seeds.  A plan ends at
    the row of its whole rounds, or, with a ``jacobian`` leftover, at the leaf :func:`branch` makes from that row
    on an oracle capped at ``leftover``.
    """
    cfg, seeds = prepared.cfg, prepared.seeds
    spec = _build_spec(cfg.substitute, cfg.data, seeds["substitute-init"])
    train = replace(cfg.substitute.train, shuffle_seed=seeds["substitute-train"])
    jac, round0, out = cfg.jacobian, None, {}
    for method, method_plans in plans.items():
        cap = max(budget - leftover for budget, _, leftover in method_plans)
        oracle, rounds = TargetOracle(prepared.target, budget=cap), max(r for _, r, _ in method_plans)
        if method == "jacobian":
            _, trace = train_substitute_jacobian(oracle, s0, spec, train, replace(jac, n_iterations=rounds),
                                                 round0=round0)
        else:
            plan = replace(cfg.synthesis, seed=seeds["synthesis"], n_iterations=rounds)
            _, trace = train_substitute_active(oracle, s0, spec, train, plan, round0=round0)
        round0 = round0 or trace.rows[0].substitute  # every later trajectory starts from it
        out[method] = [branch(trace, s0, done, TargetOracle(prepared.target, budget=leftover), train, jac.step_size,
                              seeds["synthesis"]) if leftover else AugmentationTrace(trace.rows[: done + 1])
                       for _, done, leftover in method_plans]
    return out


def _score(prepared: PreparedRun, method: str, budget, balance_queries: int, trace) -> RunResult:
    """Craft from the substitute that ends ``trace`` (the noise control when None) and score the target."""
    cfg, test_set = prepared.cfg, prepared.test_set
    attacked, examples = prepared.noisy, prepared.noisy_examples
    if trace is not None:
        examples = craft_batch(trace.rows[-1].substitute, test_set.epochs, cfg.attack, true_labels=test_set.labels)
        attacked_preds = prepared.target.predict_batch(examples.perturbed)
        attacked = metric_report(attacked_preds, test_set.labels, cfg.data.classes)
    return RunResult(
        method=method,
        budget=budget,
        baseline=prepared.baseline,
        noisy=prepared.noisy,
        attacked=attacked,
        trace=trace,
        balance_queries=balance_queries,
        seeds=prepared.seeds,
        examples=examples,
        target=prepared.target,
    )


def attack_runs(prepared: PreparedRun, budgets, methods=None) -> list[RunResult]:
    """Balance, train each substitute, craft and score, per method (``cfg.method`` by default) and budget, method-major.

    Plans every budget with :func:`check_budgets` first, a None one as what
    the method's configured rounds spend.  Balances the pool once, since S0
    depends on neither method nor budget.  ``active`` and ``jacobian`` train
    one substitute trajectory each, from one shared round-0 fit, and score
    each budget from the round that reaches it, or from a ``jacobian`` leaf
    branched at its last whole round (see :func:`_train_substitutes`).
    That gives what separate runs would: a round never depends on how many
    rounds follow it, nor on which other methods run.
    """
    cfg = prepared.cfg
    plans = {method: check_budgets(replace(cfg, method=method), budgets) for method in methods or (cfg.method,)}
    # an oracle takes no 0 cap; an empty pool fails in balancing instead
    balancer = TargetOracle(prepared.target, budget=len(prepared.pool_set) or None)
    s0 = balance_by_predicted_label(balancer, prepared.pool_set.epochs, cfg.balance.per_class,
                                    prepared.seeds["balance"])
    traces = _train_substitutes(prepared, s0, {m: plan for m, plan in plans.items() if m != "noise"})
    return [_score(prepared, method, budget, balancer.query_count, trace) for method, plan in plans.items()
            for (budget, _, _), trace in zip(plan, traces.get(method, [None] * len(plan)))]


def experiment_runs(cfg: ExperimentConfig, budgets, methods=None):
    """Each method's :func:`check_budgets`, then ``(run, attack_runs(prepare_run(cfg, run), budgets, methods))``."""
    for method in methods or (cfg.method,):
        check_budgets(replace(cfg, method=method), budgets)
    for run in range(cfg.runs):
        yield run, attack_runs(prepare_run(cfg, run), budgets, methods)


def run_attack_experiment(cfg: ExperimentConfig, run_index: int = 0, budget: int | None = None) -> RunResult:
    """Execute one full attack run: :func:`prepare_run`, then :func:`attack_runs` at one budget."""
    return attack_runs(prepare_run(cfg, run_index), [budget])[0]
