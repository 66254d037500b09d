"""Config-driven experiment orchestration.

One run reproduces the protocol shape end to end in two stages.
:func:`prepare_run` generates the seeded train/test/pool splits, trains
the target once, and scores it on clean and noise-perturbed test epochs.
:func:`attack_run` then wraps that target in counted label-only oracles,
balances the initial substitute set by predicted label, trains the
substitute (active synthesis or the gradient-step baseline), crafts
perturbations from the substitute, and scores the target on them.  One
preparation serves every method and budget of its run index, since
nothing in it depends on either; :func:`run_attack_experiment` chains the
two stages for a single (method, budget).  :func:`attack_runs` scores
several budgets of one preparation: it balances the pool once, and for
the active method trains a single substitute whose rounds reach each
budget in turn.

Budget accounting: the *training budget* of a run is the number of target
queries spent on substitute training (initial set plus augmentation).
Balancing the pool costs ``len(pool)`` additional queries, which are
identical across methods and reported separately in the trace.  Balancing
labels on an oracle capped at ``len(pool)``, and each substitute
trajectory on its own oracle capped at its largest training budget.
Evaluating the attack (labeling clean or perturbed test epochs) bypasses
the oracle: that is the experimenter measuring the outcome, not the
attacker querying.

Per-stage seeds are derived from ``(master_seed, run_index, stage_name)``
via :func:`qsattack.seeding.derive_seed`; stage names are fixed strings
("data-train", "target-init", "balance", ...), so every run is
reproducible in isolation and stays paired across methods and budgets.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .attack import AdversarialExample, AttackConfig, craft_batch
from .data import LabeledSet, balance_by_predicted_label, gen_blobs, gen_synthetic_epochs
from .errors import ClassBalanceError, ConfigError
from .metrics import MetricReport, metric_report
from .models import ModelSpec, SoftmaxClassifier, TrainConfig, TrainHistory
from .oracle import TargetOracle
from .seeding import derive_seed
from .synthesis import (
    AugmentationTrace,
    JacobianConfig,
    SynthesisConfig,
    train_substitute_active,
    train_substitute_jacobian,
)

_METHODS = ("active", "jacobian", "noise")
_GENERATORS = ("blobs", "erp")


@dataclass(frozen=True)
class DataConfig:
    generator: str = "blobs"
    classes: int = 2
    channels: int = 4
    samples: int = 16
    train_per_class: int = 200
    test_per_class: int = 100
    pool_per_class: int = 300
    separation: float = 4.0       # blobs only
    noise_sigma: float = 1.0      # blobs only
    noise_amplitude: float = 0.5  # erp only

    def __post_init__(self):
        if self.generator not in _GENERATORS:
            raise ConfigError(f"unknown generator {self.generator!r}")
        for name, least in (("train_per_class", 1), ("test_per_class", 1), ("pool_per_class", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class NetConfig:
    architecture: str = "mlp"
    hidden: tuple = (16,)
    activation: str = "relu"
    kernel_width: int = 9
    train: TrainConfig = field(default_factory=TrainConfig)


@dataclass(frozen=True)
class BalanceConfig:
    per_class: int = 100
    strict: bool = True


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig = field(default_factory=DataConfig)
    target: NetConfig = field(default_factory=NetConfig)
    substitute: NetConfig = field(default_factory=NetConfig)
    balance: BalanceConfig = field(default_factory=BalanceConfig)
    synthesis: SynthesisConfig = field(default_factory=SynthesisConfig)
    jacobian: JacobianConfig = field(default_factory=JacobianConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    method: str = "active"
    runs: int = 1
    budgets: tuple = ()
    master_seed: int = 0
    out_dir: str = "runs/out"

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        budgets = tuple(int(b) for b in self.budgets)
        object.__setattr__(self, "budgets", budgets)
        if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
            raise ConfigError("budgets must be strictly increasing")
        for name in ("target", "substitute"):  # refuse a bad model before any data or training
            try:
                _build_spec(getattr(self, name), self.data, 0)
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc


_NESTED = {
    "data": DataConfig,
    "target": NetConfig,
    "substitute": NetConfig,
    "balance": BalanceConfig,
    "synthesis": SynthesisConfig,
    "jacobian": JacobianConfig,
    "attack": AttackConfig,
    "train": TrainConfig,
}
_TUPLE_FIELDS = {"hidden", "budgets"}  # JSON arrays of integers
# seeds the pipeline derives per run index and stage, replacing any configured value
_DERIVED_SEEDS = {"synthesis.seed", "jacobian.seed", "target.train.shuffle_seed", "substitute.train.shuffle_seed"}
# JSON value types each scalar annotation accepts, keyed by the annotation
# string (annotations are postponed); exact type matches keep bools out of numbers
_SCALAR_TYPES = {
    "int": ((int,), "an integer"),
    "int | None": ((int, type(None)), "an integer or null"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
}


def _config_from_dict(cls, raw: dict, path: str):
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(types)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {path or 'config'}")
    kwargs = {}
    for key, value in raw.items():
        where = f"{path}.{key}" if path else key
        if where in _DERIVED_SEEDS:
            raise ConfigError(f"{where} cannot be set: it derives from master_seed")
        if key in _NESTED:
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be a JSON object")
            kwargs[key] = _config_from_dict(_NESTED[key], value, where)
        elif key in _TUPLE_FIELDS:
            if not isinstance(value, list) or any(type(v) is not int for v in value):
                raise ConfigError(f"{where} must be a JSON array of integers")
            kwargs[key] = tuple(value)
        elif type(value) not in _SCALAR_TYPES[types[key]][0]:
            raise ConfigError(f"{where} must be {_SCALAR_TYPES[types[key]][1]}, got {value!r}")
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value in {path or 'config'}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Parse a JSON experiment config; unknown keys are hard errors."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return _config_from_dict(ExperimentConfig, raw, "")


def config_to_dict(cfg) -> dict:
    """Flatten any config dataclass into plain JSON-serializable types."""
    out = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            out[f.name] = config_to_dict(value)
        elif isinstance(value, tuple):
            out[f.name] = list(value)
        else:
            out[f.name] = value
    return out


def stage_seeds(master_seed: int, run_index: int) -> dict:
    """All derived seeds for one run, keyed by stage name."""
    stages = (
        "data-structure", "data-train", "data-test", "data-pool",
        "target-init", "target-train",
        "balance", "substitute-init", "substitute-train", "synthesis", "noise", "run",
    )
    return {s: derive_seed(master_seed, run_index, s) for s in stages}


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
        activation=net.activation,
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
    noise_config: AttackConfig


@dataclass
class RunResult:
    run_seed: int
    method: str
    budget: int | None
    baseline: MetricReport
    noisy: MetricReport
    attacked: MetricReport
    trace: AugmentationTrace | None
    balance_queries: int
    training_queries: int
    total_queries: int
    seeds: dict
    examples: AdversarialExample | None = None
    attack_config: AttackConfig | None = None  # what crafted ``examples``
    substitute: SoftmaxClassifier | None = None
    target: SoftmaxClassifier | None = None

    def results_row(self, cfg: ExperimentConfig) -> dict:
        return {
            "dataset": dataset_name(cfg.data),
            "target_model": model_name(cfg.target),
            "substitute_model": model_name(cfg.substitute) if self.method != "noise" else "",
            "method": self.method,
            "budget": self.budget if self.budget is not None else self.training_queries,
            "seed": self.run_seed,
            "rca": repr(self.attacked.rca),
            "bca": repr(self.attacked.bca),
            "baseline_rca": repr(self.baseline.rca),
            "baseline_bca": repr(self.baseline.bca),
            "noisy_rca": repr(self.noisy.rca),
            "noisy_bca": repr(self.noisy.bca),
        }


def _s0_size(cfg: ExperimentConfig) -> int:
    return cfg.balance.per_class * cfg.data.classes


def _augmentation_queries(s0_size: int, budget: int) -> int:
    extra = budget - s0_size
    if extra < 0:
        raise ConfigError(f"budget {budget} is below the initial set size {s0_size}")
    return extra


def _active_rounds(cfg: ExperimentConfig, budget: int | None) -> int:
    """Synthesis rounds after round 0 that spend ``budget``."""
    if budget is None:
        return cfg.synthesis.n_iterations
    per_iteration = cfg.synthesis.per_iteration
    extra = _augmentation_queries(_s0_size(cfg), budget)
    if extra % per_iteration:
        raise ConfigError(
            f"budget {budget} minus initial {_s0_size(cfg)} must be a multiple of "
            f"per_iteration={per_iteration}"
        )
    return extra // per_iteration


def _resolve_jacobian_plan(cfg: ExperimentConfig, budget: int | None, seed: int) -> JacobianConfig:
    jac = replace(cfg.jacobian, seed=seed)
    if budget is None:
        return jac
    s0_size = _s0_size(cfg)
    extra = _augmentation_queries(s0_size, budget)
    # enough doubling rounds to consume the cap, which trims the last round
    rounds = 1
    while s0_size * (2**rounds - 1) < extra:
        rounds += 1
    return replace(jac, n_iterations=rounds, query_cap=extra)


def check_budgets(cfg: ExperimentConfig, budgets) -> None:
    """Raise :class:`ConfigError` for a budget ``cfg.method`` cannot spend exactly.

    Needs no data or training, so a sweep can refuse a bad grid up front.
    """
    for budget in budgets:
        if cfg.method == "active":
            _active_rounds(cfg, budget)
        elif cfg.method == "jacobian":
            _resolve_jacobian_plan(cfg, budget, 0)


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
    return PreparedRun(cfg, seeds, test_set, pool_set, target, history, baseline, noisy,
                       noisy_examples, noise_cfg)


def _train_substitutes(prepared: PreparedRun, s0, budgets) -> list:
    """``(substitute, trace)`` as it stood at each budget, one oracle per trajectory.

    Each oracle is capped at its trajectory's largest training budget.  A
    ``jacobian`` plan subsamples its last round at the budget's own size,
    so budgets are not nested and each gets its own trajectory.
    """
    cfg, seeds = prepared.cfg, prepared.seeds
    spec = _build_spec(cfg.substitute, cfg.data, seeds["substitute-init"])
    train = replace(cfg.substitute.train, shuffle_seed=seeds["substitute-train"])
    if cfg.method == "jacobian":
        return [
            train_substitute_jacobian(TargetOracle(prepared.target, budget=budget), s0, spec, train,
                                      _resolve_jacobian_plan(cfg, budget, seeds["synthesis"]))
            for budget in budgets
        ]
    oracle = TargetOracle(prepared.target, budget=None if None in budgets else max(budgets))
    rounds = [_active_rounds(cfg, budget) for budget in budgets]
    states = {}

    def on_round(model, trace):
        done = len(trace.rows) - 1
        if done in rounds:  # later rounds fine-tune this model in place: copy its parameters
            snapshot = SoftmaxClassifier(spec)
            snapshot.set_parameters(model.parameters)
            states[done] = (snapshot, AugmentationTrace(list(trace.rows)))

    plan = replace(cfg.synthesis, seed=seeds["synthesis"], n_iterations=max(rounds))
    train_substitute_active(oracle, s0, spec, train, plan, on_round=on_round)
    return [states[r] for r in rounds]


def _score(prepared: PreparedRun, budget, balance_queries: int, substitute, trace) -> RunResult:
    """Craft from ``substitute`` (the noise control when None) and score the target."""
    cfg, test_set = prepared.cfg, prepared.test_set
    attacked, examples, crafting = prepared.noisy, prepared.noisy_examples, prepared.noise_config
    if substitute is not None:
        crafting = cfg.attack
        examples = craft_batch(substitute, test_set.epochs, crafting, true_labels=test_set.labels)
        attacked_preds = prepared.target.predict_batch(examples.perturbed)
        attacked = metric_report(attacked_preds, test_set.labels, cfg.data.classes)
    training_queries = trace.rows[-1].target_queries if trace is not None else 0
    return RunResult(
        run_seed=prepared.seeds["run"],
        method=cfg.method,
        budget=budget,
        baseline=prepared.baseline,
        noisy=prepared.noisy,
        attacked=attacked,
        trace=trace,
        balance_queries=balance_queries,
        training_queries=training_queries,
        total_queries=balance_queries + training_queries,
        seeds=prepared.seeds,
        examples=examples,
        attack_config=crafting,
        substitute=substitute,
        target=prepared.target,
    )


def attack_runs(prepared: PreparedRun, budgets) -> list[RunResult]:
    """:func:`attack_run` for each budget, one result per budget in order.

    Balances the pool once, since S0 depends on neither method nor budget.
    ``active`` trains one substitute up to the largest budget and scores
    each budget from the round that reaches it, which gives what separate
    runs would: a round never depends on how many rounds follow it.
    """
    cfg = prepared.cfg
    check_budgets(cfg, budgets)
    # an oracle takes no 0 cap; an empty pool fails in balancing or pretraining instead
    balancer = TargetOracle(prepared.target, budget=len(prepared.pool_set) or None)
    s0 = balance_by_predicted_label(
        balancer, prepared.pool_set.epochs, cfg.balance.per_class, prepared.seeds["balance"],
        cfg.balance.strict,
    )
    if cfg.method != "noise" and None not in budgets and len(s0) != _s0_size(cfg):
        raise ClassBalanceError(
            f"the pool filled an initial set of {len(s0)} epochs, the budgets assume {_s0_size(cfg)}"
        )
    states = [(None, None)] * len(budgets) if cfg.method == "noise" else _train_substitutes(prepared, s0, budgets)
    return [_score(prepared, budget, balancer.query_count, *state) for budget, state in zip(budgets, states)]


def attack_run(prepared: PreparedRun, budget: int | None = None) -> RunResult:
    """Balance the pool, train the substitute, craft and score; see the module docstring."""
    return attack_runs(prepared, [budget])[0]


def run_attack_experiment(cfg: ExperimentConfig, run_index: int = 0, budget: int | None = None) -> RunResult:
    """Execute one full attack run: :func:`prepare_run` then :func:`attack_run`."""
    return attack_run(prepare_run(cfg, run_index), budget)


def write_run_trace(path, result: RunResult) -> None:
    """Stage-labeled query ledger for one run.

    One ``balance`` row, then one ``augment`` row per augmentation-trace
    row; ``target_queries`` is the absolute oracle counter so totals are
    directly comparable across methods.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["stage", "iteration", "target_queries", "substitute_queries", "train_set_size"]
        )
        writer.writerow(["balance", 0, result.balance_queries, 0, 0])
        if result.trace is not None:
            for row in result.trace.rows:
                writer.writerow(
                    [
                        "augment",
                        row.iteration,
                        result.balance_queries + row.target_queries,
                        row.substitute_queries,
                        row.train_set_size,
                    ]
                )
