import json

import numpy as np
import pytest

from qsattack import pipeline
from qsattack.errors import ClassBalanceError, ConfigError
from qsattack.models import TrainConfig
from qsattack.pipeline import (
    BalanceConfig,
    DataConfig,
    ExperimentConfig,
    NetConfig,
    attack_run,
    attack_runs,
    config_to_dict,
    load_config,
    prepare_run,
    run_attack_experiment,
    stage_seeds,
    write_run_trace,
)
from qsattack.synthesis import JacobianConfig, SynthesisConfig
from qsattack.attack import AttackConfig

FAST_TRAIN = TrainConfig(max_epochs=5, patience=2, batch_size=16)
TARGET_TRAIN = TrainConfig(max_epochs=40, patience=5, batch_size=16)


def small_config(**overrides):
    base = dict(
        data=DataConfig(generator="blobs", classes=2, channels=2, samples=8,
                        train_per_class=30, test_per_class=20, pool_per_class=30,
                        separation=6.0, noise_sigma=1.0),
        target=NetConfig(architecture="mlp", hidden=(6,), train=TARGET_TRAIN),
        substitute=NetConfig(architecture="mlp", hidden=(6,), train=FAST_TRAIN),
        balance=BalanceConfig(per_class=10),
        synthesis=SynthesisConfig(n_iterations=1, per_iteration=20, bisection_steps=4,
                                  offset_norm=3.0),
        jacobian=JacobianConfig(step_size=0.5, n_iterations=1),
        attack=AttackConfig(epsilon=0.4, method="ufgsm"),
        method="active",
        master_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_json_roundtrip(tmp_path):
    cfg = small_config()
    doc = config_to_dict(cfg)
    # the derived seeds are not config keys; small_config leaves them at their defaults
    del doc["synthesis"]["seed"], doc["jacobian"]["seed"]
    del doc["target"]["train"]["shuffle_seed"], doc["substitute"]["train"]["shuffle_seed"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_config(path) == cfg


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mehtod": "active"}), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text(json.dumps({"data": {"generaotr": "blobs"}}), encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert "data" in str(info.value)


@pytest.mark.parametrize("doc, key", [
    ({"data": 5}, "data"),
    ({"target": {"train": []}}, "target.train"),
    ({"budgets": 300}, "budgets"),
    ({"budgets": "49"}, "budgets"),
    ({"target": {"hidden": "16"}}, "target.hidden"),
    ({"data": {"train_per_class": 0}}, "train_per_class"),
    ({"data": {"test_per_class": 0}}, "test_per_class"),
    ({"data": {"pool_per_class": -1}}, "pool_per_class"),
    ({"substitute": {"architecture": "cnn"}}, "substitute"),
    ({"target": {"architecture": "mlp", "hidden": [6, 6, 6]}}, "target"),
    ({"data": {"samples": 8}, "substitute": {"architecture": "tcn", "hidden": [4], "kernel_width": 99}},
     "substitute"),
    ({"target": {"activation": "gelu"}}, "target"),
    ({"data": {"classes": 1}}, "target"),
    ({"synthesis": {"seed": 123}}, "synthesis.seed"),
    ({"jacobian": {"seed": 77}}, "jacobian.seed"),
    ({"target": {"train": {"shuffle_seed": 999}}}, "target.train.shuffle_seed"),
    ({"substitute": {"train": {"shuffle_seed": 0}}}, "substitute.train.shuffle_seed"),
], ids=["data-not-object", "train-not-object", "budgets-number", "budgets-string",
        "hidden-string", "train-below-1", "test-below-1", "pool-below-0",
        "unknown-architecture", "mlp-three-hidden", "tcn-kernel-too-wide", "unknown-activation",
        "one-class", "synthesis-seed", "jacobian-seed", "target-shuffle-seed",
        "substitute-shuffle-seed"])
def test_config_wrong_types_raise_config_error(tmp_path, doc, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert key in str(info.value)


@pytest.mark.parametrize("doc, key", [
    ({"runs": 1.0}, "runs"),
    ({"master_seed": 2.5}, "master_seed"),
    ({"runs": True}, "runs"),
    ({"synthesis": {"n_iterations": 1.5}}, "synthesis.n_iterations"),
    ({"target": {"train": {"max_epochs": 10.0}}}, "target.train.max_epochs"),
    ({"data": {"classes": "3"}}, "data.classes"),
    ({"balance": {"per_class": False}}, "balance.per_class"),
    ({"jacobian": {"query_cap": 2.5}}, "jacobian.query_cap"),
    ({"budgets": [200.5]}, "budgets"),
    ({"substitute": {"hidden": [8.0]}}, "substitute.hidden"),
    ({"balance": {"strict": "no"}}, "balance.strict"),
    ({"synthesis": {"offset_norm": True}}, "synthesis.offset_norm"),
    ({"attack": {"epsilon": "0.1"}}, "attack.epsilon"),
    ({"method": 3}, "method"),
], ids=["runs-float", "seed-float", "runs-bool", "iterations-float", "max-epochs-float",
        "classes-string", "per-class-bool", "query-cap-float", "budget-float", "hidden-float",
        "strict-string", "offset-norm-bool", "epsilon-string", "method-number"])
def test_config_scalar_fields_take_only_their_json_type(tmp_path, doc, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert key in str(info.value)


def test_config_scalar_fields_take_their_json_types(tmp_path):
    doc = {"jacobian": {"query_cap": None}, "runs": 2, "synthesis": {"offset_norm": 2},
           "balance": {"strict": False}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = load_config(path)
    assert (cfg.jacobian.query_cap, cfg.runs, cfg.synthesis.offset_norm, cfg.balance.strict) == (None, 2, 2, False)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(method="hybrid")
    with pytest.raises(ConfigError):
        small_config(budgets=(300, 200))
    with pytest.raises(ConfigError):
        small_config(runs=0)


def test_stage_seeds_are_stable_and_distinct():
    seeds = stage_seeds(7, 0)
    assert seeds == stage_seeds(7, 0)
    assert len(set(seeds.values())) == len(seeds)
    assert stage_seeds(7, 1) != seeds


def test_noise_method_skips_substitute():
    result = run_attack_experiment(small_config(method="noise"), 0)
    assert result.trace is None
    assert result.substitute is None
    assert result.training_queries == 0
    assert result.balance_queries == 60  # whole pool labeled once
    assert result.attacked.rca == result.noisy.rca


def test_zero_epsilon_attack_equals_baseline():
    cfg = small_config(attack=AttackConfig(epsilon=0.0, method="ufgsm"))
    result = run_attack_experiment(cfg, 0)
    assert result.attacked.rca == result.baseline.rca
    assert result.attacked.bca == result.baseline.bca


def test_equal_budget_methods_match_query_totals():
    active = run_attack_experiment(small_config(method="active"), 0)
    jacobian = run_attack_experiment(small_config(method="jacobian"), 0)
    # |S0| = 20, active adds 1 x 20, jacobian doubles once: equal totals
    assert active.training_queries == jacobian.training_queries == 40
    assert active.total_queries == jacobian.total_queries
    assert active.seeds == jacobian.seeds  # paired by construction


def test_budget_plan_resolution_errors():
    cfg = small_config()
    with pytest.raises(ConfigError):
        run_attack_experiment(cfg, 0, budget=10)  # below |S0| = 20
    with pytest.raises(ConfigError):
        run_attack_experiment(cfg, 0, budget=30)  # extra 10 not a multiple of 20


def test_budget_equal_to_initial_set_pretrains_only():
    result = run_attack_experiment(small_config(), 0, budget=20)
    assert result.training_queries == 20
    assert len(result.trace.rows) == 1
    jacobian = run_attack_experiment(small_config(method="jacobian"), 0, budget=20)
    assert jacobian.training_queries == 20


def test_run_trace_csv(tmp_path):
    result = run_attack_experiment(small_config(), 0)
    path = tmp_path / "trace.csv"
    write_run_trace(path, result)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "stage,iteration,target_queries,substitute_queries,train_set_size"
    assert lines[1].startswith("balance,0,60,")
    assert lines[-1].split(",")[2] == str(result.total_queries)


def test_results_row_layout():
    cfg = small_config()
    result = run_attack_experiment(cfg, 0)
    row = result.results_row(cfg)
    assert row["dataset"] == "blobs-k2-2x8"
    assert row["target_model"] == "mlp-6"
    assert row["method"] == "active"
    assert float(row["rca"]) == result.attacked.rca
    assert row["seed"] == result.run_seed


def test_runs_are_reproducible():
    a = run_attack_experiment(small_config(), 3)
    b = run_attack_experiment(small_config(), 3)
    assert a.attacked.rca == b.attacked.rca
    assert a.total_queries == b.total_queries
    assert np.array_equal(a.substitute.parameters, b.substitute.parameters)


def test_attack_runs_equal_separate_runs_per_budget():
    # one active substitute serves budgets 20, 40 and 60 (0, 1 and 2 rounds);
    # each result must keep the substitute as it stood at its own round,
    # not the one later rounds fine-tuned in place
    prepared = prepare_run(small_config(), 0)
    budgets = [20, 40, 60]
    shared = attack_runs(prepared, budgets)
    assert [r.budget for r in shared] == budgets
    for budget, result in zip(budgets, shared):
        alone = attack_run(prepared, budget)
        assert np.array_equal(result.substitute.parameters, alone.substitute.parameters)
        assert len(result.trace.rows) == len(alone.trace.rows)
        for row, ref in zip(result.trace.rows, alone.trace.rows):
            assert (row.iteration, row.target_queries, row.substitute_queries, row.train_set_size) == (
                ref.iteration, ref.target_queries, ref.substitute_queries, ref.train_set_size)
            assert (row.synthesized is None) == (ref.synthesized is None)
            assert row.synthesized is None or np.array_equal(row.synthesized, ref.synthesized)
        assert result.training_queries == alone.training_queries == budget
        assert result.total_queries == alone.total_queries
        assert np.array_equal(result.attacked.confusion, alone.attacked.confusion)
    assert not np.array_equal(shared[0].substitute.parameters, shared[-1].substitute.parameters)


@pytest.mark.parametrize("method", ["active", "jacobian", "noise"])
def test_attack_runs_balances_once_per_run_index(monkeypatch, method):
    calls, balance = [], pipeline.balance_by_predicted_label

    def counting(*args, **kwargs):
        calls.append(1)
        return balance(*args, **kwargs)

    monkeypatch.setattr(pipeline, "balance_by_predicted_label", counting)
    results = attack_runs(prepare_run(small_config(method=method), 0), [20, 40, 60])
    assert len(calls) == 1
    assert [r.balance_queries for r in results] == [60, 60, 60]
    assert [r.training_queries for r in results] == ([0, 0, 0] if method == "noise" else [20, 40, 60])


@pytest.mark.parametrize("method", ["active", "jacobian"])
def test_each_trajectory_oracle_caps_its_own_budget(monkeypatch, method):
    oracles = []

    class RecordingOracle(pipeline.TargetOracle):
        def __init__(self, model, budget=None):
            super().__init__(model, budget)
            oracles.append(self)

    monkeypatch.setattr(pipeline, "TargetOracle", RecordingOracle)
    attack_runs(prepare_run(small_config(method=method), 0), [20, 40, 60])
    # the balancing oracle is capped at the pool, then each trajectory at its
    # largest budget; every one ends spent, so any further query is refused
    assert [o.budget for o in oracles] == ([60, 60] if method == "active" else [60, 20, 40, 60])
    assert [o.remaining for o in oracles] == [0] * len(oracles)


@pytest.mark.parametrize("method", ["active", "jacobian"])
def test_budgets_refused_when_lenient_balancing_leaves_initial_set_short(method):
    # 30 pool epochs per class cannot fill 40 per class; lenient balancing keeps all 60
    prepared = prepare_run(small_config(method=method, balance=BalanceConfig(per_class=40, strict=False)), 0)
    with pytest.raises(ClassBalanceError, match="60 epochs.* 80"):
        attack_runs(prepared, [80, 100, 120])
    assert attack_run(prepared).trace.rows[0].train_set_size == 60  # no budget: trains on what it has
