import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsattack import models, pipeline
from qsattack.cli import _results_row, main
from qsattack.data import balance_by_predicted_label
from qsattack.errors import ConfigError
from qsattack.models import SoftmaxClassifier, TrainConfig
from qsattack.oracle import TargetOracle
from qsattack.pipeline import (
    BalanceConfig,
    DataConfig,
    ExperimentConfig,
    NetConfig,
    attack_runs,
    check_budgets,
    config_to_dict,
    load_config,
    prepare_run,
    run_attack_experiment,
    stage_seeds,
)
from qsattack.synthesis import JacobianConfig, SynthesisConfig, train_substitute_jacobian
from qsattack.attack import AttackConfig
from testutil import read_rows, write_config

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
    assert "seed" not in doc["synthesis"]
    assert "shuffle_seed" not in doc["target"]["train"] and "shuffle_seed" not in doc["substitute"]["train"]
    assert "noise_seed" not in doc["attack"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_config(path) == cfg


# manifests store this text: a flattener that reorders, retypes or drops a key changes every manifest
_SMALL_CONFIG_JSON = """{
  "data": {
    "generator": "blobs",
    "classes": 2,
    "channels": 2,
    "samples": 8,
    "train_per_class": 30,
    "test_per_class": 20,
    "pool_per_class": 30,
    "separation": 6.0,
    "noise_sigma": 1.0,
    "noise_amplitude": 0.5
  },
  "target": {
    "architecture": "mlp",
    "hidden": [
      6
    ],
    "kernel_width": 9,
    "train": {
      "max_epochs": 40,
      "patience": 5,
      "batch_size": 16
    }
  },
  "substitute": {
    "architecture": "mlp",
    "hidden": [
      6
    ],
    "kernel_width": 9,
    "train": {
      "max_epochs": 5,
      "patience": 2,
      "batch_size": 16
    }
  },
  "balance": {
    "per_class": 10,
    "strict": true
  },
  "synthesis": {
    "n_iterations": 1,
    "per_iteration": 20,
    "bisection_steps": 4,
    "offset_norm": 3.0
  },
  "jacobian": {
    "step_size": 0.5,
    "n_iterations": 1
  },
  "attack": {
    "epsilon": 0.4,
    "method": "ufgsm"
  },
  "method": "active",
  "runs": 1,
  "budgets": [],
  "master_seed": 5,
  "out_dir": "runs/out"
}"""


def test_config_to_dict_keeps_the_manifest_text():
    assert json.dumps(config_to_dict(small_config()), indent=2) == _SMALL_CONFIG_JSON


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mehtod": "active"}), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text(json.dumps({"data": {"generaotr": "blobs"}}), encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert "data" in str(info.value)


@pytest.mark.parametrize("text, where", [
    (b'{"runs": 2,,}', "line 1 column 12"),
    (b'\xff\xfe{\x00}\x00', "can't decode byte 0xff in position 0"),
    (b'{"runs": 1, "runs": 5}', "repeats the key(s) ['runs']"),
    (b'{"data": {"classes": 2, "classes": 3}}', "repeats the key(s) ['classes']"),
], ids=["json-syntax", "not-utf8", "repeated-key", "repeated-section-key"])
def test_config_that_is_not_utf8_json_raises_config_error(tmp_path, text, where):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(path) in str(info.value) and where in str(info.value)


@pytest.mark.parametrize("doc, key", [
    ({"data": 5}, "data"),
    ({"target": {"train": []}}, "target.train"),
    ({"budgets": 300}, "budgets"),
    ({"budgets": "49"}, "budgets"),
    ({"target": {"hidden": "16"}}, "target.hidden"),
    ({"data": {"train_per_class": 0}}, "data.train_per_class must be >= 1"),
    ({"data": {"test_per_class": 0}}, "data.test_per_class must be >= 1"),
    ({"data": {"pool_per_class": -1}}, "data.pool_per_class must be >= 0"),
    ({"budgets": [-5]}, "budgets must be non-negative integers"),
    ({"balance": {"per_class": 0}}, "balance.per_class must be >= 1"),
    ({"substitute": {"architecture": "cnn"}}, "substitute"),
    ({"target": {"architecture": "mlp", "hidden": [6, 6, 6]}}, "target"),
    ({"data": {"samples": 8}, "substitute": {"architecture": "tcn", "hidden": [4], "kernel_width": 99}},
     "substitute"),
    ({"target": {"activation": "relu"}}, "unknown key(s) ['activation'] in target"),
    ({"data": {"classes": 1}}, "target"),
    ({"data": {"separation": 0}}, "data.separation must be > 0"),
    ({"data": {"separation": -1}}, "data.separation must be > 0"),
    ({"data": {"noise_sigma": -2}}, "data.noise_sigma must be >= 0"),
    ({"data": {"noise_amplitude": -1}}, "data.noise_amplitude must be >= 0"),
    ({"synthesis": {"seed": 123}}, "synthesis.seed"),
    ({"jacobian": {"seed": 77}}, "unknown key(s) ['seed'] in jacobian"),
    ({"target": {"train": {"shuffle_seed": 999}}}, "target.train.shuffle_seed"),
    ({"substitute": {"train": {"shuffle_seed": 0}}}, "substitute.train.shuffle_seed"),
    ({"target": {"train": {"class_weights": "uniform"}}}, "unknown key(s) ['class_weights'] in target.train"),
    ({"attack": {"noise_seed": 7}}, "attack.noise_seed cannot be set"),
    ({"attack": {"method": "noise"}}, "attack.method must be fgsm or ufgsm"),
    ({"data": {"generator": "eeg"}}, "data.generator must be one of blobs, erp, got 'eeg'"),
    ({"balance": {"strict": False}}, "balance.strict must be true"),
    ({"method": "random"}, "method must be one of active, jacobian, noise, got 'random'"),
    ({"runs": 0}, "runs must be >= 1"),
    ({"budgets": [300, 200]}, "budgets must be strictly increasing"),
    ([], "config root must be a JSON object"),
    ({"synthesis": {"n_iterations": -1}}, "synthesis.n_iterations must be >= 0"),
    ({"synthesis": {"per_iteration": 0}}, "synthesis.per_iteration must be >= 1"),
    ({"synthesis": {"bisection_steps": 0}}, "synthesis.bisection_steps must be >= 1"),
    ({"synthesis": {"offset_norm": 0}}, "synthesis.offset_norm must be > 0"),
    ({"jacobian": {"step_size": 0}}, "jacobian.step_size must be > 0"),
    ({"jacobian": {"n_iterations": -1}}, "jacobian.n_iterations must be >= 0"),
    ({"attack": {"epsilon": -0.5}}, "attack.epsilon must be >= 0"),
    ({"attack": {"method": "pgd"}}, "attack.method must be one of fgsm, ufgsm, noise, got 'pgd'"),
    ({"target": {"train": {"max_epochs": 0}}}, "target.train.max_epochs must be >= 1"),
    ({"substitute": {"train": {"patience": 0}}}, "substitute.train.patience must be >= 1"),
    ({"target": {"train": {"batch_size": 0}}}, "target.train.batch_size must be >= 1"),
], ids=["data-not-object", "train-not-object", "budgets-number", "budgets-string",
        "hidden-string", "train-below-1", "test-below-1", "pool-below-0", "budget-negative", "balance-below-1",
        "unknown-architecture", "mlp-three-hidden", "tcn-kernel-too-wide", "unknown-activation",
        "one-class", "separation-zero", "separation-negative", "noise-sigma-negative",
        "noise-amplitude-negative", "synthesis-seed", "jacobian-seed", "target-shuffle-seed",
        "substitute-shuffle-seed", "target-class-weights", "attack-noise-seed", "attack-method-noise",
        "unknown-generator", "strict-false", "unknown-method", "runs-below-1", "budgets-decreasing",
        "root-array", "iterations-below-0", "per-iteration-below-1", "bisection-below-1", "offset-norm-zero",
        "step-size-zero", "jacobian-iterations-below-0", "epsilon-negative", "attack-method-unknown",
        "max-epochs-below-1", "patience-below-1", "batch-size-below-1"])
def test_config_wrong_types_raise_config_error(tmp_path, doc, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value).startswith(key)  # the dotted key first, named once


@pytest.mark.parametrize("doc, key", [
    ({"runs": 1.0}, "runs"),
    ({"master_seed": 2.5}, "master_seed"),
    ({"runs": True}, "runs"),
    ({"synthesis": {"n_iterations": 1.5}}, "synthesis.n_iterations"),
    ({"target": {"train": {"max_epochs": 10.0}}}, "target.train.max_epochs"),
    ({"data": {"classes": "3"}}, "data.classes"),
    ({"balance": {"per_class": False}}, "balance.per_class"),
    ({"budgets": [200.5]}, "budgets"),
    ({"substitute": {"hidden": [8.0]}}, "substitute.hidden"),
    ({"balance": {"strict": "no"}}, "balance.strict"),
    ({"synthesis": {"offset_norm": True}}, "synthesis.offset_norm"),
    ({"attack": {"epsilon": "0.1"}}, "attack.epsilon"),
    ({"method": 3}, "method"),
    # json writes and reads NaN and Infinity bare
    ({"attack": {"epsilon": float("nan")}}, "attack.epsilon must be a finite number"),
    ({"synthesis": {"offset_norm": float("inf")}}, "synthesis.offset_norm must be a finite number"),
    ({"data": {"separation": float("-inf")}}, "data.separation must be a finite number"),
    ({"jacobian": {"step_size": float("inf")}}, "jacobian.step_size must be a finite"),
], ids=["runs-float", "seed-float", "runs-bool", "iterations-float", "max-epochs-float",
        "classes-string", "per-class-bool", "budget-float", "hidden-float",
        "strict-string", "offset-norm-bool", "epsilon-string", "method-number",
        "epsilon-nan", "offset-norm-inf", "separation-minus-inf", "step-size-inf"])
def test_config_scalar_fields_take_only_their_json_type(tmp_path, doc, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert key in str(info.value)


@pytest.mark.parametrize("section, key", [
    ("synthesis", "retrain"), ("synthesis", "resample_limit"), ("synthesis", "reselect_limit"),
    ("synthesis", "random_fallback"), ("jacobian", "retrain"),
    *((f"{net}.train", key) for net in ("target", "substitute")
      for key in ("beta1", "beta2", "adam_epsilon", "learning_rate", "validation_fraction")),
])
def test_config_refuses_removed_keys(tmp_path, section, key):
    # fine-tuning, the Gaussian fallback and the training constants are fixed; an older manifest names them
    doc = config_to_dict(small_config())
    node = doc
    for name in section.split("."):
        node = node[name]
    node[key] = {"retrain": "fine-tune", "random_fallback": True}.get(key, 1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"unknown key\(s\) \['{key}'\] in {section}$"):
        load_config(path)


def test_config_scalar_fields_take_their_json_types(tmp_path):
    doc = {"jacobian": {"n_iterations": 0}, "runs": 2, "synthesis": {"offset_norm": 2},
           "balance": {"strict": True}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = load_config(path)
    assert (cfg.jacobian.n_iterations, cfg.runs, cfg.synthesis.offset_norm, cfg.balance.strict) == (0, 2, 2, True)


def test_config_refuses_lenient_balancing(tmp_path):
    # every initial set holds per_class epochs of each class; a short class is refused, not kept short
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"balance": {"per_class": 10, "strict": False}}), encoding="utf-8")
    with pytest.raises(ConfigError, match="balance"):
        load_config(path)
    with pytest.raises(ConfigError, match="balance"):
        BalanceConfig(per_class=10, strict=False)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(method="hybrid")
    with pytest.raises(ConfigError):
        small_config(budgets=(300, 200))
    for budgets in ((-5,), (20, 40.5), (True,)):  # no truncation, no bool as 1
        with pytest.raises(ConfigError, match="budgets must be non-negative integers"):
            small_config(budgets=budgets)
    assert [type(b) for b in small_config(budgets=(np.int64(40),)).budgets] == [int]  # JSON-writable
    with pytest.raises(ConfigError):
        small_config(runs=0)
    # shapes the generators refuse are refused when the config loads, not after it
    with pytest.raises(ConfigError, match="data.samples"):
        DataConfig(generator="erp", samples=7)
    with pytest.raises(ConfigError, match="data.classes"):
        DataConfig(generator="blobs", classes=5, channels=2, samples=2)
    assert DataConfig(noise_sigma=0.0, noise_amplitude=0.0).noise_sigma == 0.0  # noiseless data is valid
    DataConfig(generator="erp", samples=8)
    DataConfig(generator="blobs", classes=4, channels=2, samples=2)



def test_data_config_refuses_splits_no_array_can_hold(tmp_path):
    # counted with Python ints before any generator allocates; numpy's count of this shape overflows
    linear = {"architecture": "linear", "hidden": []}
    path = write_config(tmp_path, data={"channels": 2**31, "samples": 2**31}, target=linear, substitute=linear)
    with pytest.raises(ConfigError, match=r"data\.train_per_class \* classes \* channels \* samples"):
        load_config(path)
    # 2 classes of 4 x 16 epochs: 2**24 epochs per class fill the 2**31-value limit exactly
    assert DataConfig(pool_per_class=2**24).pool_per_class == 2**24
    with pytest.raises(ConfigError, match=r"data\.pool_per_class"):
        DataConfig(pool_per_class=2**24 + 1)


def test_config_refuses_models_no_array_can_hold(tmp_path, monkeypatch):
    # 4096 inputs into 2**20 hidden units: 4,298,113,026 parameters, counted with Python ints before any allocation
    monkeypatch.setattr(models.np, "zeros", lambda *args: pytest.fail("allocated"))
    wide = {"architecture": "mlp", "hidden": [1048576]}
    for name in ("target", "substitute"):
        path = write_config(tmp_path, data={"channels": 64, "samples": 64}, **{name: wide})
        with pytest.raises(ConfigError, match=rf"{name}: hidden \[1048576\] gives 4298113026 parameters, more than"):
            load_config(path)


def test_experiment_runs_check_every_budget_before_training(monkeypatch):
    cfg = small_config(runs=2)
    runs = [(run, [r.budget for r in results]) for run, results in pipeline.experiment_runs(cfg, [None, 40])]
    assert runs == [(0, [40, 40]), (1, [40, 40])]  # None: the configured rounds, |S0| + 1 * 20
    monkeypatch.setattr(pipeline, "prepare_run", lambda *args: pytest.fail("a target trained"))
    with pytest.raises(ConfigError, match="budget 30"):  # 30 - |S0| is no multiple of 20
        next(pipeline.experiment_runs(cfg, [None, 30]))

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
    assert active.balance_queries == jacobian.balance_queries
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
    cfg = write_config(tmp_path)
    assert main(["attack", "--config", str(cfg), "--out", str(tmp_path / "attack")]) == 0
    result = run_attack_experiment(load_config(cfg), 0)
    lines = (tmp_path / "attack" / "run-000" / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "stage,iteration,target_queries,substitute_queries,train_set_size"
    assert lines[1].startswith("balance,0,60,")
    assert lines[-1].split(",")[2] == str(result.balance_queries + result.training_queries)


def test_results_row_layout(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["attack", "--config", str(cfg), "--out", str(tmp_path / "attack")]) == 0
    result = run_attack_experiment(load_config(cfg), 0)
    row = read_rows(tmp_path / "attack" / "results.csv")[0]
    assert row["dataset"] == "blobs-k2-2x8"
    assert row["target_model"] == "mlp-6"
    assert row["method"] == "active"
    assert float(row["rca"]) == result.attacked.rca
    assert row["seed"] == str(result.seeds["run"])


def test_runs_are_reproducible():
    a = run_attack_experiment(small_config(), 3)
    b = run_attack_experiment(small_config(), 3)
    assert a.attacked.rca == b.attacked.rca
    assert (a.balance_queries, a.training_queries) == (b.balance_queries, b.training_queries)
    assert np.array_equal(a.substitute.parameters, b.substitute.parameters)


# (iteration, target_queries, substitute_queries, train_set_size) of each
# jacobian budget's trace, as separate capped runs per budget recorded them
# before the budgets shared one trajectory; |S0| = 20
JACOBIAN_ROWS = {
    20: [(0, 20, 0, 20)],
    25: [(0, 20, 0, 20), (1, 25, 20, 25)],
    40: [(0, 20, 0, 20), (1, 40, 20, 40)],
    47: [(0, 20, 0, 20), (1, 40, 20, 40), (2, 47, 60, 47)],
    80: [(0, 20, 0, 20), (1, 40, 20, 40), (2, 80, 60, 80)],
}


@pytest.mark.parametrize("method, budgets", [
    ("active", [20, 40, 60]), ("jacobian", list(JACOBIAN_ROWS)),
], ids=["active", "jacobian"])
def test_attack_runs_equal_separate_runs_per_budget(method, budgets):
    # one substitute trajectory serves every budget: active 0, 1 and 2
    # rounds; jacobian whole rounds 0, 1 and 2 plus leaves that end with a
    # partial round (25 and 47); each result must keep the substitute as it
    # stood at its own budget, not the one later rounds trained in place
    prepared = prepare_run(small_config(method=method), 0)
    shared = attack_runs(prepared, budgets)
    assert [r.budget for r in shared] == budgets
    for budget, result in zip(budgets, shared):
        alone = attack_runs(prepared, [budget])[0]
        assert np.array_equal(result.substitute.parameters, alone.substitute.parameters)
        assert len(result.trace.rows) == len(alone.trace.rows)
        for row, ref in zip(result.trace.rows, alone.trace.rows):
            assert (row.iteration, row.target_queries, row.substitute_queries, row.train_set_size) == (
                ref.iteration, ref.target_queries, ref.substitute_queries, ref.train_set_size)
            assert (row.synthesized is None) == (ref.synthesized is None)
            assert row.synthesized is None or np.array_equal(row.synthesized, ref.synthesized)
        assert result.training_queries == alone.training_queries == budget
        assert result.balance_queries == alone.balance_queries
        assert np.array_equal(result.attacked.confusion, alone.attacked.confusion)
    assert not np.array_equal(shared[0].substitute.parameters, shared[-1].substitute.parameters)
    if method == "jacobian":
        rows = {r.budget: [(x.iteration, x.target_queries, x.substitute_queries, x.train_set_size)
                           for x in r.trace.rows] for r in shared}
        assert rows == JACOBIAN_ROWS


def test_jacobian_whole_round_budgets_equal_standalone_training():
    # a budget that ends on a whole round is a plain uncapped run of that many rounds
    cfg = small_config(method="jacobian")
    prepared, seeds = prepare_run(cfg, 0), stage_seeds(cfg.master_seed, 0)
    s0 = balance_by_predicted_label(TargetOracle(prepared.target), prepared.pool_set.epochs,
                                    cfg.balance.per_class, seeds["balance"])
    spec = pipeline._build_spec(cfg.substitute, cfg.data, seeds["substitute-init"])
    train = replace(cfg.substitute.train, shuffle_seed=seeds["substitute-train"])
    for rounds, result in enumerate(attack_runs(prepared, [20, 40, 80])):
        alone, _ = train_substitute_jacobian(TargetOracle(prepared.target), s0, spec, train,
                                             replace(cfg.jacobian, n_iterations=rounds))
        assert np.array_equal(result.substitute.parameters, alone.parameters)


@settings(max_examples=200, deadline=None)
@given(per_class=st.integers(1, 50), classes=st.integers(2, 4), extra=st.integers(0, 5000))
def test_jacobian_plan_is_whole_rounds_then_a_partial_one(per_class, classes, extra):
    cfg = small_config(method="jacobian", balance=BalanceConfig(per_class=per_class),
                       data=replace(small_config().data, classes=classes))
    s0_size = per_class * classes
    [(rounds, leftover)] = check_budgets(cfg, [s0_size + extra])
    assert s0_size * (2**rounds - 1) + leftover == extra
    assert 0 <= leftover < s0_size * 2**rounds


@settings(max_examples=200, deadline=None)
@given(per_class=st.integers(1, 50), per_iteration=st.integers(1, 300), extra=st.integers(0, 5000))
def test_active_plan_refuses_exactly_the_budgets_rounds_cannot_spend(per_class, per_iteration, extra):
    cfg = small_config(balance=BalanceConfig(per_class=per_class),
                       synthesis=replace(small_config().synthesis, per_iteration=per_iteration))
    budget = 2 * per_class + extra
    if extra % per_iteration:
        with pytest.raises(ConfigError):
            check_budgets(cfg, [budget])
    else:
        assert check_budgets(cfg, [budget]) == [(extra // per_iteration, 0)]


@settings(max_examples=100, deadline=None)
@given(method=st.sampled_from(["active", "jacobian"]), per_class=st.integers(1, 50), short=st.integers(1, 100))
def test_budget_below_initial_set_is_refused(method, per_class, short):
    cfg = small_config(method=method, balance=BalanceConfig(per_class=per_class))
    with pytest.raises(ConfigError, match="below the initial set size"):
        check_budgets(cfg, [2 * per_class - short])


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
    # the balancing oracle is capped at the pool and the trajectory at what its
    # whole rounds label: 60 for active; 40 = |S0| * 2**1 for jacobian, whose
    # budget 60 is round 1 plus a leaf with its own oracle capped at the 20
    # rows of its partial round; every one ends spent, so any further query is refused
    assert [o.budget for o in oracles] == ([60, 60] if method == "active" else [60, 40, 20])
    assert [o.remaining for o in oracles] == [0] * len(oracles)


def trace_rows(result):
    """Every trace row of a run as plain values, its synthesized epochs as bytes."""
    rows = result.trace.rows if result.trace is not None else []
    return [(r.iteration, r.target_queries, r.substitute_queries, r.train_set_size,
             None if r.synthesized is None else r.synthesized.tobytes()) for r in rows]


@pytest.mark.parametrize("method, spent", [("active", 40), ("jacobian", 40), ("noise", 0)])
def test_a_run_without_a_budget_is_the_run_at_its_configured_budget(monkeypatch, method, spent):
    # |S0| = 20: active adds 1 x 20, jacobian doubles once, noise trains nothing
    oracles = []

    class RecordingOracle(pipeline.TargetOracle):
        def __init__(self, model, budget=None):
            super().__init__(model, budget)
            oracles.append(self)

    cfg = small_config(method=method)
    prepared = prepare_run(cfg, 0)
    monkeypatch.setattr(pipeline, "TargetOracle", RecordingOracle)
    bare = attack_runs(prepared, [None])[0]
    assert bare.budget == spent
    assert None not in [o.budget for o in oracles]  # every oracle, the trajectory's too, is capped
    budgeted = attack_runs(prepared, [spent])[0]
    assert _results_row(cfg, bare) == _results_row(cfg, budgeted)
    assert trace_rows(bare) == trace_rows(budgeted)


def test_jacobian_leaves_take_the_trajectory_next_proposal(monkeypatch):
    # the c08 grid: |S0| = 200, so 600 is round 1 plus 200 rows and 1000 is round 2 plus 200
    cfg = small_config(
        data=DataConfig(generator="blobs", classes=2, channels=4, samples=16, train_per_class=150,
                        test_per_class=150, pool_per_class=300, separation=24.0, noise_sigma=3.0),
        target=NetConfig(architecture="linear", hidden=(), train=TrainConfig(max_epochs=100, patience=10)),
        substitute=NetConfig(architecture="linear", hidden=(), train=TrainConfig(max_epochs=100, patience=10)),
        balance=BalanceConfig(per_class=100), method="jacobian", master_seed=808,
    )
    budgets = [200, 400, 600, 800, 1000]
    prepared = prepare_run(cfg, 0)
    s0 = balance_by_predicted_label(TargetOracle(prepared.target), prepared.pool_set.epochs,
                                    cfg.balance.per_class, prepared.seeds["balance"])
    rows, gradient = [], SoftmaxClassifier.input_gradient_batch
    monkeypatch.setattr(SoftmaxClassifier, "input_gradient_batch",
                        lambda self, xs, labels: rows.append(len(xs)) or gradient(self, xs, labels))
    pipeline._train_substitutes(prepared, s0, {"jacobian": budgets}, {"jacobian": check_budgets(cfg, budgets)})
    # trajectory rounds 1 and 2 augment 200 and 400 rows; the leaf of 600 reuses
    # round 2's 400 and only the leaf past the last round, 1000, augments its own 800
    assert rows == [200, 400, 800]


@pytest.mark.parametrize("architecture, hidden", [("linear", ()), ("mlp", (6,)), ("tcn", (3,))])
def test_active_and_jacobian_fit_the_same_round0_substitute(architecture, hidden):
    # what lets one command share round 0 across methods: at budget |S0| = 20 the two
    # single-method runs label the same S0 and fit it with the same spec and seeds
    net = NetConfig(architecture=architecture, hidden=hidden, kernel_width=3, train=FAST_TRAIN)
    active, jacobian = (run_attack_experiment(small_config(method=method, substitute=net), 0, budget=20)
                        for method in ("active", "jacobian"))
    assert active.substitute.parameters.tobytes() == jacobian.substitute.parameters.tobytes()
    assert trace_rows(active) == trace_rows(jacobian) == [(0, 20, 0, 20, None)]
