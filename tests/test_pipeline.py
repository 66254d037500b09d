import dataclasses
import json
import re
import typing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsattack import models, pipeline
from qsattack.cli import _results_row, main
from qsattack.data import balance_by_predicted_label
from qsattack.errors import ClassBalanceError, ConfigError
from qsattack.models import ModelSpec, SoftmaxClassifier, TrainConfig
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
    ({"data": {"classes": 1}}, "data.classes must be >= 2, got 1"),  # not a target.classes key
    ({"data": {"channels": 0}}, "data.channels must be >= 1, got 0"),
    ({"data": {"samples": 0}}, "data.samples must be >= 1, got 0"),
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
    # the one refusal form names the value it got
    ({"synthesis": {"per_iteration": 0}}, "synthesis.per_iteration must be >= 1, got 0"),
    ({"data": {"separation": 0}}, "data.separation must be > 0, got 0"),
    ({"runs": 0}, "runs must be >= 1, got 0"),
    ({"balance": {"per_class": 0}}, "balance.per_class must be >= 1, got 0"),
    ({"attack": {"epsilon": -0.5}}, "attack.epsilon must be >= 0, got -0.5"),
    ({"target": {"architecture": "cnn"}}, "target: architecture must be one of linear, mlp, tcn, got 'cnn'"),
], ids=["data-not-object", "train-not-object", "budgets-number", "budgets-string",
        "hidden-string", "train-below-1", "test-below-1", "pool-below-0", "budget-negative", "balance-below-1",
        "unknown-architecture", "mlp-three-hidden", "tcn-kernel-too-wide", "unknown-activation",
        "one-class", "channels-zero", "samples-zero", "separation-zero", "separation-negative", "noise-sigma-negative",
        "noise-amplitude-negative", "synthesis-seed", "jacobian-seed", "target-shuffle-seed",
        "substitute-shuffle-seed", "target-class-weights", "attack-noise-seed", "attack-method-noise",
        "unknown-generator", "strict-false", "unknown-method", "runs-below-1", "budgets-decreasing",
        "root-array", "iterations-below-0", "per-iteration-below-1", "bisection-below-1", "offset-norm-zero",
        "step-size-zero", "jacobian-iterations-below-0", "epsilon-negative", "attack-method-unknown",
        "max-epochs-below-1", "patience-below-1", "batch-size-below-1", "per-iteration-message",
        "separation-message", "runs-message", "balance-message", "epsilon-message", "architecture-message"])
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
    with pytest.raises(ConfigError, match=r"^data\.separation must be a finite number, got nan$"):  # NaN is no number
        DataConfig(separation=float("nan"))
    with pytest.raises(ConfigError, match=r"^data\.noise_sigma must be a finite number, got nan$"):
        DataConfig(noise_sigma=float("nan"))


# each scalar annotation and the text of its refusal
_TYPE_TEXT = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}
# every single-field rule of the config and spec records, declared on its field with ranged()
_DECLARED = {
    ModelSpec: ("architecture", "channels", "samples", "classes", "activation", "seed"),
    TrainConfig: ("max_epochs", "patience", "batch_size", "shuffle_seed"),
    SynthesisConfig: ("n_iterations", "per_iteration", "bisection_steps", "offset_norm", "seed"),
    JacobianConfig: ("step_size", "n_iterations"),
    AttackConfig: ("epsilon", "method", "noise_seed"),
    DataConfig: ("generator", "classes", "channels", "samples", "train_per_class", "test_per_class", "pool_per_class",
                 "separation", "noise_sigma", "noise_amplitude"),
    BalanceConfig: ("per_class",),
    ExperimentConfig: ("method", "runs"),
}
_SECTIONS = {DataConfig: "data.", BalanceConfig: "balance.", ExperimentConfig: ""}  # the rest raise ValueError


@pytest.mark.parametrize("record", _DECLARED, ids=lambda record: record.__name__)
def test_every_declared_rule_refuses_one_step_outside_it_in_one_form(record):
    assert tuple(f.name for f in dataclasses.fields(record) if f.metadata) == _DECLARED[record]
    required = {"architecture": "linear", "channels": 2, "samples": 8, "classes": 2} if record is ModelSpec else {}
    record(**required)  # every default, and these, meet their rules
    types = typing.get_type_hints(record)
    for f in dataclasses.fields(record):
        rule, kind = f.metadata, _TYPE_TEXT.get(types[f.name])
        if "choices" in rule:  # and a value of another type, refused by its type first
            bad = [("conv", f"one of {', '.join(rule['choices'])}"), (["conv"], kind)]
        elif rule:  # and text, and NaN for a float: refused by their type first
            bound = f"{'>' if rule['above'] else '>='} {rule['low']}"
            bad = [(rule["low"] if rule["above"] else rule["low"] - 1, bound), (str(rule["low"] + 1), kind)]
            bad += [(float("nan"), kind)] if types[f.name] is float else []
        else:
            continue
        for value, must in bad:
            with pytest.raises(ConfigError if record in _SECTIONS else ValueError) as info:
                record(**required | {f.name: value})
            assert str(info.value) == f"{_SECTIONS.get(record, '')}{f.name} must be {must}, got {value!r}"


# values of another type that each scalar annotation refuses
_WRONG_TYPE = {int: [2.5, True, "1"], float: [True, "1.0", float("nan"), float("inf"), float("-inf"), -10**309],
               str: [5], bool: ["no"]}
_SPEC = {"architecture": "linear", "channels": 2, "samples": 8, "classes": 2}
# every record that checks its fields: a builder taking one field, the refusal's error and prefix, and
# the config sections that set the record
_TYPED_RECORDS = {
    ModelSpec: (lambda **field: ModelSpec(**_SPEC | field), ValueError, "", ()),
    TrainConfig: (TrainConfig, ValueError, "", ("target.train", "substitute.train")),
    SynthesisConfig: (SynthesisConfig, ValueError, "", ("synthesis",)),
    JacobianConfig: (JacobianConfig, ValueError, "", ("jacobian",)),
    AttackConfig: (AttackConfig, ValueError, "", ("attack",)),
    DataConfig: (DataConfig, ConfigError, "data.", ("data",)),
    BalanceConfig: (BalanceConfig, ConfigError, "balance.", ("balance",)),
    NetConfig: (lambda **field: ExperimentConfig(substitute=NetConfig(**field)), ConfigError, "substitute.",
                ("target", "substitute")),
    ExperimentConfig: (ExperimentConfig, ConfigError, "", ("",)),
}


@pytest.mark.parametrize("record", _TYPED_RECORDS, ids=lambda record: record.__name__)
def test_every_scalar_field_refuses_another_type_as_a_config_file_does(tmp_path, record):
    build, error, prefix, sections = _TYPED_RECORDS[record]
    types = typing.get_type_hints(record)  # resolved, so a field whose annotation is not text is still tested
    scalars = {name: kind for name, kind in types.items() if kind in _TYPE_TEXT}
    assert scalars
    for name, kind in scalars.items():
        for value in _WRONG_TYPE[kind]:
            must = f"{name} must be {_TYPE_TEXT[kind]}, got {value!r}"
            with pytest.raises(error) as info:
                build(**{name: value})
            assert type(info.value) is error and str(info.value) == prefix + must
            for section in sections:
                if f"{section}.{name}".lstrip(".") in pipeline._DERIVED_SEEDS:
                    continue
                doc = {name: value}
                for key in reversed(section.split(".") if section else []):
                    doc = {key: doc}
                path = tmp_path / "cfg.json"
                path.write_text(json.dumps(doc), encoding="utf-8")
                with pytest.raises(ConfigError) as info:
                    load_config(path)
                assert str(info.value) == f"{section}.{must}".lstrip(".")



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


def test_a_run_index_is_hashed_as_the_int_it_is():
    # repr(np.int64(1)) is "np.int64(1)": hashed as given, a numpy index seeded an unpaired run
    assert stage_seeds(0, np.int64(1)) == stage_seeds(0, np.int32(1)) == stage_seeds(0, 1)
    for bad in (-1, True, 1.0, "1", None):
        with pytest.raises(ValueError, match=f"^run_index must be an integer >= 0, got {re.escape(repr(bad))}$"):
            stage_seeds(0, bad)


def test_a_config_given_numpy_scalars_holds_python_numbers():
    cfg = ExperimentConfig(runs=np.int64(2), master_seed=np.int32(5), data=DataConfig(separation=np.float64(4.5)))
    assert (type(cfg.runs), type(cfg.master_seed), type(cfg.data.separation)) == (int, int, float)
    assert json.dumps(config_to_dict(cfg)) == json.dumps(config_to_dict(
        ExperimentConfig(runs=2, master_seed=5, data=DataConfig(separation=4.5))))


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
        for (i, row), (j, ref) in zip(enumerate(result.trace.rows), enumerate(alone.trace.rows)):
            assert (i, row.target_queries, row.substitute_queries, row.train_set_size) == (
                j, ref.target_queries, ref.substitute_queries, ref.train_set_size)
            assert (row.synthesized is None) == (ref.synthesized is None)
            assert row.synthesized is None or np.array_equal(row.synthesized, ref.synthesized)
        assert result.training_queries == alone.training_queries == budget
        assert result.balance_queries == alone.balance_queries
        assert np.array_equal(result.attacked.confusion, alone.attacked.confusion)
    assert not np.array_equal(shared[0].substitute.parameters, shared[-1].substitute.parameters)
    if method == "jacobian":
        rows = {r.budget: [(i, x.target_queries, x.substitute_queries, x.train_set_size)
                           for i, x in enumerate(r.trace.rows)] for r in shared}
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
    [(budget, rounds, leftover)] = check_budgets(cfg, [s0_size + extra])
    assert budget == s0_size + extra
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
        assert check_budgets(cfg, [budget]) == [(budget, extra // per_iteration, 0)]


@pytest.mark.parametrize("method, configured", [("active", 40), ("jacobian", 40), ("noise", 0)])
def test_a_none_budget_plans_as_the_configured_budget(method, configured):
    # |S0| = 20: active adds 1 x 20, jacobian doubles once, noise trains nothing
    cfg = small_config(method=method)
    assert check_budgets(cfg, [None]) == check_budgets(cfg, [configured])


def test_an_empty_budget_list_is_refused_before_any_query_or_fit(monkeypatch):
    # an empty list plans nothing: it is refused before the pool is labeled or a target trains
    cfg = small_config()
    prepared = prepare_run(cfg, 0)
    monkeypatch.setattr(TargetOracle, "query_labels", lambda *args: pytest.fail("the oracle was queried"))
    monkeypatch.setattr(SoftmaxClassifier, "fit", lambda *args, **kwargs: pytest.fail("a model was fit"))
    monkeypatch.setattr(pipeline, "prepare_run", lambda *args: pytest.fail("a target trained"))
    with pytest.raises(ConfigError, match=r"^budgets must be a non-empty list$"):
        attack_runs(prepared, [])
    with pytest.raises(ConfigError, match=r"^budgets must be a non-empty list$"):
        next(pipeline.experiment_runs(cfg, []))


@settings(max_examples=100, deadline=None)
@given(method=st.sampled_from(["active", "jacobian"]), per_class=st.integers(1, 50), short=st.integers(1, 100))
def test_budget_below_initial_set_is_refused(method, per_class, short):
    cfg = small_config(method=method, balance=BalanceConfig(per_class=per_class))
    budget = 2 * per_class - short
    message = ("below the initial set size" if budget >= 0
               else re.escape(f"budgets must be non-negative integers, got [{budget}]"))
    with pytest.raises(ConfigError, match=message):
        check_budgets(cfg, [budget])


# what a config refuses in ``budgets``, and its text: a library call gets the same refusal
REFUSED_BUDGETS = {
    "negative": ([-5], "budgets must be non-negative integers, got [-5]"),
    "fraction": ([2.5], "budgets must be non-negative integers, got [2.5]"),
    "float": ([40.0], "budgets must be non-negative integers, got [40.0]"),
    "bool": ([True], "budgets must be non-negative integers, got [True]"),
    "text": (["40"], "budgets must be non-negative integers, got ['40']"),
    "decreasing": ([400, 200], "budgets must be strictly increasing"),
}


@pytest.mark.parametrize("method", ["active", "jacobian", "noise"])
@pytest.mark.parametrize("budgets, message", REFUSED_BUDGETS.values(), ids=REFUSED_BUDGETS)
def test_a_budget_a_config_refuses_is_refused_before_any_query_or_fit(monkeypatch, method, budgets, message):
    cfg, exact = small_config(method=method), f"^{re.escape(message)}$"
    with pytest.raises(ConfigError, match=exact):
        small_config(budgets=tuple(budgets))
    prepared = prepare_run(cfg, 0)
    monkeypatch.setattr(TargetOracle, "query_labels", lambda *args: pytest.fail("the oracle was queried"))
    monkeypatch.setattr(SoftmaxClassifier, "fit", lambda *args, **kwargs: pytest.fail("a model was fit"))
    with pytest.raises(ConfigError, match=exact):
        check_budgets(cfg, budgets)
    with pytest.raises(ConfigError, match=exact):
        attack_runs(prepared, budgets)


@pytest.mark.parametrize("method, configured", [("active", 40), ("jacobian", 40), ("noise", 0)])
def test_none_and_numpy_integer_budgets_are_planned_as_integers(method, configured):
    cfg = small_config(method=method)
    assert check_budgets(cfg, [None, 40]) == check_budgets(cfg, [configured]) + check_budgets(cfg, [40])
    plans = check_budgets(cfg, [np.int64(20), np.int32(40)])
    assert plans == check_budgets(cfg, [20, 40])
    assert [type(budget) for budget, _, _ in plans] == [int, int]


def record_oracles(monkeypatch) -> list:
    """Make ``pipeline.TargetOracle`` append every oracle it builds to the list returned."""
    oracles = []

    class RecordingOracle(pipeline.TargetOracle):
        def __init__(self, model, budget=None):
            super().__init__(model, budget)
            oracles.append(self)

    monkeypatch.setattr(pipeline, "TargetOracle", RecordingOracle)
    return oracles


def whole_rounds(budget: int, s0_size: int) -> int:
    """The target queries of the most whole jacobian rounds ``budget`` covers: |S0| doubled while it fits."""
    labeled = s0_size
    while 2 * labeled <= budget:
        labeled *= 2
    return labeled


@settings(max_examples=100, deadline=None)
@given(classes=st.integers(2, 4), per_class=st.integers(1, 4), per_iteration=st.integers(1, 6),
       methods=st.lists(st.sampled_from(["active", "jacobian", "noise"]), min_size=1, unique=True), data=st.data())
def test_attack_runs_spend_every_budget_exactly(classes, per_class, per_iteration, methods, data):
    # budgets every drawn method can spend: |S0| plus whole active rounds when active runs, else
    # anything up to 5 |S0|, so jacobian gets up to two whole rounds and leaves past the last one
    s0_size = classes * per_class
    extras = (st.integers(0, 3).map(lambda k: k * per_iteration) if "active" in methods
              else st.integers(0, 4 * s0_size))
    budgets = sorted(s0_size + extra for extra in data.draw(st.sets(extras, min_size=1, max_size=3)))
    cfg = small_config(
        data=DataConfig(generator="blobs", classes=classes, channels=2, samples=4, train_per_class=4,
                        test_per_class=1, pool_per_class=6, separation=8.0, noise_sigma=0.5),
        target=NetConfig(architecture="linear", hidden=(), train=TrainConfig(max_epochs=10, patience=10)),
        substitute=NetConfig(architecture="linear", hidden=(), train=TrainConfig(max_epochs=1, patience=1)),
        balance=BalanceConfig(per_class=per_class),
        synthesis=SynthesisConfig(n_iterations=1, per_iteration=per_iteration, bisection_steps=2),
    )
    prepared = prepare_run(cfg, 0)
    with pytest.MonkeyPatch.context() as mp:
        oracles = record_oracles(mp)
        try:
            results = attack_runs(prepared, budgets, methods)
        except ClassBalanceError:  # the target predicts some class fewer than per_class times in the pool
            results = None
    assume(results is not None)
    assert [(r.method, r.budget) for r in results] == [(m, b) for m in methods for b in budgets]
    for result in results:
        assert result.balance_queries == len(prepared.pool_set)
        if result.method == "noise":
            assert result.trace is None
            continue
        rows = result.trace.rows
        assert (rows[0].target_queries, rows[0].train_set_size, len(rows[0].labels)) == (s0_size,) * 3
        for before, row in zip(rows, rows[1:]):
            assert len(row.synthesized) == len(row.labels) > 0
            assert row.target_queries == before.target_queries + len(row.labels)
            assert row.train_set_size == before.train_set_size + len(row.labels)
        assert rows[-1].target_queries == result.training_queries == result.budget
    # the balancer, then per trained method its trajectory and a leaf per partial jacobian round
    caps = [len(prepared.pool_set)]
    for method in (m for m in methods if m != "noise"):
        ends = budgets if method == "active" else [whole_rounds(b, s0_size) for b in budgets]
        caps += [max(ends)] + [b - end for b, end in zip(budgets, ends) if b > end]
    assert [o.budget for o in oracles] == caps
    assert [o.remaining for o in oracles] == [0] * len(caps)


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
    oracles = record_oracles(monkeypatch)
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
    return [(i, r.target_queries, r.substitute_queries, r.train_set_size,
             None if r.synthesized is None else r.synthesized.tobytes()) for i, r in enumerate(rows)]


@pytest.mark.parametrize("method, spent", [("active", 40), ("jacobian", 40), ("noise", 0)])
def test_a_run_without_a_budget_is_the_run_at_its_configured_budget(monkeypatch, method, spent):
    # |S0| = 20: active adds 1 x 20, jacobian doubles once, noise trains nothing
    cfg = small_config(method=method)
    prepared = prepare_run(cfg, 0)
    oracles = record_oracles(monkeypatch)
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
    pipeline._train_substitutes(prepared, s0, {"jacobian": check_budgets(cfg, budgets)})
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
