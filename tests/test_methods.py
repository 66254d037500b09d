"""Several methods in one command: one target, one S0 and one round-0 substitute per run index.

A multi-method ``attack`` or ``sweep`` writes each method's files under
``out/<method>/``, byte for byte what the single-method command writes to
its ``out/``, plus one top-level ``manifest.json``.  The workload configs
come from the benchmark, unedited.
"""

import json
import sys
from pathlib import Path

import pytest

from qsattack import cli, models, pipeline

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import WORKLOADS  # noqa: E402

METHODS = ("active", "jacobian", "noise")


def _files(out: Path) -> dict:
    """Every file under ``out`` by relative path, as bytes."""
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def _run(tmp_path, cfg: dict, argv: list, out: str) -> Path:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main([*argv, "--config", str(path), "--out", str(tmp_path / out)]) == 0
    return tmp_path / out


def _assert_single_method_bytes(together: Path, apart: dict, methods) -> None:
    """Each method's directory holds the files of its own command, less that command's manifest."""
    assert sorted(p.name for p in together.iterdir()) == sorted([*methods, "manifest.json"])
    manifest = json.loads((together / "manifest.json").read_text(encoding="utf-8"))
    assert (manifest["status"], manifest["methods"], manifest["config"]["method"]) == ("ok", list(methods), methods[0])
    for method in methods:
        single = _files(apart[method])
        assert json.loads(single.pop("manifest.json"))["config"]["method"] == method
        assert "methods" not in json.loads((apart[method] / "manifest.json").read_text(encoding="utf-8"))
        assert _files(together / method) == single


def test_a_three_method_attack_fits_each_target_and_round0_substitute_once(tmp_path, monkeypatch):
    cfg = WORKLOADS["paired-erp3"].config(0, False)
    s0_size = cfg["balance"]["per_class"] * cfg["data"]["classes"]
    train_size = cfg["data"]["train_per_class"] * cfg["data"]["classes"]
    argv = ["attack", "--budget", str(cfg["budgets"][0])]
    fits, fit = [], models.SoftmaxClassifier.fit
    monkeypatch.setattr(models.SoftmaxClassifier, "fit", lambda self, data, train: fits.append(len(data))
                        or fit(self, data, train))

    def counted(methods):
        fits.clear()
        out = _run(tmp_path, cfg, [*argv, "--method", methods], methods.replace(",", "-"))
        return out, (len(fits), fits.count(train_size), fits.count(s0_size))

    together, together_fits = counted(",".join(METHODS))
    apart = {method: counted(method) for method in METHODS}
    # (fits, target fits, round-0 fits) over 3 run indices: active fits rounds 0-2, jacobian
    # rounds 0-1 and a leaf, noise none; together, jacobian starts from active's round 0
    assert together_fits == (18, 3, 3)
    assert tuple(map(sum, zip(*(counts for _, counts in apart.values())))) == (27, 9, 6)
    _assert_single_method_bytes(together, {method: out for method, (out, _) in apart.items()}, METHODS)


@pytest.mark.parametrize("name, tiny, command, methods", [
    ("paired-erp3", False, "sweep", METHODS),
    ("sweep-tcn", True, "attack", METHODS),
    ("sweep-tcn", True, "sweep", ("noise", "jacobian", "active")),  # jacobian fits the shared round 0
], ids=["erp3-sweep", "tcn-attack", "tcn-sweep-reversed"])
def test_each_method_of_a_command_writes_its_single_method_bytes(tmp_path, name, tiny, command, methods):
    cfg = WORKLOADS[name].config(0, tiny)
    argv = [command, *(["--budget", str(cfg["budgets"][-1])] if command == "attack" else [])]
    together = _run(tmp_path, cfg, [*argv, "--method", ",".join(methods)], "together")
    apart = {method: _run(tmp_path, cfg, [*argv, "--method", method], method) for method in methods}
    _assert_single_method_bytes(together, apart, methods)


def test_a_repeated_method_runs_once_and_an_unknown_one_fails_before_training(tmp_path, monkeypatch, capsys):
    cfg = WORKLOADS["sweep-tcn"].config(0, True)
    once = _run(tmp_path, cfg, ["sweep", "--method", "active,active"], "once")
    assert sorted(p.name for p in once.iterdir()) == ["manifest.json", "results.csv", "sweep.csv"]
    monkeypatch.setattr(pipeline, "prepare_run", lambda *args: pytest.fail("a target trained"))
    path = tmp_path / "cfg.json"
    for bad in ("x", ""):  # "active," names an empty method
        out = tmp_path / f"bad-{bad}"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out), "--method", f"active,{bad}"]) == 1
        assert f"method must be one of active, jacobian, noise, got {bad!r}" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert (manifest["status"], manifest["methods"]) == ("failed", ["active", bad])
