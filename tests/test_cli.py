import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsattack.cli import RESULT_COLUMNS, _write_csv, cmd_report, main
from qsattack.data import read_epochs
from qsattack.models import SoftmaxClassifier, load_checkpoint
from qsattack.pipeline import ExperimentConfig, load_config
from testutil import read_rows, write_config


def test_gen_data_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    for name in ("train.epo", "test.epo", "pool.epo"):
        bytes_a = (tmp_path / "a" / name).read_bytes()
        bytes_b = (tmp_path / "b" / name).read_bytes()
        assert bytes_a == bytes_b
        dataset = read_epochs(tmp_path / "a" / name)
        assert dataset.shape == (2, 8)
    out = capsys.readouterr().out
    assert "train.epo" in out and "classes=2" in out
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["status"] == "ok"


def test_train_target_writes_checkpoint(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "target"
    assert main(["train-target", "--config", str(cfg), "--out", str(out)]) == 0
    model = load_checkpoint(out / "target.ckpt")
    assert model.spec.classes == 2


def test_attack_noise_only_trace(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "noise"
    assert main(["attack", "--config", str(cfg), "--out", str(out), "--method", "noise"]) == 0
    rows = read_rows(out / "run-000" / "trace.csv")
    assert len(rows) == 1
    assert rows[0]["stage"] == "balance"
    assert rows[0]["target_queries"] == "60"  # the whole pool, labeled once
    results = read_rows(out / "results.csv")
    assert results[0]["method"] == "noise"
    assert results[0]["rca"] == results[0]["noisy_rca"]
    # the batch manifest names what drew the batch: its signs can be drawn again
    adv = out / "run-000" / "adversarial"
    manifest = json.loads((adv / "manifest.json").read_text())
    assert manifest["method"] == "noise"
    original = read_epochs(adv / "originals.epo").epochs
    perturbed = read_epochs(adv / "perturbed.epo").epochs
    redrawn = np.sign(np.random.default_rng(manifest["noise_seed"]).standard_normal(original.shape))
    assert np.array_equal(np.sign(perturbed - original), redrawn)


def test_attack_equal_budgets_between_methods(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["attack", "--config", str(cfg), "--out", str(tmp_path / "act"),
                 "--method", "active"]) == 0
    assert main(["attack", "--config", str(cfg), "--out", str(tmp_path / "jac"),
                 "--method", "jacobian"]) == 0
    trace_a = read_rows(tmp_path / "act" / "run-000" / "trace.csv")
    trace_j = read_rows(tmp_path / "jac" / "run-000" / "trace.csv")
    assert trace_a[-1]["target_queries"] == trace_j[-1]["target_queries"]
    # paired: same run seed recorded for both methods
    res_a = read_rows(tmp_path / "act" / "results.csv")
    res_j = read_rows(tmp_path / "jac" / "results.csv")
    assert res_a[0]["seed"] == res_j[0]["seed"]
    adv = tmp_path / "act" / "run-000" / "adversarial"
    assert (adv / "originals.epo").exists() and (adv / "perturbed.epo").exists()
    manifest = json.loads((adv / "manifest.json").read_text())
    assert manifest["gradient_source"] == "substitute"


def test_attack_manifest_config_loads_back(tmp_path):
    cfg = write_config(tmp_path, method="jacobian", budgets=[47])
    out = tmp_path / "jac"
    assert main(["attack", "--config", str(cfg), "--out", str(out), "--budget", "47"]) == 0
    written = tmp_path / "manifest-config.json"
    written.write_text(json.dumps(json.loads((out / "manifest.json").read_text())["config"]), encoding="utf-8")
    # the manifest leaves out out_dir, so the loaded config keeps the default
    expected = replace(load_config(cfg), out_dir=ExperimentConfig().out_dir)
    assert load_config(written) == expected


def test_attack_bad_config_fails_with_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path, balance={"per_class": 100})  # pool holds only 60 epochs
    out = tmp_path / "fail"
    code = main(["attack", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert capsys.readouterr().err
    blocked = tmp_path / "file"  # --out names a file: the error still prints, and no manifest can be written
    blocked.write_text("kept", encoding="utf-8")
    assert main(["attack", "--config", str(cfg), "--out", str(blocked)]) == 1
    assert blocked.read_text(encoding="utf-8") == "kept"
    assert capsys.readouterr().err.startswith(f"error: [Errno 17] File exists: '{blocked}'\n")


def test_attack_refuses_bad_budget_before_training(tmp_path, monkeypatch):
    # |S0| = 20, so a budget of 10 cannot even label the initial set
    fits, fit = [], SoftmaxClassifier.fit
    monkeypatch.setattr(SoftmaxClassifier, "fit", lambda *a, **kw: fits.append(1) or fit(*a, **kw))
    cfg, out = write_config(tmp_path), tmp_path / "out"
    assert main(["attack", "--config", str(cfg), "--out", str(out), "--budget", "10"]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["stage"]) == ("failed", "ConfigError")
    assert fits == []


def test_a_budget_refusal_names_the_method_whose_rule_it_breaks(tmp_path, monkeypatch, capsys):
    # 30 suits jacobian (a partial round) but not active: 30 - |S0| = 10 is no multiple of per_iteration = 20
    fits, fit = [], SoftmaxClassifier.fit
    monkeypatch.setattr(SoftmaxClassifier, "fit", lambda *a, **kw: fits.append(1) or fit(*a, **kw))
    cfg, out = write_config(tmp_path), tmp_path / "out"
    assert main(["attack", "--config", str(cfg), "--out", str(out), "--method", "jacobian,active", "--budget", "30"]) == 1
    assert "error: method 'active': budget 30 minus initial 20 must be a multiple of per_iteration=20" in (
        capsys.readouterr().err)
    assert main(["attack", "--config", str(cfg), "--out", str(out), "--method", "jacobian,active", "--budget", "10"]) == 1
    assert "error: method 'jacobian': budget 10 is below the initial set size 20" in capsys.readouterr().err
    assert fits == []


def test_noise_attack_refuses_a_negative_budget(tmp_path, capsys):
    # the noise control plans no rounds, so only the config check stands between -5 and results.csv
    cfg, out = write_config(tmp_path, method="noise"), tmp_path / "out"
    assert main(["attack", "--config", str(cfg), "--out", str(out), "--budget", "-5"]) == 1
    assert "budgets must be non-negative integers" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_refused_override_leaves_a_failed_manifest(tmp_path):
    # --out applies first, so a refused --budget still records the failure where it was asked for
    cfg, out = write_config(tmp_path), tmp_path / "o"
    assert main(["attack", "--config", str(cfg), "--method", "noise", "--budget", "-5", "--out", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["stage"]) == ("failed", "ConfigError")
    assert (manifest["config"]["method"], manifest["config"]["budgets"]) == ("noise", [])  # the last that built
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_attack_refuses_several_budgets_before_training(tmp_path, monkeypatch, capsys):
    fits, fit = [], SoftmaxClassifier.fit
    monkeypatch.setattr(SoftmaxClassifier, "fit", lambda *a, **kw: fits.append(1) or fit(*a, **kw))
    cfg, out = write_config(tmp_path, budgets=[20, 40]), tmp_path / "out"
    assert main(["attack", "--config", str(cfg), "--out", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["stage"]) == ("failed", "ConfigError")
    assert ("error: attack runs one budget, not [20, 40]: pick one with --budget, or use sweep"
            in capsys.readouterr().err)
    assert fits == []
    assert main(["attack", "--config", str(cfg), "--out", str(out), "--budget", "40"]) == 0
    assert [row["budget"] for row in read_rows(out / "results.csv")] == ["40"]


def test_unknown_config_key_fails(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"attacc": {}}), encoding="utf-8")
    assert main(["attack", "--config", str(path)]) == 1


def test_sweep_csv_and_determinism(tmp_path):
    cfg = write_config(tmp_path, runs=2, budgets=[20, 40])
    out_a = tmp_path / "s1"
    out_b = tmp_path / "s2"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out_b)]) == 0
    sweep_a = (out_a / "sweep.csv").read_text()
    assert sweep_a == (out_b / "sweep.csv").read_text()
    rows = read_rows(out_a / "sweep.csv")
    assert [r["budget"] for r in rows] == ["20", "40"]
    assert all(r["runs"] == "2" for r in rows)
    results = read_rows(out_a / "results.csv")
    assert len(results) == 4
    # every output file, manifest included, is independent of where it was written
    files = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    for rel in files:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


@pytest.mark.parametrize("method", ["active", "jacobian", "noise"])
def test_sweep_rows_equal_attack_rows_per_budget(tmp_path, method):
    # sweep trains one target per run index and, for active, one substitute
    # whose rounds reach each budget; attack --budget trains its own, so
    # equal rows mean the sharing is exact
    budgets = [20, 40, 60]
    cfg = write_config(tmp_path, runs=2, budgets=budgets, method=method)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
    expected = []
    for budget in budgets:
        out = tmp_path / f"attack-{budget}"
        assert main(["attack", "--config", str(cfg), "--out", str(out),
                     "--budget", str(budget)]) == 0
        expected += (out / "results.csv").read_text(encoding="utf-8").splitlines()[1:]
    swept = (tmp_path / "sweep" / "results.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert swept == expected
    assert len(swept) == 6
    assert (json.loads((tmp_path / "sweep" / "manifest.json").read_text())["seeds"]
            == json.loads((out / "manifest.json").read_text())["seeds"])


def test_a_multi_method_sweep_names_the_method_in_each_budget_line(tmp_path, capsys):
    cfg = write_config(tmp_path, budgets=[20, 40])

    def budget_lines(method, out):
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / out), "--method", method]) == 0
        return [line for line in capsys.readouterr().out.splitlines() if line.startswith("budget ")]

    apart = {method: budget_lines(method, method) for method in ("active", "jacobian")}
    for lines in apart.values():  # one method: the lines as they always were
        assert [re.match(r"budget (\d+): attacked rca \d\.\d{4} \(", line)[1] for line in lines] == ["20", "40"]
    named = [line.replace(": ", f": method={method} ", 1) for method, lines in apart.items() for line in lines]
    assert budget_lines("active,jacobian", "together") == named


def test_sweep_refuses_bad_budget_before_training(tmp_path, capsys):
    # |S0| = 20 and per_iteration = 20, so 30 is unreachable; no run is prepared
    for name, budgets, refusal in (
        ("unreachable", [20, 30], "method 'active': budget 30 minus initial 20 must be a multiple of per_iteration=20"),
        ("empty", [], "budgets must be a non-empty list"),
    ):
        cfg = write_config(tmp_path, runs=2, budgets=budgets)
        out = tmp_path / name
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["stage"] == "ConfigError"
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        assert f"error: {refusal}\n" in capsys.readouterr().err


def test_failed_sweep_manifest_names_the_real_error(tmp_path):
    # the budgets are reachable from |S0| = 200, but the pool holds only 60 epochs
    cfg = write_config(tmp_path, runs=2, budgets=[200, 220], balance={"per_class": 100})
    out = tmp_path / "fail"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["stage"] == "ClassBalanceError"


def test_train_target_without_pool(tmp_path, capsys):
    cfg = write_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["data"]["pool_per_class"] = 0
    cfg.write_text(json.dumps(raw))
    assert main(["train-target", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    assert "epochs=" in capsys.readouterr().out


def test_report_aggregates(tmp_path, capsys):
    cfg = write_config(tmp_path, runs=2)
    out = tmp_path / "r"
    assert main(["attack", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["report", "--results", str(out / "results.csv"),
                 "--out", str(tmp_path / "rep")]) == 0
    printed = capsys.readouterr().out
    assert "active" in printed
    report_rows = read_rows(tmp_path / "rep" / "report.csv")
    assert report_rows[0]["runs"] == "2"


def test_report_orders_budgets_as_numbers(tmp_path, capsys):
    path = tmp_path / "results.csv"
    header = "dataset,target_model,substitute_model,method,budget,seed,rca,bca,baseline_rca,baseline_bca,noisy_rca,noisy_bca"
    rows = [f"blobs-k2-4x16,mlp-16,mlp-16,active,{b},7,0.5,0.5,0.9,0.9,0.8,0.8" for b in (1000, 200, 400)]
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    assert main(["report", "--results", str(path), "--out", str(tmp_path / "rep")]) == 0
    printed = [line.split()[4] for line in capsys.readouterr().out.splitlines()[1:4]]
    assert printed == ["200", "400", "1000"]
    assert [r["budget"] for r in read_rows(tmp_path / "rep" / "report.csv")] == ["200", "400", "1000"]
    path.write_text("\n".join([header, rows[0].replace(",1000,", ",2e1,")]) + "\n", encoding="utf-8")
    assert main(["report", "--results", str(path)]) == 1
    assert f"{path} holds budget '2e1', not an integer" in capsys.readouterr().err


def test_report_reads_budget_and_seed_only_as_results_csv_writes_them(tmp_path, capsys):
    header = "dataset,target_model,substitute_model,method,budget,seed,rca,bca,baseline_rca,baseline_bca,noisy_rca,noisy_bca"
    good = dict(zip(header.split(","), "blobs-k2-4x16,mlp-16,mlp-16,active,10,3,0.5,0.5,0.9,0.9,0.8,0.8".split(",")))
    first = tmp_path / "a.csv"
    first.write_text(f"{header}\n{','.join(good.values())}\n", encoding="utf-8")
    for col, value in (("budget", "1_0"), ("seed", "03"), ("seed", " 3"), ("seed", "+3")):
        path = tmp_path / "c.csv"  # the run of a.csv again, had int() read the key
        path.write_text(f"{header}\n{','.join(dict(good, **{col: value}).values())}\n", encoding="utf-8")
        assert main(["report", "--results", str(first), str(path)]) == 1
        assert f"error: {path} holds {col} {value!r}, not an integer" in capsys.readouterr().err


def test_report_names_the_file_and_column_of_an_unreadable_value(tmp_path, capsys):
    path = tmp_path / "results.csv"
    header = "dataset,target_model,substitute_model,method,budget,seed,rca,bca,baseline_rca,baseline_bca,noisy_rca,noisy_bca"
    good = "blobs-k2-4x16,mlp-16,mlp-16,active,200,7,0.5,0.5,0.9,0.9,0.8,0.8"
    for col, value in (("rca", "x"), ("noisy_rca", ""), ("baseline_rca", "0.9.1"),
                       ("rca", "nan"), ("noisy_rca", "inf"),  # nan and inf would average to nan and inf
                       ("rca", "0_5"), ("bca", "5e-1"), ("baseline_rca", "0.50"), ("noisy_rca", " 0.5")):  # not repr's
        cells = dict(zip(header.split(","), good.split(",")), **{col: value})
        path.write_text("\n".join([header, ",".join(cells.values())]) + "\n", encoding="utf-8")
        assert main(["report", "--results", str(path)]) == 1
        assert f"error: {path} holds {col} {value!r}, not a number" in capsys.readouterr().err


def test_report_errors_use_the_common_error_path(tmp_path, capsys):
    no_columns = tmp_path / "other.csv"
    no_columns.write_text("a,b\n1,2\n", encoding="utf-8")
    no_rows = tmp_path / "empty.csv"
    no_rows.write_text(",".join(RESULT_COLUMNS) + "\n", encoding="utf-8")
    errors = {}
    for path in (tmp_path / "missing.csv", no_rows, no_columns):
        assert main(["report", "--results", str(path)]) == 1
        errors[path] = capsys.readouterr().err
        assert errors[path].startswith("error: ")
    assert errors[no_rows].startswith("error: no result rows found\n")
    assert str(no_columns) in errors[no_columns]
    assert ("baseline_rca, bca, budget, dataset, method, noisy_rca, rca, seed, substitute_model, target_model"
            in errors[no_columns])


def test_report_refuses_a_row_given_twice(tmp_path, capsys):
    cfg = write_config(tmp_path)
    results = tmp_path / "r" / "results.csv"
    assert main(["attack", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    row = read_rows(results)[0]
    key = ", ".join(repr(int(row[c]) if c == "budget" else row[c]) for c in RESULT_COLUMNS[:6])
    capsys.readouterr()
    assert main(["report", "--results", str(results), str(results)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {results} repeats the row ({key}) of {results}\n")
    copy = tmp_path / "twice.csv"  # within one file too
    lines = results.read_text(encoding="utf-8").splitlines()
    copy.write_text("\n".join([*lines, lines[1]]) + "\n", encoding="utf-8")
    assert main(["report", "--results", str(copy)]) == 1
    assert f"{copy} repeats the row ({key}) of {copy}" in capsys.readouterr().err


def result_rows():
    """Strategy: rows as results.csv writes them, at most one per (dataset, models, method, budget, seed)."""
    cells = st.tuples(
        st.sampled_from(["blobs-k2-4x16", "erp-k3-8x32"]), st.sampled_from(["linear", "mlp-16"]),
        st.sampled_from(["active", "jacobian", "noise"]),
        (st.integers(0, 3) | st.integers(0, 10**9)).map(str),  # few budgets and seeds, so groups form
        (st.integers(0, 3) | st.integers(0, 2**63 - 1)).map(str),
        *[st.floats(0.0, 1.0).map(repr)] * 6,  # rca, bca, baseline_rca, baseline_bca, noisy_rca, noisy_bca
    )
    row = cells.map(lambda c: [c[0], c[1], "" if c[2] == "noise" else c[1], *c[2:]])  # noise names no substitute
    return st.lists(row, min_size=1, max_size=12, unique_by=lambda r: tuple(r[:6]))


@settings(max_examples=150, deadline=None)
@given(rows=result_rows())
def test_report_reads_every_results_csv_its_writer_can_write(tmp_path_factory, rows):
    base = tmp_path_factory.getbasetemp()
    _write_csv(base / "results.csv", RESULT_COLUMNS, rows)
    assert cmd_report([base / "results.csv"], str(base / "rep")) == 0
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[:5]), []).append(row)
    report = read_rows(base / "rep" / "report.csv")
    assert sorted(tuple(r[c] for c in RESULT_COLUMNS[:5]) for r in report) == sorted(groups)
    for r in report:
        bucket = groups[tuple(r[c] for c in RESULT_COLUMNS[:5])]
        assert int(r["runs"]) == len(bucket)
        for col in ("rca", "bca", "baseline_rca", "noisy_rca"):
            i = RESULT_COLUMNS.index(col)
            assert float(r[col]) == float(np.mean([float(cells[i]) for cells in bucket]))


_OUT_OF_RANGE = {  # no value results.csv writes: counts below 0, accuracies outside [0, 1]
    **dict.fromkeys(("budget", "seed"), st.integers(max_value=-1).map(str)),
    **dict.fromkeys(RESULT_COLUMNS[6:], st.sampled_from(["nan", "inf", "-inf", "-5e-324", "1.0000000000000002"])
                    | st.floats(max_value=-5e-324).map(repr) | st.floats(min_value=1.0000000000000002).map(repr)),
}


@settings(max_examples=150, deadline=None)
@given(rows=result_rows(), data=st.data())
def test_report_refuses_any_cell_outside_what_results_csv_writes(tmp_path_factory, rows, data):
    i, col = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.sampled_from([*_OUT_OF_RANGE, "method"]))
    value = data.draw(_OUT_OF_RANGE[col] if col != "method" else st.sampled_from(["pgd", "Active", "fgsm", ""]))
    rows = [[value if j == i and c == col else cell for c, cell in zip(RESULT_COLUMNS, r)] for j, r in enumerate(rows)]
    path = tmp_path_factory.getbasetemp() / "bad.csv"
    _write_csv(path, RESULT_COLUMNS, rows)
    with pytest.raises(ValueError, match=re.escape(f"{path} holds {col} {value!r}, not ")):
        cmd_report([path], None)


_HEADER = ",".join(RESULT_COLUMNS)
_ROW = "blobs-k2-4x16,mlp-16,mlp-16,active,200,7,0.5,0.5,0.9,0.9,0.8,0.8"
_REFUSED = {  # the lines of a file results.csv never writes, and the start of the error after its path
    "counts-below-0": ([_HEADER, _ROW.replace(",200,7,0.5,", ",-5,-3,1.5,")], "holds budget '-5', not an integer >= 0"),
    "seed-below-0": ([_HEADER, _ROW.replace(",7,", ",-3,")], "holds seed '-3', not an integer >= 0"),
    "rca-above-1": ([_HEADER, _ROW.replace(",7,0.5,", ",7,1.5,")], "holds rca '1.5', not a number in [0, 1]"),
    "baseline-rca-below-0": ([_HEADER, _ROW.replace(",0.9,0.9,", ",-0.25,0.9,")],
                             "holds baseline_rca '-0.25', not a number in [0, 1]"),
    "baseline-bca-above-1": ([_HEADER, _ROW.replace(",0.9,0.9,", ",0.9,2.0,")],
                             "holds baseline_bca '2.0', not a number in [0, 1]"),
    "method-pgd": ([_HEADER, _ROW.replace("active", "pgd")], "holds method 'pgd', not one of active, jacobian, noise"),
    "rca-twice": ([f"{_HEADER},rca", f"{_ROW},0.75"], "names the column rca twice"),  # the later rca was averaged
    "cell-short": ([_HEADER, _ROW[:-4]], "line 2 holds no noisy_bca"),
    "cell-over": ([_HEADER, f"{_ROW},0.8"], "line 2 holds a cell past noisy_bca"),
    "blank-line": ([_HEADER, _ROW, ""], "line 3 holds no dataset"),
    "header-not-written": ([_HEADER.replace(",baseline_bca", "").replace(",noisy_bca", ",extra"),  # was averaged
                            "blobs-k2-4x16,mlp-16,mlp-16,active,200,7,0.5,0.5,0.9,0.8,x"],
                           "column 10 is 'noisy_rca', where results.csv writes 'baseline_bca'"),
}


@pytest.mark.parametrize("lines, error", _REFUSED.values(), ids=_REFUSED)
def test_report_refuses_a_file_results_csv_never_writes(tmp_path, capsys, lines, error):
    path = tmp_path / "results.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["report", "--results", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path} {error}\n")


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_gen_data_without_pool_writes_two_files(tmp_path):
    cfg = write_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["data"]["pool_per_class"] = 0
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "two"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    files = sorted(p.name for p in out.glob("*.epo"))
    assert files == ["test.epo", "train.epo"]


EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example.json"
# one command per handler and per way out of main, with the SHA-256 of its exit code, stdout and files
GOLDEN_COMMANDS = {
    "gen-data": (["gen-data"],
                "867233a0f0e01d3cfa6b571ef5f5cb89131470c3b04dc0cfaad733fa6c2855f2"),
    "train-target": (["train-target"],
                    "15ed5cec259e62b2c9906592630a227d61786bcf1846101b6a29e4cebe05766e"),
    "attack-active": (["attack", "--method", "active"],
                     "2f8d54e594e29ee73a314268b7956a796964a97d120d10cba0d0c467d6c73029"),
    "attack-jacobian": (["attack", "--method", "jacobian"],
                       "ef72694c26a62ede8ed703f6157512a0daca893be3273be83d24020344f20827"),
    "attack-jacobian-leaf": (["attack", "--method", "jacobian", "--budget", "47"],  # round 1, then a 7-row leaf
                            "d4d3bfd4120d93883aacd19a47c63b83d4ee322da37a572e61fe549aa8582ad0"),
    "attack-noise": (["attack", "--method", "noise"],
                    "ba3d60826b8c3ffc7ffe528e2925cfd98dc93ea1f9ff4779965f66d8fd1a95c2"),
    "sweep-no-budgets": (["sweep"],
                        "e7d9eb49a32d961330afe7e39a98a97a494053694ae6ca2eadb9213f565c0bb4"),
    "attack-budget-7": (["attack", "--budget", "7"],
                       "90e41619a21e3986131dc737a9b0dd26371751319270c4e96623da71db0f7378"),
    "attack-three-methods": (["attack", "--method", "active,jacobian,noise"],
                            "3554a7bf5e54390d9c9ec36aac069c644b2fdc4aab8ef803b53b9b905e174b50"),
    "sweep": (["sweep"],
             "032e220bba2e5919e226e13180c4625f897eb43b02ae813ab7892f3c7a21aac7"),
    "sweep-two-methods": (["sweep", "--method", "active,jacobian"],
                         "0f16f20f40ca45f7f8acd0cb409fbddaf7b3f14e54ce7d2d10c408598ab03c57"),
}
_GOLDEN_BUDGETS = {"sweep": [20, 40], "sweep-two-methods": [20, 40]}  # the config's budgets where not []


def _command_digest(out: Path, code: int, stdout: str, tmp: Path) -> str:
    """SHA-256 over the exit code, stdout and every file under ``out``, less library versions and ``tmp``."""
    digest = hashlib.sha256(f"exit {code}\n{stdout.replace(str(tmp), '<tmp>')}".encode())
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        raw = path.read_bytes()
        if path == out / "manifest.json":  # the one key that names the installed libraries
            raw, count = re.subn(rb',\n  "versions": \{[^}]*\}', b"", raw)
            assert count == 1
        digest.update(f"{path.relative_to(out).as_posix()}\0{len(raw)}\0".encode() + raw)
    return digest.hexdigest()


def _golden_config() -> dict:
    """The example config, shrunk so each golden command runs in well under a second."""
    cfg = json.loads(EXAMPLE.read_text(encoding="utf-8"))
    cfg["runs"] = 1
    cfg["data"].update(channels=2, samples=8, train_per_class=30, test_per_class=20, pool_per_class=30)
    for model in ("target", "substitute"):
        cfg[model].update(hidden=[6], kernel_width=3)
        cfg[model]["train"].update(max_epochs=8, patience=3, batch_size=16)
    cfg["balance"]["per_class"] = 10
    cfg["synthesis"].update(per_iteration=20, bisection_steps=4, offset_norm=3.0)
    return cfg


@pytest.mark.golden
def test_every_subcommand_writes_the_golden_bytes(tmp_path, capsys):
    # the example config, shrunk: every file a command writes, its stdout and its exit code stay the same
    cfg, path = _golden_config(), tmp_path / "cfg.json"
    digests = {}
    for name, (argv, _) in GOLDEN_COMMANDS.items():
        path.write_text(json.dumps(cfg | {"budgets": _GOLDEN_BUDGETS.get(name, [])}), encoding="utf-8")
        out = tmp_path / name
        code = main([*argv, "--config", str(path), "--out", str(out)])
        digests[name] = _command_digest(out, code, capsys.readouterr().out, tmp_path)
    assert digests == {name: digest for name, (_, digest) in GOLDEN_COMMANDS.items()}


# report over the three results.csv of a sweep: the SHA-256 of its exit code, stdout and report.csv
GOLDEN_REPORT = "8106245d2a3f376c966ba8094ceb79624b3814bdb8325bb25e7b1370d4e7b4c8"


@pytest.mark.golden
def test_report_writes_the_golden_bytes(tmp_path, capsys):
    path, sweep = tmp_path / "cfg.json", tmp_path / "sweep"
    # two runs, so every one of the six (method, budget) groups averages two rows
    path.write_text(json.dumps(_golden_config() | {"runs": 2, "budgets": [20, 40]}), encoding="utf-8")
    assert main(["sweep", "--method", "active,jacobian,noise", "--config", str(path), "--out", str(sweep)]) == 0
    capsys.readouterr()
    results = [str(sweep / method / "results.csv") for method in ("active", "jacobian", "noise")]
    out = tmp_path / "report"
    code = main(["report", "--results", *results, "--out", str(out)])
    assert _command_digest(out, code, capsys.readouterr().out, tmp_path) == GOLDEN_REPORT
