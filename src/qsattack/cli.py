"""Command-line front end.

Subcommands::

    qsattack gen-data     --config cfg.json --out DIR [--seed N]
    qsattack train-target --config cfg.json --out DIR [--seed N]
    qsattack attack       --config cfg.json --out DIR [--seed N] [--method M[,M...]] [--budget N]
    qsattack sweep        --config cfg.json --out DIR [--seed N] [--method M[,M...]]
    qsattack report       --results results.csv [results.csv ...] [--out DIR]

Every run writes into a run-scoped subdirectory of the output directory,
under ``DIR/<method>/`` when a command runs several methods.  :func:`main`
creates the output directory, maps each method to its directory once for the
command's handler, and writes every ``manifest.json``: ``status: ok`` with
the keys the handler returns, or ``status: failed`` and a nonzero exit
code.  A manifest holds the flattened config (less ``out_dir``, so no output
depends on where it is written, and less the derived seeds, so it loads
back as a config), the derived per-stage seeds and library versions.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import traceback
from dataclasses import replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import __version__
from .attack import save_adversarial_batch
from .data import write_epochs
from .errors import ConfigError
from .metrics import sweep_curve
from .models import save_checkpoint
from .pipeline import (
    _METHODS,
    ExperimentConfig,
    RunResult,
    config_to_dict,
    dataset_name,
    experiment_runs,
    generate_splits,
    load_config,
    model_name,
    prepare_run,
    stage_seeds,
)

RESULT_COLUMNS = (
    "dataset",
    "target_model",
    "substitute_model",
    "method",
    "budget",
    "seed",
    "rca",
    "bca",
    "baseline_rca",
    "baseline_bca",
    "noisy_rca",
    "noisy_bca",
)
_TRACE_COLUMNS = ("stage", "iteration", "target_queries", "substitute_queries", "train_set_size")
_SWEEP_COLUMNS = ("budget", "rca_mean", "rca_std", "bca_mean", "bca_std", "runs")


def _write_csv(path, header, rows) -> None:
    """The one CSV writer: ``results.csv``, ``trace.csv``, ``sweep.csv`` and ``report.csv``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _results_row(cfg: ExperimentConfig, result: RunResult) -> list:
    """One row per (dataset, models, method, budget, seed), in ``RESULT_COLUMNS`` order."""
    return [
        dataset_name(cfg.data),
        model_name(cfg.target),
        model_name(cfg.substitute) if result.method != "noise" else "",
        result.method,
        result.budget,
        result.seeds["run"],
        *(repr(value) for report in (result.attacked, result.baseline, result.noisy)  # rca, bca of each
          for value in (report.rca, report.bca)),
    ]


def _trace_rows(result: RunResult) -> list:
    """Stage-labeled query ledger for one run.

    One ``balance`` row, then one ``augment`` row per augmentation-trace
    row; ``target_queries`` is the absolute oracle counter so totals are
    directly comparable across methods.
    """
    rows = [["balance", 0, result.balance_queries, 0, 0]]
    if result.trace is not None:
        rows += [["augment", row.iteration, result.balance_queries + row.target_queries,
                  row.substitute_queries, row.train_set_size] for row in result.trace.rows]
    return rows


def _write_manifest(out_dir: Path, command: str, cfg: ExperimentConfig, status: str,
                    stage: str = "", extra: dict | None = None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    config = config_to_dict(cfg)
    del config["out_dir"]  # the manifest sits in it
    manifest = {
        "command": command,
        "status": status,
        "stage": stage,
        "config": config,
        "versions": {
            "qsattack": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    if extra:
        manifest.update(extra)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")


def cmd_gen_data(cfg: ExperimentConfig, out: Path) -> dict:
    seeds = stage_seeds(cfg.master_seed, 0)
    written = {}
    for name, dataset in generate_splits(cfg.data, seeds).items():
        if len(dataset) == 0:
            continue
        path = out / f"{name}.epo"
        write_epochs(path, dataset)
        written[name] = {"path": path.name, "n": len(dataset), "seed": seeds[f"data-{name}"]}
        c, t = dataset.shape
        print(f"wrote {path}: n={len(dataset)} C={c} T={t} classes={cfg.data.classes}")
    return {"files": written}


def cmd_train_target(cfg: ExperimentConfig, out: Path) -> dict:
    prepared = prepare_run(cfg, 0)
    report = prepared.baseline
    ckpt = out / "target.ckpt"
    save_checkpoint(prepared.target, ckpt)
    print(
        f"trained {model_name(cfg.target)} on {dataset_name(cfg.data)}: "
        f"epochs={prepared.history.n_epochs} test rca={report.rca:.4f} bca={report.bca:.4f}"
    )
    print(f"checkpoint: {ckpt}")
    return {"seeds": prepared.seeds, "test_rca": report.rca, "test_bca": report.bca}


def cmd_attack(cfg: ExperimentConfig, dirs: dict) -> dict:
    if len(cfg.budgets) > 1:
        raise ConfigError(f"attack runs one budget, not {list(cfg.budgets)}: pick one with --budget, or use sweep")
    budget = cfg.budgets[0] if cfg.budgets else None  # None: the configured rounds
    rows, seeds = {method: [] for method in dirs}, {}
    for run, results in experiment_runs(cfg, [budget], list(dirs)):
        for result in results:
            seeds[run] = result.seeds
            run_dir = dirs[result.method] / f"run-{run:03d}"
            run_dir.mkdir(parents=True, exist_ok=True)
            _write_csv(run_dir / "trace.csv", _TRACE_COLUMNS, _trace_rows(result))
            save_adversarial_batch(run_dir / "adversarial", result.examples, result.attack_config)
            if result.substitute is not None:
                save_checkpoint(result.substitute, run_dir / "substitute.ckpt")
            save_checkpoint(result.target, run_dir / "target.ckpt")
            rows[result.method].append(_results_row(cfg, result))
            print(
                f"run {run}: method={result.method} queries={result.balance_queries + result.training_queries} "
                f"baseline_rca={result.baseline.rca:.4f} noisy_rca={result.noisy.rca:.4f} "
                f"attacked_rca={result.attacked.rca:.4f}"
            )
        del results, result  # free the run's models and traces before the next run trains
    for method, path in dirs.items():
        _write_csv(path / "results.csv", RESULT_COLUMNS, rows[method])
        print(f"results: {path / 'results.csv'}")
    return {"seeds": seeds, "budget": budget}


def cmd_sweep(cfg: ExperimentConfig, dirs: dict) -> dict:
    if not cfg.budgets:
        raise ConfigError("sweep needs a non-empty budgets list")
    scored, seeds = {method: [] for method in dirs}, {}  # per method and run index: each budget's row and report
    for run, results in experiment_runs(cfg, cfg.budgets, list(dirs)):
        seeds[run] = results[0].seeds
        for method, by_method in scored.items():
            by_method.append([(_results_row(cfg, r), r.attacked) for r in results if r.method == method])
        del results  # free the run's models before the next run trains
    for method, path in dirs.items():
        path.mkdir(exist_ok=True)
        curve = sweep_curve(cfg.budgets, [[attacked for _, attacked in run] for run in scored[method]])
        rows = [run[i][0] for i in range(len(cfg.budgets)) for run in scored[method]]  # budget-outer order
        _write_csv(path / "sweep.csv", _SWEEP_COLUMNS,
                   [[p.budget, repr(p.rca_mean), repr(p.rca_std), repr(p.bca_mean), repr(p.bca_std), p.runs]
                    for p in curve.points])
        _write_csv(path / "results.csv", RESULT_COLUMNS, rows)
        named = f"method={method} " if len(dirs) > 1 else ""  # as attack's run lines name theirs
        for point in curve.points:
            print(
                f"budget {point.budget}: {named}attacked rca {point.rca_mean:.4f} (+-{point.rca_std:.4f}) "
                f"bca {point.bca_mean:.4f} over {point.runs} runs"
            )
        print(f"sweep curve: {path / 'sweep.csv'}")
    return {"seeds": seeds}


_REPORT_KEY = RESULT_COLUMNS[:5]  # dataset, models, method, budget
_ROW_KEY = RESULT_COLUMNS[:6]  # and seed: what one results row is for
_REPORT_MEANS = ("rca", "bca", "baseline_rca", "noisy_rca")
_PARSERS = {**dict.fromkeys(("budget", "seed"), (int, np.inf, "an integer >= 0")),  # (parse, top, kind)
            **dict.fromkeys(RESULT_COLUMNS[6:], (float, 1.0, "a number in [0, 1]"))}  # all six accuracies


def cmd_report(result_paths, out_dir: str | None) -> int:
    rows, seen = [], {}  # seen: the file of each (dataset, models, method, budget, seed) row
    for path in result_paths:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(reader := csv.reader(fh), [])
            if missing := sorted(set(_ROW_KEY + _REPORT_MEANS) - set(header)):
                raise ValueError(f"{path} lacks the result column(s) {', '.join(missing)}")
            if twice := [col for i, col in enumerate(header) if col in header[:i]]:  # the later would win
                raise ValueError(f"{path} names the column {twice[0]} twice")
            for i, (col, written) in enumerate(zip_longest(header, RESULT_COLUMNS)):  # exactly these, in order
                if col != written:
                    raise ValueError(f"{path} column {i + 1} is {col!r}, where results.csv writes {written!r}")
            parsers = [(col, *_PARSERS[col]) for col in header if col in _PARSERS]
            for cells in reader:  # budgets group and sort as numbers; a seed keys as its text
                if len(cells) != len(header):  # a cell short or over would shift the columns after it
                    at = f"no {header[len(cells)]}" if len(cells) < len(header) else f"a cell past {header[-1]}"
                    raise ValueError(f"{path} line {reader.line_num} holds {at}")
                if (row := dict(zip(header, cells)))["method"] not in _METHODS:
                    raise ValueError(f"{path} holds method {row['method']!r}, not one of {', '.join(_METHODS)}")
                for col, parse, top, kind in parsers:
                    try:
                        value = parse(row[col])
                        if not 0 <= value <= top or repr(value) != row[col]:  # as results.csv writes it
                            raise ValueError
                    except ValueError:
                        raise ValueError(f"{path} holds {col} {row[col]!r}, not {kind}") from None
                    row[col] = value if col != "seed" else row[col]
                if (key := tuple(row[col] for col in _ROW_KEY)) in seen:  # a row counted twice skews its mean
                    raise ValueError(f"{path} repeats the row {key} of {seen[key]}")
                seen[key] = path
                rows.append(row)
    if not rows:
        raise ValueError("no result rows found")
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[col] for col in _REPORT_KEY), []).append(row)
    header = (
        f"{'dataset':<20} {'target':<10} {'substitute':<10} {'method':<9} "
        f"{'budget':>7} {'runs':>4} {'rca':>7} {'bca':>7} {'base':>7} {'noisy':>7}"
    )
    print(header)
    report_rows = []
    for key in sorted(groups):
        bucket = groups[key]
        means = [float(np.mean([r[col] for r in bucket])) for col in _REPORT_MEANS]
        report_rows.append([*key, len(bucket), *means])
        print(
            f"{key[0]:<20} {key[1]:<10} {key[2]:<10} {key[3]:<9} {key[4]:>7} {len(bucket):>4} "
            + " ".join(f"{mean:>7.4f}" for mean in means)
        )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "report.csv", (*_REPORT_KEY, "runs", *_REPORT_MEANS), report_rows)
        print(f"report: {out / 'report.csv'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsattack",
        description="Query-synthesis black-box adversarial attack experiments",
    )
    parser.add_argument("--version", action="version", version=f"qsattack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="override the output directory")

    method = {"type": lambda text: tuple(dict.fromkeys(text.split(","))),  # a repeated name runs once
              "help": "one of, or a comma list of, " + ", ".join(_METHODS)}

    p = sub.add_parser("gen-data", help="write seeded train/test/pool EPO1 files")
    common(p)
    p = sub.add_parser("train-target", help="train the target model and save a checkpoint")
    common(p)
    p = sub.add_parser("attack", help="full attack pipeline: balance, train substitute, craft, score")
    common(p)
    p.add_argument("--method", **method)
    p.add_argument("--budget", type=int, default=None, help="training-query budget override")
    p = sub.add_parser("sweep", help="attack across a budget grid")
    common(p)
    p.add_argument("--method", **method)
    p = sub.add_parser("report", help="aggregate results.csv files")
    p.add_argument("--results", nargs="+", required=True)
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg, listed = None, {}  # listed: the methods of a multi-method command, in whichever manifest it writes
    try:
        if args.command == "report":
            return cmd_report(args.results, args.out)
        cfg = load_config(args.config)
        methods = getattr(args, "method", None)  # --method's names; the config keeps the first
        # --out first: a refused override leaves the last config that built, and its manifest
        for name, value in (("out_dir", args.out), ("master_seed", args.seed), ("method", methods and methods[0]),
                            ("budgets", getattr(args, "budget", None))):
            if value is not None:
                cfg = replace(cfg, **{name: (value,) if name == "budgets" else value})
        methods, out = methods or (cfg.method,), Path(cfg.out_dir)
        dirs = {method: out / method if len(methods) > 1 else out for method in methods}  # several: out/<method>/
        listed = {"methods": list(dirs)} if len(dirs) > 1 else {}
        handler = {
            "gen-data": cmd_gen_data,
            "train-target": cmd_train_target,
            "attack": lambda cfg, out: cmd_attack(cfg, dirs),
            "sweep": lambda cfg, out: cmd_sweep(cfg, dirs),
        }[args.command]
        out.mkdir(parents=True, exist_ok=True)
        _write_manifest(out, args.command, cfg, "ok", extra={**handler(cfg, out), **listed})
        return 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        if cfg is not None:
            try:
                _write_manifest(
                    Path(cfg.out_dir), args.command, cfg, "failed", stage=type(exc).__name__, extra=listed
                )
            except OSError:
                pass
        return 1


if __name__ == "__main__":
    sys.exit(main())
