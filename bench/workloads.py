"""Benchmark workloads: seeded experiment configs and the CLI commands run on them.

Every workload is a closed loop with one client: one pass runs its
commands in order, each starting when the previous one returns.  The
benchmark seed becomes the experiment's master seed, so the same seed
gives the same data, models and outputs.  See README.md for why each
workload exists and which layer it stresses.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable
from pathlib import Path

# Minibatch Adam for a fixed number of epochs: patience equal to max_epochs
# never stops early, so a pass does the same work whatever the seed.  With
# the acceptance gates' early stopping (patience 10 of 100), sweep-tcn pass
# times ranged 6.4-10.6 s over five seeds.  40 is near the mean epoch count
# early stopping gave on these workloads.
_TRAIN = {"max_epochs": 40, "patience": 40, "batch_size": 32}
# Shrunken training for the self-test and the warm-up pass.
_TINY_TRAIN = {"max_epochs": 3, "patience": 3, "batch_size": 32}


def _net(architecture: str, tiny: bool) -> dict:
    net = {"architecture": architecture, "hidden": [], "train": _TINY_TRAIN if tiny else _TRAIN}
    if architecture == "tcn":
        net.update(hidden=[16], kernel_width=9)
    elif architecture == "mlp":
        net.update(hidden=[16])
    return net


def _sweep_config(architecture: str, runs: int, budgets: list, seed: int, tiny: bool) -> dict:
    """The c08 acceptance shape: binary blobs 4x16, S0 100/class, 200 epochs per round."""
    per_class, per_iteration = (10, 20) if tiny else (100, 200)
    return {
        "master_seed": seed,
        "method": "active",
        "runs": 1 if tiny else runs,
        "budgets": [2 * per_class, 2 * per_class + per_iteration] if tiny else budgets,
        "data": {
            "generator": "blobs", "classes": 2, "channels": 4, "samples": 16,
            "train_per_class": 20 if tiny else 150,
            "test_per_class": 20 if tiny else 150,
            "pool_per_class": 30 if tiny else 300,
            "separation": 24.0, "noise_sigma": 3.0,
        },
        "target": _net(architecture, tiny),
        "substitute": _net(architecture, tiny),
        "balance": {"per_class": per_class},
        "synthesis": {"n_iterations": 1, "per_iteration": per_iteration,
                      "bisection_steps": 10, "offset_norm": 29.0},
        "jacobian": {"step_size": 0.5, "n_iterations": 1},
        "attack": {"epsilon": 2.1, "method": "ufgsm"},
    }


def _erp_config(seed: int, tiny: bool) -> dict:
    """Three-class ERP data, one-vs-one synthesis, strict balance 25/class."""
    per_class, per_iteration = (10, 30) if tiny else (25, 75)
    return {
        "master_seed": seed,
        "method": "active",
        "runs": 1 if tiny else 3,
        # S0 plus two synthesis rounds; the Jacobian baseline gets the same cap
        "budgets": [3 * per_class + 2 * per_iteration],
        "data": {
            "generator": "erp", "classes": 3, "channels": 4, "samples": 16,
            "train_per_class": 20 if tiny else 150,
            "test_per_class": 20 if tiny else 100,
            "pool_per_class": 30 if tiny else 75,
            "noise_amplitude": 0.5,
        },
        "target": _net("mlp", tiny),
        "substitute": _net("mlp", tiny),
        "balance": {"per_class": per_class, "strict": True},
        # offset norm ~ sqrt(C*T) for RMS-normalized ERP epochs
        "synthesis": {"n_iterations": 1, "per_iteration": per_iteration,
                      "bisection_steps": 10, "offset_norm": 8.0},
        "jacobian": {"step_size": 0.5, "n_iterations": 1},
        "attack": {"epsilon": 0.5, "method": "ufgsm"},
    }


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass: subcommand, method and optional single budget."""

    subcommand: str
    method: str
    single_budget: bool = False

    def argv(self, cfg: dict, cfg_path: Path, out: Path) -> list:
        argv = [self.subcommand, "--config", str(cfg_path), "--out", str(out),
                "--method", self.method]
        if self.single_budget:
            argv += ["--budget", str(cfg["budgets"][0])]
        return argv

    def expected_rows(self, cfg: dict) -> int:
        return cfg["runs"] * (1 if self.single_budget else len(cfg["budgets"]))

    def target_queries(self, cfg: dict, budget: int) -> int:
        """Oracle labels one run spends: the pool, plus the budget unless it is the noise control."""
        pool = cfg["data"]["pool_per_class"] * cfg["data"]["classes"]
        return pool + (0 if self.method == "noise" else budget)

    def oracle_labels(self, cfg: dict) -> int:
        """Oracle labels the whole command spends."""
        budgets = cfg["budgets"][:1] if self.single_budget else cfg["budgets"]
        return cfg["runs"] * sum(self.target_queries(cfg, b) for b in budgets)

    def check(self, cfg: dict, out: Path) -> list:
        """Problems found in the command's outputs; an empty list means they are correct."""
        problems = []
        results = out / "results.csv"
        if not results.is_file():
            return [f"{out.name}: no results.csv"]
        with open(results, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.expected_rows(cfg):
            problems.append(f"{out.name}: {len(rows)} result rows, expected {self.expected_rows(cfg)}")
        if self.subcommand == "sweep":
            if not (out / "sweep.csv").is_file():
                problems.append(f"{out.name}: no sweep.csv")
            return problems
        expected_total = self.target_queries(cfg, cfg["budgets"][0])
        for run in range(cfg["runs"]):
            run_dir = out / f"run-{run:03d}"
            if not (run_dir / "trace.csv").is_file():
                problems.append(f"{out.name}/{run_dir.name}: no trace.csv")
                continue
            with open(run_dir / "trace.csv", newline="", encoding="utf-8") as fh:
                total = int(list(csv.DictReader(fh))[-1]["target_queries"])
            if total != expected_total:
                problems.append(f"{out.name}/{run_dir.name}: trace total {total}, "
                                f"expected pool + budget = {expected_total}")
            for name in ("adversarial/originals.epo", "adversarial/perturbed.epo", "target.ckpt"):
                if not (run_dir / name).is_file():
                    problems.append(f"{out.name}/{run_dir.name}: missing {name}")
        return problems


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int, bool], dict]  # (seed, tiny) -> experiment config
    commands: tuple

    def runs_per_pass(self, cfg: dict) -> int:
        """Run indices the pass trains a target for, summed over its commands."""
        return cfg["runs"] * len(self.commands)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "sweep-linear",
            lambda seed, tiny: _sweep_config("linear", 2, [200, 400, 600, 800, 1000], seed, tiny),
            (Command("sweep", "active"),),
        ),
        Workload(
            "sweep-tcn",
            lambda seed, tiny: _sweep_config("tcn", 2, [200, 400], seed, tiny),
            (Command("sweep", "active"),),
        ),
        Workload(
            "paired-erp3",
            _erp_config,
            tuple(Command("attack", m, single_budget=True) for m in ("active", "jacobian", "noise")),
        ),
    )
}
