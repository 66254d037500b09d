"""Smoke test of the benchmark's outside-in tracing hooks.

``bench/tracing.py`` wraps public names of the package from outside.  A
refactor that renames or reshapes one of them makes a traced command fail
or silently read 0; this runs tiny ``attack`` and ``sweep`` commands under
the tracer so that shows up in the tier-1 suite.  It also loads every
workload config, so a config key the package drops while a workload still
sets it fails here rather than in the benchmark run, and runs every
workload command at seed 0 against the benchmark's recorded digests.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from qsattack import cli
from qsattack.pipeline import load_config
from testutil import write_config

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# _PATCHES entries whose names the package no longer has; the metrics they fed read 0
_KNOWN_STALE = {
    ("qsattack.pipeline", "boundary_agreement"),
    ("SweepCurve", "to_csv"),
    ("qsattack.cli", "run_attack_experiment"),  # pipeline.runs, run_s_p50 and self_s read 0
}


def test_tracer_wraps_every_live_patch():
    # a deletion in src/ that unhooks a patch would zero a per-layer metric without failing anything
    tracer = Tracer()
    tracer.install()
    try:
        unwrapped = {(owner.__name__, attr) for owner, attr, *_ in tracing._PATCHES
                     if not hasattr(vars(owner).get(attr), "__wrapped__")}
    finally:
        tracer.uninstall()
    assert unwrapped <= _KNOWN_STALE


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_load(tmp_path, name, seed, tiny):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(WORKLOADS[name].config(seed, tiny)), encoding="utf-8")
    assert load_config(path).master_seed == seed


@pytest.mark.parametrize("command", ["attack", "sweep"])
def test_traced_commands_keep_working(tmp_path, command):
    cfg = write_config(tmp_path, runs=2, budgets=[20, 40] if command == "sweep" else [40])
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    # a span whose call raised carries the exception's class name as its info
    raised = [span for span in tracer.spans if isinstance(span[4], str)]
    assert raised == []
    metrics = layer_metrics(tracer.spans, runs_per_pass=2)
    assert metrics["attack.crafted_epochs"] > 0
    assert metrics["synthesis.epochs"] > 0
    assert metrics["pipeline.target_fits_per_run_index"] == 1.0


@pytest.mark.golden
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_commands_write_the_reference_bytes(tmp_path, name):
    # the full seed-0 pass the benchmark checks: a refused key or any output drift fails here first
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    workload, digests = WORKLOADS[name], []
    cfg = workload.config(reference["seed"], False)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    for i, command in enumerate(workload.commands):
        out = tmp_path / f"{i}-{command.subcommand}-{command.method}"
        assert cli.main(command.argv(cfg, cfg_path, out)) == 0
        assert command.check(cfg, out) == []
        digests.append(hashlib.sha256((out / "results.csv").read_bytes()).hexdigest())
    assert digests == reference["digests"][name]
