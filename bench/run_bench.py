"""qsattack benchmark: run the ``qsattack`` CLI in-process on seeded workloads.

Usage, from the root of a checkout::

    python3 bench/run_bench.py --workload sweep-linear --seed 0 --seconds 30 --trace 0

One client drives a closed loop: each CLI command starts when the previous
one returns.  A pass is one run of the workload's command sequence; passes
repeat until ``--seconds`` would be exceeded.  ``--trace 0`` prints the
end-to-end metrics of untraced passes; ``--trace 1`` alternates untraced
and traced passes and prints the per-layer metrics (see tracing.py).
End-to-end times are rescaled to a reference host speed that is sampled
while each pass runs (see calibrate.py); the raw times go to the
environment line.
Every command's outputs are checked, and for the default seed each
``results.csv`` must match the digest in reference.json.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (CLI commands) and ``metrics``; the line before it records the
environment.  Work files go to ``.bench_work/`` under the checkout.
"""

import os

# One BLAS thread per process, set before numpy loads: the models multiply
# matrices of at most a few hundred rows, and a later pool of up to nproc
# workers then keeps the load within nproc.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from calibrate import REFERENCE_S, HostSampler, sample, warm_up

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 0
SETUP_PROBES = 11
SETUP_SAMPLES = 5  # host-speed samples before and after each set-up probe
SETUP_PROBE = (
    "import sys; sys.path.insert(0, 'src'); import qsattack.cli; "
    "from qsattack.pipeline import load_config; load_config(sys.argv[1])"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "scaled_runs_per_s": "runs/s",
    "scaled_wall_s": "s",
    "scaled_cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "synthesis.self_s": "s",
    "synthesis.jacobian_self_s": "s",
    "synthesis.epochs": "count",
    "synthesis.substitute_queries": "count",
    "synthesis.predict_calls_per_epoch": "calls/epoch",
    "synthesis.useful_predict_ratio": "ratio",
    "models.target_fit_s": "s",
    "models.substitute_fit_s": "s",
    "models.fit_calls": "count",
    "models.fit_epochs": "count",
    "models.fit_row_epochs": "count",
    "models.fit_us_per_row_epoch": "us",
    "models.predict_calls": "count",
    "models.predict_us_per_call": "us",
    "models.predict_batch_rows_per_call": "rows/call",
    "models.input_gradient_rows": "count",
    "models.input_gradient_s": "s",
    "pipeline.runs": "count",
    "pipeline.run_s_p50": "s",
    "pipeline.self_s": "s",
    "pipeline.target_fits_per_run_index": "fits/run",
    "oracle.labels": "count",
    "oracle.refused": "count",
    "data.generate_s": "s",
    "data.balance_s": "s",
    "attack.craft_s": "s",
    "attack.crafted_epochs": "count",
    "metrics.s": "s",
    "cli.write_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload for the self-test; skips the reference digests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _sha256(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _blas_threads():
    """The thread limit the loaded OpenBLAS reports, or None when it cannot be asked."""
    import numpy as np

    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                fn = getattr(dll, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _setup_s(cfg_path: Path) -> tuple:
    """Fresh-process time to import qsattack and load the config: (rescaled, raw).

    The child runs alone, so the host's speed is sampled right before and
    after it instead of during it.
    """
    before = [sample()[0] for _ in range(SETUP_SAMPLES)]
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE, str(cfg_path)], cwd=ROOT, check=True)
    raw = time.perf_counter() - start
    after = [sample()[0] for _ in range(SETUP_SAMPLES)]
    return raw / (statistics.fmean(before + after) / REFERENCE_S), raw


@dataclass
class Pass:
    """One run of a workload's command sequence and what its outputs showed."""

    wall: float     # seconds, raw
    cpu: float
    problems: list  # per command: problems its output check found
    digests: list   # per command: sha256 of results.csv
    files: int
    bytes: int
    scaled_wall: float = 0.0  # less the host samples, at the reference host speed
    scaled_cpu: float = 0.0
    slowdown: float = 0.0     # how much slower than the reference the host ran


def run_pass(cli, wl, cfg, cfg_path: Path, out_root: Path, tracer=None, sampled=False) -> Pass:
    shutil.rmtree(out_root, ignore_errors=True)
    outs = [out_root / f"{i}-{c.subcommand}-{c.method}" for i, c in enumerate(wl.commands)]
    codes = []
    if tracer is not None:
        tracer.install()
    sampler = HostSampler() if sampled else contextlib.nullcontext()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        with sampler:
            for command, out in zip(wl.commands, outs):
                argv = command.argv(cfg, cfg_path, out)
                with contextlib.redirect_stdout(io.StringIO()):
                    try:
                        if tracer is None:
                            codes.append(cli.main(argv))
                        else:
                            codes.append(tracer.call("cli.command", cli.main, None, argv))
                    except SystemExit as exc:
                        codes.append(exc.code)
    finally:
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        if tracer is not None:
            tracer.uninstall()
    problems = [
        [f"{out.name}: exit code {code}"] if code != 0 else command.check(cfg, out)
        for command, out, code in zip(wl.commands, outs, codes)
    ]
    files = [p for p in out_root.rglob("*") if p.is_file()]
    result = Pass(wall, cpu, problems, [_sha256(out / "results.csv") for out in outs],
                  len(files), sum(p.stat().st_size for p in files))
    if sampled:
        wall_slowdown, cpu_slowdown = sampler.slowdown()
        result.scaled_wall = (wall - sampler.wall_s) / wall_slowdown
        result.scaled_cpu = (cpu - sampler.cpu_s) / cpu_slowdown
        result.slowdown = wall_slowdown
    return result


def measure(seconds: float, one_round) -> list:
    """Repeat ``one_round`` while the next round is expected to end within ``seconds``."""
    rounds, took = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        rounds.append(one_round())
        took.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(took) > seconds:
            return rounds


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "qsattack" / "cli.py").is_file():
        print(f"error: no qsattack sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    from qsattack import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported qsattack from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = wl.config(args.seed, args.tiny)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    warm_cfg = wl.config(args.seed, tiny=True)
    warm_path = work / "warm-up.json"
    warm_path.write_text(json.dumps(warm_cfg, indent=2), encoding="utf-8")

    warm_up()
    setup = [_setup_s(cfg_path) for _ in range(SETUP_PROBES)]
    # pay lazy imports and first-call costs before timing
    run_pass(cli, wl, warm_cfg, warm_path, work / "out", sampled=True)

    tracers = []

    def traced_pass():
        tracers.append(Tracer())
        return run_pass(cli, wl, cfg, cfg_path, work / "out", tracers[-1])

    if args.trace:
        rounds = measure(args.seconds, lambda: (run_pass(cli, wl, cfg, cfg_path, work / "out"),
                                                traced_pass()))
        plain = [r[0] for r in rounds]
        traced = [r[1] for r in rounds]
    else:
        plain = measure(args.seconds,
                        lambda: run_pass(cli, wl, cfg, cfg_path, work / "out", sampled=True))
        traced = []
    passes = plain + traced

    if args.seed == DEFAULT_SEED and not args.tiny:
        reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
        expected = reference["digests"].get(wl.name, [])
    else:
        expected = passes[0].digests  # other seeds: every pass must give the same bytes
    failed = 0
    for p in passes:
        for i, problems in enumerate(p.problems):
            want = expected[i] if i < len(expected) else None
            if p.digests[i] != want:
                problems.append(f"command {i}: results.csv digest {p.digests[i]}, expected {want}")
            if problems:
                failed += 1
                print("check failed: " + "; ".join(problems), file=sys.stderr)
    attempted = len(passes) * len(wl.commands)

    if args.trace:
        per_pass = [layer_metrics(t.spans, wl.runs_per_pass(cfg)) for t in tracers]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["cli.files_written"] = statistics.median(p.files for p in traced)
        values["cli.bytes_written"] = statistics.median(p.bytes for p in traced)
        values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                      - statistics.median(p.wall for p in plain))
        tracers[-1].write_csv(work / "spans.csv")
        units = PER_LAYER_UNITS
    else:
        rows = sum(
            wl.commands[i].expected_rows(cfg)
            for p in plain for i, problems in enumerate(p.problems) if not problems
        )
        peak_kb = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        values = {
            "setup_s": statistics.median(scaled for scaled, _ in setup),
            "scaled_runs_per_s": rows / sum(p.scaled_wall for p in plain),
            "scaled_wall_s": statistics.median(p.scaled_wall for p in plain),
            "scaled_cpu_s": statistics.median(p.scaled_cpu for p in plain),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = END_TO_END_UNITS
    shutil.rmtree(work / "out", ignore_errors=True)

    env = _environment(args.seed)
    env.update(workload=wl.name, trace=args.trace, passes=len(plain), traced_passes=len(traced),
               pass_walls_s=[p.wall for p in passes], pass_cpus_s=[p.cpu for p in passes],
               pass_slowdowns=[p.slowdown for p in plain if p.slowdown],
               setup_probes_s=[raw for _, raw in setup], setup_scaled_s=[s for s, _ in setup],
               digests=passes[0].digests)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (work / "result.json").write_text(json.dumps({"env": env, "result": result}, indent=2),
                                      encoding="utf-8")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
