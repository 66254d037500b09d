"""Outside-in tracing of qsattack: wrap public names, record spans, derive per-layer metrics.

Wrappers are installed where callers look the names up (``pipeline.*``,
``cli.*``, the model and oracle classes), so the program runs unchanged.
A span is ``[name, start, end, parent, info]``; ``parent`` is the index of
the enclosing span, or -1.  Spans stay in memory until the pass ends.  A
name the program no longer has is skipped, so the benchmark keeps
running after a refactor; metrics that depend on it then read 0.
"""

from __future__ import annotations

import csv
import re
import statistics
from time import perf_counter

from qsattack import cli, metrics, models, oracle, pipeline


def _rows(args, kwargs, out):
    return len(out)


def _one(args, kwargs, out):
    return 1


def _fit(args, kwargs, out):
    # model, rows, epochs; the model is kept to tell target fits from substitute fits
    return args[0], len(args[1]), out.n_epochs


def _substitute_trace(args, kwargs, out):
    rows = out[1].rows
    synthesized = rows[-1].train_set_size - rows[0].train_set_size if rows else 0
    return synthesized, out[1].substitute_query_total


def _target(args, kwargs, out):
    return kwargs["model"] if "model" in kwargs else args[1]


# (owner, attribute, span name, info extractor)
_PATCHES = [
    (pipeline, "train_substitute_active", "synthesis.active", _substitute_trace),
    (pipeline, "train_substitute_jacobian", "synthesis.jacobian", _substitute_trace),
    (pipeline, "gen_blobs", "data.generate", None),
    (pipeline, "gen_synthetic_epochs", "data.generate", None),
    (pipeline, "balance_by_predicted_label", "data.balance", None),
    (pipeline, "craft_batch", "attack.craft", _rows),
    (pipeline, "metric_report", "metrics", None),
    (pipeline, "boundary_agreement", "metrics", None),
    (cli, "run_attack_experiment", "pipeline.run", None),
    (metrics.SweepCurve, "to_csv", "cli.write", None),
    (models.SoftmaxClassifier, "fit", "models.fit", _fit),
    (models.SoftmaxClassifier, "predict", "models.predict", _one),
    (models.SoftmaxClassifier, "predict_batch", "models.predict", _rows),
    (models.SoftmaxClassifier, "input_gradient_batch", "models.input_gradient", _rows),
    (oracle.TargetOracle, "__init__", "oracle.init", _target),
    (oracle.TargetOracle, "query_labels", "oracle.query", _rows),
]
_CLI_WRITERS = re.compile(r"^_?(save|write)_")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def call(self, name, fn, info, /, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span; ``info(args, kwargs, result)`` annotates it."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            span[4] = type(exc).__name__
            raise
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if info is not None:
            span[4] = info(args, kwargs, out)
        return out

    def _wrap(self, name, fn, info):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, info, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        patches = list(_PATCHES) + [
            (cli, attr, "cli.write", None) for attr in vars(cli)
            if _CLI_WRITERS.match(attr) and callable(getattr(cli, attr))
        ]
        for owner, attr, name, info in patches:
            if attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, info))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "info"])
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                if name == "models.fit" and isinstance(info, tuple):
                    info = info[1:]  # drop the model object
                elif not isinstance(info, (int, str, tuple)):
                    info = ""
                writer.writerow([i, name, repr(start), repr(end), parent, info])


def layer_metrics(spans, runs_per_pass: int) -> dict:
    """Per-layer figures of one traced pass; times in seconds, counts exact."""
    by_name, children = {}, {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        children.setdefault(parent, []).append(i)

    def done(name):
        # spans that returned; one that raised carries the exception's name instead of info
        return [i for i in by_name.get(name, ()) if not isinstance(spans[i][4], str)]

    def dur(ids):
        return sum(spans[i][2] - spans[i][1] for i in ids)

    def info(ids, field=None):
        return sum(spans[i][4] if field is None else spans[i][4][field] for i in ids)

    def self_time(name, kinds=None):
        ids = by_name.get(name, ())
        kids = [k for i in ids for k in children.get(i, ()) if kinds is None or spans[k][0] in kinds]
        return dur(ids) - dur(kids)

    def ratio(a, b):
        return a / b if b else 0.0

    active, jacobian = done("synthesis.active"), done("synthesis.jacobian")
    epochs, active_queries = info(active, 0), info(active, 1)
    predicts = done("models.predict")
    in_active = set(active)
    synthesis_predicts = sum(1 for i in predicts if spans[i][3] in in_active)
    fits = done("models.fit")
    targets = {id(spans[i][4]) for i in done("oracle.init")}
    target_fits = [i for i in fits if id(spans[i][4][0]) in targets]
    row_epochs = sum(spans[i][4][1] * spans[i][4][2] for i in fits)
    grads, crafts = done("models.input_gradient"), done("attack.craft")
    runs = by_name.get("pipeline.run", [])
    queries = by_name.get("oracle.query", [])
    writes = [i for i in by_name.get("cli.write", ())
              if spans[i][3] < 0 or spans[spans[i][3]][0] != "cli.write"]
    return {
        "synthesis.self_s": self_time("synthesis.active", {"models.fit", "oracle.query"}),
        "synthesis.jacobian_self_s": self_time("synthesis.jacobian", {"models.fit", "oracle.query"}),
        "synthesis.epochs": epochs,
        "synthesis.substitute_queries": active_queries + info(jacobian, 1),
        "synthesis.predict_calls_per_epoch": ratio(synthesis_predicts, epochs),
        "synthesis.useful_predict_ratio": ratio(active_queries, synthesis_predicts),
        "models.target_fit_s": dur(target_fits),
        "models.substitute_fit_s": dur(fits) - dur(target_fits),
        "models.fit_calls": len(fits),
        "models.fit_epochs": info(fits, 2),
        "models.fit_row_epochs": row_epochs,
        "models.fit_us_per_row_epoch": ratio(1e6 * dur(fits), row_epochs),
        "models.predict_calls": len(predicts),
        "models.predict_us_per_call": ratio(1e6 * dur(predicts), len(predicts)),
        "models.predict_batch_rows_per_call": ratio(info(predicts), len(predicts)),
        "models.input_gradient_rows": info(grads),
        "models.input_gradient_s": dur(grads),
        "pipeline.runs": len(runs),
        "pipeline.run_s_p50": statistics.median(dur([i]) for i in runs) if runs else 0.0,
        "pipeline.self_s": self_time("pipeline.run"),
        "pipeline.target_fits_per_run_index": ratio(len(target_fits), runs_per_pass),
        "oracle.labels": info(done("oracle.query")),
        "oracle.refused": sum(1 for i in queries if spans[i][4] == "BudgetExhaustedError"),
        "data.generate_s": dur(by_name.get("data.generate", ())),
        "data.balance_s": dur(by_name.get("data.balance", ())),
        "attack.craft_s": dur(crafts),
        "attack.crafted_epochs": info(crafts),
        "metrics.s": dur(by_name.get("metrics", ())),
        "cli.write_s": dur(writes),
    }
