"""The README's library example runs, the bundled example config loads, the package holds no dead names,
a falsified property test fails as a test, and a failed golden test names the BLAS kernel."""

import ast
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from conftest import RECORDED_CORE, openblas_core, pytest_terminal_summary
from qsattack.pipeline import load_config

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_surface_runs():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library surface", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["adversarial"].shape == namespace["data"].epochs.shape


def test_example_config_loads():
    cfg = load_config(ROOT / "configs" / "example.json")
    assert (cfg.method, cfg.runs, cfg.master_seed) == ("active", 3, 42)


def test_package_has_no_dead_imports_or_private_names():
    """The leftovers of a deletion: an import its module never loads, a module-level ``_name`` nothing uses."""
    modules = {path.name: list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))  # [0] is the module node
               for path in sorted((ROOT / "src" / "qsattack").glob("*.py"))}
    loads = {name: {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
             for name, nodes in modules.items()}
    used = set().union(*loads.values())  # loaded, read as an attribute, or imported anywhere in the package
    for nodes in modules.values():
        used |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        used |= {alias.name for n in nodes if isinstance(n, ast.ImportFrom) for alias in n.names}
    dead = []
    for name, nodes in modules.items():
        for n in nodes if name != "__init__.py" else ():  # the package's __init__ imports to re-export
            if isinstance(n, (ast.Import, ast.ImportFrom)) and getattr(n, "module", None) != "__future__":
                dead += [f"{name}: import {alias.name}" for alias in n.names
                         if (alias.asname or alias.name.split(".")[0]) not in loads[name]]
        for stmt in nodes[0].body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                defined = [n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                continue
            dead += [f"{name}: {private}" for private in defined
                     if private.startswith("_") and not private.startswith("__") and private not in used]
    assert dead == []


def test_a_falsified_property_is_a_plain_failure(tmp_path):
    """Under the ``error`` warning filter, hypothesis's falsifying-example report must not end the session."""
    (tmp_path / "test_falsified.py").write_text("from hypothesis import given, strategies as st\n\n\n"
                                                "@given(st.integers())\ndef test_small(x):\n    assert x < 5\n",
                                                encoding="utf-8")
    argv = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
            "test_falsified.py"]  # run in tmp_path, so .hypothesis/ lands there
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed" in done.stdout


def test_a_failed_golden_test_names_the_blas_kernel():
    core = openblas_core()
    assert isinstance(core, str) and core
    for marked, expected in ((["golden"], 1), (["slow"], 0)):
        lines = []
        failed = [SimpleNamespace(keywords=dict.fromkeys(marked, 1))]
        pytest_terminal_summary(SimpleNamespace(stats={"failed": failed}, write_line=lines.append))
        assert lines == [f"golden digests were recorded under OpenBLAS {RECORDED_CORE}; "
                         f"this process loaded {core}"] * expected
