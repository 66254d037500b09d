"""The README's library example runs and the bundled example config loads."""

import re
from pathlib import Path

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
