"""Session hooks: pin the BLAS kernel the golden digests were recorded under, and name the loaded one on failure."""

import ctypes
import os
import sys
from pathlib import Path

RECORDED_CORE = "Haswell"  # the OpenBLAS kernel the golden digests were recorded under; any AVX2 x86-64 host runs it

if "numpy" in sys.modules and os.environ.get("OPENBLAS_CORETYPE") != RECORDED_CORE:
    raise RuntimeError(f"numpy loaded before tests/conftest.py could set OPENBLAS_CORETYPE={RECORDED_CORE}; "
                       "its kernel is not the one the golden digests were recorded under")
os.environ["OPENBLAS_CORETYPE"] = RECORDED_CORE  # OpenBLAS reads it once, when numpy first loads it


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS chose when it loaded, or ``unknown`` when no such library answers."""
    import numpy  # here, not at module level, so numpy loads only after the pin above

    package = Path(numpy.__file__).parent
    for lib in sorted([*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode() or "unknown"
    return "unknown"


def pytest_terminal_summary(terminalreporter):
    """Golden digests hold only under the kernel that recorded them: after a golden failure, say which one ran."""
    if any("golden" in report.keywords for report in terminalreporter.stats.get("failed", [])):
        terminalreporter.write_line(f"golden digests were recorded under OpenBLAS {RECORDED_CORE}; "
                                    f"this process loaded {openblas_core()}")
