"""Session hooks: a failed ``golden`` test names the BLAS kernel this process loaded."""

import ctypes
from pathlib import Path

RECORDED_CORE = "SkylakeX"  # the OpenBLAS kernel the golden digests were recorded under


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS chose when it loaded, or ``unknown`` when no such library answers."""
    import numpy  # here, not at module level, so this file can still set OPENBLAS_CORETYPE before numpy loads

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
