"""Names that other code reaches by attribute rather than by import.

A stale ``__all__`` entry or a renamed function that the benchmark's
tracer patches would otherwise only fail far from its cause: in a
star-import, or in a traced benchmark process.
"""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import alsim

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(alsim.__path__, "alsim."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("full", [False, True])
def test_bench_tracer_installs(full):
    # A fresh interpreter, so the patched functions never leak into this one.
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]\n"
        "from spans import Tracer\n"
        f"Tracer('t').install(full={full})\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
