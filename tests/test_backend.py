"""Backend selection through TRACEDIAGRAMS_KERNELS, each case in a fresh
interpreter because the choice is made once, at import time."""

import os
import subprocess
import sys
from pathlib import Path

import tracediagrams

PACKAGE_ROOT = str(Path(tracediagrams.__file__).resolve().parent.parent)


def run_python(code, backend):
    path = os.pathsep.join(
        p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, TRACEDIAGRAMS_KERNELS=backend, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def test_backend_env_override():
    out = run_python(
        "from tracediagrams.kernels import BACKEND; print(BACKEND)", "pure")
    assert out.stdout.strip() == "pure", out.stderr


def test_forced_compiled_backend_raises_without_extension():
    # None in sys.modules makes the extension unimportable even where built
    out = run_python(
        "import sys\n"
        "sys.modules['tracediagrams._speedups'] = None\n"
        "try:\n"
        "    import tracediagrams.kernels\n"
        "except ImportError:\n"
        "    print('ImportError')\n", "compiled")
    assert out.stdout.strip() == "ImportError", out.stderr
