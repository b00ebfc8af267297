"""The default path stays scipy-free.

scipy costs about a second to import, so only the ablations that need it
(the GPD tail enhancer and the elliptic envelope) import it, inside the
functions that use it.  Each check runs in a fresh interpreter, since this
test process may already have scipy loaded.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.cli import main

ROOT = os.path.join(os.path.dirname(__file__), "..")

SCIPY_LOADED = (
    "import sys; "
    "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
)


def _fresh(script: str) -> str:
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("REPRO_CACHE", None)
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, cwd=ROOT, check=True,
    )
    return out.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve.server"])
def test_import_leaves_scipy_out(module):
    assert _fresh(f"import {module}; {SCIPY_LOADED}") == "[]"


@pytest.mark.parametrize("traced", [False, True])
def test_cli_table1_leaves_scipy_out(tmp_path, traced):
    archive = tmp_path / "run.npz"
    assert main(["generate", str(archive), "--chips", "10"]) == 0
    argv = ["table1", "--data", str(archive), "--kde-samples", "1500", "--no-cache"]
    if traced:  # the run manifest records scipy's version without importing it
        argv += ["--trace", "--run-dir", str(tmp_path / "runs")]
    script = f"from repro.cli import main; assert main({argv!r}) == 0; {SCIPY_LOADED}"
    assert _fresh(script) == "[]"
    if traced:
        assert list((tmp_path / "runs").iterdir())
