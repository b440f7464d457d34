"""``installed_checks.sh`` run against the source tree.

The script checks the ``raagv`` console script on PATH byte for byte (see its
header).  Here ``raagv`` and ``python`` on PATH are shims that run this
interpreter on ``src``, so the pins hold for the code as it stands, not only
for an installed copy.  Slow: the script sweeps every graph with n <= 7.
"""

import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


@pytest.mark.slow
def test_installed_checks_pass_from_the_source_tree(tmp_path):
    for tool in ("bash", "sed", "sha256sum", "cmp", "timeout"):
        if shutil.which(tool) is None:
            pytest.skip(f"installed_checks.sh needs {tool}, which is not on PATH")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    run = f"PYTHONPATH={shlex.quote(str(SRC))} exec {shlex.quote(sys.executable)}"
    for name, args in (("raagv", "-m raagv "), ("python", "")):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\n{run} {args}"$@"\n', encoding="utf-8")
        shim.chmod(0o755)
    work = tmp_path / "work"
    work.mkdir()
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    result = subprocess.run(
        ["bash", str(TESTS / "installed_checks.sh"), str(work)],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
