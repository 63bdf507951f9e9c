"""The benchmark's trace hooks still resolve against the engine.

``perfbench/spans.py`` wraps engine functions by module path and
attribute name (``install_worker`` in Ray workers, ``DriverTrace.install``
on the driver).  Renaming or deleting a wrapped function breaks the
traced benchmark while every engine test still passes, so this installs
both in a fresh process — the wrappers replace module attributes — and
fails if any wrapped ``module.attr`` no longer resolves."""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_span_hooks_resolve(tmp_path):
    code = textwrap.dedent(
        f"""
        from perfbench.spans import DriverTrace, Recorder, install_worker

        install_worker(Recorder(out_dir={str(tmp_path)!r}))
        DriverTrace({str(tmp_path)!r}).install()
        print("hooks installed")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0 and "hooks installed" in proc.stdout, proc.stderr[-4000:]
