"""tools/artifact_digest.py is the byte oracle that compares two source trees;
an API change that breaks it would go unnoticed until the next comparison,
so it runs here on this checkout."""
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINE = re.compile(r"[0-9a-f]{64}  [^/\s]+/[^/\s]+")


def test_artifact_digest_runs_on_this_checkout():
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "artifact_digest.py")],
        capture_output=True, text=True, check=False, timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) >= 773
    assert [line for line in lines if not LINE.fullmatch(line)] == []
    labels = [line.split("  ", 1)[1] for line in lines]
    assert len(set(labels)) == len(labels)
