"""The benchmark's self-test, run as part of the suite: a change under ``src/``
that breaks a benchmark command or its recorded output digests fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    # reads perfbench/ and writes only under the git-ignored .perfbench/
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "selftest passed" in done.stdout
