"""Every artifact byte, exit code and last stderr line, pinned.

`scripts/artifact_digests.py` runs the run/certify/sweep pipelines of the
catalog, the benchmark instances, the overrides, the extra file problems and
the refusals, and prints one line per call and one sha256 line per written
file. `tests/data/artifact_digests.txt` holds those lines.

The digests depend on the host's libm and numpy, as `tests/data/csv` already
does: a float printed to 17 digits changes when a library rounds one bit
differently. A change that alters bytes on purpose regenerates the file in
the same commit,

    python3 scripts/artifact_digests.py src OUT_DIR > tests/data/artifact_digests.txt

and names each changed line in CHANGES.md.
"""
import difflib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "artifact_digests.txt"


def test_artifact_digests_match_the_golden_file(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "artifact_digests.py"),
         str(ROOT / "src"), str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = proc.stdout.splitlines()
    want = GOLDEN.read_text().splitlines()
    if got != want:
        diff = difflib.unified_diff(want, got, "golden", "src", lineterm="", n=0)
        pytest.fail("artifact digests differ from %s:\n%s" % (GOLDEN.name, "\n".join(diff)))
