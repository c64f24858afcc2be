import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).parent
GOLDEN = HERE / "data" / "parse_golden.txt"


def test_parse_memo_matches_the_golden_file():
    """Every text that import and a catalog load parse gives the stored
    value, of the stored type, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    env.pop("LSACAT_DATA", None)
    proc = subprocess.run([sys.executable, str(HERE / "golden_parse.py")],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    want = GOLDEN.read_text().splitlines()
    got = proc.stdout.splitlines()
    assert len(got) == len(want) == 247
    for n, (g, w) in enumerate(zip(got, want), 1):
        assert g == w, "line %d" % n
