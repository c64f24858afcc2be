from pathlib import Path

import golden_kernels

GOLDEN = Path(__file__).with_name("data") / "kernels_golden.txt"


def test_kernels_match_the_golden_file():
    "classify3, find_ideals, the flags and phi give the stored text."
    want = GOLDEN.read_text().splitlines()
    got = list(golden_kernels.lines())
    assert len(got) == len(want) == 1280
    for n, (g, w) in enumerate(zip(got, want), 1):
        assert g == w, "line %d" % n
