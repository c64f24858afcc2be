from pathlib import Path

import golden_iso

GOLDEN = Path(__file__).with_name("data") / "iso_golden.txt"


def test_classifier_and_search_match_the_golden_file():
    "classify3 and search_lsa_iso give the stored text, line by line."
    want = GOLDEN.read_text().splitlines()
    got = list(golden_iso.lines())
    assert len(got) == len(want) == 531
    for n, (g, w) in enumerate(zip(got, want), 1):
        assert g == w, "line %d" % n
