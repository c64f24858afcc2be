from pathlib import Path

import golden_catalog

GOLDEN = Path(__file__).with_name("data") / "catalog_golden.txt"


def test_reader_matches_the_golden_file():
    "The catalog entries and shipped samples read as the stored text."
    want = GOLDEN.read_text().splitlines()
    got = list(golden_catalog.lines())
    assert len(got) == len(want) == 112
    for n, (g, w) in enumerate(zip(got, want), 1):
        assert g == w, "line %d" % n
