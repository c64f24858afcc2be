import importlib
from pathlib import Path

import pytest

DATA = Path(__file__).with_name("data")


@pytest.mark.parametrize("generator, stored, count", [
    ("golden_catalog", "catalog_golden.txt", 112),
    ("golden_iso", "iso_golden.txt", 531),
    ("golden_kernels", "kernels_golden.txt", 1280),
], ids=["catalog", "iso", "kernels"])
def test_generator_matches_the_golden_file(generator, stored, count):
    """The lines of each generator module match its stored file, line by
    line: the catalog reader and the shipped samples (golden_catalog),
    classify3 and search_lsa_iso (golden_iso), and classify3,
    find_ideals, the flags and phi (golden_kernels)."""
    want = (DATA / stored).read_text().splitlines()
    got = list(importlib.import_module(generator).lines())
    assert len(got) == len(want) == count
    for n, (g, w) in enumerate(zip(got, want), 1):
        assert g == w, "line %d" % n
