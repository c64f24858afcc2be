"""Seeded benchmark inputs: deterministic, seed-dependent and valid.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import inputs  # noqa: E402
import worker  # noqa: E402
from lsacat import catalog  # noqa: E402
from lsacat.algebra import rebase  # noqa: E402
from lsacat.iso import verify_lsa_iso  # noqa: E402
from lsacat.linalg import Mat  # noqa: E402


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


@pytest.fixture(scope="module")
def cat():
    return catalog.load_catalog()


def _admissible(entry, values):
    return entry.admissible(worker.bindings_for(entry, values))


def _plans(cat, seed):
    return inputs.height_plans(cat.values(), seed, _admissible)


def test_same_seed_same_inputs(cat):
    assert _plans(cat, 7) == _plans(cat, 7)
    assert inputs.search_cases(list(cat), 7) == inputs.search_cases(list(cat), 7)


def test_other_seed_other_inputs(cat):
    assert _plans(cat, 7) != _plans(cat, 8)
    assert inputs.search_cases(list(cat), 7) != inputs.search_cases(list(cat), 8)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_height_bindings_admissible(cat, seed):
    free = [e for e in cat.values() if inputs.free_params(e)]
    assert len(free) == 49
    plans = _plans(cat, seed)
    assert len(plans) == len(inputs.HEIGHT_DIGITS)
    for digits, plan in plans:
        assert sorted(plan) == sorted(e.id for e in free)
        for eid, values_list in plan.items():
            assert len(values_list) == inputs.HEIGHT_DRAWS
            for values in values_list:
                assert cat[eid].admissible(worker.bindings_for(cat[eid], values))
                for re, im in values.values():
                    for part in (re, im):
                        assert len(str(abs(part.numerator))) <= digits
                        assert len(str(part.denominator)) <= digits
                    assert im != 0
    for _k, mu in inputs.n3_ladder():
        assert cat["N-3"].admissible(worker.bindings_for(cat["N-3"], {"mu": mu}))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_search_basis_changes_invertible(cat, seed):
    cases = inputs.search_cases(list(cat), seed)
    assert len(cases) == 108
    for _eid, rows in cases:
        assert _det3(rows) in (1, -1)
        assert all(abs(x) <= 2 for row in rows for x in row)
        Mat(rows).inverse()


def test_search_inverse_is_a_witness(cat):
    for eid, rows in inputs.search_cases(list(cat), 1)[::9]:
        a = catalog.instantiate(eid, cat[eid].sample_bindings()[0])
        t = Mat(rows)
        assert verify_lsa_iso(a, rebase(a, t), t.inverse())
