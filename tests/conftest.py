import pytest

from lsacat import catalog
from lsacat.algebra import Algebra, rebase
from lsacat.linalg import Mat
from lsacat.scalars import QI


def seeded_commutative_bases(rng, count):
    "Random commutative associative tables: known models in random bases."
    trunc = Algebra.from_products(3, {(0, 0): [(1, 1)], (0, 1): [(1, 2)],
                                      (1, 0): [(1, 2)]})
    models = [
        trunc,
        Algebra.from_products(3, {(0, 0): [(1, 0)], (1, 1): [(1, 1)],
                                  (2, 2): [(1, 2)]}),
        Algebra.from_products(3, {(0, 0): [(1, 1)]}),
        Algebra.from_products(3, {(0, 0): [(1, 0)], (1, 1): [(1, 2)]}),
        Algebra.from_products(3, {}),
    ]
    out = []
    while len(out) < count:
        base = models[rng.randrange(len(models))]
        w = Mat([[QI(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)])
        try:
            w.inverse()
        except Exception:
            continue
        out.append(rebase(base, w))
    return out


@pytest.fixture(scope="session")
def commutative_bases():
    return seeded_commutative_bases


@pytest.fixture(scope="session")
def full_catalog():
    return catalog.load_catalog()


@pytest.fixture(scope="session")
def catalog_sweep():
    "One shared run of the complete entry/sample verification."
    return catalog.verify_all()


@pytest.fixture(scope="session")
def remark_isos(catalog_sweep):
    return catalog.verify_remark_isos(catalog_sweep)


@pytest.fixture(scope="session")
def property_tables(catalog_sweep):
    return catalog.verify_property_tables(sweep=catalog_sweep)


@pytest.fixture(scope="session")
def first_samples(full_catalog):
    "One admissible (entry, bindings, algebra) triple per catalog entry."
    out = []
    for e in full_catalog.values():
        b = e.sample_bindings()[0]
        out.append((e, b, catalog.instantiate(e.id, b)))
    return out
