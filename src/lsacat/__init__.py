"""Exact-arithmetic verification of the 3-dimensional left-symmetric
algebra classification catalog.

The package represents finite-dimensional left-symmetric (pre-Lie)
algebras by structure constants over exact scalar domains, implements the
bijective-1-cocycle correspondence with sub-adjacent Lie algebras, the
standard subclass predicates, and mechanically re-verifies the embedded
classification catalog (families H, N, D1, Dl, E) including property
tables and witness isomorphisms.

All values are immutable (QI sets its parts once and alone hashes; every
other value type is a scalars.Frozen, equal as its fields) and all
operations are pure functions, so everything here is safe to use from
multiple threads.  An Algebra keeps the verdict of its first
check_left_symmetric, which a race computes twice at worst.
Four stores keep results, each paid for by the traffic: the scalar
parser's by text (a catalog load parses 247 texts in 1,151 calls; it
hands out stored tuples nobody can change), triple_products for the
table read last, never another table's (a point's checks read one
build), the loaded catalog (one parse per command) and iso._component (a
search cycle solves 83 times in 6 components).  Dict reads and writes
are atomic, so at worst two threads compute one twice.
"""

from .algebra import (Algebra, check_left_symmetric, commutator_lie,
                      left_matrix, multiply, rebase)
from .cocycle import (Cocycle, Representation, check_cocycle,
                      check_representation, phi, psi, verify_cocycle_equiv,
                      verify_cocycle_iso)
from .constructions import (check_cybe, check_o_operator, induced_product,
                            lsa_from_rmatrix, novikov_from_derivation)
from .iso import IsoVerdict, search_lsa_iso, verify_lsa_iso
from .lie import (LieAlgebra, LieClass, canonical_lie, check_lie_automorphism,
                  classify3)
from .props import (Fingerprint, find_ideals, fingerprint, is_associative,
                    is_bisymmetric, is_novikov, is_semisimple, is_simple,
                    is_transitive)
from .scalars import MultiPoly, QI, RatFunc, parse_scalar, substitute

__version__ = "0.1.0"

__all__ = [
    "Algebra", "Cocycle", "Fingerprint", "IsoVerdict", "LieAlgebra",
    "LieClass", "MultiPoly", "QI", "RatFunc",
    "Representation", "canonical_lie", "check_cocycle",
    "check_cybe", "check_left_symmetric",
    "check_lie_automorphism", "check_o_operator", "check_representation",
    "classify3", "commutator_lie",
    "find_ideals", "fingerprint", "induced_product", "is_associative",
    "is_bisymmetric", "is_novikov", "is_semisimple",
    "is_simple", "is_transitive", "left_matrix",
    "lsa_from_rmatrix", "multiply", "novikov_from_derivation",
    "parse_scalar", "phi", "psi", "rebase",
    "search_lsa_iso", "substitute", "verify_cocycle_equiv",
    "verify_cocycle_iso", "verify_lsa_iso",
]
