"""Built-in structure-constant fixtures.

Function algebras C(G) and group algebras C[G] for small groups, the
four-dimensional non-cosemisimple Hopf algebra with a non-involutive
antipode square, and a two-point semilattice coalgebra that is a perfectly
good bialgebra but fails the bijectivity test.

Both S3 fixtures list the group elements in the same order; composition is
(p q)(t) = p(q(t)) on permutation tuples.
"""

from __future__ import annotations

import os

from .definition import StructureDefinition
from .scalars import SC_ONE, SC_ZERO, Scalar

ONE = SC_ONE
MINUS_ONE = Scalar.from_int(-1)


def _perm_compose(p, q):
    return tuple(p[q[t]] for t in range(len(q)))


def _perm_inverse(p):
    inv = [0] * len(p)
    for t, image in enumerate(p):
        inv[image] = t
    return tuple(inv)


_S3_ELEMENTS = [
    ("id", (0, 1, 2)),
    ("r1", (1, 2, 0)),
    ("r2", (2, 0, 1)),
    ("t01", (1, 0, 2)),
    ("t02", (2, 1, 0)),
    ("t12", (0, 2, 1)),
]


def _cyclic_group(n):
    return ([("g%d" % k) for k in range(n)],
            list(range(n)),
            lambda a, b: (a + b) % n,
            lambda a: (-a) % n)


def _s3_group():
    labels = [name for name, _p in _S3_ELEMENTS]
    elems = [p for _name, p in _S3_ELEMENTS]
    index = {p: t for t, p in enumerate(elems)}
    return (labels, elems,
            lambda a, b: index[_perm_compose(elems[a], elems[b])],
            lambda a: index[_perm_inverse(elems[a])])


def _identity_star(dim):
    return [[ONE if i == j else SC_ZERO for j in range(dim)] for i in range(dim)]


def function_algebra(name, description, labels, elems, compose, inverse,
                     label_prefix="e_"):
    """C(G): pointwise functions on a finite group, by indicator basis."""
    dim = len(elems)
    mul = {(i, i): {i: ONE} for i in range(dim)}
    unit = [ONE] * dim
    coproduct = [dict() for _ in range(dim)]
    for h in range(dim):
        for k in range(dim):
            coproduct[compose(h, k)][(h, k)] = ONE
    identity = next(i for i in range(dim)
                    if all(compose(i, j) == j for j in range(dim)))
    counit = [ONE if i == identity else SC_ZERO for i in range(dim)]
    antipode = [[SC_ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        antipode[inverse(i)][i] = ONE
    return StructureDefinition(
        name=name, description=description,
        labels=[label_prefix + lab for lab in labels],
        mul=mul, coproduct=coproduct, unit=unit,
        star=_identity_star(dim), counit=counit, antipode=antipode)


def group_algebra(name, description, labels, elems, compose, inverse,
                  label_prefix="u_"):
    """C[G]: the group algebra with grouplike basis."""
    dim = len(elems)
    mul = {(i, j): {compose(i, j): ONE} for i in range(dim) for j in range(dim)}
    identity = next(i for i in range(dim)
                    if all(compose(i, j) == j for j in range(dim)))
    unit = [ONE if i == identity else SC_ZERO for i in range(dim)]
    coproduct = [{(i, i): ONE} for i in range(dim)]
    counit = [ONE] * dim
    star = [[SC_ZERO] * dim for _ in range(dim)]
    antipode = [[SC_ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        star[inverse(i)][i] = ONE
        antipode[inverse(i)][i] = ONE
    return StructureDefinition(
        name=name, description=description,
        labels=[label_prefix + lab for lab in labels],
        mul=mul, coproduct=coproduct, unit=unit,
        star=star, counit=counit, antipode=antipode)


def fixture_c_z2() -> StructureDefinition:
    labels, elems, compose, inverse = _cyclic_group(2)
    return function_algebra(
        "c_z2", "functions on the two-element group", labels, elems,
        compose, inverse)


def fixture_c_z4() -> StructureDefinition:
    labels, elems, compose, inverse = _cyclic_group(4)
    d = function_algebra(
        "c_z4", "functions on the cyclic group of order four", labels, elems,
        compose, inverse)
    # the span of the indicators of the index-two subgroup {0, 2}
    e0 = [ONE, SC_ZERO, SC_ZERO, SC_ZERO]
    e2 = [SC_ZERO, SC_ZERO, ONE, SC_ZERO]
    d.sub_bases["c_h"] = [e0, e2]
    return d


def fixture_c_s3() -> StructureDefinition:
    labels, elems, compose, inverse = _s3_group()
    return function_algebra(
        "c_s3", "functions on the symmetric group on three letters",
        labels, elems, compose, inverse)


def fixture_group_s3() -> StructureDefinition:
    labels, elems, compose, inverse = _s3_group()
    return group_algebra(
        "group_s3", "group algebra of the symmetric group on three letters",
        labels, elems, compose, inverse)


def fixture_sweedler_h4() -> StructureDefinition:
    """Four-dimensional Hopf algebra: grouplike g, skew-primitive x.

    g^2 = 1, x^2 = 0, xg = -gx; the square of the antipode is not the
    identity and no positive invariant functional exists.  The star makes
    it a *-algebra whose invariant functional is not positive.
    """
    M = MINUS_ONE
    z = SC_ZERO
    labels = ["one", "g", "x", "gx"]
    mul = {
        (0, 0): {0: ONE}, (0, 1): {1: ONE}, (0, 2): {2: ONE}, (0, 3): {3: ONE},
        (1, 0): {1: ONE}, (1, 1): {0: ONE}, (1, 2): {3: ONE}, (1, 3): {2: ONE},
        (2, 0): {2: ONE}, (2, 1): {3: M},
        (3, 0): {3: ONE}, (3, 1): {2: M},
    }
    unit = [ONE, z, z, z]
    coproduct = [
        {(0, 0): ONE},
        {(1, 1): ONE},
        {(2, 0): ONE, (1, 2): ONE},
        {(3, 1): ONE, (0, 3): ONE},
    ]
    counit = [ONE, ONE, z, z]
    # star fixes 1, g, x and negates gx (conjugate-linear, anti-multiplicative)
    star = [[ONE, z, z, z], [z, ONE, z, z], [z, z, ONE, z], [z, z, z, M]]
    # S(x) = -gx, S(gx) = x
    antipode = [[ONE, z, z, z], [z, ONE, z, z], [z, z, z, ONE], [z, z, M, z]]
    return StructureDefinition(
        name="sweedler_h4",
        description="four-dimensional Hopf algebra with non-involutive "
                    "antipode square and indefinite invariant form",
        labels=labels, mul=mul, coproduct=coproduct, unit=unit,
        star=star, counit=counit, antipode=antipode)


def fixture_semilattice2() -> StructureDefinition:
    """Two idempotents with diagonal coproduct: a bialgebra-morphism-level
    coproduct whose canonical tensor maps are not bijective."""
    mul = {(0, 0): {0: ONE}, (1, 1): {1: ONE}}
    coproduct = [{(0, 0): ONE}, {(1, 1): ONE}]
    return StructureDefinition(
        name="semilattice2",
        description="two-point semilattice: multiplicative coassociative "
                    "coproduct that fails the bijectivity test",
        labels=["p0", "p1"], mul=mul, coproduct=coproduct,
        unit=[ONE, ONE], star=_identity_star(2))


FIXTURE_BUILDERS = {
    "c_z2": fixture_c_z2,
    "c_z4": fixture_c_z4,
    "c_s3": fixture_c_s3,
    "group_s3": fixture_group_s3,
    "sweedler_h4": fixture_sweedler_h4,
    "semilattice2": fixture_semilattice2,
}


def build_fixture(name: str) -> StructureDefinition:
    if name not in FIXTURE_BUILDERS:
        raise KeyError("unknown fixture %r" % name)
    return FIXTURE_BUILDERS[name]()


# the packaged .qg files, installed next to this module
_FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fixtures")


def packaged_fixture_path(name: str):
    """Filesystem path of a packaged .qg file, or None if no such name."""
    path = os.path.join(_FIXTURE_DIR, name + ".qg")
    return path if os.path.isfile(path) else None


def packaged_fixture_names() -> list:
    return sorted(f[:-3] for f in os.listdir(_FIXTURE_DIR)
                  if f.endswith(".qg"))
