"""The C(G) and C[G] constructors and the packaged-file lookup.

function_algebra and group_algebra build the function algebra and the group
algebra of a finite group given by its multiplication and inverse on element
indices.  The packaged examples themselves ship as .qg files next to this
module, and those files are their only source.
"""

from __future__ import annotations

import os

from .definition import StructureDefinition
from .scalars import SC_ONE, SC_ZERO

ONE = SC_ONE


def _identity_star(dim):
    return [[ONE if i == j else SC_ZERO for j in range(dim)] for i in range(dim)]


def function_algebra(name, description, labels, elems, compose, inverse):
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
        labels=["e_" + lab for lab in labels],
        mul=mul, coproduct=coproduct, unit=unit,
        star=_identity_star(dim), counit=counit, antipode=antipode)


def group_algebra(name, description, labels, elems, compose, inverse):
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
        labels=["u_" + lab for lab in labels],
        mul=mul, coproduct=coproduct, unit=unit,
        star=star, counit=counit, antipode=antipode)


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
