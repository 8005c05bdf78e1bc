"""Bridge from definition files to verified algebra objects."""

from __future__ import annotations

from .definition import StructureDefinition
from .errors import StructureError
from .exactla import dense_row, sparse_row
from .finalg import FinAlgebra, LinMap, build_algebra
from .mhopf import Coproduct, QGData, attach_coproduct
from .scalars import SC_ZERO


def algebra_from_definition(d: StructureDefinition) -> FinAlgebra:
    """Build and verify the underlying *-algebra of a definition.

    A declared unit is build_algebra's candidate and must match the unit
    it verifies or solves for; the star matrix is wrapped conjugate-linearly.
    """
    star = None
    if d.star is not None:
        star = LinMap(d.star, conjugate_linear=True)
    declared = None if d.unit is None else sparse_row(d.unit)
    alg = build_algebra(d.labels, d.mul, star=star, name=d.name,
                        unit=declared)
    if declared is not None and alg.one != declared:
        raise StructureError(
            "declared unit of %r disagrees with the solved one" % d.name)
    return alg


def coproduct_map(d: StructureDefinition) -> Coproduct:
    return Coproduct(d.coproduct)


def build_qg(d: StructureDefinition) -> QGData:
    """Verified algebra with attached (morphism + coassociative) coproduct."""
    return attach_coproduct(algebra_from_definition(d), coproduct_map(d))


def definition_from_qg(qg: QGData, name: str,
                       description: str) -> StructureDefinition:
    """Serialize a verified quantum group back into a definition (the
    inverse of build_qg), so derived objects such as duals can be saved."""
    alg = qg.algebra
    mul = {k: dict(v) for k, v in alg.mul.items()}
    coproduct = [dict(col) for col in qg.coproduct.columns]
    return StructureDefinition(
        name=name,
        description=description,
        labels=list(alg.labels),
        mul=mul,
        coproduct=coproduct,
        unit=alg.unit,
        star=alg.star.matrix if alg.star is not None else None,
        counit=(None if qg.counit is None
                else dense_row(qg.counit, alg.dim, SC_ZERO)),
        antipode=qg.antipode.matrix if qg.antipode is not None else None,
        sub_bases={},
    )
