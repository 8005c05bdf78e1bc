"""The sparse coproduct columns and the on-demand tensor square against
dense references built in this file.

The references are the dense forms the kernels replace: the n^2 x n
coproduct matrix applied with exactla.matvec, and a tensor product algebra
that tabulates all of its structure constants and carries a dense star.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hopf_forge.assemble import algebra_from_definition, build_qg
from hopf_forge.exactla import invert, matmul, matvec
from hopf_forge.finalg import (FinAlgebra, LinMap, tensor_algebra,
                               transform_basis)
from hopf_forge.fixtures import FIXTURE_BUILDERS, build_fixture
from hopf_forge.mhopf import attach_coproduct
from hopf_forge.scalars import SC_ONE, SC_ZERO, GaussRat, Scalar, parse_scalar

NAMES = sorted(FIXTURE_BUILDERS)
S = Scalar.s_power(1)
NONZERO = [SC_ONE, Scalar.from_int(-3), Scalar.from_fraction(Fraction(2, 7)),
           Scalar.const(GaussRat(1, 2)), S, parse_scalar("1/(1+s)"),
           parse_scalar("(2 - i*s^2)/(s^3 + 5)")]
# zero is drawn about as often as all other values together, so most
# vectors have many zero coordinates
SCALARS = st.one_of(st.just(SC_ZERO), st.sampled_from(NONZERO))


def vectors(n):
    return st.lists(SCALARS, min_size=n, max_size=n)


def dense_coproduct(defn):
    n = defn.dim
    rows = [[SC_ZERO] * n for _ in range(n * n)]
    for k, col in enumerate(defn.coproduct):
        for (i, j), c in col.items():
            rows[i * n + j][k] = c
    return rows


def kron(p, q):
    """The Kronecker product of two square matrices."""
    nq = len(q)
    size = len(p) * nq
    return [[p[r // nq][c // nq] * q[r % nq][c % nq] for c in range(size)]
            for r in range(size)]


def deformation(n):
    """P = 1 + s E_01 + s E_22 (change of basis f_j = sum_t P[t][j] e_t)."""
    p = [[SC_ONE if r == c else SC_ZERO for c in range(n)] for r in range(n)]
    p[0][1] = S
    p[2][2] = SC_ONE + S
    return p


def deformed(name):
    """The fixture in the s-dependent basis of deformation(): the algebra by
    transform_basis and the coproduct as (P^-1 (x) P^-1) D P."""
    defn = build_fixture(name)
    p = deformation(defn.dim)
    pinv = invert(p)
    alg = transform_basis(algebra_from_definition(defn), p)
    cop = matmul(kron(pinv, pinv), matmul(dense_coproduct(defn), p))
    return alg, cop


def reference_tensor(a, b):
    """a (x) b with its n^4 product table and dense star tabulated."""
    na, nb = a.dim, b.dim
    mul = {}
    for (i1, j1), ent1 in a.mul.items():
        for (i2, j2), ent2 in b.mul.items():
            mul[(i1 * nb + i2, j1 * nb + j2)] = {
                k1 * nb + k2: c1 * c2
                for k1, c1 in ent1.items() for k2, c2 in ent2.items()}
    star = None
    if a.star is not None and b.star is not None:
        star = LinMap(kron(a.star.matrix, b.star.matrix),
                      conjugate_linear=True)
    return FinAlgebra(["t%d" % k for k in range(na * nb)], mul,
                      [x * y for x in a.unit for y in b.unit], star)


PACKAGED_QG = {name: build_qg(build_fixture(name)) for name in NAMES}
DEFORMED = {name: deformed(name) for name in ("group_s3", "sweedler_h4")}
DEFORMED_QG = {name: attach_coproduct(alg, LinMap(cop))
               for name, (alg, cop) in DEFORMED.items()}
ALGEBRAS = dict({name: qg.algebra for name, qg in PACKAGED_QG.items()},
                **{"deformed " + name: alg
                   for name, (alg, _cop) in DEFORMED.items()})


@st.composite
def qg_and_vector(draw):
    deformed_case = draw(st.booleans())
    if deformed_case:
        name = draw(st.sampled_from(sorted(DEFORMED)))
        qg, dense = DEFORMED_QG[name], DEFORMED[name][1]
    else:
        name = draw(st.sampled_from(NAMES))
        qg = PACKAGED_QG[name]
        dense = dense_coproduct(build_fixture(name))
    return qg, dense, draw(vectors(qg.dim))


@st.composite
def tensor_case(draw):
    a = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    b = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    n = a.dim * b.dim
    return a, b, draw(vectors(n)), draw(vectors(n))


class TestDeltaColumns:
    @settings(max_examples=60)
    @given(qg_and_vector())
    def test_delta_is_the_dense_matvec(self, case):
        qg, dense, x = case
        assert qg.delta(x) == matvec(dense, x)

    def test_columns_hold_only_nonzero_terms(self):
        for qg in list(PACKAGED_QG.values()) + list(DEFORMED_QG.values()):
            for col in qg.coproduct.columns:
                assert all(not c.is_zero for c in col.values())

    def test_matrix_reads_back_the_declared_coproduct(self):
        for name, qg in PACKAGED_QG.items():
            assert qg.coproduct.matrix == \
                dense_coproduct(build_fixture(name)), name
        for name, qg in DEFORMED_QG.items():
            assert qg.coproduct.matrix == DEFORMED[name][1], name


class TestTensorProduct:
    @settings(max_examples=60)
    @given(tensor_case())
    def test_multiply_matches_the_tabulated_product(self, case):
        a, b, x, y = case
        assert tensor_algebra(a, b).multiply(x, y) == \
            reference_tensor(a, b).multiply(x, y)

    @settings(max_examples=60)
    @given(tensor_case())
    def test_star_matches_the_dense_star(self, case):
        a, b, x, _y = case
        if a.star is None or b.star is None:
            return
        assert tensor_algebra(a, b).apply_star(x) == \
            reference_tensor(a, b).apply_star(x)

    def test_unit_and_basis_products(self):
        for name, alg in ALGEBRAS.items():
            t = tensor_algebra(alg, alg)
            ref = reference_tensor(alg, alg)
            assert t.unit == ref.unit, name
            n = t.dim
            for p in range(0, n, 5):
                for q in range(0, n, 7):
                    assert t.multiply(t.basis(p), t.basis(q)) == \
                        ref.multiply(ref.basis(p), ref.basis(q)), name
