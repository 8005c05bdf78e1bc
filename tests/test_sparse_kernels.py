"""The sparse kernels against dense references.

The references are the dense forms the kernels replace: the n^2 x n
coproduct matrix applied with exactla.matvec, a tensor product algebra
that tabulates all of its structure constants and carries a dense star,
the form and Gram matrix of a functional from dense products, and, for
exact elimination on sparse rows, the textbook dense Gauss-Jordan of
tests/oracles.py, itself checked against sympy over Q(i).
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hopf_forge import finalg, haar_modular
from hopf_forge.assemble import algebra_from_definition, build_qg
from hopf_forge.duality import build_dual
from hopf_forge.errors import CheckFailure, StructureError
from hopf_forge.exactla import (LinearAlgebraError, invert,
                                kernel_basis, matmul, matvec, rref,
                                solve_affine, sparse_row)
from hopf_forge.finalg import (FinAlgebra, LinMap, form_map, gram_matrix,
                               tensor_algebra, transform_basis)
from hopf_forge.haar_modular import (compute_modular_data, delta_square_root,
                                     left_haar, simultaneous_eigenbasis,
                                     solve_left_haar)
from hopf_forge.mhopf import (attach_coproduct, check_tmaps,
                              derive_counit_antipode, tensor_vec)
from hopf_forge.scalars import (GR_ZERO, SC_ONE, SC_ZERO, GaussRat, Scalar,
                                parse_scalar)

from oracles import (coproduct_matrix, dense_form, dense_gram, dense_rref,
                     gauss_to_sympy, matrix_coproduct)
from packaged import packaged
from test_bench_workloads import WORKLOADS

NAMES = ["c_s3", "c_z2", "c_z4", "group_s3", "semilattice2",
         "sweedler_h4"]
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
    defn = packaged(name)
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
                      sparse_row([x * y for x in a.unit for y in b.unit]),
                      star)


def dense_pairs(terms, na, nb):
    """{(i, j): c} as the dense vector of a (x) b, e_i(x)f_j at i*nb + j."""
    out = [SC_ZERO] * (na * nb)
    for (i, j), c in terms.items():
        out[i * nb + j] = c
    return out


def pairs_of(v, nb):
    """The nonzero coordinates of a dense vector of a (x) b as {(i, j): c}."""
    return {divmod(k, nb): c for k, c in enumerate(v) if not c.is_zero}


PACKAGED_QG = {name: build_qg(packaged(name)) for name in NAMES}
DEFORMED = {name: deformed(name) for name in ("group_s3", "sweedler_h4")}
DEFORMED_QG = {name: attach_coproduct(alg, matrix_coproduct(cop))
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
        dense = dense_coproduct(packaged(name))
    return qg, dense, draw(vectors(qg.dim))


@st.composite
def tensor_case(draw):
    a = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    b = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    n = a.dim * b.dim
    return a, b, draw(vectors(n)), draw(vectors(n))


@st.composite
def algebra_and_functional(draw):
    alg = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    return alg, draw(vectors(alg.dim))


class TestDeltaColumns:
    @settings(max_examples=60)
    @given(qg_and_vector())
    def test_delta_is_the_dense_matvec(self, case):
        qg, dense, x = case
        image = qg.delta(sparse_row(x))
        assert dense_pairs(image, qg.dim, qg.dim) == matvec(dense, x)
        assert stores_no_zero(image)

    def test_columns_hold_only_nonzero_terms(self):
        for qg in list(PACKAGED_QG.values()) + list(DEFORMED_QG.values()):
            for col in qg.coproduct.columns:
                assert all(not c.is_zero for c in col.values())

    def test_matrix_reads_back_the_declared_coproduct(self):
        for name, qg in PACKAGED_QG.items():
            assert coproduct_matrix(qg.coproduct) == \
                dense_coproduct(packaged(name)), name
        for name, qg in DEFORMED_QG.items():
            assert coproduct_matrix(qg.coproduct) == DEFORMED[name][1], name


class TestTensorProduct:
    @settings(max_examples=60)
    @given(tensor_case())
    def test_multiply_matches_the_tabulated_product(self, case):
        a, b, x, y = case
        product = tensor_algebra(a, b).multiply(pairs_of(x, b.dim),
                                                pairs_of(y, b.dim))
        assert dense_pairs(product, a.dim, b.dim) == to_dense(
            reference_tensor(a, b).multiply(sparse_row(x), sparse_row(y)),
            len(x), SC_ZERO)
        assert stores_no_zero(product)

    @settings(max_examples=60)
    @given(tensor_case())
    def test_star_matches_the_dense_star(self, case):
        a, b, x, _y = case
        if a.star is None or b.star is None:
            return
        starred = tensor_algebra(a, b).apply_star(pairs_of(x, b.dim))
        assert dense_pairs(starred, a.dim, b.dim) == to_dense(
            reference_tensor(a, b).star.apply(sparse_row(x)), len(x),
            SC_ZERO)
        assert stores_no_zero(starred)

    def test_unit_and_basis_products(self):
        for name, alg in ALGEBRAS.items():
            t = tensor_algebra(alg, alg)
            ref = reference_tensor(alg, alg)
            m = alg.dim
            assert dense_pairs(tensor_vec(alg.one, alg.one), m, m) == \
                ref.unit, name
            n = ref.dim
            for p in range(0, n, 5):
                for q in range(0, n, 7):
                    product = t.multiply({divmod(p, m): SC_ONE},
                                         {divmod(q, m): SC_ONE})
                    assert dense_pairs(product, m, m) == to_dense(
                        ref.multiply({p: SC_ONE}, {q: SC_ONE}), n,
                        SC_ZERO), name


class TestForms:
    @settings(max_examples=60, deadline=None)
    @given(algebra_and_functional())
    def test_form_and_gram_match_the_dense_products(self, case):
        alg, omega = case
        omega = sparse_row(omega)
        form = form_map(alg, omega)
        assert form.matrix == dense_form(alg, omega)
        assert all(stores_no_zero(col) for col in form.columns)
        # every algebra here has a star
        assert gram_matrix(alg, omega) == dense_gram(alg, omega)


# -- exact elimination on sparse rows ----------------------------------------

GAUSSIAN = [GaussRat(1), GaussRat(-2), GaussRat(1, 3), GaussRat(3, 0, 4),
            GaussRat(0, -1, 2)]
FIELDS = [(GAUSSIAN, GR_ZERO), (NONZERO, SC_ZERO)]


def to_dense(row, ncols, zero):
    return [row.get(j, zero) for j in range(ncols)]


def to_row(v):
    return v if isinstance(v, dict) else {
        j: x for j, x in enumerate(v) if not x.is_zero}


def sparse_combination(coeffs, rows):
    out = {}
    for c, row in zip(coeffs, rows):
        for j, x in row.items():
            out[j] = out[j] + c * x if j in out else c * x
    return {j: x for j, x in out.items() if not x.is_zero}


def stores_no_zero(row):
    return isinstance(row, dict) and all(not x.is_zero for x in row.values())


@st.composite
def sparse_systems(draw, max_rows=5, max_cols=5):
    """(rows, ncols, pool, zero): dict rows over Q(i) or Q(i)(s) that store
    no zero, about two thirds of the cells empty, with a zero row and a
    combination of the other rows planted at random."""
    pool, zero = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(1, max_cols))
    cell = st.one_of(st.none(), st.none(), st.sampled_from(pool))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        cells = [draw(cell) for _ in range(ncols)]
        rows.append({j: x for j, x in enumerate(cells) if x is not None})
    if rows and draw(st.booleans()):
        coeffs = [draw(st.sampled_from(pool)) for _ in rows]
        rows.append(sparse_combination(coeffs, rows))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), {})
    return rows, ncols, pool, zero


def rendered(vectors):
    """The literals of a vector or a list of vectors, for a comparison that
    does not see whether a value is GaussRat or Scalar."""
    if vectors is None or not vectors:
        return vectors
    if isinstance(vectors[0], list):
        return [rendered(v) for v in vectors]
    return [str(x) for x in vectors]


def is_gaussian(zero):
    return isinstance(zero, GaussRat)


def to_sympy_matrix(dense):
    return sympy.Matrix([[gauss_to_sympy(x) for x in row] for row in dense])


def reference_solution(dense, rhs, ncols, zero, one):
    """(particular or None, kernel) read off the dense reference rref of
    [A | rhs], the particular solution and kernel basis the unique reduced
    form gives."""
    reduced, pivots = dense_rref([row + [b] for row, b in zip(dense, rhs)])
    prows = {c: reduced[r] for r, c in enumerate(pivots) if c != ncols}
    kernel = []
    for fc in range(ncols):
        if fc in prows:
            continue
        v = [zero] * ncols
        v[fc] = one
        for c, row in prows.items():
            v[c] = -row[fc]
        kernel.append(v)
    if ncols in pivots:
        return None, kernel
    part = [zero] * ncols
    for c, row in prows.items():
        part[c] = row[ncols]
    return part, kernel


class TestSparseElimination:
    @settings(max_examples=80, deadline=None)
    @given(sparse_systems())
    def test_rref_matches_the_dense_reference(self, case):
        rows, ncols, _pool, zero = case
        dense = [to_dense(row, ncols, zero) for row in rows]
        want, want_pivots = dense_rref(dense)
        if is_gaussian(zero) and dense:
            sym, sym_pivots = to_sympy_matrix(dense).rref()
            assert list(sym_pivots) == want_pivots
            assert sym == to_sympy_matrix(want)
        originals = [dict(row) for row in rows]
        got = list(rows)
        assert rref(got) == want_pivots
        assert [to_dense(row, ncols, zero) for row in got] == want
        assert all(stores_no_zero(row) for row in got)
        assert got[len(want_pivots):] == [{}] * (len(rows) - len(want_pivots))
        assert rows == originals  # the caller's rows are not written to
        # dense rows come back sparse
        again = [list(row) for row in dense]
        assert rref(again) == want_pivots
        assert [to_dense(row, ncols, zero) for row in again] == want
        assert all(stores_no_zero(row) for row in again)

    @settings(max_examples=80, deadline=None)
    @given(sparse_systems(), st.data())
    def test_solve_affine_and_kernel_match_the_dense_reference(self, case,
                                                               data):
        rows, ncols, pool, zero = case
        one = pool[0] / pool[0]
        dense = [to_dense(row, ncols, zero) for row in rows]
        value = st.one_of(st.just(zero), st.sampled_from(pool))
        if data.draw(st.booleans()):
            x = [data.draw(value) for _ in range(ncols)]
            rhs = matvec(dense, x) if dense else []
        else:  # often inconsistent
            rhs = [data.draw(value) for _ in rows]
        part, kernel = reference_solution(dense, rhs, ncols, zero, one)
        sol = solve_affine(rows, rhs, ncols)

        def dense_vectors(vs):
            return [to_dense(v, ncols, zero) for v in vs]
        # the field is read off rhs, and is Q(i)(s) when there is no row
        typed = rendered if not rows else (lambda x: x)
        assert (sol.particular is None) == (part is None)
        if part is not None:
            assert stores_no_zero(sol.particular)
            assert typed(to_dense(sol.particular, ncols, zero)) == \
                typed(part)
        assert all(stores_no_zero(v) for v in sol.kernel)
        assert typed(dense_vectors(sol.kernel)) == typed(kernel)
        if part is not None and dense:
            assert matvec(dense, part) == rhs
        for v in kernel:
            assert not dense or all(x.is_zero for x in matvec(dense, v))
        if rows:
            assert dense_vectors(solve_affine(dense, rhs).kernel) == kernel
        # kernel_basis reads the field off the first stored entry, and
        # falls back on Q(i)(s) when no row stores one
        found = dense_vectors(kernel_basis(rows, ncols))
        typed = rendered if not any(rows) else (lambda x: x)
        assert typed(found) == typed(kernel)

    @settings(max_examples=80, deadline=None)
    @given(sparse_systems(max_rows=4), st.data())
    def test_left_inverse_matches_the_dense_reference(self, case, data):
        # the drawn rows are the columns of the map, so dependent ones are
        # planted
        vectors, ncols, pool, zero = case
        dense = [to_dense(v, ncols, zero) for v in vectors]
        d = len(vectors)
        independent = len(dense_rref(dense)[1]) == d
        coeffs = [data.draw(st.sampled_from(pool)) for _ in vectors]
        targets = [sparse_combination(coeffs, vectors)] + [
            {j: data.draw(st.sampled_from(pool))
             for j in data.draw(st.sets(st.integers(0, ncols - 1)))}
            for _ in range(data.draw(st.integers(0, 2)))]
        # half the maps are read from dense rows
        lift = (LinMap([[v[t] for v in dense] for t in range(ncols)])
                if data.draw(st.booleans())
                else LinMap.of_columns(vectors, ncols))
        if not independent:
            with pytest.raises(StructureError, match="not injective"):
                lift.left_inverse()
            return
        left = lift.left_inverse()
        assert (left.n_in, left.n_out) == (ncols, d)
        assert all(stores_no_zero(col) for col in left.columns)
        # the entries keep the field of the map's
        assert all(type(x) is type(pool[0])
                   for col in left.columns for x in col.values())
        found = [left.apply(t) for t in targets]
        if d:
            assert found[0] == dict(enumerate(coeffs))
        for target, coords in zip(targets, found):
            want = to_dense(target, ncols, zero)
            inside = len(dense_rref(dense + [want])[1]) == d
            assert (lift.apply(coords) == target) == inside
            if inside:
                assert stores_no_zero(coords)
                assert to_dense(sparse_combination(
                    to_dense(coords, d, zero), vectors), ncols, zero) == want

    def test_sparse_rows_need_the_number_of_unknowns(self):
        with pytest.raises(LinearAlgebraError, match="number of unknowns"):
            solve_affine([{0: SC_ONE}], [SC_ONE])

    def test_left_inverse_of_empty_maps(self):
        # no column: L reads every y as the empty x, which lifts back to y
        # only when y = 0
        empty = LinMap.of_columns([], 2)
        left = empty.left_inverse()
        assert (left.n_in, left.n_out, left.columns) == (2, 0, [{}, {}])
        assert [empty.apply(left.apply(y)) for y in ({}, {1: SC_ONE})] == \
            [{}, {}]
        assert LinMap.of_columns([], 0).left_inverse() == LinMap.identity(0)
        # the columns of a zero map are dependent
        with pytest.raises(StructureError, match="not injective"):
            LinMap.of_columns([{}], 2).left_inverse()

    @settings(max_examples=60, deadline=None)
    @given(sparse_systems(max_rows=4, max_cols=4), st.data())
    def test_invert_matches_the_dense_reference(self, case, data):
        rows, _ncols, pool, zero = case
        n = len(rows)
        if n == 0:
            assert invert([]) == []
            return
        # the drawn rows, cut or padded to n columns, as a square matrix
        one = pool[0] / pool[0]
        dense = [to_dense(row, n, zero) for row in rows]
        reduced, pivots = dense_rref([row + [one if i == j else zero
                                             for j in range(n)]
                                      for i, row in enumerate(dense)])
        inv = invert(dense)
        # the same matrix as sparse rows gives sparse rows
        sparse_inv = invert([to_row(row) for row in dense])
        if pivots[:n] != list(range(n)):
            assert inv is None
            assert sparse_inv is None
            return
        assert inv == [row[n:] for row in reduced]
        assert sparse_inv == [to_row(row) for row in inv]
        assert matmul(dense, inv) == [[one if i == j else zero
                                       for j in range(n)] for i in range(n)]
        if is_gaussian(zero):
            assert to_sympy_matrix(inv) == to_sympy_matrix(dense).inv()


# The structure solves and the one entry point each of them calls.
SOLVE_ENTRIES = [(finalg, "solve_affine"), (haar_modular, "kernel_basis")]


def test_structure_solves_hand_elimination_sparse_rows(monkeypatch):
    """_solve_unit, on A and on the transposed table of
    derive_counit_antipode's counit, and solve_left_haar build their rows as
    dicts that store no zero, on the packaged Hopf examples and two
    s-deformed ones; a dense row builder fails here.  modular_element reads
    delta off one coproduct column and solves nothing."""
    handed = []
    for module, name in SOLVE_ENTRIES:
        def spy(a_rows, *args, _real=getattr(module, name),
                _where="%s.%s" % (module.__name__, name)):
            handed.append((_where, a_rows))
            return _real(a_rows, *args)
        monkeypatch.setattr(module, name, spy)
    hopf = [PACKAGED_QG[name] for name in
            ("c_z2", "c_z4", "c_s3", "group_s3", "sweedler_h4")]
    for qg in hopf + list(DEFORMED_QG.values()):
        finalg._solve_unit(qg.algebra)
        derive_counit_antipode(qg)
        solve_left_haar(qg)
    assert sorted({where for where, _rows in handed}) == sorted(
        "hopf_forge.%s.%s" % (module.__name__.split(".")[-1], name)
        for module, name in SOLVE_ENTRIES)
    for where, rows in handed:
        assert rows, where
        assert all(stores_no_zero(row) for row in rows), where


# -- the no-zero invariant -----------------------------------------------------

# every packaged structure, the benchmark's D6 pair and its twelve
# s-deformed variants, as "name~index"
STORED_CASES = NAMES + ["c_d6", "group_d6"] + [
    "%s~%d" % (name, index) for name in WORKLOADS.DEFORMED_EXAMPLES
    for index in range(WORKLOADS.DEFORM_VARIANTS)]


def stored_elements(case):
    """{name: list of elements} for every element and functional of A that
    the structure, modular and dual stages keep, as far as they succeed."""
    if "~" in case:
        name, index = case.split("~")
        defn = WORKLOADS.deformed_variant(name, int(index))
    elif case in ("c_d6", "group_d6"):
        defn = {d.name: d for d in WORKLOADS.dihedral_definitions(6)}[case]
    else:
        defn = packaged(case)
    qg = build_qg(defn)
    alg = qg.algebra
    found = {"unit": [alg.one]}
    if alg.star is not None:
        found["star"] = alg.star.columns
    tmaps = check_tmaps(qg, defn.counit, defn.antipode)
    if not tmaps.all_bijective or tmaps.error is not None:
        return found
    found["counit"] = [qg.counit]
    found["antipode"] = qg.antipode.columns
    md = compute_modular_data(qg)
    found.update(phi=[md.phi], psi=[md.psi], delta=[md.delta])
    try:
        found["delta-half"] = [delta_square_root(qg, md.delta)]
    except CheckFailure:
        pass
    found["eigentable"] = [row.vector for row in simultaneous_eigenbasis(
        qg, md, positive_mode=False).rows]
    dual = build_dual(qg, md.phi).qg
    found["dual unit"] = [dual.algebra.one]
    found["dual phi"] = [left_haar(dual)]
    return found


@pytest.mark.parametrize("case", STORED_CASES)
def test_stored_elements_hold_no_zero(case):
    """Every check compares elements as dicts, so a stored zero would make
    a true identity fail."""
    found = stored_elements(case)
    want = {"unit", "star"}
    if case != "semilattice2":
        want |= {"counit", "antipode", "phi", "psi", "delta", "delta-half",
                 "eigentable", "dual unit", "dual phi"}
    if case.startswith("sweedler_h4"):
        want.remove("delta-half")  # delta has no positive square root
    assert set(found) == want
    for name, elements in found.items():
        assert elements, (case, name)
        for x in elements:
            assert stores_no_zero(x), (case, name, x)
