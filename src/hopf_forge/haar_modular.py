"""Invariant functionals and modular structure.

Solves the left Haar functional from its invariance law (the solution space
must be one-dimensional), derives the right one as phi after the antipode,
and computes the modular automorphisms, the modular element and its positive
square root, the scaling constant, and the simultaneous eigentable of the
five structure maps.  The identities that define psi, sigma, delta and mu
follow from the uniqueness of phi and are proved in the docstrings below
(Van Daele, "An algebraic framework for group duality", Adv. Math. 140,
1998, section 3), not re-checked on basis pairs.
"""

from __future__ import annotations

import math

from .errors import CheckFailure, HopfForgeError, NotFaithful, StructureError
from .exactla import (coordinates, dense_row, eigensplit, invert, kernel_basis,
                      rank, rref, sparse_row)
from .finalg import (LinMap, apply_functional, basis_vector, gram_psd,
                     vec_combination, vec_is_zero, zero_vector)
from .mhopf import CheckItem, CheckReport, QGData, TensorMap
from .scalars import GaussRat, SC_ONE, SC_ZERO, Scalar


class HaarSolution:
    def __init__(self, phi: list, dimension: int):
        self.phi = phi
        self.dimension = dimension  # of the full solution space (must be 1)


class ModularData:
    """The objects of compute_modular_data, filled in stage by stage.  In
    the data of a ModularStageFailure only the fields of the stages before
    the failed one are to be read."""

    def __init__(self):
        self.phi = None             # list
        self.psi = None             # list
        self.sigma = None           # LinMap
        self.sigma_prime = None     # LinMap
        self.delta = None           # list
        self.kappa = None           # LinMap
        self.kappa_inv = None       # LinMap
        self.mu = None              # Scalar


MODULAR_STAGES = ("haar-functional", "right-invariance",
                  "modular-automorphism", "modular-element",
                  "scaling-constant")


class ModularStageFailure(CheckFailure):
    """A failed stage of compute_modular_data, read as its cause: the
    cause's own check name (else the stage's) and message.  data holds what
    the stages before it computed."""

    def __init__(self, stage: str, cause: HopfForgeError, data: ModularData):
        HopfForgeError.__init__(self, str(cause))
        self.check = getattr(cause, "check", stage)
        self.stage = stage
        self.data = data


# ---------------------------------------------------------------------------
# Haar functionals
# ---------------------------------------------------------------------------

def solve_left_haar(qg: QGData) -> HaarSolution:
    """Solve (i(x)phi)(D(a)(b(x)1)) = phi(a) b over all basis pairs.

    The homogeneous solution space must have dimension exactly 1; the
    solution is normalized to phi(1) = 1 when possible, otherwise its first
    nonzero value is set to 1.
    """
    alg = qg.algebra
    n = alg.dim
    rows = []
    for k in range(n):
        dk = qg.coproduct.columns[k]
        for b in range(n):
            # sum_{i,j} dk[i,j] phi_j (e_i e_b) = phi_k e_b, coordinatewise:
            # coeff[t] is the sparse row of coordinate t in the unknowns phi_j
            coeff = [{} for _ in range(n)]
            for (i, j), c in dk.items():
                for t, m in alg.mul.get((i, b), {}).items():
                    coeff[t][j] = coeff[t].get(j, SC_ZERO) + c * m
            coeff[b][k] = coeff[b].get(k, SC_ZERO) - SC_ONE
            # a zero row states nothing about a kernel
            rows += [row for row in map(sparse_row, coeff) if row]
    kern = kernel_basis(rows, n)
    dim = len(kern)
    if dim == 0:
        raise StructureError("left invariance admits no nonzero functional")
    if dim > 1:
        raise StructureError(
            "left Haar functional is not unique (solution space dimension %d)"
            % dim)
    phi = kern[0]
    at_unit = apply_functional(phi, alg.unit)
    if not at_unit.is_zero:
        inv = at_unit.inverse()
    else:
        lead = next(x for x in phi if not x.is_zero)
        inv = lead.inverse()
    phi = [inv * x for x in phi]
    return HaarSolution(phi, dim)


def left_haar(qg: QGData) -> HaarSolution:
    """The left Haar functional of qg, solved once and kept on qg.

    The algebra and the coproduct do not change after attach_coproduct, so
    every later stage reads the same solution; none of them may mutate it.
    """
    if qg.haar is None:
        qg.haar = solve_left_haar(qg)
    return qg.haar


def antipode_squared(qg: QGData) -> LinMap:
    """S^2 of qg, composed once and kept on qg; no caller may mutate it."""
    if qg.antipode_sq is None:
        qg.antipode_sq = qg.antipode.compose(qg.antipode)
    return qg.antipode_sq


def right_haar(qg: QGData, phi: list) -> list:
    """psi = phi after S, right invariant by a theorem, not a check.

    D(S a) = sum S(a_2) (x) S(a_1): D o S and (S(x)S) o D^op are a left and a
    right convolution inverse of D in the maps A -> A(x)A (Sweedler, Hopf
    Algebras, 1969, ch. 4).  Left invariance of phi at S a then reads
    sum S(a_2) psi(a_1) = psi(a) 1, and S^-1, with S^-1(1) = 1, turns it into
    (psi(x)i)D(a) = psi(a) 1.  The premises are those of the theorem in
    derive_counit_antipode's docstring, checked where it says, and the left
    invariance of phi, solved by solve_left_haar.
    """
    alg = qg.algebra
    return [apply_functional(phi, qg.antipode.apply(alg.basis(i)))
            for i in range(alg.dim)]


# ---------------------------------------------------------------------------
# modular automorphism, element, scaling constant
# ---------------------------------------------------------------------------

def modular_automorphism(qg: QGData, omega: list) -> LinMap:
    """The unique automorphism sigma with omega(ab) = omega(b sigma(a)).

    With B[i][j] = omega(e_i e_j) the relation reads B sigma = B^T, so
    sigma = B^-1 B^T satisfies it exactly, invert being exact.  The rest
    follows from faithfulness, omega(bx) = 0 for all b only when x = 0,
    which is B invertible (the NotFaithful guard below), and from
    associativity (build_algebra):
    - omega(b sigma(1)) = omega(b) for all b, so sigma(1) = 1;
    - omega(c sigma(ab)) = omega(abc) = omega(c sigma(a) sigma(b)) for all
      c, so sigma is multiplicative;
    - sigma is a product of invertible matrices, so it is bijective.
    (Van Daele 1998, section 3.)
    """
    n = qg.dim
    b_mat = [[SC_ZERO] * n for _ in range(n)]
    for (i, j), ent in qg.algebra.mul.items():
        b_mat[i][j] = sum((omega[t] * m for t, m in ent.items()), SC_ZERO)
    b_inv = invert(b_mat)
    if b_inv is None:
        raise NotFaithful(
            "functional is not faithful: its multiplication form is singular")
    # column i of sigma is B^-1 applied to row i of B
    return LinMap(b_inv).compose(LinMap.from_images(b_mat))


def modular_element(qg: QGData, phi: list) -> list:
    """delta with (phi(x)i)D(a) = phi(a) delta, read off one coproduct column.

    For any functional w, a -> (phi(x)w)D(a) is left invariant by
    coassociativity: (i(x)phi(x)w)(D(x)i)D(a) = sum (i(x)phi)D(a_1) w(a_2) =
    (phi(x)w)D(a) 1.  phi spans the left invariant functionals, so
    (phi(x)w)D = w(delta) phi for one delta, and delta is
    phi(e_a)^-1 (phi(x)i)D(e_a) at any e_a with phi(e_a) != 0.  Multiplying
    by b on the right or on the left gives both intertwining laws on every
    pair: (phi(x)i)(D(a)(1(x)b)) = phi(a) delta b and
    (phi(x)i)((1(x)b)D(a)) = phi(a) b delta (Van Daele 1998, section 3).
    Coassociativity is checked by attach_coproduct; every caller passes the
    phi of left_haar, whose uniqueness solve_left_haar checks.
    """
    alg = qg.algebra
    n = alg.dim
    a_idx = next((i for i in range(n) if not phi[i].is_zero), None)
    if a_idx is None:
        raise StructureError("cannot locate a basis element with phi nonzero")
    inv = phi[a_idx].inverse()
    delta = zero_vector(n)
    for (i, j), c in qg.coproduct.columns[a_idx].items():
        delta[j] = delta[j] + inv * c * phi[i]
    if alg.star is not None and alg.apply_star(delta) != delta:
        raise StructureError("modular element is not self-adjoint")
    return delta


def _monomial_parts(sc: Scalar):
    """(r, k) with sc = r * s^k for a monomial scalar, else None."""
    num, den = sc.num, sc.den
    if not num:
        return None
    if any(not c.is_zero for c in num[:-1]):
        return None
    if any(not c.is_zero for c in den[:-1]):
        return None
    r = num[-1] / den[-1]
    return r, (len(num) - 1) - (len(den) - 1)


def _positive_sqrt(value: Scalar):
    """Exact positive square root r^(1/2) s^(k/2) of a monomial, or None."""
    parts = _monomial_parts(value)
    if parts is None:
        return None
    r, k = parts
    if r.b != 0 or r.a <= 0 or k % 2 != 0:
        return None
    ra = math.isqrt(r.a)
    rd = math.isqrt(r.d)
    if ra * ra != r.a or rd * rd != r.d:
        return None
    return Scalar.const(GaussRat(ra, 0, rd)) * Scalar.s_power(k // 2)


def delta_square_root(qg: QGData, delta: list, sigma: LinMap,
                      spec_points) -> list:
    """The positive square root of delta inside the subalgebra it generates.

    Diagonalize left multiplication by delta, keep the eigenvalues that
    actually carry a component of delta, and evaluate the interpolation
    polynomial sending each eigenvalue to its positive square root on delta
    itself.  Its square is exactly delta because the defect polynomial is a
    multiple of delta's minimal polynomial.  delta's coordinates on the
    eigenvectors come from exactla.coordinates, whose premise holds: the
    eigenspace bases are independent and belong to distinct eigenvalues.
    """
    alg = qg.algebra
    n = alg.dim
    spaces = eigensplit(alg.left_mul(delta).matrix, spec_points)
    coords = coordinates([v for es in spaces for v in es.basis], [delta])[0]
    if coords is None:
        raise StructureError("internal: eigenbasis does not span")
    # delta has a component in an eigenspace exactly when one of its
    # coordinates there is nonzero, the eigenvectors being independent
    present = []
    start = 0
    for es in spaces:
        if any(not c.is_zero for c in coords[start:start + len(es.basis)]):
            present.append(es.value)
        start += len(es.basis)
    roots = {}
    for lam in present:
        rt = _positive_sqrt(lam)
        if rt is None:
            raise CheckFailure(
                "delta-half",
                "eigenvalue %s of the modular element has no positive "
                "square root in the scalar field" % lam)
        roots[lam] = rt
    # Lagrange interpolation p with p(lam) = sqrt(lam) on present eigenvalues
    coeffs = [SC_ZERO] * len(present)
    for lam in present:
        basis_poly = [SC_ONE]
        denom = SC_ONE
        for other in present:
            if other == lam:
                continue
            # multiply basis_poly by (t - other)
            nxt = [SC_ZERO] * (len(basis_poly) + 1)
            for p_i, c in enumerate(basis_poly):
                nxt[p_i] = nxt[p_i] - c * other
                nxt[p_i + 1] = nxt[p_i + 1] + c
            basis_poly = nxt
            denom = denom * (lam - other)
        w = roots[lam] * denom.inverse()
        for p_i, c in enumerate(basis_poly):
            coeffs[p_i] = coeffs[p_i] + w * c
    power = list(alg.unit)
    half = zero_vector(n)
    for c in coeffs:
        if not c.is_zero:
            half = [x + c * y for x, y in zip(half, power)]
        power = alg.multiply(power, delta)
    if alg.multiply(half, half) != delta:
        raise StructureError("internal: square of the interpolant is not delta")
    if sigma.apply(half) != half:
        raise CheckFailure("delta-half",
                           "modular map does not fix the square root of delta")
    return half


def scaling_constant(qg: QGData, phi: list, assert_one: bool) -> Scalar:
    """mu with phi(S^2(a)) = mu phi(a), read at one pivot.

    S^2 is a bijective algebra and coalgebra map, as S is bijective,
    anti-multiplicative and has D(S a) = sum S(a_2) (x) S(a_1) (right_haar's
    docstring).  So (i(x)phi)D(S^2 a) = sum S^2(a_1) phi(S^2(a_2)) =
    phi(S^2 a) 1, and S^-2 makes phi o S^2 left invariant.  phi spans the
    left invariant functionals, so phi o S^2 = mu phi, and mu is the ratio
    at any e_a with phi(e_a) != 0.  The premises are checked where
    derive_counit_antipode's docstring says, and the uniqueness of phi by
    solve_left_haar.  mu = 1 in positive mode is the paper's result, so it
    stays a verdict.
    """
    alg = qg.algebra
    pivot = next((i for i in range(alg.dim) if not phi[i].is_zero), None)
    if pivot is None:
        raise StructureError("zero functional has no scaling constant")
    mu = (apply_functional(phi, antipode_squared(qg).apply(alg.basis(pivot)))
          * phi[pivot].inverse())
    if assert_one and mu != SC_ONE:
        raise CheckFailure(
            "scaling-constant",
            "positive case requires mu = 1 but mu = %s" % mu)
    return mu


# ---------------------------------------------------------------------------
# orbits and the nonvanishing window
# ---------------------------------------------------------------------------

class OrbitReport(CheckReport):
    def __init__(self, span: list, items: list):
        super().__init__(items)     # CheckItems for the nonvanishing window
        self.span = span            # basis vectors of the invariant span


def orbit_span(md: ModularData, a: list) -> list:
    """Basis of the span of the kappa-orbit of a (kappa and its inverse)."""
    n = len(a)
    vecs = [list(a)]
    current_rank = rank(vecs)
    changed = True
    while changed and current_rank < n:
        changed = False
        for m in (md.kappa, md.kappa_inv):
            for v in list(vecs):
                img = m.apply(v)
                if rank(vecs + [img]) > current_rank:
                    vecs.append(img)
                    current_rank += 1
                    changed = True
    reduced = [sparse_row(v) for v in vecs]
    rref(reduced)
    return [dense_row(r, n, SC_ZERO) for r in reduced if r]


def nonvanishing_window(qg: QGData, md: ModularData, window: int = 4) -> list:
    """The check b* (sigma'^n S^(2n))(b) != 0 for every basis b and even
    |n| <= window, as a one-item list of CheckItems."""
    alg = qg.algebra
    n = alg.dim
    if alg.star is None:
        return [CheckItem("nonvanishing-window", True,
                          "skipped: no star structure")]
    s2 = antipode_squared(qg)
    sp = md.sigma_prime
    sp_inv = sp.inverse()
    s2_inv = s2.inverse()
    failures = []
    for even in range(-window, window + 1, 2):
        m = LinMap.identity(n)
        sp_step = sp if even > 0 else sp_inv
        s2_step = s2 if even > 0 else s2_inv
        for _ in range(abs(even)):
            m = sp_step.compose(m)
        for _ in range(abs(even)):
            m = m.compose(s2_step)
        for b in range(n):
            prod = alg.multiply(alg.apply_star(alg.basis(b)),
                                m.apply(alg.basis(b)))
            if vec_is_zero(prod):
                failures.append("b = %s, n = %d" % (alg.labels[b], even))
    return [CheckItem(
        "nonvanishing-window", not failures,
        "b*(sigma'^n S^(2n))(b) != 0 for all basis b, even |n| <= %d" % window
        if not failures else "vanishing at " + "; ".join(failures))]


def orbit_analysis(qg: QGData, md: ModularData, a: list,
                   window: int = 4) -> OrbitReport:
    """Span of the kappa-orbit of a, plus the nonvanishing window (which
    does not depend on a)."""
    return OrbitReport(orbit_span(md, a), nonvanishing_window(qg, md, window))


# ---------------------------------------------------------------------------
# simultaneous eigentable
# ---------------------------------------------------------------------------

FIVE_MAP_NAMES = ("sigma", "sigma_prime", "antipode-squared",
                  "left-mult-delta", "right-mult-delta")


class EigenRow:
    def __init__(self, vector: list, values: dict):
        self.vector = vector
        self.values = values        # map name -> Scalar


class EigentableReport:
    def __init__(self, rows: list, used_maps: list, skipped: list,
                 positivity: list):
        self.rows = rows
        self.used_maps = used_maps
        self.skipped = skipped          # (name, reason)
        self.positivity = positivity    # CheckItems

    @property
    def all_positive(self) -> bool:
        return all(it.ok for it in self.positivity)


def _commutes(a: LinMap, b: LinMap) -> bool:
    return a.compose(b) == b.compose(a)


def _restrict(m: LinMap, block):
    """Matrix of m on span(block) in the block's own coordinates, read by
    exactla.coordinates.  Its premise holds: a block is the standard basis
    or the eigenvectors of one eigenspace of the previous map lifted from
    an independent block, so its vectors are independent.
    """
    coords = coordinates(block, [m.apply(v) for v in block])
    if None in coords:
        raise StructureError("internal: block is not invariant")
    return [list(row) for row in zip(*coords)]


def split_block(m: LinMap, block: list, spec_points) -> list:
    """The eigenspaces of m on the m-invariant span of block, as
    (eigenvalue, eigenvectors in full coordinates) pairs in eigensplit's
    order.  StructureError when the span is not invariant."""
    n = len(block[0])
    return [(es.value, [vec_combination(coef, block, n) for coef in es.basis])
            for es in eigensplit(_restrict(m, block), spec_points)]


def simultaneous_eigenbasis(qg: QGData, md: ModularData, spec_points,
                            positive_mode: bool) -> EigentableReport:
    """Common eigenbasis of sigma, sigma', S^2 and two-sided multiplication
    by delta.

    In the positive case all five maps must commute and every eigenvalue
    must be self-adjoint and positive at every configured point (fatal
    otherwise).  Without positivity the maps are taken greedily in a fixed
    order, each kept only if it commutes with all maps already used, and
    non-positive eigenvalues become recorded obstructions.
    """
    alg = qg.algebra
    n = alg.dim
    five = [
        (FIVE_MAP_NAMES[0], md.sigma),
        (FIVE_MAP_NAMES[1], md.sigma_prime),
        (FIVE_MAP_NAMES[2], antipode_squared(qg)),
        (FIVE_MAP_NAMES[3], alg.left_mul(md.delta)),
        (FIVE_MAP_NAMES[4], alg.right_mul(md.delta)),
    ]
    used = []
    skipped = []
    for name, m in five:
        clash = next((uname for uname, um in used if not _commutes(m, um)), None)
        if clash is None:
            used.append((name, m))
        else:
            if positive_mode:
                raise CheckFailure(
                    "eigentable",
                    "%s does not commute with %s" % (name, clash))
            skipped.append((name, "does not commute with %s" % clash))

    blocks = [([basis_vector(n, i) for i in range(n)], {})]
    for name, m in used:
        nxt = []
        for vecs, values in blocks:
            for value, lifted in split_block(m, vecs, spec_points):
                tagged = dict(values)
                tagged[name] = value
                nxt.append((lifted, tagged))
        blocks = nxt

    rows = []
    for vecs, values in blocks:
        for v in vecs:
            rows.append(EigenRow(v, dict(values)))

    positivity = []
    for name, _m in used:
        bad = []
        for vecs, values in blocks:
            lam = values[name]
            ok = lam.is_self_adjoint()
            if ok:
                for p in spec_points:
                    if lam.substitute(p).sign() <= 0:
                        ok = False
                        break
            if not ok:
                bad.append(str(lam))
        item = CheckItem(
            "positivity " + name, not bad,
            "all eigenvalues positive at every spec point" if not bad
            else "non-positive eigenvalue(s): " + ", ".join(sorted(set(bad))))
        positivity.append(item)
        if positive_mode and bad:
            raise CheckFailure("eigentable", item.detail)
    return EigentableReport(rows, [name for name, _ in used], skipped,
                            positivity)


# ---------------------------------------------------------------------------
# psi positivity and the coproduct commutation rule
# ---------------------------------------------------------------------------

def psi_positivity(qg: QGData, md: ModularData, spec_points):
    """The psi-Gram verdict; psi(a* b) = phi(a* b delta) is a theorem.

    psi(x) = phi(S x) = phi(x delta) (Van Daele 1998, section 3): inserting
    sum S(a_1) a_2 (x) a_3 = 1 (x) a and using left invariance,
    sum b_1 phi(a b_2) = sum S(a_1) (i(x)phi)D(a_2 b) = sum S(a_1) phi(a_2 b).
    phi of the left side is phi(a (phi(x)i)D(b)) = phi(b) phi(a delta), and
    of the right side (psi(x)phi)(D(a)(1(x)b)) = psi(a) phi(b) by right
    invariance; take phi(b) != 0.  The premises are the antipode and counit
    laws and coassociativity (derive_counit_antipode, attach_coproduct), the
    right invariance of psi (right_haar) and the law defining delta
    (modular_element).
    """
    return gram_psd(qg.algebra, md.psi, spec_points)


def check_sigma_coproduct_rule(qg: QGData, md: ModularData) -> CheckItem:
    """D(sigma(a)) = (S^2 (x) sigma)(D(a)) on every basis element."""
    alg = qg.algebra
    n = alg.dim
    s2_sigma = TensorMap(antipode_squared(qg), md.sigma)
    bad = [alg.labels[k] for k in range(n)
           if qg.delta(md.sigma.apply(alg.basis(k)))
           != s2_sigma.apply_terms(qg.coproduct.columns[k].items())]
    return CheckItem(
        "coproduct-modular-rule", not bad,
        "D(sigma(a)) = (S^2 (x) sigma) D(a) on every basis element"
        if not bad else "fails at " + ", ".join(bad))


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def compute_modular_data(qg: QGData, positive_mode: bool) -> ModularData:
    """The modular pipeline that every structure command runs.

    Its stages, in MODULAR_STAGES order, give phi, psi, sigma and sigma',
    delta with kappa = sigma^-1 S^2 and its inverse, and mu, which must be
    1 in positive mode.  A failing stage raises ModularStageFailure with the
    data of the stages before it.
    """
    md = ModularData()
    stage = "haar-functional"
    try:
        md.phi = left_haar(qg).phi
        stage = "right-invariance"
        md.psi = right_haar(qg, md.phi)
        stage = "modular-automorphism"
        md.sigma = modular_automorphism(qg, md.phi)
        md.sigma_prime = modular_automorphism(qg, md.psi)
        stage = "modular-element"
        md.delta = modular_element(qg, md.phi)
        md.kappa = md.sigma.inverse().compose(antipode_squared(qg))
        md.kappa_inv = md.kappa.inverse()
        stage = "scaling-constant"
        md.mu = scaling_constant(qg, md.phi, assert_one=positive_mode)
    except HopfForgeError as exc:
        raise ModularStageFailure(stage, exc, md) from exc
    return md
