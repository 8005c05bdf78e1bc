"""Invariant functionals and modular structure.

Solves the left Haar functional from its invariance law (the solution space
must be one-dimensional), derives the right one as phi after the antipode,
and computes the modular automorphisms from the form of a functional
(finalg.form_map), the modular element and its positive square root, the
scaling constant, the orbit spans as Krylov spaces of kappa, and the
simultaneous eigentable of the five structure maps.  The identities that
define psi, sigma, delta and mu follow from the uniqueness of phi and are
proved in the docstrings below (Van Daele, "An algebraic framework for
group duality", Adv. Math. 140, 1998, section 3), not re-checked on basis
pairs.  The eigentable maps and left multiplication by delta have finite
order, so their eigenvalues are among +-1 and +-i (ROOTS_OF_UNITY): they
split by four exact kernels, with no characteristic polynomial and no
spec point.
"""

from __future__ import annotations

from .errors import CheckFailure, NotFaithful, StructureError
from .exactla import (eigenspaces, invert, kernel_basis, rank, rref,
                      sparse_row)
from .finalg import LinMap, TensorMap, apply_functional, form_map, gram_psd
from .mhopf import CheckItem, CheckReport, QGData
from .scalars import SC_I, SC_ONE, SC_ZERO, Scalar


class ModularData:
    """The objects of compute_modular_data."""

    def __init__(self, phi: dict, psi: dict, sigma: LinMap,
                 sigma_prime: LinMap, delta: dict, kappa: LinMap,
                 mu: Scalar):
        self.phi = phi                  # {i: phi(e_i)}
        self.psi = psi                  # {i: psi(e_i)}
        self.sigma = sigma
        self.sigma_prime = sigma_prime
        self.delta = delta              # {i: c}
        self.kappa = kappa              # sigma^-1 S^2
        self.mu = mu


# ---------------------------------------------------------------------------
# Haar functionals
# ---------------------------------------------------------------------------

def solve_left_haar(qg: QGData) -> dict:
    """Solve (i(x)phi)D(a) = phi(a) 1 over the basis: n^2 rows, n unknowns.

    This is the law (i(x)phi)(D(a)(b(x)1)) = phi(a) b at b = 1, and it gives
    the law at every b, since (i(x)phi)(D(a)(b(x)1)) = ((i(x)phi)D(a)) b.
    That needs alg.one to be the unit, which build_algebra has proved.  The
    homogeneous solution space must have dimension exactly 1; the solution
    is normalized to phi(1) = 1 when possible, otherwise its first nonzero
    value is set to 1.
    """
    alg = qg.algebra
    n = alg.dim
    rows = []
    for k in range(n):
        # coordinate t of sum_{i,j} dk[i,j] phi_j e_i - phi_k 1: coeff[t] is
        # its sparse row in the unknowns phi_j
        coeff = [{} for _ in range(n)]
        for (i, j), c in qg.coproduct.columns[k].items():
            coeff[i][j] = c
        for t, u in alg.one.items():
            coeff[t][k] = coeff[t].get(k, SC_ZERO) - u
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
    at_unit = apply_functional(phi, alg.one)
    inv = (phi[min(phi)] if at_unit.is_zero else at_unit).inverse()
    return {j: inv * x for j, x in phi.items()}


def left_haar(qg: QGData) -> dict:
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


def right_haar(qg: QGData, phi: dict) -> dict:
    """psi = phi after S, that is S^T phi, right invariant by a theorem, not
    a check.

    D(S a) = sum S(a_2) (x) S(a_1): D o S and (S(x)S) o D^op are a left and a
    right convolution inverse of D in the maps A -> A(x)A (Sweedler, Hopf
    Algebras, 1969, ch. 4).  Left invariance of phi at S a then reads
    sum S(a_2) psi(a_1) = psi(a) 1, and S^-1, with S^-1(1) = 1, turns it into
    (psi(x)i)D(a) = psi(a) 1.  The premises are those of the theorem in
    derive_counit_antipode's docstring, checked where it says, and the left
    invariance of phi, solved by solve_left_haar.
    """
    return qg.antipode.transpose().apply(phi)


# ---------------------------------------------------------------------------
# modular automorphism, element, scaling constant
# ---------------------------------------------------------------------------

def modular_automorphism(qg: QGData, omega: dict) -> LinMap:
    """The unique automorphism sigma with omega(ab) = omega(b sigma(a)).

    With B[i][j] = omega(e_i e_j) (finalg.form_map) the relation reads
    B sigma = B^T, so sigma = B^-1 B^T satisfies it exactly, invert being
    exact.  The rest follows from faithfulness, omega(bx) = 0 for all b
    only when x = 0, which is B invertible (the NotFaithful guard below),
    and from associativity (build_algebra):
    - omega(b sigma(1)) = omega(b) for all b, so sigma(1) = 1;
    - omega(c sigma(ab)) = omega(abc) = omega(c sigma(a) sigma(b)) for all
      c, so sigma is multiplicative;
    - sigma is a product of invertible matrices, so it is bijective.
    (Van Daele 1998, section 3.)
    """
    form = form_map(qg.algebra, omega)
    # the rows of (B^T)^-1, reduced from the columns of B, are the columns
    # of B^-1
    b_inv = invert(form.columns)
    if b_inv is None:
        raise NotFaithful(
            "functional is not faithful: its multiplication form is singular")
    return LinMap.of_columns(b_inv, qg.dim).compose(form.transpose())


def modular_element(qg: QGData, phi: dict) -> dict:
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
    if not phi:
        raise StructureError("cannot locate a basis element with phi nonzero")
    a_idx = min(phi)
    inv = phi[a_idx].inverse()
    delta = {}
    for (i, j), c in qg.coproduct.columns[a_idx].items():
        if i in phi:
            delta[j] = delta.get(j, SC_ZERO) + inv * c * phi[i]
    delta = {j: c for j, c in delta.items() if not c.is_zero}
    if alg.star is not None and alg.star.apply(delta) != delta:
        raise StructureError("modular element is not self-adjoint")
    return delta


ROOTS_OF_UNITY = (SC_ONE, -SC_ONE, SC_I, -SC_I)
"""The candidate eigenvalues of the five eigentable maps and of L_delta,
left multiplication by delta, tried in this order: no other value in
Q(i)(s) can be an eigenvalue, because each map has finite order.

- S^2 has finite order (Radford, "The order of the antipode of a finite
  dimensional Hopf algebra is finite", Amer. J. Math. 98, 1976).
- delta is grouplike, D(delta) = delta (x) delta by coassociativity (Van
  Daele 1998, section 3).  The grouplikes are linearly independent, so
  they form a finite group, and L_delta and R_delta have finite order.
- Applying (i(x)eps) to D(sigma a) = (S^2 (x) sigma) D(a), which
  check_sigma_coproduct_rule checks, gives sigma = S^2 T with
  T a = sum a_1 chi(a_2), the translation by the character chi =
  eps o sigma.  chi is grouplike in the dual, so T has finite order, and
  T commutes with S^2 as chi o S^2 = chi.  So sigma has finite order.
- The same rule at delta gives sigma(delta) = chi(delta) delta, so sigma
  commutes with Ad delta = L_delta R_delta^-1, and sigma' = Ad delta o
  sigma (psi(x) = phi(x delta), psi_positivity) has finite order.
- A restriction to an invariant block (split_block) keeps a finite order.

So an eigenvalue is a root of unity in Q(i)(s).  It is algebraic over
Q(i), which a nonconstant rational function is not, so it is a constant
and one of +-1 and +-i, the roots of unity in Q(i).  Where the kernels of
M - lam at these four do not span, they are still all the eigenspaces of
M, those exactla.eigensplit finds, and its failure text is the same.  The
premise, a finite-dimensional Hopf algebra, is what the structure checks
prove before the modular stage runs.
"""


def delta_square_root(qg: QGData, delta: dict) -> dict:
    """The positive square root of delta inside the subalgebra it generates:
    the unit when delta = 1, else the delta-half failure.

    L_delta, left multiplication by delta, splits over the eigenvalues in
    ROOTS_OF_UNITY, and each of them carries a component of delta =
    L_delta(1): the projection onto the lam-eigenspace is a polynomial
    p(L_delta) = L_p(delta), nonzero, so its value lam p(delta) at delta is
    nonzero.  Of +-1 and +-i only 1 has a positive square root, so a square
    root exists exactly when every eigenvalue is 1, that is L_delta = I and
    delta = 1, whose root is 1.  Otherwise the failure names the least
    eigenvalue other than 1.
    """
    alg = qg.algebra
    if delta == alg.one:
        return alg.one
    spaces = eigenspaces(alg.left_mul(delta).matrix, ROOTS_OF_UNITY)
    lam = next(es.value for es in spaces if es.value != SC_ONE)
    raise CheckFailure(
        "delta-half",
        "eigenvalue %s of the modular element has no positive square root "
        "in the scalar field" % lam)


def scaling_constant(qg: QGData, phi: dict) -> Scalar:
    """mu with phi(S^2(a)) = mu phi(a), read at one pivot.

    S^2 is a bijective algebra and coalgebra map, as S is bijective,
    anti-multiplicative and has D(S a) = sum S(a_2) (x) S(a_1) (right_haar's
    docstring).  So (i(x)phi)D(S^2 a) = sum S^2(a_1) phi(S^2(a_2)) =
    phi(S^2 a) 1, and S^-2 makes phi o S^2 left invariant.  phi spans the
    left invariant functionals, so phi o S^2 = mu phi, and mu is the ratio
    at any e_a with phi(e_a) != 0.  The premises are checked where
    derive_counit_antipode's docstring says, and the uniqueness of phi by
    solve_left_haar.  mu = 1 in positive mode is the paper's result, so
    the report asserts it (report._modular_stages).
    """
    if not phi:
        raise StructureError("zero functional has no scaling constant")
    pivot = min(phi)
    return (apply_functional(phi, antipode_squared(qg).columns[pivot])
            * phi[pivot].inverse())


# ---------------------------------------------------------------------------
# orbits and the nonvanishing window
# ---------------------------------------------------------------------------

class OrbitReport(CheckReport):
    def __init__(self, span: list, items: list):
        super().__init__(items)     # CheckItems for the nonvanishing window
        self.span = span            # basis vectors of the invariant span


def orbit_span(md: ModularData, a: dict) -> list:
    """Reduced basis of the span W of the orbit of a under kappa and its
    inverse.

    W is the Krylov space span(a, kappa a, kappa^2 a, ...), complete at the
    first power kappa^m a that lies in the span of the earlier ones: kappa
    then maps span(a, ..., kappa^(m-1) a) into itself.  kappa = sigma^-1 S^2
    is injective, so kappa W = W by dimension, and kappa^-1 W = W.
    """
    n = md.kappa.n_in
    vecs, v = [], a
    while rank(vecs + [v], n) > len(vecs):
        vecs.append(v)
        v = md.kappa.apply(v)
    rref(vecs)
    return vecs


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
            if not alg.multiply(alg.star.columns[b], m.columns[b]):
                failures.append("b = %s, n = %d" % (alg.labels[b], even))
    return [CheckItem(
        "nonvanishing-window", not failures,
        "b*(sigma'^n S^(2n))(b) != 0 for all basis b, even |n| <= %d" % window
        if not failures else "vanishing at " + "; ".join(failures))]


def orbit_analysis(qg: QGData, md: ModularData, a: dict,
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
    def __init__(self, vector: dict, values: dict):
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


def _restrict(m: LinMap, lift: LinMap):
    """Dense matrix L m lift of m on the block, lift's columns, for L =
    lift.left_inverse(), whose premise holds: a block is the standard basis
    or the eigenvectors of one eigenspace of the previous map lifted from
    an independent block, so its vectors are independent."""
    image = m.compose(lift)
    on_block = lift.left_inverse().compose(image)
    if lift.compose(on_block) != image:
        raise StructureError("internal: block is not invariant")
    return on_block.matrix


def split_block(m: LinMap, block: list, split) -> list:
    """The eigenspaces of m on the m-invariant span of block, as
    (eigenvalue, eigenvectors in full coordinates) pairs in the order of
    split, which takes m's dense matrix on the block to its EigenSpaces.
    StructureError when the span is not invariant."""
    lift = LinMap.of_columns(block, m.n_out)
    return [(es.value, [lift.apply(coef) for coef in es.basis])
            for es in split(_restrict(m, lift))]


def simultaneous_eigenbasis(qg: QGData, md: ModularData,
                            positive_mode: bool) -> EigentableReport:
    """Common eigenbasis of sigma, sigma', S^2 and two-sided multiplication
    by delta, split over ROOTS_OF_UNITY.

    In the positive case all five maps must commute and every eigenvalue
    must be positive at every spec point, which among +-1 and +-i only 1
    is (fatal otherwise).  Without positivity the maps are taken greedily in a
    fixed order, each kept only if it commutes with all maps already used,
    and the other eigenvalues become recorded obstructions.
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

    blocks = [([{i: SC_ONE} for i in range(n)], {})]
    for name, m in used:
        nxt = []
        for vecs, values in blocks:
            for value, lifted in split_block(
                    m, vecs, lambda rows: eigenspaces(rows, ROOTS_OF_UNITY)):
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
        bad = [str(values[name]) for _vecs, values in blocks
               if values[name] != SC_ONE]
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
           if qg.delta(md.sigma.columns[k])
           != s2_sigma.apply(qg.coproduct.columns[k])]
    return CheckItem(
        "coproduct-modular-rule", not bad,
        "D(sigma(a)) = (S^2 (x) sigma) D(a) on every basis element"
        if not bad else "fails at " + ", ".join(bad))


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def compute_modular_data(qg: QGData) -> ModularData:
    """The modular pipeline that every structure command runs: phi, psi,
    sigma, sigma', delta, kappa = sigma^-1 S^2 and mu, in that order.

    No step can fail on the qg that report._structure_checks passes on, a
    finite-dimensional Hopf algebra over Q(i)(s), with a compatible star
    when it has one; each step is a theorem there.
    - A left integral phi exists, is unique up to a scalar and is faithful
      (Larson and Sweedler, "An associative orthogonal bilinear form for
      Hopf algebras", Amer. J. Math. 91, 1969): the kernel solve_left_haar
      finds is one-dimensional and the form B of phi is invertible.
    - psi = phi o S is faithful too, as S is bijective.
    - delta is read off one coproduct column, as phi != 0.
    - With a star, delta* = delta.  phi'(x) = conj(phi(x*)) is left
      invariant, as D(a*) = D(a)* and 1* = 1, so phi' = c phi, and
      phi'' = phi gives c conj(c) = 1.  The star of (phi(x)i)D(a) =
      phi(a) delta is (phi'(x)i)D(a*) = conj(phi(a)) delta*, that is
      c phi(a*) delta = c phi(a*) delta*, at an a with phi(a*) != 0.
    - sigma = B^-1 B^T is invertible.
    The identities that define psi, sigma, delta and mu follow from the
    uniqueness of phi (Van Daele 1998, section 3; the docstrings above).
    Each function still checks its own premise (the uniqueness of phi, a
    faithful functional, a self-adjoint delta), so a violated one, a bug,
    ends the command with its error.
    """
    phi = left_haar(qg)
    psi = right_haar(qg, phi)
    sigma = modular_automorphism(qg, phi)
    sigma_prime = modular_automorphism(qg, psi)
    delta = modular_element(qg, phi)
    kappa = sigma.inverse().compose(antipode_squared(qg))
    return ModularData(phi, psi, sigma, sigma_prime, delta, kappa,
                       scaling_constant(qg, phi))
