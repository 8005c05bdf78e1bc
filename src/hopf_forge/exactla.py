"""Exact linear algebra over the scalar field and its Gaussian rational core.

Row reduction, affine solving, characteristic polynomials, roots in Q(i)
by Hensel lifting (no integer is factored), eigenvalue splitting with the
r*s^k ansatz, and Hermitian positivity certificates.  All routines are
exact, on GaussRat (constant work) or Scalar (s-dependent work) entries.
Elimination runs on sparse rows, {column: value} dicts that store no
zeros, and takes a dense list row as well (sparse_row); the other routines
take dense lists of lists.  The generic routines only use +, -, *,
inverse(), is_zero and conjugate(), which both element types provide.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from .scalars import (_MOD_P, GR_ONE, GR_ZERO, RANK_POINTS, SC_ONE, SC_ZERO,
                      GaussRat, Scalar, ScalarError, image_mod_p, pdivmod,
                      peval, pgcd, pmonic, ptrim)


class LinearAlgebraError(ScalarError):
    pass


class NotDiagonalizableOverField(LinearAlgebraError):
    """Confirmed eigenspaces do not span; carries what was found."""

    def __init__(self, message, found=None, residual_dimension=0):
        super().__init__(message)
        self.found = found or []
        self.residual_dimension = residual_dimension


def _one_like(x):
    return GR_ONE if isinstance(x, GaussRat) else SC_ONE


def _zero_like(x):
    return GR_ZERO if isinstance(x, GaussRat) else SC_ZERO


def _from_int_like(x, k: int):
    return GaussRat(k) if isinstance(x, GaussRat) else Scalar.from_int(k)


# ---------------------------------------------------------------------------
# dense matrix helpers
# ---------------------------------------------------------------------------

def mat_copy(rows):
    return [list(r) for r in rows]


def identity_matrix(n: int, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def matmul(a, b):
    n, m = len(a), len(b[0])
    inner = len(b)
    zero = _zero_like(a[0][0])
    out = [[zero] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik.is_zero:
                continue
            bk = b[k]
            for j in range(m):
                if not bk[j].is_zero:
                    oi[j] = oi[j] + aik * bk[j]
    return out


def matvec(a, v):
    zero = _zero_like(a[0][0]) if a and a[0] else _zero_like(v[0])
    out = []
    for row in a:
        acc = zero
        for x, y in zip(row, v):
            if not (x.is_zero or y.is_zero):
                acc = acc + x * y
        out.append(acc)
    return out


def sparse_row(row) -> dict:
    """row as a new {column: value} dict that stores no zero; row is a dense
    list or such a dict."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {j: x for j, x in items if not x.is_zero}


def dense_row(row: dict, ncols: int, zero) -> list:
    return [row.get(j, zero) for j in range(ncols)]


def _subtract(row: dict, f, prow: dict, skip: int) -> None:
    """row -= f * prow in place, outside column skip; zeros are dropped."""
    for j, v in prow.items():
        if j != skip:
            x = row[j] - f * v if j in row else -(f * v)
            if x.is_zero:
                del row[j]
            else:
                row[j] = x


def rref(rows):
    """In-place reduced row echelon form; returns the pivot column list.

    rows are dense lists or sparse dicts and come back in the form they were
    given in, pivot rows first; the caller's row objects are not written to.
    Each incoming row is reduced by the pivot rows found so far, scaled to
    lead with 1, and its leading column is cleared from the earlier pivot
    rows.  Each pivot row then leads with its own column and is zero in the
    others, which makes them the unique reduced echelon basis.
    """
    pivots = {}  # pivot column -> its row
    for row in rows:
        row = sparse_row(row)
        for c in [c for c in row if c in pivots]:
            _subtract(row, row.pop(c), pivots[c], c)
        if not row:
            continue
        lead = min(row)
        inv = row[lead].inverse()
        row = {j: x * inv for j, x in row.items()}
        for prow in pivots.values():
            if lead in prow:
                _subtract(prow, prow.pop(lead), row, lead)
        pivots[lead] = row
    order = sorted(pivots)
    reduced = [pivots[c] for c in order] + [
        {} for _ in range(len(rows) - len(order))]
    if rows and isinstance(rows[0], list):
        ncols = len(rows[0])
        zero = _zero_like(rows[0][0]) if ncols else None
        reduced = [dense_row(row, ncols, zero) for row in reduced]
    rows[:] = reduced
    return order


def rank_mod_p(rows) -> int:
    """Rank over Z/p of rows given as sparse {column: residue} dicts.

    Each row is reduced by the pivot rows found so far, leading column
    first, and becomes a new pivot row unless it reduces to zero.
    """
    p = _MOD_P
    pivots = {}  # leading column -> its row, scaled to lead with 1
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {j: v * inv % p for j, v in row.items()}
                break
            f = row[c]
            for j, v in prow.items():
                w = (row.get(j, 0) - f * v) % p
                if w:
                    row[j] = w
                else:
                    row.pop(j, None)
    return len(pivots)


def terms_mod_p(terms, s0: int):
    """{key: image at s0} over the (key, x) pairs of terms whose image is
    nonzero, or None when some x has no image there."""
    out = {}
    for key, x in terms:
        if x.is_zero:
            continue
        v = image_mod_p(x, s0)
        if v is None:
            return None
        if v:
            out[key] = v
    return out


def rank(rows) -> int:
    """Rank over Q(i)(s), certified mod p where the rank is full.

    At the first point s0 of RANK_POINTS where every entry has an image
    under phi (scalars.image_mod_p), a rank of min(m, n) there is returned
    as it stands; any other outcome, or no such point, runs the exact rref.
    Soundness:
    - Let R be the local ring of Z[i]_(pi)[s] at the kernel of s -> s0,
      i -> iota, with pi the prime of Z[i] over p that contains i - iota.
      Then phi: R -> Z/p is a ring map.
    - Every entry of the matrix M lies in R, so phi(M) is defined, and a
      minor of phi(M) is phi of the same minor of M.
    - A nonzero minor of phi(M) is therefore phi of a nonzero minor of M,
      so rank phi(M) <= rank M <= min(m, n).  A full rank mod p is a
      proof; a smaller one proves nothing.
    """
    if not rows or not rows[0]:
        return 0
    full = min(len(rows), len(rows[0]))
    for s0 in RANK_POINTS:
        image = [terms_mod_p(enumerate(row), s0) for row in rows]
        if None not in image:
            if rank_mod_p(image) == full:
                return full
            break
    return len(rref(list(rows)))


class SolutionSpace:
    """Affine solution set {particular + span(kernel)}; empty when particular is None."""

    def __init__(self, particular: list | None, kernel: list):
        self.particular = particular
        self.kernel = kernel

    @property
    def is_empty(self) -> bool:
        return self.particular is None

    @property
    def dimension(self) -> int:
        return -1 if self.particular is None else len(self.kernel)


def solve_affine(a_rows, rhs, ncols=None) -> SolutionSpace:
    """Exact solution space of A x = rhs (kernel always that of A), as
    dense vectors over the field of rhs.  A's rows are dense lists, or
    sparse dicts given with ncols, the number of unknowns."""
    if ncols is None:
        if a_rows and isinstance(a_rows[0], dict):
            raise LinearAlgebraError("sparse rows need the number of unknowns")
        ncols = len(a_rows[0]) if a_rows else 0
    sample = rhs[0] if rhs else SC_ZERO
    zero, one = _zero_like(sample), _one_like(sample)
    aug = []
    for row, b in zip(a_rows, rhs):
        row = sparse_row(row)
        if not b.is_zero:
            row[ncols] = b
        aug.append(row)
    prows = dict(zip(rref(aug), aug))
    # free column fc gives the kernel vector e_fc - sum_c row_c[fc] e_c
    free = {fc: {fc: one} for fc in range(ncols) if fc not in prows}
    for c, row in prows.items():
        for j, x in row.items():
            if j in free:
                free[j][c] = -x
    kernel = [dense_row(v, ncols, zero) for v in free.values()]
    if ncols in prows:
        return SolutionSpace(None, kernel)
    part = {c: row[ncols] for c, row in prows.items() if ncols in row}
    return SolutionSpace(dense_row(part, ncols, zero), kernel)


def coordinates(vectors, targets) -> list:
    """Each target's coordinates on the linearly independent vectors, or
    None for a target outside their span.

    The vectors and targets are dense lists or sparse dicts.  The columns
    [vectors | targets] are reduced once, as one sparse row per coordinate.
    The vectors are independent exactly when the first len(vectors) pivots
    are their own columns; a target then lies in their span exactly when
    its reduced column is zero below row len(vectors), and its rows above
    that are its coordinates.  Raises LinearAlgebraError when the vectors
    are dependent.
    """
    d = len(vectors)
    by_coordinate = {}
    for k, v in enumerate(chain(vectors, targets)):
        for t, x in sparse_row(v).items():
            by_coordinate.setdefault(t, {})[k] = x
    aug = list(by_coordinate.values())
    if rref(aug)[:d] != list(range(d)):
        raise LinearAlgebraError(
            "coordinates need linearly independent vectors")
    outside = set(chain.from_iterable(aug[d:]))
    zero = _zero_like(aug[0][0]) if d else None
    return [None if c in outside else [row.get(c, zero) for row in aug[:d]]
            for c in range(d, d + len(targets))]


def kernel_basis(a_rows, ncols=None):
    """Kernel of A as for solve_affine, over the field of A's first stored
    entry (Q(i)(s) when there is none)."""
    sample = next((x for row in a_rows
                   for x in (row.values() if isinstance(row, dict) else row)),
                  SC_ZERO)
    return solve_affine(a_rows, [_zero_like(sample)] * len(a_rows),
                        ncols).kernel


def invert(a_rows):
    """Exact inverse of a dense square matrix, dense, or None when singular."""
    n = len(a_rows)
    if n == 0:
        return []
    one, zero = _one_like(a_rows[0][0]), _zero_like(a_rows[0][0])
    aug = []
    for i, row in enumerate(a_rows):
        row = sparse_row(row)
        row[n + i] = one
        aug.append(row)
    if rref(aug) != list(range(n)):
        return None
    return [[row.get(n + j, zero) for j in range(n)] for row in aug]


def charpoly(a_rows):
    """Monic characteristic polynomial coefficients, index = power of t.

    Faddeev-LeVerrier; exact over any characteristic-zero field element type.
    """
    n = len(a_rows)
    sample = a_rows[0][0]
    one, zero = _one_like(sample), _zero_like(sample)
    coeffs = [zero] * (n + 1)
    coeffs[n] = one
    acc = identity_matrix(n, one, zero)
    for k in range(1, n + 1):
        acc = matmul(a_rows, acc)
        tr = zero
        for i in range(n):
            tr = tr + acc[i][i]
        ck = -(tr * _from_int_like(sample, k).inverse())
        coeffs[n - k] = ck
        for i in range(n):
            acc[i][i] = acc[i][i] + ck
    return coeffs


# ---------------------------------------------------------------------------
# roots in Q(i), by Hensel lifting in Z[i]/p^k
# ---------------------------------------------------------------------------

def _eval_mod(cs, a: int, b: int, m: int) -> tuple:
    """cs(a + b*i) mod m, for coefficients cs given as (real, imaginary)
    integer pairs, lowest power first."""
    u = v = 0
    for cr, ci in reversed(cs):
        u, v = (u * a - v * b + cr) % m, (u * b + v * a + ci) % m
    return u, v


def _simple_roots_mod_p(g, dg) -> tuple:
    """(p, the roots of g mod p in Z[i]/p) for the smallest prime p = 3
    (mod 4) at which each such root r is simple, dg(r) != 0 mod p."""
    p = -1
    while True:
        p += 4
        if any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
            continue
        gp = [(a % p, b % p) for a, b in g]
        roots = [(a, b) for a in range(p) for b in range(p)
                 if _eval_mod(gp, a, b, p) == (0, 0)]
        if any(_eval_mod(dg, a, b, p) == (0, 0) for a, b in roots):
            continue
        return p, roots


def _newton_step(g, dg, r, m: int) -> tuple:
    """r - g(r)/dg(r) mod m."""
    v, w = _eval_mod(g, *r, m), _eval_mod(dg, *r, m)
    inv = pow(w[0] * w[0] + w[1] * w[1], -1, m)
    return ((r[0] - (v[0] * w[0] + v[1] * w[1]) * inv) % m,
            (r[1] - (v[1] * w[0] - v[0] * w[1]) * inv) % m)


def rational_roots(coeffs: list) -> tuple:
    """Roots of a GaussRat-coefficient polynomial that lie in Q(i).

    Returns ([(root, multiplicity), ...], residual_degree) where residual
    is the degree left unsplit after removing all Q(i) roots, the roots
    sorted by GaussRat.sort_key.  No integer is factored; the roots are
    found by p-adic lifting (Loos, SIAM J. Comput. 12, 1983; von zur
    Gathen & Gerhard, Modern Computer Algebra, ch. 15):
    - h = monic f / gcd(f, f') has the roots of f, each once; it is
      square-free by construction.
    - With D the lcm of h's coefficient denominators and n = deg h,
      g(y) = D^n h(y/D) is monic over Z[i].  Z[i] is integrally closed, so
      every root of g in Q(i) is a Gaussian integer y, and by Cauchy's
      bound |y| < B = 1 + max_k (|Re g_k| + |Im g_k|).
    - A prime p = 3 (mod 4) is inert in Z[i], so Z[i]/p is a field of p^2
      elements and the roots of g mod p are found by trying every residue.
      The p taken is the smallest at which each of those roots is simple;
      the program checks this.  Every p not dividing the discriminant of
      g, nonzero as g is square-free, qualifies, so the search ends.
    - A simple root mod p lifts to exactly one root in the p-adic
      completion of Z[i] (Hensel's lemma), by Newton steps that square the
      modulus.  A root y of g reduces to a simple root mod p, so it is
      that lift, and once the modulus M exceeds 2B the symmetric residues
      of the lift are Re y and Im y.
    - Each candidate x = y/D is kept only when h(x) = 0 exactly, so a
      returned root is a root whatever the lifting did.
    Every degree takes this one path; at degree 1, g' = 1, so p = 3 and
    each Newton step is exact.  Multiplicities come from exact division
    of f by x - r.
    """
    f = ptrim(coeffs)
    if len(f) <= 1:
        return [], 0
    df = tuple(c * GaussRat(k) for k, c in enumerate(f))[1:]
    h = pmonic(pdivmod(f, pgcd(f, df))[0])
    n = len(h) - 1
    den = math.lcm(*(c.d for c in h))
    g = [(c.a * den ** (n - k) // c.d, c.b * den ** (n - k) // c.d)
         for k, c in enumerate(h)]
    dg = [(k * a, k * b) for k, (a, b) in enumerate(g)][1:]
    bound = 1 + max(abs(a) + abs(b) for a, b in g[:n])
    m, roots = _simple_roots_mod_p(g, dg)
    while m <= 2 * bound:
        m *= m
        roots = [_newton_step(g, dg, r, m) for r in roots]
    half = m // 2  # symmetric residues lie in (-m/2, m/2]
    found = [x for x in (GaussRat(a - m * (a > half), b - m * (b > half),
                                  den) for a, b in roots)
             if peval(h, x).is_zero]
    out = []
    for r in sorted(found, key=GaussRat.sort_key):
        mult = 0
        while True:
            quo, rem = pdivmod(f, (-r, GR_ONE))
            if rem:
                break
            f, mult = quo, mult + 1
        out.append((r, mult))
    return out, len(f) - 1


# ---------------------------------------------------------------------------
# eigensplit
# ---------------------------------------------------------------------------

class EigenSpace:
    def __init__(self, value: Scalar, basis: list):
        self.value = value
        self.basis = basis  # list of Scalar coordinate vectors

    @property
    def dimension(self) -> int:
        return len(self.basis)


_EXPONENT_WINDOW = 24


def _as_constant_matrix(rows):
    out = []
    for row in rows:
        orow = []
        for x in row:
            c = x.constant_value()
            if c is None:
                return None
            orow.append(c)
        out.append(orow)
    return out


def _specialize_matrix(rows, point: Fraction):
    p = GaussRat.from_fraction(point)
    return [[x.substitute(p) for x in row] for row in rows]


def eigensplit(rows, spec_points) -> list:
    """Split a square Scalar matrix into exact eigenspaces.

    Eigenvalues are hypothesized in the form r*s^k (r in Q(i), k an integer)
    by evaluating at two spec points and interpolating the exponent; each
    candidate is confirmed by an exact kernel computation over the function
    field.  Raises NotDiagonalizableOverField when the confirmed eigenspaces
    do not span.  A matrix c*I, for any scalar c, is one eigenspace with
    value c and the standard basis, and needs no polynomial.
    """
    n = len(rows)
    if n == 0:
        return []
    c = rows[0][0]
    if all(x == (c if i == j else SC_ZERO)
           for i, row in enumerate(rows) for j, x in enumerate(row)):
        return [EigenSpace(c, identity_matrix(n, SC_ONE, SC_ZERO))]
    const = _as_constant_matrix(rows)
    candidates = []
    if const is not None:
        root_list, _residual = rational_roots(charpoly(const))
        candidates = [Scalar.const(r) for r, _m in root_list]
    else:
        if len(spec_points) < 2:
            raise LinearAlgebraError(
                "eigensplit of an s-dependent matrix needs at least two spec points")
        p1, p2 = spec_points[0], spec_points[1]
        m1 = _specialize_matrix(rows, p1)
        m2 = _specialize_matrix(rows, p2)
        roots1, _ = rational_roots(charpoly(m1))
        roots2 = {r for r, _m in rational_roots(charpoly(m2))[0]}
        seen = set()
        for e1, _mult in roots1:
            for k in range(-_EXPONENT_WINDOW, _EXPONENT_WINDOW + 1):
                p1k = GaussRat(p1.numerator ** abs(k), 0, p1.denominator ** abs(k))
                if k < 0:
                    p1k = p1k.inverse()
                r = e1 / p1k
                p2k = GaussRat(p2.numerator ** abs(k), 0, p2.denominator ** abs(k))
                if k < 0:
                    p2k = p2k.inverse()
                if r * p2k not in roots2:
                    continue
                lam = Scalar.const(r) * Scalar.s_power(k)
                if lam not in seen:
                    seen.add(lam)
                    candidates.append(lam)
    spaces = []
    total = 0
    # over Q(i) when the matrix is constant; rhs fixes the field when every
    # shifted row is zero
    sparse = [sparse_row(row) for row in (rows if const is None else const)]
    for lam in sorted(candidates, key=Scalar.sort_key):
        mu = lam if const is None else lam.constant_value()
        zero = _zero_like(mu)
        shifted = [sparse_row({**row, i: row.get(i, zero) - mu})
                   for i, row in enumerate(sparse)]
        kb = solve_affine(shifted, [zero] * n, n).kernel
        if const is not None:
            kb = [[Scalar.const(x) for x in v] for v in kb]
        if kb:
            spaces.append(EigenSpace(lam, kb))
            total += len(kb)
    spaces.sort(key=lambda es: es.value.sort_key())
    if total != n:
        raise NotDiagonalizableOverField(
            "eigenspaces span %d of %d dimensions (eigenvalues found: %s)"
            % (total, n, [str(es.value) for es in spaces]),
            found=spaces, residual_dimension=n - total)
    return spaces


# ---------------------------------------------------------------------------
# Hermitian positivity certificates
# ---------------------------------------------------------------------------

POSITIVE_DEFINITE = "positive-definite"
POSITIVE_SEMIDEFINITE = "positive-semidefinite"
INDEFINITE = "indefinite"


class GramCertificate:
    def __init__(self, verdict: str, mode: str, pivots: list | None = None,
                 witness: list | None = None,
                 witness_value: Scalar | None = None,
                 per_point: list | None = None, notes: list | None = None):
        self.verdict = verdict
        self.mode = mode  # "exact" | "at-specializations"
        self.pivots = [] if pivots is None else pivots  # Scalar diagonal values
        self.witness = witness  # Scalar coordinates
        self.witness_value = witness_value
        self.per_point = ([] if per_point is None
                          else per_point)  # [(point literal, verdict)]
        self.notes = [] if notes is None else notes


def _quad_form(g_rows, v):
    """v^H G v for GaussRat data."""
    acc = GR_ZERO
    n = len(v)
    for i in range(n):
        vi = v[i].conjugate()
        if vi.is_zero:
            continue
        row = g_rows[i]
        for j in range(n):
            if not (row[j].is_zero or v[j].is_zero):
                acc = acc + vi * row[j] * v[j]
    return acc


def _ldl_hermitian(g_rows) -> GramCertificate:
    """Exact LDL^H with diagonal pivoting on a Hermitian GaussRat matrix.

    Tracks the congruence transform so indefiniteness comes with a witness
    vector in original coordinates, verified before returning.
    """
    n = len(g_rows)
    m = mat_copy(g_rows)
    basis = identity_matrix(n, GR_ONE, GR_ZERO)
    pivots = []

    def finish_indef(row_vec, original):
        # m = C G C^H, so the bad value is v^H G v with v = conj(row of C)
        vec = [x.conjugate() for x in row_vec]
        val = _quad_form(original, vec)
        if val.b == 0 and val.a >= 0:
            raise LinearAlgebraError("internal: indefiniteness witness failed check")
        return GramCertificate(
            INDEFINITE, "exact",
            pivots=[Scalar.const(p) for p in pivots],
            witness=[Scalar.const(x) for x in vec],
            witness_value=Scalar.const(val))

    original = mat_copy(g_rows)
    k = 0
    while k < n:
        pr = None
        for i in range(k, n):
            if not m[i][i].is_zero:
                pr = i
                break
        if pr is None:
            for i in range(k, n):
                for j in range(i + 1, n):
                    if not m[i][j].is_zero:
                        # value of alpha*c_i + c_j is 2*Re(alpha*m[i][j])
                        alpha = -m[i][j].conjugate()
                        vec = [alpha * basis[i][t] + basis[j][t] for t in range(n)]
                        return finish_indef(vec, original)
            return GramCertificate(
                POSITIVE_SEMIDEFINITE, "exact",
                pivots=[Scalar.const(p) for p in pivots],
                notes=["rank %d of %d" % (k, n)])
        if pr != k:
            m[k], m[pr] = m[pr], m[k]
            for row in m:
                row[k], row[pr] = row[pr], row[k]
            basis[k], basis[pr] = basis[pr], basis[k]
        piv = m[k][k]
        if piv.b != 0:
            raise LinearAlgebraError("internal: non-real diagonal in Hermitian LDL")
        if piv.a < 0:
            return finish_indef(list(basis[k]), original)
        pivots.append(piv)
        inv = piv.inverse()
        for i in range(k + 1, n):
            if m[i][k].is_zero:
                continue
            f = m[i][k] * inv
            fc = f.conjugate()
            mk = m[k]
            m[i] = [m[i][t] - f * mk[t] for t in range(n)]
            for row in m:
                row[i] = row[i] - row[k] * fc
            basis[i] = [basis[i][t] - f * basis[k][t] for t in range(n)]
        k += 1
    return GramCertificate(POSITIVE_DEFINITE, "exact",
                           pivots=[Scalar.const(p) for p in pivots])


def _is_hermitian(g_rows) -> bool:
    n = len(g_rows)
    return all(g_rows[j][i] == g_rows[i][j].conjugate()
               for i in range(n) for j in range(i, n))


def _non_hermitian_witness(g_rows):
    """A vector with v^H G v not real, for a non-Hermitian GaussRat matrix.

    If G[i][j] != conj(G[j][i]), one of e_i (i=j case), e_i + e_j,
    e_i + i*e_j has a quadratic value with nonzero imaginary part.
    """
    n = len(g_rows)
    for i in range(n):
        for j in range(i, n):
            if g_rows[j][i] == g_rows[i][j].conjugate():
                continue
            cands = []
            if i == j:
                cands.append([GR_ONE if t == i else GR_ZERO for t in range(n)])
            else:
                v1 = [GR_ZERO] * n
                v1[i] = GR_ONE
                v1[j] = GR_ONE
                v2 = [GR_ZERO] * n
                v2[i] = GR_ONE
                v2[j] = GaussRat(0, 1)
                cands.extend([v1, v2])
            for v in cands:
                val = _quad_form(g_rows, v)
                if val.b != 0:
                    return v, val, (i, j)
    return None


def _non_hermitian_certificate(g_rows) -> GramCertificate:
    """INDEFINITE, with a verified witness, for a non-Hermitian GaussRat
    matrix."""
    hit = _non_hermitian_witness(g_rows)
    if hit is None:
        raise LinearAlgebraError("internal: non-Hermitian matrix without witness")
    v, val, at = hit
    return GramCertificate(
        INDEFINITE, "exact",
        witness=[Scalar.const(x) for x in v],
        witness_value=Scalar.const(val),
        notes=["not Hermitian at entry pair %r" % (at,),
               "quadratic form takes non-real values"])


def gram_certificate(g_rows, spec_points) -> GramCertificate:
    """Positivity certificate for a matrix of Scalars interpreted as a
    sesquilinear Gram matrix G[i][j] = <e_i, e_j>.

    Constant Hermitian matrices get an exact LDL^H verdict; s-dependent ones
    are certified at every configured spec point ("at-specializations").
    A non-Hermitian matrix is indefinite (the form takes non-real values);
    the witness is constructed and verified.
    """
    n = len(g_rows)
    if n == 0:
        return GramCertificate(POSITIVE_DEFINITE, "exact")
    hermitian = _is_hermitian(g_rows)
    const = _as_constant_matrix(g_rows)
    if const is not None:
        return (_ldl_hermitian(const) if hermitian
                else _non_hermitian_certificate(const))
    # s-dependent: certify per spec point
    notes = []
    if not hermitian:
        notes.append("matrix is not self-adjoint as a function of s; "
                     "verdicts are per specialization point only")
    per_point = []
    worst = POSITIVE_DEFINITE
    first_witness = None
    first_value = None
    order = {POSITIVE_DEFINITE: 0, POSITIVE_SEMIDEFINITE: 1, INDEFINITE: 2}
    for p in spec_points:
        gp = _specialize_matrix(g_rows, p)
        cert = (_ldl_hermitian(gp) if _is_hermitian(gp)
                else _non_hermitian_certificate(gp))
        per_point.append((str(Scalar.from_fraction(p)), cert.verdict))
        if order[cert.verdict] > order[worst]:
            worst = cert.verdict
            first_witness = cert.witness
            first_value = cert.witness_value
    return GramCertificate(worst, "at-specializations",
                           witness=first_witness, witness_value=first_value,
                           per_point=per_point, notes=notes)
