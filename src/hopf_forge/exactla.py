"""Exact linear algebra over the scalar field and its Gaussian rational core.

Row reduction, affine solving, eigenspaces at known eigenvalues, the
eigenvalue search of eigensplit (characteristic polynomials, roots in Q(i)
by Hensel lifting with no integer factored, an r*s^k ansatz), and
Hermitian positivity certificates.  All routines are exact, on GaussRat
(constant work) or Scalar (s-dependent work) entries.  Elimination and
rank run on sparse rows, {column: value} dicts that store no zeros, and
take a dense list row as well (sparse_row).  rref, the solutions of
solve_affine and the eigenvectors come back sparse, and coordinates on a
span are read from one rref by finalg.LinMap.left_inverse; invert takes
either form and returns the one it was given; charpoly, the eigenspace
splitters and the positivity certificates take dense lists of lists.
The generic routines only use +, -, *, inverse(), is_zero and
conjugate(), which both element types provide.
"""

from __future__ import annotations

import math
from fractions import Fraction

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


def _entries(row):
    """The (column, value) pairs of a dense list or sparse dict row."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def sparse_row(row) -> dict:
    """row as a new {column: value} dict that stores no zero; row is a dense
    list or such a dict."""
    return {j: x for j, x in _entries(row) if not x.is_zero}


def _width(rows, ncols) -> int:
    """ncols, or the length of dense rows when it is None."""
    if ncols is None:
        if rows and isinstance(rows[0], dict):
            raise LinearAlgebraError("sparse rows need the number of unknowns")
        ncols = len(rows[0]) if rows else 0
    return ncols


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

    rows are dense lists or sparse dicts and come back as sparse dicts,
    pivot rows first; the caller's row objects are not written to.
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
    rows[:] = [pivots[c] for c in order] + [
        {} for _ in range(len(rows) - len(order))]
    return order


def insert_mod_p(pivots: dict, row: dict):
    """Reduce row, a sparse {column: residue} dict, mod p by pivots (leading
    column -> row scaled to lead with 1), leading column first; unless it
    reduces to zero, add it to pivots and return it."""
    p = _MOD_P
    row = dict(row)
    while row:
        c = min(row)
        prow = pivots.get(c)
        if prow is None:
            inv = pow(row[c], -1, p)
            pivots[c] = row = {j: v * inv % p for j, v in row.items()}
            return row
        f = row[c]
        for j, v in prow.items():
            w = (row.get(j, 0) - f * v) % p
            if w:
                row[j] = w
            else:
                row.pop(j, None)
    return None


def rank_mod_p(rows) -> int:
    """Rank over Z/p of rows given as sparse {column: residue} dicts."""
    pivots = {}
    return sum(insert_mod_p(pivots, row) is not None for row in rows)


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


def rank(rows, ncols=None) -> int:
    """Rank over Q(i)(s), certified mod p where the rank is full.  rows are
    dense lists, or sparse dicts given with ncols, the number of columns,
    as for solve_affine.

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
    - An exactly-zero row or column lies in no nonzero minor, so m and n
      count only the rows and columns with a nonzero entry, each tested
      for zero exactly.  A row that is zero only mod p still counts.
    """
    _width(rows, ncols)
    live, cols = 0, set()
    for row in rows:
        nonzero = [j for j, x in _entries(row) if not x.is_zero]
        live += bool(nonzero)
        cols.update(nonzero)
    full = min(live, len(cols))
    if not full:
        return 0
    for s0 in RANK_POINTS:
        image = [terms_mod_p(_entries(row), s0) for row in rows]
        if None not in image:
            if rank_mod_p(image) == full:
                return full
            break
    return len(rref(list(rows)))


class SolutionSpace:
    """Affine solution set {particular + span(kernel)}; empty when particular is None."""

    def __init__(self, particular: dict | None, kernel: list):
        self.particular = particular
        self.kernel = kernel

    @property
    def is_empty(self) -> bool:
        return self.particular is None


def solve_affine(a_rows, rhs, ncols=None) -> SolutionSpace:
    """Exact solution space of A x = rhs (kernel always that of A), as
    sparse {unknown: value} vectors over the field of rhs.  A's rows are
    dense lists, or sparse dicts given with ncols, the number of
    unknowns."""
    ncols = _width(a_rows, ncols)
    one = _one_like(rhs[0] if rhs else SC_ZERO)
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
    kernel = list(free.values())
    if ncols in prows:
        return SolutionSpace(None, kernel)
    return SolutionSpace(
        {c: row[ncols] for c, row in prows.items() if ncols in row}, kernel)


def kernel_basis(a_rows, ncols=None):
    """Kernel of A as for solve_affine, over the field of A's first stored
    entry (Q(i)(s) when there is none)."""
    sample = next((x for row in a_rows
                   for x in (row.values() if isinstance(row, dict) else row)),
                  SC_ZERO)
    return solve_affine(a_rows, [_zero_like(sample)] * len(a_rows),
                        ncols).kernel


def invert(a_rows):
    """Exact inverse of a square matrix, or None when it is singular.  The
    n rows are dense lists, or sparse dicts over the columns 0..n-1, and
    the inverse comes back in the same form, storing no zero in a dict."""
    n = len(a_rows)
    aug = [sparse_row(row) for row in a_rows]
    sample = next((x for row in aug for x in row.values()), None)
    if sample is None:
        return [] if n == 0 else None
    for i, row in enumerate(aug):
        row[n + i] = _one_like(sample)
    if rref(aug) != list(range(n)):
        return None
    if isinstance(a_rows[0], dict):
        return [{j - n: x for j, x in row.items() if j >= n} for row in aug]
    zero = _zero_like(sample)
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
        self.basis = basis  # sparse {coordinate: Scalar} vectors


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


def eigenspaces(rows, candidates) -> list:
    """The eigenspaces of a square Scalar matrix, given as dense rows, at
    the candidate eigenvalues, sorted by Scalar.sort_key.

    Each candidate's eigenspace is the exact kernel of M - lam, taken over
    Q(i) when the matrix is constant; the candidates are tried in their
    order until the kernels span.  Raises NotDiagonalizableOverField when
    they do not, with the nonzero kernels found.
    """
    n = len(rows)
    const = _as_constant_matrix(rows)
    sparse = [sparse_row(row) for row in (rows if const is None else const)]
    spaces = []
    total = 0
    for lam in candidates:
        if total == n:
            break
        mu = lam if const is None else lam.constant_value()
        zero = _zero_like(mu)
        shifted = [sparse_row({**row, i: row.get(i, zero) - mu})
                   for i, row in enumerate(sparse)]
        # rhs fixes the field when every shifted row is zero
        kb = solve_affine(shifted, [zero] * n, n).kernel
        if const is not None:
            kb = [{j: Scalar.const(x) for j, x in v.items()} for v in kb]
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


def eigensplit(rows, spec_points) -> list:
    """eigenspaces of a square Scalar matrix at every eigenvalue in Q(i)
    and every r*s^k (r in Q(i), k an integer).

    The constant eigenvalues are the roots in Q(i) of the characteristic
    polynomial; an s-dependent one is hypothesized as r*s^k from the roots
    at two spec points, the exponent interpolated.  eigenspaces confirms
    each candidate by an exact kernel.  A matrix c*I, for any scalar c, is
    one eigenspace with value c and the standard basis, and needs no
    polynomial.
    """
    n = len(rows)
    if n == 0:
        return []
    c = rows[0][0]
    if all(x == (c if i == j else SC_ZERO)
           for i, row in enumerate(rows) for j, x in enumerate(row)):
        return [EigenSpace(c, [{i: SC_ONE} for i in range(n)])]
    const = _as_constant_matrix(rows)
    if const is not None:
        root_list, _residual = rational_roots(charpoly(const))
        candidates = {Scalar.const(r) for r, _m in root_list}
    else:
        if len(spec_points) < 2:
            raise LinearAlgebraError(
                "eigensplit of an s-dependent matrix needs at least two spec points")
        p1, p2 = spec_points[0], spec_points[1]
        m1 = _specialize_matrix(rows, p1)
        m2 = _specialize_matrix(rows, p2)
        roots1, _ = rational_roots(charpoly(m1))
        roots2 = {r for r, _m in rational_roots(charpoly(m2))[0]}
        candidates = set()
        for e1, _mult in roots1:
            for k in range(-_EXPONENT_WINDOW, _EXPONENT_WINDOW + 1):
                r = e1 / GaussRat.from_fraction(p1 ** k)
                if r * GaussRat.from_fraction(p2 ** k) in roots2:
                    candidates.add(Scalar.const(r) * Scalar.s_power(k))
    return eigenspaces(rows, sorted(candidates, key=Scalar.sort_key))


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
