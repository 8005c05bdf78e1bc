"""Exact scalar arithmetic for the field Q(i)(s).

Elements are rational functions in one formal variable s with Gaussian
rational coefficients.  The deformation parameter is q = s^2, so integer
powers of q^(1/2) stay inside the field.  Conjugation sends i to -i and
fixes s (s is specialized only at real rational points in (0,1)).

Every Scalar is kept in a canonical form (coprime numerator/denominator,
monic denominator), so equality is structural and rendering is
deterministic: the same value always produces the same literal.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import HopfForgeError


class ScalarError(HopfForgeError, ValueError):
    """Arithmetic or domain error in the scalar field."""


class ScalarParseError(ScalarError):
    """Malformed scalar literal; carries the offending position."""

    def __init__(self, text: str, pos: int, message: str):
        self.text = text
        self.pos = pos
        super().__init__("bad scalar literal at position %d: %s (in %r)" % (pos, message, text))


class SpecializationPoleError(ScalarError):
    """The denominator vanishes at the requested specialization point."""


class GaussRat:
    """Gaussian rational (a + b*i)/d with gcd(a, b, d) = 1 and d > 0."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int = 0, d: int = 1):
        if d == 0:
            raise ScalarError("zero denominator in Gaussian rational")
        if d < 0:
            a, b, d = -a, -b, -d
        g = math.gcd(math.gcd(a, b), d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        self.a = a
        self.b = b
        self.d = d

    @staticmethod
    def from_fraction(fr: Fraction) -> "GaussRat":
        return GaussRat(fr.numerator, 0, fr.denominator)

    def __add__(self, other: "GaussRat") -> "GaussRat":
        return GaussRat(self.a * other.d + other.a * self.d,
                        self.b * other.d + other.b * self.d,
                        self.d * other.d)

    def __sub__(self, other: "GaussRat") -> "GaussRat":
        return GaussRat(self.a * other.d - other.a * self.d,
                        self.b * other.d - other.b * self.d,
                        self.d * other.d)

    def __mul__(self, other: "GaussRat") -> "GaussRat":
        return GaussRat(self.a * other.a - self.b * other.b,
                        self.a * other.b + self.b * other.a,
                        self.d * other.d)

    def __neg__(self) -> "GaussRat":
        r = object.__new__(GaussRat)
        r.a, r.b, r.d = -self.a, -self.b, self.d
        return r

    def inverse(self) -> "GaussRat":
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ScalarError("division by zero")
        return GaussRat(self.a * self.d, -self.b * self.d, n)

    def __truediv__(self, other: "GaussRat") -> "GaussRat":
        return self * other.inverse()

    def __pow__(self, k: int) -> "GaussRat":
        if k < 0:
            return self.inverse() ** (-k)
        out = GR_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussRat":
        r = object.__new__(GaussRat)
        r.a, r.b, r.d = self.a, -self.b, self.d
        return r

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Sign of a real Gaussian rational (-1, 0, 1)."""
        if self.b != 0:
            raise ScalarError("sign undefined for non-real value %s" % (self,))
        return (self.a > 0) - (self.a < 0)

    def sort_key(self):
        return (Fraction(self.a, self.d), Fraction(self.b, self.d))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return "GaussRat(%d, %d, %d)" % (self.a, self.b, self.d)

    def __str__(self):
        return _coeff_literal(self)


GR_ZERO = GaussRat(0)
GR_ONE = GaussRat(1)
GR_I = GaussRat(0, 1)


# ---------------------------------------------------------------------------
# polynomials in s over GaussRat: tuples indexed by degree, no trailing zeros
# ---------------------------------------------------------------------------

P_ZERO: tuple = ()
P_ONE = (GR_ONE,)


def ptrim(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1].is_zero:
        cs.pop()
    return tuple(cs)


def padd(p: tuple, q: tuple) -> tuple:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for k, c in enumerate(q):
        out[k] = out[k] + c
    return ptrim(out)


def pneg(p: tuple) -> tuple:
    return tuple(-c for c in p)


def psub(p: tuple, q: tuple) -> tuple:
    return padd(p, pneg(q))


def pmul(p: tuple, q: tuple) -> tuple:
    if not p or not q:
        return P_ZERO
    out = [GR_ZERO] * (len(p) + len(q) - 1)
    for j, cj in enumerate(p):
        if cj.is_zero:
            continue
        for k, ck in enumerate(q):
            if not ck.is_zero:
                out[j + k] = out[j + k] + cj * ck
    return ptrim(out)


def pscale(p: tuple, c: GaussRat) -> tuple:
    if c.is_zero:
        return P_ZERO
    return ptrim(c_ * c for c_ in p)


def pmonic(p: tuple) -> tuple:
    if not p:
        return p
    lc = p[-1]
    if lc == GR_ONE:
        return p
    return pscale(p, lc.inverse())


def pdivmod(p: tuple, q: tuple) -> tuple:
    """Exact polynomial division with remainder over the coefficient field."""
    if not q:
        raise ScalarError("polynomial division by zero")
    rem = list(p)
    quo = [GR_ZERO] * max(0, len(p) - len(q) + 1)
    qi = q[-1].inverse()
    for top in range(len(p) - len(q), -1, -1):
        c = rem[top + len(q) - 1] * qi
        if c.is_zero:
            continue
        quo[top] = c
        for k, ck in enumerate(q):
            rem[top + k] = rem[top + k] - c * ck
    return ptrim(quo), ptrim(rem)


def pgcd(p: tuple, q: tuple) -> tuple:
    """Monic gcd via the Euclidean algorithm."""
    while q:
        _, r = pdivmod(p, q)
        p, q = q, pmonic(r)
    return pmonic(p)


def peval(p: tuple, x: GaussRat) -> GaussRat:
    out = GR_ZERO
    for c in reversed(p):
        out = out * x + c
    return out


def pvaluation(p: tuple) -> int:
    """Index of the lowest nonzero coefficient (0 for the zero polynomial)."""
    for k, c in enumerate(p):
        if not c.is_zero:
            return k
    return 0


def _is_monomial(p: tuple) -> bool:
    """True for a nonzero c*s^k (p is trimmed)."""
    for c in p[:-1]:
        if c.a or c.b:
            return False
    return True


# ---------------------------------------------------------------------------
# modular coprimality certificate
# ---------------------------------------------------------------------------

_MOD_P = 998244353                          # prime, = 1 (mod 4)
_MOD_I = pow(3, (_MOD_P - 1) // 4, _MOD_P)  # a square root of -1 mod p


def _pmod(p: tuple):
    """Image of p under (a + b*i)/d -> (a + b*iota) * d^-1 mod p, as a list
    of residues; None when p divides some coefficient denominator."""
    out = []
    for c in p:
        v = (c.a + c.b * _MOD_I) % _MOD_P
        if c.d != 1:
            if c.d % _MOD_P == 0:
                return None
            v = v * pow(c.d, -1, _MOD_P) % _MOD_P
        out.append(v)
    return out


def _coprime_mod_p(num: tuple, den: tuple) -> bool:
    """True only when num and den are certainly coprime over Q(i).

    Let phi be the map of _pmod, a ring map onto Z/p from R, the
    localization of Z[i] at the prime kernel of i -> iota.  R is a discrete
    valuation ring and holds every coefficient whose denominator p does not
    divide.  A common factor
    h of positive degree can be taken primitive in R[s] (Gauss's lemma), and
    then it divides num and den in R[s], with lc(h) dividing lc(num).  If
    phi(lc(num)) != 0, phi(h) keeps the degree of h and divides phi(num)
    and phi(den), so their gcd over Z/p is not constant.  Hence a constant
    modular gcd proves coprimality.  False means inconclusive: p divides a
    coefficient denominator, lc(num) maps to 0, or the modular gcd is not
    constant; the caller then runs the exact pgcd.
    """
    f = _pmod(num)
    g = _pmod(den)
    if f is None or g is None or not f[-1]:
        return False
    while g and not g[-1]:
        g.pop()
    while g:
        dg = len(g) - 1
        inv = pow(g[-1], -1, _MOD_P)
        for top in range(len(f) - 1 - dg, -1, -1):
            c = f[top + dg] * inv % _MOD_P
            if c:
                for k in range(dg):
                    f[top + k] = (f[top + k] - c * g[k]) % _MOD_P
        del f[dg:]
        while f and not f[-1]:
            f.pop()
        f, g = g, f
    return len(f) == 1


# The points s0 at which a full rank is certified mod _MOD_P, tried in this
# order: the leading digits of pi, e and sqrt(2).  None of them is the image
# of a rational a/b with |a|, |b| <= 18 000, so no pole or zero that a
# definition writes on purpose, such as s - 2/7, lands on them.
RANK_POINTS = (314159265, 271828182, 141421356)


def _peval_mod_p(p: tuple, s0: int):
    """The image of the polynomial p at s = s0 mod _MOD_P, or None."""
    cs = _pmod(p)
    if cs is None:
        return None
    v = 0
    for c in reversed(cs):
        v = (v * s0 + c) % _MOD_P
    return v


def image_mod_p(x, s0: int):
    """phi(x) for a GaussRat or Scalar x, with phi the ring map of _pmod
    extended by s -> s0; None when phi(x) is not defined.

    phi is defined on the local ring of R[s] at the kernel of s -> s0 (R as
    in _coprime_mod_p): the fractions num/den whose coefficients have
    denominators prime to p and with phi(den) != 0.  A canonical x outside
    that form gives None even if another num/den for it would do; the
    caller then moves on to another point or to exact arithmetic.
    """
    if isinstance(x, GaussRat):
        num, den = (x,), P_ONE
    else:
        num, den = x.num, x.den
    v = _peval_mod_p(num, s0)
    if v is None or den == P_ONE:
        return v
    d = _peval_mod_p(den, s0)
    if not d:
        return None
    return v * pow(d, -1, _MOD_P) % _MOD_P


# ---------------------------------------------------------------------------
# Scalar: canonical rational function num/den
# ---------------------------------------------------------------------------

class Scalar:
    """Element of Q(i)(s) in canonical form.

    Canonical means: numerator and denominator are coprime, the denominator
    is monic, and zero is stored as num=(), den=(1,).  Structural equality
    then decides value equality, and rendering is deterministic.  A Scalar
    is immutable: only __init__ assigns num and den, so arithmetic may
    return an operand itself, and __hash__ computes its value once.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: tuple, den: tuple = P_ONE, _canonical: bool = False):
        if _canonical:
            self.num = num
            self.den = den
            return
        num = ptrim(num)
        den = ptrim(den)
        if not den:
            raise ScalarError("division by zero in scalar field")
        if not num:
            self.num = P_ZERO
            self.den = P_ONE
            return
        if len(den) == 1:
            lc = den[0]
            self.num = num if lc == GR_ONE else pscale(num, lc.inverse())
            self.den = P_ONE
            return
        v = min(pvaluation(num), pvaluation(den))
        if v:
            num = num[v:]
            den = den[v:]
        # After the shift one side has a nonzero constant term, so a
        # monomial on either side cannot share a factor with the other.
        if not (_is_monomial(num) or _is_monomial(den)
                or _coprime_mod_p(num, den)):
            g = pgcd(num, den)
            if len(g) > 1:
                num, _ = pdivmod(num, g)
                den, _ = pdivmod(den, g)
        lc = den[-1]
        if lc != GR_ONE:
            inv = lc.inverse()
            num = pscale(num, inv)
            den = pscale(den, inv)
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(c: GaussRat) -> "Scalar":
        if c.is_zero:
            return SC_ZERO
        return Scalar((c,), P_ONE, _canonical=True)

    @staticmethod
    def from_int(n: int) -> "Scalar":
        return Scalar.const(GaussRat(n))

    @staticmethod
    def from_fraction(fr: Fraction) -> "Scalar":
        return Scalar.const(GaussRat(fr.numerator, 0, fr.denominator))

    @staticmethod
    def s_power(k: int) -> "Scalar":
        """The monomial s^k (k may be negative)."""
        mono = (GR_ZERO,) * abs(k) + (GR_ONE,)
        if k >= 0:
            return Scalar(mono, P_ONE, _canonical=True)
        return Scalar(P_ONE, mono, _canonical=True)

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_one(self) -> bool:
        return self.num == P_ONE and self.den == P_ONE

    def constant_value(self):
        """The GaussRat value when the scalar is s-free, else None."""
        if len(self.num) <= 1 and self.den == P_ONE:
            return self.num[0] if self.num else GR_ZERO
        return None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        a, b = self, other
        if not a.num:
            return b
        if not b.num:
            return a
        if a.den == b.den:
            return _over_den(padd(a.num, b.num), a.den)
        return _henrici(a, b, padd)

    def __sub__(self, other: "Scalar") -> "Scalar":
        a, b = self, other
        if not b.num:
            return a
        if not a.num:
            return -b
        if a.den == b.den:
            return _over_den(psub(a.num, b.num), a.den)
        return _henrici(a, b, psub)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b = self, other
        if not a.num or not b.num:
            return SC_ZERO
        ad, bd = a.den, b.den
        # An s-free constant factor: one returns the other operand, and any
        # other constant scales the other numerator, which stays coprime to
        # its monic denominator.
        a_const = len(ad) == 1 and len(a.num) == 1
        b_const = len(bd) == 1 and len(b.num) == 1
        if a_const and a.num[0] == GR_ONE:
            return b
        if b_const and b.num[0] == GR_ONE:
            return a
        if a_const:
            if b_const:
                return Scalar((a.num[0] * b.num[0],), P_ONE, _canonical=True)
            return Scalar(pscale(b.num, a.num[0]), bd, _canonical=True)
        if b_const:
            return Scalar(pscale(a.num, b.num[0]), ad, _canonical=True)
        key = (pmul, a, b)
        out = _MEMO.get(key)
        if out is not None:
            return out
        # Two Laurent polynomials: the denominators are s^ka and s^kb.
        if _is_monomial(ad) and _is_monomial(bd):
            out = _over_s_power(pmul(a.num, b.num), len(ad) + len(bd) - 2)
        else:
            out = Scalar(pmul(a.num, b.num), pmul(ad, bd))
        _remember(key, out)
        return out

    def __neg__(self) -> "Scalar":
        return Scalar(pneg(self.num), self.den, _canonical=True)

    def inverse(self) -> "Scalar":
        if not self.num:
            raise ScalarError("division by zero in scalar field")
        # num and den are coprime already; only the new denominator is made
        # monic
        inv = self.num[-1].inverse()
        return Scalar(pscale(self.den, inv), pscale(self.num, inv),
                      _canonical=True)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.inverse() ** (-k)
        out = SC_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "Scalar":
        return Scalar(tuple(c.conjugate() for c in self.num),
                      tuple(c.conjugate() for c in self.den), _canonical=True)

    # -- specialization ------------------------------------------------------

    def substitute(self, point) -> GaussRat:
        """Evaluate at s = point (a Fraction, int, or GaussRat)."""
        if isinstance(point, Fraction):
            point = GaussRat.from_fraction(point)
        elif isinstance(point, int):
            point = GaussRat(point)
        dv = peval(self.den, point)
        if dv.is_zero:
            raise SpecializationPoleError(
                "denominator of %s vanishes at s = %s" % (self, point))
        return peval(self.num, point) / dv

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self.num, self.den))
            return h

    def sort_key(self):
        """Deterministic total order key (no semantic meaning)."""
        return (len(self.num), len(self.den),
                tuple(c.sort_key() for c in self.num),
                tuple(c.sort_key() for c in self.den))

    def __repr__(self):
        return "Scalar(%r)" % (self.render(),)

    def __str__(self):
        return self.render()

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        if not self.num:
            return "0"
        num_str, num_terms = _poly_literal(self.num)
        if self.den == P_ONE:
            return num_str
        den_str, den_terms = _poly_literal(self.den)
        if num_terms > 1:
            num_str = "(" + num_str + ")"
        if not _is_bare_monomial(self.den):
            den_str = "(" + den_str + ")"
        return num_str + "/" + den_str


def _over_s_power(num: tuple, k: int) -> Scalar:
    """num / s^k, canonical after shifting out the common power of s."""
    if not num:
        return SC_ZERO
    v = min(pvaluation(num), k)
    return Scalar(num[v:] if v else num, (GR_ZERO,) * (k - v) + P_ONE,
                  _canonical=True)


def _over_den(num: tuple, den: tuple) -> Scalar:
    """num / den for the canonical denominator den of a summand."""
    if _is_monomial(den):
        return _over_s_power(num, len(den) - 1)
    return Scalar(num, den)


def _monic_gcd(p: tuple, q: tuple) -> tuple:
    """Monic gcd of a monic p and a nonzero q.

    The common power of s is split off first; then a monomial side or the
    modular certificate settles a trivial gcd, and only an inconclusive
    certificate runs the exact pgcd.
    """
    v = min(pvaluation(p), pvaluation(q))
    p, q = p[v:], q[v:]
    if _is_monomial(p) or _is_monomial(q) or _coprime_mod_p(p, q):
        g = P_ONE
    else:
        g = pgcd(p, q)
    return (GR_ZERO,) * v + g if v else g


def _henrici(a: Scalar, b: Scalar, combine) -> Scalar:
    """a + b (combine=padd) or a - b (combine=psub) for nonzero a and b with
    different denominators, by Henrici's rule: with d1 = gcd(a.den, b.den)
    and t = a.num*(b.den/d1) +- b.num*(a.den/d1), the sum is
    (t/d2) / ((a.den/d1)*(b.den/d2)) with d2 = gcd(t, d1), already coprime
    and monic.  Only denominators are ever taken gcds of.  The sum is
    nonzero, since equal values have equal canonical denominators.
    """
    key = (combine, a, b)
    out = _MEMO.get(key)
    if out is not None:
        return out
    d1 = _monic_gcd(a.den, b.den)
    if len(d1) == 1:
        out = Scalar(combine(pmul(a.num, b.den), pmul(b.num, a.den)),
                     pmul(a.den, b.den), _canonical=True)
    else:
        ad = pdivmod(a.den, d1)[0]
        t = combine(pmul(a.num, pdivmod(b.den, d1)[0]), pmul(b.num, ad))
        d2 = _monic_gcd(d1, t)
        if len(d2) == 1:
            out = Scalar(t, pmul(ad, b.den), _canonical=True)
        else:
            out = Scalar(pdivmod(t, d2)[0], pmul(ad, pdivmod(b.den, d2)[0]),
                         _canonical=True)
    _remember(key, out)
    return out


# ---------------------------------------------------------------------------
# memo of the products and sums that reach pmul or a gcd
# ---------------------------------------------------------------------------

# (op, a, b) -> the product (op pmul), sum (padd) or difference (psub) of
# a and b.  A Scalar is immutable and canonical, so equal values have equal
# (num, den) tuples, equal keys and the same cached hash, and a hit returns
# the very value that recomputing would.  Only the products at the end of
# Scalar.__mul__ and the sums of _henrici look here; the zero, one and
# constant shortcuts stay in front.  cli.main empties the table when a
# command returns, so no command sees another's entries, and it is emptied
# whenever it reaches MEMO_CAP entries.
_MEMO: dict = {}
MEMO_CAP = 1 << 15


def _remember(key: tuple, value: Scalar) -> None:
    if len(_MEMO) >= MEMO_CAP:
        _MEMO.clear()
    _MEMO[key] = value


def clear_memo() -> None:
    """Empty the memo of scalar products and sums."""
    _MEMO.clear()


SC_ZERO = Scalar(P_ZERO, P_ONE, _canonical=True)
SC_ONE = Scalar(P_ONE, P_ONE, _canonical=True)
SC_I = Scalar((GR_I,), P_ONE, _canonical=True)
SC_S = Scalar((GR_ZERO, GR_ONE), P_ONE, _canonical=True)


def _is_bare_monomial(p: tuple) -> bool:
    """True when the poly renders as a single '/'- and '*'-free factor."""
    nonzero = [(k, c) for k, c in enumerate(p) if not c.is_zero]
    if len(nonzero) != 1:
        return False
    k, c = nonzero[0]
    if k == 0:
        return c.b == 0 and c.d == 1 and c.a > 0
    return c == GR_ONE


def _coeff_literal(c: GaussRat) -> str:
    """Literal for a standalone Gaussian rational (sign included)."""
    if c.b == 0:
        return "%d" % c.a if c.d == 1 else "%d/%d" % (c.a, c.d)
    if c.a == 0:
        if c.b == 1:
            core = "i"
        elif c.b == -1:
            core = "-i"
        else:
            core = "%d*i" % c.b
        return core if c.d == 1 else core + "/%d" % c.d
    sign = " - " if c.b < 0 else " + "
    bb = abs(c.b)
    itail = "i" if bb == 1 else "%d*i" % bb
    core = "(%d%s%s)" % (c.a, sign, itail)
    return core if c.d == 1 else core + "/%d" % c.d


def _term_literal(c: GaussRat, k: int) -> tuple[int, str]:
    """(sign, body) for coefficient c on s^k; body has the sign stripped."""
    lead = c.a if c.a != 0 else c.b
    sign = -1 if lead < 0 else 1
    m = -c if sign < 0 else c
    if k == 0:
        return sign, _coeff_literal(m)
    spow = "s" if k == 1 else "s^%d" % k
    if m == GR_ONE:
        return sign, spow
    if m.a != 0 and m.b != 0:
        return sign, _coeff_literal(m) + "*" + spow
    if m.b != 0:
        if m.b == 1 and m.d == 1:
            cpart = "i"
        elif m.d == 1:
            cpart = "%d*i" % m.b
        else:
            cpart = "%d*i/%d" % (m.b, m.d)
        return sign, cpart + "*" + spow
    cpart = "%d" % m.a if m.d == 1 else "%d/%d" % (m.a, m.d)
    return sign, cpart + "*" + spow


def _poly_literal(p: tuple) -> tuple[str, int]:
    """(literal, number of terms); terms in descending degree order."""
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c.is_zero:
            continue
        parts.append(_term_literal(c, k))
    if not parts:
        return "0", 0
    out = []
    for idx, (sign, body) in enumerate(parts):
        if idx == 0:
            out.append("-" + body if sign < 0 else body)
        else:
            out.append((" - " if sign < 0 else " + ") + body)
    return "".join(out), len(parts)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()")

# A power in a literal may have |exponent| and deg_s(base) * |exponent| up to
# this, and coefficients of at most this squared in bits; a product,
# quotient or sum may have numerator and denominator degrees up to this.
# This keeps a literal from growing without limit; the largest in-budget
# powers, such as (1+s)^1024, still take seconds to build.
POWER_BUDGET = 1024


def _degree(p: tuple) -> int:
    return max(len(p) - 1, 0)


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            try:
                value = int(text[start:pos])
            except ValueError:  # over the interpreter's digit limit
                raise ScalarParseError(text, start,
                                       "integer literal too long") from None
            tokens.append(("int", value, start))
            continue
        if ch in ("i", "s"):
            tokens.append(("sym", ch, pos))
            pos += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ScalarParseError(text, pos, "unexpected character %r" % ch)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def fail(self, message):
        raise ScalarParseError(self.text, self.peek()[2], message)

    def parse(self) -> Scalar:
        value = self.expr()
        if self.peek()[0] != "end":
            self.fail("trailing input")
        return value

    def expr(self) -> Scalar:
        value = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                value = value + rhs if val == "+" else value - rhs
                if max(_degree(value.num), _degree(value.den)) > POWER_BUDGET:
                    raise ScalarParseError(
                        self.text, pos,
                        "sum over the literal budget: the degrees in s of "
                        "its numerator and of its denominator are limited "
                        "to %d" % POWER_BUDGET)
            else:
                return value

    def term(self) -> Scalar:
        value = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                top, bottom = ((rhs.num, rhs.den) if val == "*"
                               else (rhs.den, rhs.num))
                if (_degree(value.num) + _degree(top) > POWER_BUDGET
                        or _degree(value.den) + _degree(bottom)
                        > POWER_BUDGET):
                    raise ScalarParseError(
                        self.text, pos,
                        "product over the literal budget: the degrees in s "
                        "of its numerator and of its denominator are "
                        "limited to %d" % POWER_BUDGET)
                if val == "*":
                    value = value * rhs
                else:
                    if rhs.is_zero:
                        self.fail("division by zero")
                    value = value / rhs
            else:
                return value

    def unary(self) -> Scalar:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return -self.unary()
        return self.power()

    def power(self) -> Scalar:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, start = self.peek()
            neg = False
            if kind == "op" and val == "-":
                self.next()
                neg = True
                kind, val, _ = self.peek()
            if kind != "int":
                self.fail("exponent must be an integer")
            degree = max(len(base.num), len(base.den)) - 1
            bits = max(max(c.a.bit_length(), c.b.bit_length(),
                           c.d.bit_length()) for c in base.num + base.den)
            if (val > POWER_BUDGET or degree * val > POWER_BUDGET
                    or bits * val > POWER_BUDGET ** 2):
                raise ScalarParseError(
                    self.text, start,
                    "power over the literal budget: |exponent| and degree "
                    "in s times |exponent| are limited to %d, coefficient "
                    "bits times |exponent| to %d"
                    % (POWER_BUDGET, POWER_BUDGET ** 2))
            self.next()
            exp = -val if neg else val
            if base.is_zero and exp < 0:
                self.fail("zero to a negative power")
            return base ** exp
        return base

    def atom(self) -> Scalar:
        kind, val, _ = self.next()
        if kind == "int":
            return Scalar.from_int(val)
        if kind == "sym":
            return SC_I if val == "i" else SC_S
        if kind == "op" and val == "(":
            value = self.expr()
            kind, val, _ = self.next()
            if not (kind == "op" and val == ")"):
                self.k -= 1
                self.fail("expected ')'")
            return value
        self.k -= 1
        self.fail("expected a number, i, s, or '('")


def parse_scalar(text: str) -> Scalar:
    """Parse a scalar literal; raises ScalarParseError with the position."""
    if not isinstance(text, str):
        raise ScalarParseError(repr(text), 0, "literal must be a string")
    if not text.strip():
        raise ScalarParseError(text, 0, "empty literal")
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# specialization points
# ---------------------------------------------------------------------------

DEFAULT_SPEC_POINTS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


def validate_spec_points(points) -> tuple:
    """Normalize a collection of rationals in (0,1) to a sorted tuple."""
    out = []
    for p in points:
        p = Fraction(p)
        if not (0 < p < 1):
            raise ScalarError("spec point %s outside (0,1)" % p)
        out.append(p)
    out = sorted(set(out))
    if not out:
        raise ScalarError("empty spec point set")
    return tuple(out)


def parse_spec_points(text: str) -> tuple:
    """Parse a comma-separated list of rationals like '1/3,1/2,2/3'."""
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ScalarError("empty spec point list %r" % text)
    points = []
    for item in items:
        try:
            points.append(Fraction(item))
        except (ValueError, ZeroDivisionError):
            raise ScalarError("bad spec point %r" % item) from None
    return validate_spec_points(points)
