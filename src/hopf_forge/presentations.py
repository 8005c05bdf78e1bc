"""Presented algebras with degree-lexicographic rewriting.

Words are tuples of generator names.  Every rewrite rule must strictly
decrease the degree-lexicographic order induced by the declared generator
order, which makes normal forms terminate.  Confluence is proved from the
critical pairs by Bergman's diamond lemma; the words up to a chosen degree
are rewritten one by one only when a pair fails, to list where.  Generator
maps (coproduct, counit, antipode, star, diagonal actions) are verified
against every rule before use, and a bilinear pairing between two
presentations is evaluated by the canonical splitting recursion.
"""

from __future__ import annotations

import itertools

from .definition import PairingDefinition, PresentationDefinition
from .errors import DefinitionError, StructureError
from .exactla import rank
from .mhopf import CheckItem
from .scalars import SC_ONE, SC_ZERO, Scalar

EMPTY_WORD = ()

# The most words a degree bound may enumerate, counting every word of every
# degree up to it: 4^0 + ... + 4^9, so four generators go up to degree 9.
WORD_BUDGET = 349525


def check_word_budget(n_generators: int, degree: int) -> None:
    """Refuse a degree bound whose words number more than WORD_BUDGET."""
    total, layer = 0, 1
    for _ in range(degree + 1):
        total += layer
        if total > WORD_BUDGET:
            raise DefinitionError(
                "degree %d over %d generator(s) enumerates more than the "
                "word budget of %d words" % (degree, n_generators,
                                             WORD_BUDGET))
        layer *= n_generators
        if not layer:
            return


def _tadd(acc: dict, word: tuple, coeff: Scalar) -> None:
    cur = acc.get(word)
    cur = coeff if cur is None else cur + coeff
    if cur.is_zero:
        acc.pop(word, None)
    else:
        acc[word] = cur


class Presentation:
    """A finitely presented algebra with a terminating rewriting system."""

    def __init__(self, defn: PresentationDefinition):
        self.name = defn.name
        self.generators = tuple(defn.generators)
        self._index = {g: i for i, g in enumerate(self.generators)}
        self._word_keys: dict = {}
        self.rules = [(tuple(lhs), tuple((tuple(w), c) for c, w in terms))
                      for lhs, terms in defn.rules]
        self.defn = defn
        for lhs, terms in self.rules:
            if not lhs:
                raise StructureError("empty rule left side in %r" % self.name)
            lk = self.word_key(lhs)
            for w, _c in terms:
                if self.word_key(w) >= lk:
                    raise StructureError(
                        "rule %s does not decrease the word order at %s"
                        % (self.format_word(lhs), self.format_word(w)))
        # the rules by the first letter of their left side, each list in
        # declaration order
        self._rules_from: dict = {}
        for lhs, rhs in self.rules:
            self._rules_from.setdefault(lhs[0], []).append((lhs, rhs))
        self._nf_memo: dict = {}
        # whether every critical pair resolves; None until check_confluence
        self._pairs_resolve: bool | None = None

    # -- word order and rendering -------------------------------------------

    def word_key(self, w: tuple):
        """The deg-lex key of w, built once per word and presentation."""
        key = self._word_keys.get(w)
        if key is None:
            key = self._word_keys[w] = (len(w),
                                        tuple(self._index[g] for g in w))
        return key

    def format_word(self, w: tuple) -> str:
        return ".".join(w) if w else "1"

    def format_terms(self, terms) -> str:
        if not terms:
            return "0"
        parts = []
        for w, c in terms:
            cs = str(c)
            if cs == "1" and w:
                parts.append(self.format_word(w))
            else:
                parts.append("(%s)%s" % (cs, " " + self.format_word(w)
                                         if w else ""))
        return " + ".join(parts)

    # -- normal forms --------------------------------------------------------

    def _canon(self, acc: dict) -> tuple:
        # keys are unique, so a single term needs no sort
        if len(acc) < 2:
            return tuple(acc.items())
        return tuple(sorted(acc.items(),
                            key=lambda kv: self.word_key(kv[0]),
                            reverse=True))

    def normal_form_word(self, w: tuple) -> tuple:
        """Canonical terms of a single word.  Leftmost position first, rules
        in declaration order; memoized."""
        done = self._nf_memo.get(w)
        if done is not None:
            return done
        stack = [w]
        while stack:
            cur = stack[-1]
            if cur in self._nf_memo:
                stack.pop()
                continue
            hit = None
            for p in range(len(cur)):
                for lhs, rhs in self._rules_from.get(cur[p], ()):
                    if cur[p:p + len(lhs)] == lhs:
                        hit = (p, lhs, rhs)
                        break
                if hit:
                    break
            if hit is None:
                self._nf_memo[cur] = ((cur, SC_ONE),)
                stack.pop()
                continue
            p, lhs, rhs = hit
            children = [cur[:p] + rw + cur[p + len(lhs):] for rw, _c in rhs]
            missing = [ch for ch in children if ch not in self._nf_memo]
            if missing:
                stack.extend(missing)
                continue
            acc: dict = {}
            for (_rw, c), ch in zip(rhs, children):
                for w2, c2 in self._nf_memo[ch]:
                    _tadd(acc, w2, c * c2)
            self._nf_memo[cur] = self._canon(acc)
            stack.pop()
        return self._nf_memo[w]

    def normal_form(self, terms) -> tuple:
        acc: dict = {}
        for w, c in terms:
            if c.is_zero:
                continue
            for w2, c2 in self.normal_form_word(tuple(w)):
                _tadd(acc, w2, c * c2)
        return self._canon(acc)

    def multiply(self, t1, t2) -> tuple:
        acc: dict = {}
        for w1, c1 in t1:
            for w2, c2 in t2:
                for w3, c3 in self.normal_form_word(w1 + w2):
                    _tadd(acc, w3, c1 * c2 * c3)
        return self._canon(acc)

    def normal_words(self, max_degree: int) -> list:
        """All rewriting-irreducible words of length up to max_degree, in
        ascending word order."""
        out = [EMPTY_WORD]
        layer = [EMPTY_WORD]
        for _ in range(max_degree):
            nxt = []
            for w in layer:
                for g in self.generators:
                    w2 = w + (g,)
                    if all(w2[-len(lhs):] != lhs for lhs, _ in self.rules):
                        nxt.append(w2)
            out.extend(nxt)
            layer = nxt
        return out

    def word_products(self, words) -> list:
        """(c, d, normal form of c.d) for every pair of nonempty words c, d
        of words, c in the outer loop.  The words must be irreducible, in
        ascending word order and closed under prefixes, as normal_words
        lists them.

        Once check_confluence has resolved every critical pair, each word
        has one normal form (Bergman's diamond lemma), so NF(c.d) =
        NF(NF(c.d') g) for d = d'.g, and each product is the one before it
        times a generator: only words w.g with w irreducible are rewritten.
        Without that proof the leftmost strategy may reach another normal
        form by this route, so each word c.d is rewritten whole."""
        nonempty = [w for w in words if w]
        if not self._pairs_resolve:
            return [(c, d, self.normal_form_word(c + d))
                    for c in nonempty for d in nonempty]
        out = []
        for c in nonempty:
            # d' precedes d = d'.g in the word order, so row holds NF(c.d')
            row = {EMPTY_WORD: ((c, SC_ONE),)}
            for d in nonempty:
                cd = row[d] = self.normal_form(
                    tuple((w + d[-1:], k) for w, k in row[d[:-1]]))
                out.append((c, d, cd))
        return out

    # -- confluence ----------------------------------------------------------

    def inconsistent_words(self, max_degree: int):
        """Yield the words up to max_degree, in ascending word order, at which
        a later redex reaches another normal form than the first redex; a
        word is yielded once per such redex.

        The first redex (leftmost position, rules in declaration order) is
        the one normal_form_word rewrites, so the word's normal form is the
        target.  check_confluence takes the first five only after a critical
        pair fails, so the words past the fifth failure are never rewritten."""
        for d in range(max_degree + 1):
            for w in itertools.product(self.generators, repeat=d):
                redexes = [(p, lhs, rhs) for p in range(d)
                           for lhs, rhs in self._rules_from.get(w[p], ())
                           if w[p:p + len(lhs)] == lhs]
                for p, lhs, rhs in redexes[1:]:
                    step = tuple((w[:p] + rw + w[p + len(lhs):], c)
                                 for rw, c in rhs)
                    if self.normal_form(step) != self.normal_form_word(w):
                        yield self.format_word(w)

    def check_confluence(self, max_degree: int) -> list:
        """Resolve every critical pair of the rules.  When all resolve, every
        word rewrites consistently, so the words up to max_degree are only
        counted; when one fails, they are enumerated in ascending order up to
        the fifth word that fails, which lists the first five failures.

        This is Bergman's diamond lemma (Adv. Math. 29, 1978, Thm. 1.2).  Its
        premises hold for every Presentation: deg-lex on finitely many
        generators is a semigroup order with no infinite descending chain,
        and __init__ refuses a rule that does not go down it.  Then every
        word has one normal form as soon as every ambiguity resolves: each
        overlap (a proper suffix of a left side is a proper prefix of a left
        side) and each inclusion (a left side inside another rule's, equal
        left sides included).  A pair resolves when its two one-step
        rewrites reduce to a common expression.  Normal forms are reached by
        rewriting, so equal ones resolve it, and unequal ones are two
        irreducible results of one word, a real failure.  With one normal
        form per word, every one-step rewrite of a word reaches the word's
        normal form, which is all that inconsistent_words compares."""
        bad = []
        n_pairs = 0
        for i, (l1, r1) in enumerate(self.rules):
            for j, (l2, r2) in enumerate(self.rules):
                for k in range(1, min(len(l1), len(l2))):
                    if l1[-k:] != l2[:k]:
                        continue
                    n_pairs += 1
                    left = self.normal_form(
                        tuple((rw + l2[k:], c) for rw, c in r1))
                    right = self.normal_form(
                        tuple((l1[:-k] + rw, c) for rw, c in r2))
                    if left != right:
                        bad.append(self.format_word(l1 + l2[k:]))
                # a pair of rules with one left side is compared once
                for p in range(len(l1) - len(l2) + 1):
                    if l1[p:p + len(l2)] != l2 or (l1 == l2 and j <= i):
                        continue
                    n_pairs += 1
                    left = self.normal_form(r1)
                    right = self.normal_form(
                        tuple((l1[:p] + rw + l1[p + len(l2):], c)
                              for rw, c in r2))
                    if left != right:
                        bad.append(self.format_word(l1))
        self._pairs_resolve = not bad
        items = [CheckItem(
            "critical-pairs", not bad,
            "%d critical pair(s) all resolve" % n_pairs if not bad
            else "unresolved at " + ", ".join(bad[:5]))]

        bad = (list(itertools.islice(self.inconsistent_words(max_degree), 5))
               if bad else [])
        n_words = sum(len(self.generators) ** d for d in range(max_degree + 1))
        items.append(CheckItem(
            "exhaustive-confluence", not bad,
            "all %d words up to degree %d rewrite consistently"
            % (n_words, max_degree) if not bad
            else "inconsistent at " + ", ".join(bad)))
        return items


# ---------------------------------------------------------------------------
# generator maps
# ---------------------------------------------------------------------------

class PresTarget:
    """The presented algebra itself as a target for generator maps."""

    def __init__(self, pres: Presentation):
        self.pres = pres
        self.one = ((EMPTY_WORD, SC_ONE),)
        self.zero = ()

    def mul(self, a, b):
        return self.pres.multiply(a, b)

    def add(self, a, b):
        acc: dict = {}
        for w, c in a:
            _tadd(acc, w, c)
        for w, c in b:
            _tadd(acc, w, c)
        return self.pres._canon(acc)

    def scale(self, c: Scalar, a):
        if c.is_zero:
            return ()
        return tuple((w, c * x) for w, x in a)


class TensorTarget:
    """The tensor square of a presented algebra; elements are canonical
    tuples of ((left word, right word), coefficient)."""

    def __init__(self, pres: Presentation):
        self.pres = pres
        self.one = (((EMPTY_WORD, EMPTY_WORD), SC_ONE),)
        self.zero = ()

    def _canon(self, acc: dict):
        key = self.pres.word_key
        return tuple(sorted(acc.items(),
                            key=lambda kv: (key(kv[0][0]), key(kv[0][1])),
                            reverse=True))

    def from_terms(self, pairs) -> tuple:
        """Canonicalize [(coeff, left word, right word)] with both legs put
        in normal form."""
        acc: dict = {}
        for c, lw, rw in pairs:
            for w1, c1 in self.pres.normal_form_word(tuple(lw)):
                for w2, c2 in self.pres.normal_form_word(tuple(rw)):
                    cur = acc.get((w1, w2), SC_ZERO) + c * c1 * c2
                    if cur.is_zero:
                        acc.pop((w1, w2), None)
                    else:
                        acc[(w1, w2)] = cur
        return self._canon(acc)

    def mul(self, a, b):
        acc: dict = {}
        for (l1, r1), c1 in a:
            for (l2, r2), c2 in b:
                c12 = c1 * c2
                for w1, d1 in self.pres.normal_form_word(l1 + l2):
                    for w2, d2 in self.pres.normal_form_word(r1 + r2):
                        cur = acc.get((w1, w2), SC_ZERO) + c12 * d1 * d2
                        if cur.is_zero:
                            acc.pop((w1, w2), None)
                        else:
                            acc[(w1, w2)] = cur
        return self._canon(acc)

    def add(self, a, b):
        acc: dict = dict(a)
        for k, c in b:
            cur = acc.get(k, SC_ZERO) + c
            if cur.is_zero:
                acc.pop(k, None)
            else:
                acc[k] = cur
        return self._canon(acc)

    def scale(self, c: Scalar, a):
        if c.is_zero:
            return ()
        return tuple((k, c * x) for k, x in a)


class ScalarTarget:
    one = SC_ONE
    zero = SC_ZERO

    def mul(self, a, b):
        return a * b

    def add(self, a, b):
        return a + b

    def scale(self, c, a):
        return c * a


class GenMap:
    """A (anti)multiplicative linear map defined on generators, verified
    against every rewrite rule before it is trusted."""

    def __init__(self, name: str, pres: Presentation, images: dict,
                 target, anti: bool = False, conjugate: bool = False):
        self.name = name
        self.pres = pres
        self.images = dict(images)
        self.target = target
        self.anti = anti
        self.conjugate = conjugate
        missing = [g for g in pres.generators if g not in images]
        if missing:
            raise StructureError(
                "map %r lacks images for %s" % (name, ", ".join(missing)))
        # fold order (the word, reversed for an anti map) -> image
        self._memo: dict = {EMPTY_WORD: target.one}

    def apply_word(self, w: tuple):
        """Image of a word: the product of the letter images, folded left to
        right over the word (right to left for an anti-multiplicative map).
        Every fold prefix is memoized, so a word whose prefix is known costs
        one product."""
        seq = w[::-1] if self.anti else w
        memo = self._memo
        got = memo.get(seq)
        if got is not None:
            return got
        k = len(seq) - 1
        while seq[:k] not in memo:
            k -= 1
        acc = memo[seq[:k]]
        for j in range(k, len(seq)):
            acc = self.target.mul(acc, self.images[seq[j]])
            memo[seq[:j + 1]] = acc
        return acc

    def apply_terms(self, terms):
        acc = self.target.zero
        for w, c in terms:
            cc = c.conjugate() if self.conjugate else c
            acc = self.target.add(acc, self.target.scale(cc,
                                                         self.apply_word(w)))
        return acc

    def check_rules(self) -> CheckItem:
        bad = []
        for lhs, rhs in self.pres.rules:
            left = self.apply_word(lhs)
            right = self.apply_terms(rhs)
            if left != right:
                bad.append(self.pres.format_word(lhs))
        return CheckItem(
            "map-respects-rules " + self.name, not bad,
            "images satisfy every rewrite rule" if not bad
            else "rule violated at " + ", ".join(bad))


class DiagonalAction:
    """A semigroup action multiplying each generator by a fixed scalar."""

    def __init__(self, name: str, pres: Presentation, weights: dict):
        self.name = name
        self.pres = pres
        self.weights = weights
        missing = [g for g in pres.generators if g not in weights]
        if missing:
            raise StructureError(
                "action %r lacks weights for %s" % (name, ", ".join(missing)))

    def weight_of(self, w: tuple) -> Scalar:
        acc = SC_ONE
        for g in w:
            acc = acc * self.weights[g]
        return acc

    def apply_terms(self, terms):
        return tuple((w, c * self.weight_of(w)) for w, c in terms)

    def check_rules(self) -> CheckItem:
        bad = []
        for lhs, rhs in self.pres.rules:
            wl = self.weight_of(lhs)
            for w, _c in rhs:
                if self.weight_of(w) != wl:
                    bad.append("%s vs %s" % (self.pres.format_word(lhs),
                                             self.pres.format_word(w)))
        return CheckItem(
            "action-respects-rules " + self.name, not bad,
            "every rule is weight homogeneous" if not bad
            else "inhomogeneous at " + ", ".join(bad))


# ---------------------------------------------------------------------------
# assembled presented quantum group
# ---------------------------------------------------------------------------

class PresentedQG:
    def __init__(self, pres: Presentation, coproduct: GenMap, counit: GenMap,
                 antipode: GenMap, star: GenMap | None, actions: dict,
                 checks: list):
        self.pres = pres
        self.coproduct = coproduct
        self.counit = counit
        self.antipode = antipode
        self.star = star
        self.actions = actions
        # the passed rule checks: the maps, then the actions sorted by name
        self.checks = checks
        self._words = []
        self._words_degree = -1

    def antipode_squared(self, terms):
        return self.antipode.apply_terms(self.antipode.apply_terms(terms))

    def normal_words(self, degree: int) -> list:
        """Irreducible words up to the degree, in ascending word order.  The
        words are enumerated once, at the largest degree asked for; a
        smaller degree keeps the words of that list up to its length."""
        if degree > self._words_degree:
            self._words = self.pres.normal_words(degree)
            self._words_degree = degree
        return [w for w in self._words if len(w) <= degree]


def build_presented(defn: PresentationDefinition) -> PresentedQG:
    """Assemble the maps of a presented quantum group and verify each one
    against every rewrite rule."""
    pres = Presentation(defn)
    tensor = TensorTarget(pres)
    cop_images = {g: tensor.from_terms(terms)
                  for g, terms in defn.coproduct.items()}
    coproduct = GenMap("coproduct", pres, cop_images, tensor)
    counit = GenMap("counit", pres, dict(defn.counit), ScalarTarget())
    alg_target = PresTarget(pres)

    def _conv(terms):
        return pres.normal_form(tuple((tuple(w), c) for c, w in terms))

    antipode = GenMap("antipode", pres,
                      {g: _conv(terms)
                       for g, terms in defn.antipode.items()},
                      alg_target, anti=True)
    star = None
    if defn.star is not None:
        star = GenMap("star", pres,
                      {g: _conv(terms)
                       for g, terms in defn.star.items()},
                      alg_target, anti=True, conjugate=True)
    actions = {name: DiagonalAction(name, pres, dict(weights))
               for name, weights in defn.diagonal_actions.items()}
    maps = (coproduct, counit, antipode) + ((star,) if star else ())
    checks = []
    for m in maps + tuple(actions.values()):
        item = m.check_rules()
        if not item.ok:
            raise StructureError(item.name + ": " + item.detail)
        checks.append(item)
    checks[len(maps):] = sorted(checks[len(maps):], key=lambda it: it.name)
    return PresentedQG(pres, coproduct, counit, antipode, star, actions,
                       checks)


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------

class PairedPresentations:
    """A bilinear pairing between two presented quantum groups, evaluated by
    splitting words against the coproducts of both sides."""

    def __init__(self, defn: PairingDefinition, row_qg: PresentedQG,
                 col_qg: PresentedQG):
        self.defn = defn
        self.row = row_qg
        self.col = col_qg
        self.table = {k: v for k, v in defn.table.items()}
        for rg in row_qg.pres.generators:
            for cg in col_qg.pres.generators:
                if (rg, cg) not in self.table:
                    raise StructureError(
                        "pairing table misses (%s, %s)" % (rg, cg))
        self._memo: dict = {}

    def pair_words(self, x: tuple, c: tuple) -> Scalar:
        key = (x, c)
        got = self._memo.get(key)
        if got is not None:
            return got
        if not x:
            out = self.col.counit.apply_word(c)
        elif not c:
            out = self.row.counit.apply_word(x)
        elif len(c) > 1:
            head, rest = (c[0],), c[1:]
            out = SC_ZERO
            for (w1, w2), coef in self.row.coproduct.apply_word(x):
                left = self.pair_words(w1, head)
                if left.is_zero:
                    continue
                out = out + coef * left * self.pair_words(w2, rest)
        elif len(x) > 1:
            head, rest = (x[0],), x[1:]
            out = SC_ZERO
            for (w1, w2), coef in self.col.coproduct.apply_word(c):
                left = self.pair_words(head, w1)
                if left.is_zero:
                    continue
                out = out + coef * left * self.pair_words(rest, w2)
        else:
            out = self.table[(x[0], c[0])]
        self._memo[key] = out
        return out

    def pair_terms(self, tx, tc) -> Scalar:
        acc = SC_ZERO
        for wx, cx in tx:
            for wc, cc in tc:
                v = self.pair_words(wx, wc)
                if not v.is_zero:
                    acc = acc + cx * cc * v
        return acc

    def check_axioms(self, degree: int) -> list:
        """Duality of product and coproduct in both directions plus the unit,
        counit and antipode compatibilities.

        The outer product factors range over the generators and the other
        slot ranges over every irreducible word within the degree; products
        of irreducible words are rewritten to normal form before pairing.
        The column products c.d come from Presentation.word_products: when
        check_confluence has resolved the column rules' critical pairs,
        normal forms are unique by Bergman's diamond lemma (Adv. Math. 29,
        1978, Thm. 1.2), so NF(c.d.g) = NF(NF(c.d) g) builds each product
        from the one before it; otherwise each c.d is rewritten whole."""
        row_gens = [(g,) for g in self.row.pres.generators]
        col_words = self.col.normal_words(degree)
        row_words = self.row.normal_words(degree)
        items = []

        bad = []
        for x in row_gens:
            for y in row_gens:
                xy = self.row.pres.normal_form_word(x + y)
                for c in col_words:
                    lhs = self.pair_terms(xy, ((c, SC_ONE),))
                    rhs = SC_ZERO
                    for (w1, w2), coef in self.col.coproduct.apply_word(c):
                        v = self.pair_words(x, w1)
                        if not v.is_zero:
                            rhs = rhs + coef * v * self.pair_words(y, w2)
                    if lhs != rhs:
                        bad.append("(%s.%s, %s)"
                                   % (self.row.pres.format_word(x),
                                      self.row.pres.format_word(y),
                                      self.col.pres.format_word(c)))
        items.append(CheckItem(
            "pairing-product-left", not bad,
            "<XY, c> = <X (x) Y, D(c)> for generators X, Y and all words c"
            if not bad else "fails at " + ", ".join(bad[:3])))

        # the normal forms of the products cd do not depend on X
        products = self.col.pres.word_products(col_words)
        bad = []
        for x in row_gens:
            dx = self.row.coproduct.apply_word(x)
            for c, d, cd in products:
                lhs = self.pair_terms(((x, SC_ONE),), cd)
                rhs = SC_ZERO
                for (w1, w2), coef in dx:
                    v = self.pair_words(w1, c)
                    if not v.is_zero:
                        rhs = rhs + coef * v * self.pair_words(w2, d)
                if lhs != rhs:
                    bad.append("(%s, %s.%s)"
                               % (self.row.pres.format_word(x),
                                  self.col.pres.format_word(c),
                                  self.col.pres.format_word(d)))
        items.append(CheckItem(
            "pairing-product-right", not bad,
            "<X, cd> = <D(X), c (x) d> for generators X and all words c, d"
            if not bad else "fails at " + ", ".join(bad[:3])))

        bad = [self.col.pres.format_word(c) for c in col_words
               if self.pair_words(EMPTY_WORD, c)
               != self.col.counit.apply_word(c)]
        items.append(CheckItem(
            "pairing-unit-row", not bad,
            "<1, c> equals the counit on all %d words" % len(col_words)
            if not bad else "fails at " + ", ".join(bad[:3])))
        bad = [self.row.pres.format_word(x) for x in row_words
               if self.pair_words(x, EMPTY_WORD)
               != self.row.counit.apply_word(x)]
        items.append(CheckItem(
            "pairing-unit-column", not bad,
            "<X, 1> equals the counit on all %d words" % len(row_words)
            if not bad else "fails at " + ", ".join(bad[:3])))

        bad = []
        for x in row_gens:
            sx = self.row.antipode.apply_terms(((x, SC_ONE),))
            for c in col_words:
                lhs = self.pair_terms(sx, ((c, SC_ONE),))
                rhs = self.pair_terms(
                    ((x, SC_ONE),), self.col.antipode.apply_terms(
                        ((c, SC_ONE),)))
                if lhs != rhs:
                    bad.append("(%s, %s)" % (self.row.pres.format_word(x),
                                             self.col.pres.format_word(c)))
        items.append(CheckItem(
            "pairing-antipode", not bad,
            "<S(X), c> = <X, S(c)> for generators X and all words c"
            if not bad else "fails at " + ", ".join(bad[:3])))
        return items

    def check_action_functional(self, item_name: str, action_name: str,
                                row_word: tuple, degree: int) -> CheckItem:
        """counit(action(c)) must agree with pairing against row_word on
        every irreducible column word up to the degree."""
        act = self.col.actions[action_name]
        col_words = self.col.normal_words(degree)
        bad = []
        for c in col_words:
            lhs = self.col.counit.apply_terms(
                act.apply_terms(((c, SC_ONE),)))
            if lhs != self.pair_words(tuple(row_word), c):
                bad.append(self.col.pres.format_word(c))
        return CheckItem(
            item_name, not bad,
            "counit after %s pairs as <%s, .> on all %d words"
            % (action_name, self.row.pres.format_word(tuple(row_word)),
               len(col_words)) if not bad
            else "fails at " + ", ".join(bad[:5]))

    def gram_rank(self, degree: int):
        """Rank of the evaluation matrix on irreducible words up to the
        degree, reported as evidence of (non)degeneracy at that size."""
        row_words = self.row.normal_words(degree)
        col_words = self.col.normal_words(degree)
        g = [[self.pair_words(x, c) for c in col_words] for x in row_words]
        return len(row_words), len(col_words), rank(g)
