"""Definition files (.qg): canonical JSON for quantum-group inputs.

Three kinds are supported:
  structure-constants  finite-dimensional algebra with coproduct tables
  presentation         generators, rewrite rules, structure maps on words
  pairing              two presentations plus a generator pairing table

All scalar entries are string literals in the scalar field (see scalars).
The writer emits a canonical layout (fixed key order, sorted index triples,
two-space indent, trailing newline) so that save -> load -> save is the
identity on bytes.
"""

from __future__ import annotations

import hashlib
import json

from .errors import DefinitionError
from .scalars import Scalar, ScalarParseError, parse_scalar

FORMAT_TAG = "qg-definition/1"

KIND_STRUCTURE = "structure-constants"
KIND_PRESENTATION = "presentation"
KIND_PAIRING = "pairing"


class StructureDefinition:
    def __init__(self, name: str, description: str, labels: list, mul: dict,
                 coproduct: list, unit: list | None = None,
                 star: list | None = None, counit: list | None = None,
                 antipode: list | None = None, sub_bases: dict | None = None):
        self.name = name
        self.description = description
        self.labels = labels
        self.mul = mul                  # (i, j) -> {k: Scalar}
        self.coproduct = coproduct      # list over src of {(l, r): Scalar}
        self.unit = unit                # declared unit coordinates
        self.star = star                # matrix star[i][j]: coeff of e_i in e_j*
        self.counit = counit            # declared counit values
        self.antipode = antipode        # matrix
        self.sub_bases = {} if sub_bases is None else sub_bases

    @property
    def dim(self) -> int:
        return len(self.labels)


class PresentationDefinition:
    def __init__(self, name: str, description: str, generators: list,
                 rules: list, coproduct: dict, counit: dict, antipode: dict,
                 star: dict | None = None,
                 diagonal_actions: dict | None = None):
        self.name = name
        self.description = description
        self.generators = generators    # ordered generator names
        self.rules = rules              # (lhs word tuple, [(Scalar, word tuple), ...])
        self.coproduct = coproduct      # gen -> [(Scalar, left word, right word), ...]
        self.counit = counit            # gen -> Scalar
        self.antipode = antipode        # gen -> [(Scalar, word tuple), ...]
        self.star = star                # gen -> [(Scalar, word tuple), ...]
        self.diagonal_actions = ({} if diagonal_actions is None
                                 else diagonal_actions)  # name -> {gen: Scalar}


class PairingDefinition:
    def __init__(self, name: str, description: str,
                 rows: PresentationDefinition, cols: PresentationDefinition,
                 table: dict, action_functionals: list | None = None):
        self.name = name
        self.description = description
        self.rows = rows
        self.cols = cols
        self.table = table              # (row gen, col gen) -> Scalar
        # functionals realized by pairing against a fixed row word:
        # [(column action name, row word tuple), ...]
        self.action_functionals = ([] if action_functionals is None
                                   else action_functionals)


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _fail(path: str, message: str):
    raise DefinitionError("%s: %s" % (path, message))


def _want(obj, key, kind, path, optional=False):
    if key not in obj:
        if optional:
            return None
        _fail(path, "missing key %r" % key)
    val = obj[key]
    if val is None and optional:
        return None
    if not isinstance(val, kind):
        _fail(path, "key %r must be %s" % (key, kind.__name__))
    return val


def _scalar(text, path) -> Scalar:
    if not isinstance(text, str):
        _fail(path, "scalar literals must be strings, got %r" % (text,))
    try:
        return parse_scalar(text)
    except ScalarParseError as exc:
        _fail(path, str(exc))


def _index(value, dim, path):
    if not isinstance(value, int) or not 0 <= value < dim:
        _fail(path, "basis index %r out of range [0, %d)" % (value, dim))
    return value


def _parse_structure(obj, path) -> StructureDefinition:
    labels = _want(obj, "basis", list, path)
    if not labels or not all(isinstance(x, str) for x in labels):
        _fail(path, "basis must be a nonempty list of labels")
    if len(set(labels)) != len(labels):
        _fail(path, "duplicate basis labels")
    dim = len(labels)

    mul = {}
    seen = set()
    for t, triple in enumerate(_want(obj, "mul", list, path)):
        where = "%s: mul[%d]" % (path, t)
        if not isinstance(triple, list) or len(triple) != 4:
            raise DefinitionError("%s must be [i, j, k, coeff]" % where)
        i = _index(triple[0], dim, where)
        j = _index(triple[1], dim, where)
        k = _index(triple[2], dim, where)
        if (i, j, k) in seen:
            raise DefinitionError("%s duplicates entry (%d, %d, %d)" % (where, i, j, k))
        seen.add((i, j, k))
        c = _scalar(triple[3], where)
        if not c.is_zero:
            mul.setdefault((i, j), {})[k] = c

    coproduct = [dict() for _ in range(dim)]
    seen = set()
    for t, quad in enumerate(_want(obj, "coproduct", list, path)):
        where = "%s: coproduct[%d]" % (path, t)
        if not isinstance(quad, list) or len(quad) != 4:
            raise DefinitionError("%s must be [src, left, right, coeff]" % where)
        src = _index(quad[0], dim, where)
        left = _index(quad[1], dim, where)
        right = _index(quad[2], dim, where)
        if (src, left, right) in seen:
            raise DefinitionError("%s duplicates entry" % where)
        seen.add((src, left, right))
        c = _scalar(quad[3], where)
        if not c.is_zero:
            coproduct[src][(left, right)] = c

    def vector(key):
        raw = _want(obj, key, list, path, optional=True)
        if raw is None:
            return None
        if len(raw) != dim:
            _fail(path, "%s must have %d entries" % (key, dim))
        return [_scalar(x, "%s: %s" % (path, key)) for x in raw]

    def matrix(key):
        raw = _want(obj, key, list, path, optional=True)
        if raw is None:
            return None
        from .scalars import SC_ZERO
        m = [[SC_ZERO] * dim for _ in range(dim)]
        seen_m = set()
        for t, triple in enumerate(raw):
            where = "%s: %s[%d]" % (path, key, t)
            if not isinstance(triple, list) or len(triple) != 3:
                raise DefinitionError("%s must be [src, dst, coeff]" % where)
            src = _index(triple[0], dim, where)
            dst = _index(triple[1], dim, where)
            if (src, dst) in seen_m:
                raise DefinitionError("%s duplicates entry" % where)
            seen_m.add((src, dst))
            m[dst][src] = _scalar(triple[2], where)
        return m

    sub_bases = {}
    raw_subs = _want(obj, "sub_bases", dict, path, optional=True) or {}
    for sname in raw_subs:
        rows = raw_subs[sname]
        where = "%s: sub_bases[%r]" % (path, sname)
        if not isinstance(rows, list) or not rows:
            raise DefinitionError("%s must be a nonempty list of vectors" % where)
        parsed = []
        for row in rows:
            if not isinstance(row, list) or len(row) != dim:
                raise DefinitionError("%s rows must have %d entries" % (where, dim))
            parsed.append([_scalar(x, where) for x in row])
        sub_bases[sname] = parsed

    return StructureDefinition(
        name=_want(obj, "name", str, path),
        description=_want(obj, "description", str, path),
        labels=list(labels),
        mul=mul,
        coproduct=coproduct,
        unit=vector("unit"),
        star=matrix("star"),
        counit=vector("counit"),
        antipode=matrix("antipode"),
        sub_bases=sub_bases,
    )


def _parse_terms(raw, gens, path):
    """[(coeff, word), ...] with each word a tuple of generator names."""
    if not isinstance(raw, list):
        _fail(path, "expected a list of [coeff, word] terms")
    out = []
    for t, term in enumerate(raw):
        where = "%s[%d]" % (path, t)
        if not isinstance(term, list) or len(term) != 2:
            raise DefinitionError("%s must be [coeff, word]" % where)
        c = _scalar(term[0], where)
        word = _parse_word(term[1], gens, where)
        out.append((c, word))
    return out


def _parse_word(raw, gens, path):
    if not isinstance(raw, list) or not all(isinstance(g, str) for g in raw):
        _fail(path, "words must be lists of generator names")
    for g in raw:
        if g not in gens:
            _fail(path, "unknown generator %r" % g)
    return tuple(raw)


def _parse_presentation(obj, path) -> PresentationDefinition:
    gens = _want(obj, "generators", list, path)
    if not gens or not all(isinstance(g, str) for g in gens):
        _fail(path, "generators must be a nonempty list of names")
    if len(set(gens)) != len(gens):
        _fail(path, "duplicate generator names")
    gset = set(gens)

    rules = []
    for t, pair in enumerate(_want(obj, "rules", list, path)):
        where = "%s: rules[%d]" % (path, t)
        if not isinstance(pair, list) or len(pair) != 2:
            raise DefinitionError("%s must be [lhs word, rhs terms]" % where)
        lhs = _parse_word(pair[0], gset, where)
        rhs = _parse_terms(pair[1], gset, where)
        rules.append((lhs, rhs))

    def gen_map(key, parser, optional=False):
        raw = _want(obj, key, dict, path, optional=optional)
        if raw is None:
            return None
        out = {}
        for g in raw:
            if g not in gset:
                _fail(path, "%s refers to unknown generator %r" % (key, g))
            out[g] = parser(raw[g], "%s: %s[%r]" % (path, key, g))
        missing = [g for g in gens if g not in out]
        if missing:
            _fail(path, "%s missing generators %s" % (key, missing))
        return out

    def terms_parser(raw, where):
        return _parse_terms(raw, gset, where)

    def cop_parser(raw, where):
        if not isinstance(raw, list):
            _fail(where, "expected a list of [coeff, left word, right word]")
        out = []
        for t, term in enumerate(raw):
            w = "%s[%d]" % (where, t)
            if not isinstance(term, list) or len(term) != 3:
                raise DefinitionError("%s must be [coeff, left, right]" % w)
            out.append((_scalar(term[0], w), _parse_word(term[1], gset, w),
                        _parse_word(term[2], gset, w)))
        return out

    actions = {}
    raw_actions = _want(obj, "diagonal_actions", dict, path, optional=True) or {}
    for aname in raw_actions:
        amap = raw_actions[aname]
        where = "%s: diagonal_actions[%r]" % (path, aname)
        if not isinstance(amap, dict):
            raise DefinitionError("%s must be a map" % where)
        parsed = {}
        for g in amap:
            if g not in gset:
                raise DefinitionError("%s: unknown generator %r" % (where, g))
            parsed[g] = _scalar(amap[g], where)
        actions[aname] = parsed

    return PresentationDefinition(
        name=_want(obj, "name", str, path),
        description=_want(obj, "description", str, path),
        generators=list(gens),
        rules=rules,
        coproduct=gen_map("coproduct", cop_parser),
        counit=gen_map("counit", _scalar),
        antipode=gen_map("antipode", terms_parser),
        star=gen_map("star", terms_parser, optional=True),
        diagonal_actions=actions,
    )


def _parse_pairing(obj, path) -> PairingDefinition:
    rows = _parse_presentation(_want(obj, "row_presentation", dict, path),
                               "%s: row_presentation" % path)
    cols = _parse_presentation(_want(obj, "column_presentation", dict, path),
                               "%s: column_presentation" % path)
    table = {}
    for t, triple in enumerate(_want(obj, "table", list, path)):
        where = "%s: table[%d]" % (path, t)
        if not isinstance(triple, list) or len(triple) != 3:
            raise DefinitionError("%s must be [row gen, col gen, value]" % where)
        rg, cg = triple[0], triple[1]
        if rg not in rows.generators:
            raise DefinitionError("%s: unknown row generator %r" % (where, rg))
        if cg not in cols.generators:
            raise DefinitionError("%s: unknown column generator %r" % (where, cg))
        if (rg, cg) in table:
            raise DefinitionError("%s duplicates entry" % where)
        table[(rg, cg)] = _scalar(triple[2], where)
    for rg in rows.generators:
        for cg in cols.generators:
            if (rg, cg) not in table:
                _fail(path, "table missing entry (%r, %r)" % (rg, cg))
    functionals = []
    raw_fn = _want(obj, "action_functionals", list, path, optional=True) or []
    for t, pair in enumerate(raw_fn):
        where = "%s: action_functionals[%d]" % (path, t)
        if not isinstance(pair, list) or len(pair) != 2:
            raise DefinitionError("%s must be [action name, row word]" % where)
        aname = pair[0]
        if aname not in cols.diagonal_actions:
            raise DefinitionError(
                "%s: column presentation has no action %r" % (where, aname))
        functionals.append((aname,
                            _parse_word(pair[1], set(rows.generators), where)))
    return PairingDefinition(
        name=_want(obj, "name", str, path),
        description=_want(obj, "description", str, path),
        rows=rows, cols=cols, table=table,
        action_functionals=functionals)


def parse_definition(text: str, path: str = "<definition>"):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DefinitionError("%s: invalid JSON at line %d column %d: %s"
                              % (path, exc.lineno, exc.colno, exc.msg))
    if not isinstance(obj, dict):
        _fail(path, "top level must be an object")
    fmt = _want(obj, "format", str, path)
    if fmt != FORMAT_TAG:
        _fail(path, "unsupported format %r (expected %r)" % (fmt, FORMAT_TAG))
    kind = _want(obj, "kind", str, path)
    if kind == KIND_STRUCTURE:
        return _parse_structure(obj, path)
    if kind == KIND_PRESENTATION:
        return _parse_presentation(obj, path)
    if kind == KIND_PAIRING:
        return _parse_pairing(obj, path)
    _fail(path, "unknown kind %r" % kind)


def read_definition(path: str):
    """The definition in the file at path and the sha256 of its bytes, from
    one read.  Line ends are translated as in text mode, so the JSON error
    positions do not depend on them; an unreadable or undecodable file is a
    DefinitionError that names the path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
    except OSError as exc:
        _fail(path, "cannot read: %s" % exc.strerror)
    except UnicodeDecodeError as exc:
        _fail(path, "not UTF-8 text (byte 0x%02x at offset %d)"
              % (data[exc.start], exc.start))
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_definition(text, str(path)), hashlib.sha256(data).hexdigest()


def load_definition(path: str):
    return read_definition(path)[0]


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _structure_obj(d: StructureDefinition) -> dict:
    mul = []
    for (i, j) in sorted(d.mul):
        ent = d.mul[(i, j)]
        for k in sorted(ent):
            mul.append([i, j, k, str(ent[k])])
    cop = []
    for src in range(d.dim):
        for (left, right) in sorted(d.coproduct[src]):
            cop.append([src, left, right, str(d.coproduct[src][(left, right)])])

    def matrix_triples(m):
        if m is None:
            return None
        out = []
        for src in range(d.dim):
            for dst in range(d.dim):
                if not m[dst][src].is_zero:
                    out.append([src, dst, str(m[dst][src])])
        return out

    return {
        "format": FORMAT_TAG,
        "kind": KIND_STRUCTURE,
        "name": d.name,
        "description": d.description,
        "basis": list(d.labels),
        "mul": mul,
        "unit": None if d.unit is None else [str(x) for x in d.unit],
        "star": matrix_triples(d.star),
        "coproduct": cop,
        "counit": None if d.counit is None else [str(x) for x in d.counit],
        "antipode": matrix_triples(d.antipode),
        "sub_bases": {name: [[str(x) for x in row] for row in rows]
                      for name, rows in sorted(d.sub_bases.items())},
    }


def _terms_obj(terms):
    return [[str(c), list(w)] for c, w in terms]


def _presentation_obj(d: PresentationDefinition) -> dict:
    return {
        "format": FORMAT_TAG,
        "kind": KIND_PRESENTATION,
        "name": d.name,
        "description": d.description,
        "generators": list(d.generators),
        "rules": [[list(lhs), _terms_obj(rhs)] for lhs, rhs in d.rules],
        "star": None if d.star is None else
            {g: _terms_obj(d.star[g]) for g in d.generators},
        "coproduct": {g: [[str(c), list(lw), list(rw)]
                          for c, lw, rw in d.coproduct[g]]
                      for g in d.generators},
        "counit": {g: str(d.counit[g]) for g in d.generators},
        "antipode": {g: _terms_obj(d.antipode[g]) for g in d.generators},
        "diagonal_actions": {name: {g: str(amap[g]) for g in d.generators
                                    if g in amap}
                             for name, amap in sorted(d.diagonal_actions.items())},
    }


def _pairing_obj(d: PairingDefinition) -> dict:
    inner_rows = _presentation_obj(d.rows)
    inner_cols = _presentation_obj(d.cols)
    for inner in (inner_rows, inner_cols):
        inner.pop("format")
        inner.pop("kind")
    table = [[rg, cg, str(d.table[(rg, cg)])]
             for rg in d.rows.generators for cg in d.cols.generators]
    obj = {
        "format": FORMAT_TAG,
        "kind": KIND_PAIRING,
        "name": d.name,
        "description": d.description,
        "row_presentation": inner_rows,
        "column_presentation": inner_cols,
        "table": table,
    }
    if d.action_functionals:
        obj["action_functionals"] = [[aname, list(word)]
                                     for aname, word in d.action_functionals]
    return obj


def render_definition(d) -> str:
    if isinstance(d, StructureDefinition):
        obj = _structure_obj(d)
    elif isinstance(d, PresentationDefinition):
        obj = _presentation_obj(d)
    elif isinstance(d, PairingDefinition):
        obj = _pairing_obj(d)
    else:
        raise DefinitionError("cannot serialize %r" % (d,))
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def save_definition(d, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_definition(d))
