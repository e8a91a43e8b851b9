"""Closed-form and interval rules for the s_n family, for every n >= 2.

Exact values come from the positive-diagram formula and the split/
connected-sum identities; everything else propagates as an integer
interval whose endpoints cite the rule that produced them.  The n=2
engine can refine any realizable expression to an exact value.

Every engine value is an ``EngineDiagram`` leaf.  The engine's build
grows with the negative crossings, so a knot with more negative than
positive crossings is evaluated on its mirror and negated by the
mirror-knot rule, s_2(K) = -s_2(mirror K) (Rasmussen, math/0402131).
The trace then ends with that rule.  If the mirror's build raises
``TooLarge``, the knot is built as given, so the route refuses nothing.
A positive diagram whose build raises ``TooLarge`` gets the positive
formula instead, so only non-positive diagrams are refused.

Expression trees are dataclass nodes, one per rule, listed in ``NODES``
by type name.  Their fields are the JSON format: ``LinkExpr.to_dict``
writes and ``expr_from_dict`` reads and type-checks one key per field,
named after it except ``diagram``, which is the PD string ``"pd"``.
"""

import json
import math
from dataclasses import MISSING, dataclass, field, fields

from . import diagram as dg
from . import lee
from .errors import (
    InexactInput,
    InputError,
    NotPositiveDiagram,
    TooLarge,
    UnevaluableLeaf,
)


@dataclass
class SnValue:
    n: int
    lo: int
    hi: int
    trace: list = field(default_factory=list)

    @property
    def exact(self):
        return self.lo == self.hi

    @property
    def value(self):
        if not self.exact:
            raise InexactInput(f"interval [{self.lo}, {self.hi}] is not exact")
        return self.lo

    def __repr__(self):
        body = str(self.lo) if self.exact else f"[{self.lo}, {self.hi}]"
        return f"s_{self.n} = {body}"


def _exact(n, v, trace):
    return SnValue(n, v, v, trace)


# -- closed forms -----------------------------------------------------------


def sn_positive(d, n):
    """s_n of a positive diagram: (1-n)(c-r+1)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not d.is_positive:
        raise NotPositiveDiagram("diagram has a negative crossing")
    if not d.n_components:
        raise ValueError("s_n of the empty link is undefined")
    return _positive_formula(d, n)


def positive_formula(c, r, n):
    """s_n of a positive diagram of c crossings and r Seifert circles."""
    return (1 - n) * (c - r + 1)


def _positive_formula(d, n):
    """``positive_formula`` of ``d``, with its trace."""
    c, r = d.n_crossings, len(d.seifert_circles)
    return _exact(n, positive_formula(c, r, n),
                  [f"positive diagram: s_n = (1-n)(c-r+1) with c={c}, r={r}"])


def genus_positive(d):
    """Seifert and slice genus of a positive diagram, which are equal.

    The genus is (c - r + 2p - l)/2 over the diagram's p split pieces
    (``LinkDiagram.n_pieces``): each piece's Seifert surface from
    Seifert's algorithm has Euler characteristic r_i - c_i and is of
    least genus for a positive piece, and tubing the pieces' surfaces
    together adds their genera, so g4 <= g3 <= (c - r + 2p - l)/2.  For a
    connected diagram p = 1.

    Conversely (n = 2), a sphere splits one piece L1 from the rest L2, so
    B^4 is B^3 x I with L1 in one end and the mirror -L2 in the other,
    and a connected surface of genus g for L in B^4 is a connected
    cobordism from L1 to -L2, of Euler characteristic 2 - 2g - l.  Its
    bound |s(L1) - s(-L2)| <= 2g + l - 2, with s(-L2) exact by the
    disjoint-union rule over the mirrored pieces, each at least minus
    the piece's own s by the mirror rule, and each piece's s from
    ``sn_positive``, gives g >= (c - r + 2p - l)/2.

    The numerator is even for every diagram: a piece's Seifert surface
    is connected and orientable with l_i boundary circles, so
    r_i - c_i = 2 - 2g_i - l_i, and c - r + 2p - l is twice the sum of
    the pieces' genera."""
    if not d.is_positive:
        raise NotPositiveDiagram("diagram has a negative crossing")
    return (d.n_crossings - len(d.seifert_circles) + 2 * d.n_pieces
            - d.n_components) // 2


def torus_g4(p, q):
    """Slice genus of the (p, q) torus link, ((p-1)(q-1)+1-gcd)/2."""
    return ((p - 1) * (q - 1) + 1 - math.gcd(p, q)) // 2


def torus_splitting(p, q):
    """Exact splitting number of the positive torus link T(p, q)."""
    l = math.gcd(p, q)
    return (l * (l - 1) // 2) * (p // l) * (q // l)


def sn_diagram_interval(d, n):
    """A sound s_n interval for any diagram, via the crossing-change bound.

    Changing each negative crossing to positive reaches a positive
    diagram whose s_n is exact; each change moves s_n by at most
    2(n-1), so the value propagates back as an interval.  Positive
    diagrams come out exact.  A crossing change keeps the oriented
    resolution, so the positive diagram has the crossings and Seifert
    circles of ``d`` and is never built.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if d.is_positive:
        return sn_positive(d, n)
    m = d.n_minus
    base = _positive_formula(d, n)
    slack = 2 * (n - 1) * m
    trace = base.trace + [
        f"{m} crossing changes from a positive diagram, each within 2(n-1)"]
    return SnValue(n, base.value - slack, base.value + slack, trace)


# -- bounds -----------------------------------------------------------------


def g4_lower_bound(v, l):
    """Sound slice-genus lower bound from an s_n value or interval."""
    n = v.n

    def bound(s):
        # ceil((|s|/(n-1) - l + 1) / 2), never negative
        num = abs(s) - (l - 1) * (n - 1)
        return max(0, -(-num // (2 * (n - 1))))

    if v.exact:
        return bound(v.lo)
    # the interval member minimizing |s| gives the sound (weakest) bound
    if v.lo <= 0 <= v.hi:
        return 0
    s_star = v.lo if v.lo > 0 else v.hi
    return bound(s_star)


def sp_lower_bound(s_link, s_parts, l):
    """Splitting-number lower bound of an l-component link from the exact
    s_2 of the link and of each of its components, as integers:
    ceil(|s_link - sum(s_parts) - (l-1)| / 2), the paper's
    ceil(|s_n(L) - sum s_n(K_i) - (n-1)(l-1)| / 2(n-1)) at n = 2."""
    return -(-abs(s_link - sum(s_parts) - (l - 1)) // 2)


# -- expression trees --------------------------------------------------------


class LinkExpr:
    """Base node; subclasses know their component count and how to
    evaluate themselves against the paper's rules.  Each subclass is a
    dataclass whose fields are its JSON format (see ``expr_from_dict``)."""

    def components(self):
        raise NotImplementedError

    def eval(self, n):
        raise NotImplementedError

    def realize(self):
        """A concrete diagram of the link, when one can be built."""
        raise UnevaluableLeaf(f"{type(self).__name__} has no diagram")

    def to_dict(self):
        """The node's JSON object: its type name and one key per field."""
        out = {"type": type(self).__name__}
        for f in fields(self):
            out[_KEY.get(f.name, f.name)] = _to_json_value(
                getattr(self, f.name))
        return out


@dataclass
class PositiveDiagram(LinkExpr):
    diagram: dg.LinkDiagram

    def components(self):
        return self.diagram.n_components

    def eval(self, n):
        return sn_positive(self.diagram, n)

    def realize(self):
        return self.diagram


@dataclass
class EngineDiagram(LinkExpr):
    """A diagram whose s_2 the homology engine computes.

    The engine builds degrees -1..0, C(c+1, n_-) resolutions, so a knot
    with more negative than positive crossings is evaluated as the
    mirror of its mirror: s_2(K) = -s_2(mirror K), the rule ``Mirror``
    applies to knots and names in the trace.  If the mirror's build is
    over the budget (``TooLarge``), the diagram itself is built.  Links
    have no such rule, and a knot with n_- <= n_+ is built directly.

    A positive diagram over the budget is answered by ``sn_positive``,
    whose trace names the positive formula; within the budget the
    engine still gives a positive diagram's value, which the formula
    equals (``verify``'s positive-formula suite checks this).
    """
    diagram: dg.LinkDiagram

    def components(self):
        return self.diagram.n_components

    def eval(self, n):
        if n != 2:
            raise UnevaluableLeaf("the homology engine only computes n=2")
        d = self.diagram
        if d.n_components == 1 and 2 * d.n_minus > d.n_crossings:
            try:
                return Mirror(EngineDiagram(dg.mirror(d))).eval(2)
            except TooLarge:
                pass
        try:
            return _exact(2, lee.s2(d), ["engine: filtered homology at n=2"])
        except TooLarge:
            if not d.is_positive:
                raise
        return sn_positive(d, 2)

    def realize(self):
        return self.diagram


@dataclass
class Unknot(LinkExpr):
    def components(self):
        return 1

    def eval(self, n):
        return _exact(n, 0, ["unknot: s_n = 0"])

    def realize(self):
        return dg.unknot()


@dataclass
class StronglySliceLink(LinkExpr):
    l: int

    def __post_init__(self):
        if self.l < 1:
            raise InputError("a strongly slice link needs l >= 1 components")

    def components(self):
        return self.l

    def eval(self, n):
        return _exact(n, (n - 1) * (self.l - 1),
                      [f"strongly slice, {self.l} components: s_n = (n-1)(l-1)"])


@dataclass
class KnownValue(LinkExpr):
    n: int
    value: int
    l: int
    provenance: str

    def __post_init__(self):
        if not self.provenance:
            raise InexactInput("known values must carry a provenance string")
        if self.n < 2 or self.l < 1:
            raise InputError("a known value needs n >= 2 and l >= 1")

    def components(self):
        return self.l

    def eval(self, n):
        if n != self.n:
            raise UnevaluableLeaf(
                f"known value is for n={self.n}, requested n={n}")
        return _exact(n, self.value, [f"known value ({self.provenance})"])


@dataclass
class DisjointUnion(LinkExpr):
    children: list                # of LinkExpr

    def __post_init__(self):
        if not self.children:
            raise InputError("a disjoint union needs at least one child")

    def components(self):
        return sum(c.components() for c in self.children)

    def eval(self, n):
        vals = [c.eval(n) for c in self.children]
        m = len(vals)
        lo = sum(v.lo for v in vals) + (n - 1) * (m - 1)
        hi = sum(v.hi for v in vals) + (n - 1) * (m - 1)
        trace = [t for v in vals for t in v.trace]
        trace.append(f"disjoint union of {m}: add values plus (n-1)(m-1)")
        return SnValue(n, lo, hi, trace)

    def realize(self):
        out = self.children[0].realize()
        for c in self.children[1:]:
            out = dg.disjoint_union(out, c.realize())
        return out


@dataclass
class ConnectSum(LinkExpr):
    left: LinkExpr
    right: LinkExpr
    i1: int = 0
    i2: int = 0

    def __post_init__(self):
        for key, i, child in (("i1", self.i1, self.left),
                              ("i2", self.i2, self.right)):
            last = child.components() - 1
            if not 0 <= i <= last:
                raise InputError(f"{key!r} of a ConnectSum node must lie "
                                 f"in 0..{last}, not {i}")

    def components(self):
        return self.left.components() + self.right.components() - 1

    def eval(self, n):
        a, b = self.left.eval(n), self.right.eval(n)
        trace = a.trace + b.trace + ["connected sum: s_n adds"]
        return SnValue(n, a.lo + b.lo, a.hi + b.hi, trace)

    def realize(self):
        return dg.connect_sum(self.left.realize(), self.i1,
                              self.right.realize(), self.i2)


@dataclass
class Mirror(LinkExpr):
    child: LinkExpr

    def components(self):
        return self.child.components()

    def eval(self, n):
        v = self.child.eval(n)
        l = self.components()
        if l == 1 and v.exact:
            return SnValue(n, -v.value, -v.value,
                           v.trace + ["mirror knot: s_n flips sign"])
        lo = -v.hi
        hi = (2 * l - 2) * (n - 1) - v.lo
        return SnValue(n, lo, hi,
                       v.trace + [f"mirror, l={l}: 0 <= s_n(L) + s_n(mirror) "
                                  f"<= (2l-2)(n-1)"])

    def realize(self):
        return dg.mirror(self.child.realize())


@dataclass
class CrossingChange(LinkExpr):
    child: LinkExpr
    crossing: int = None

    def components(self):
        return self.child.components()

    def eval(self, n):
        v = self.child.eval(n)
        return SnValue(n, v.lo - 2 * (n - 1), v.hi + 2 * (n - 1),
                       v.trace + ["crossing change: |delta s_n| <= 2(n-1)"])

    def realize(self):
        if self.crossing is None:
            raise UnevaluableLeaf("crossing change without a marked crossing")
        return dg.crossing_change(self.child.realize(), self.crossing)


@dataclass
class ConcordantTo(LinkExpr):
    child: LinkExpr
    note: str = ""

    def components(self):
        return self.child.components()

    def eval(self, n):
        v = self.child.eval(n)
        return SnValue(n, v.lo, v.hi,
                       v.trace + [f"concordance preserves s_n ({self.note})"])


def sn_eval(expr, n):
    if n < 2:
        raise ValueError("n must be at least 2")
    return expr.eval(n)


def refine_with_engine(expr):
    """Exact n=2 value of a realizable expression via the homology engine."""
    return EngineDiagram(expr.realize()).eval(2)


# -- (de)serialization --------------------------------------------------------

NODES = {cls.__name__: cls for cls in (
    PositiveDiagram, EngineDiagram, Unknot, StronglySliceLink, KnownValue,
    DisjointUnion, ConnectSum, Mirror, CrossingChange, ConcordantTo)}

# JSON key of a field, where it is not the field's name
_KEY = {"diagram": "pd"}


def _to_json_value(value):
    if isinstance(value, LinkExpr):
        return value.to_dict()
    if isinstance(value, list):
        return [c.to_dict() for c in value]
    if isinstance(value, dg.LinkDiagram):
        return dg.serialize_pd(value)
    return value


def expr_to_json(expr):
    return json.dumps(expr.to_dict(), indent=2)


def expr_from_dict(data):
    """The expression tree of a JSON object written by ``to_dict``.

    ``"type"`` names the node class in ``NODES``; each field of the class
    is read from its key and type-checked.  A field with a default may be
    left out, and a field whose default is None may be null.  A key that
    names no field is refused."""
    if not isinstance(data, dict):
        raise InputError(f"an expression node must be a JSON object, "
                         f"not {type(data).__name__}")
    kind = data.get("type")
    cls = NODES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise UnevaluableLeaf(f"unknown expression node {kind!r}")
    args, keys = {}, {"type"}
    for f in fields(cls):
        key = _KEY.get(f.name, f.name)
        keys.add(key)
        if key in data:
            args[f.name] = _field_from_json(kind, key, f, data[key])
        elif f.default is MISSING:
            raise InputError(f"{kind} node needs {key!r}")
    unknown = set(data) - keys
    if unknown:
        raise InputError(f"{kind} node has no field {min(unknown)!r}")
    return cls(**args)


def _field_from_json(kind, key, f, value):
    if f.type is LinkExpr:
        return expr_from_dict(value)
    expected = str if f.type is dg.LinkDiagram else f.type
    if value is None and f.default is None:
        return None
    if type(value) is not expected:
        raise InputError(f"{key!r} of a {kind} node must be a "
                         f"{expected.__name__}, not {type(value).__name__}")
    if f.type is dg.LinkDiagram:
        return dg.parse_pd(value)
    if f.type is list:
        return [expr_from_dict(c) for c in value]
    return value


def expr_from_json(text):
    try:
        return expr_from_dict(json.loads(text))
    except RecursionError:
        raise InputError("expression nested too deeply") from None
