"""Exact sparse linear algebra over the rationals.

Vectors are dicts {index: int}; scaling a vector does not change any
question we ask (rank, span membership), so everything is kept in
integers via fraction-free elimination with gcd normalization.
"""

from math import gcd


def _normalize(vec):
    g = 0
    for v in vec.values():
        g = gcd(g, v)
        if g == 1:
            return vec
    return {k: v // g for k, v in vec.items()}


class Echelon:
    """Incrementally built row-echelon basis of a span of sparse vectors."""

    def __init__(self):
        self.pivots = {}  # pivot index -> reduced row (dict)

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        """Residue of ``vec`` modulo the current span (up to scale): its
        smallest index is not a pivot, and it is gcd-normalized."""
        vec = {k: v for k, v in vec.items() if v}
        while vec:
            p = min(vec)
            row = self.pivots.get(p)
            if row is None:
                break
            # vec <- a*vec - b*row with a, b coprime and a > 0
            a, b = row[p], vec[p]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                vec = {k: a * v for k, v in vec.items()}
            for k, v in row.items():
                newv = vec.get(k, 0) - b * v
                if newv:
                    vec[k] = newv
                else:
                    del vec[k]
            if a != 1:
                vec = _normalize(vec)
        return _normalize(vec)

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        res = self.reduce(vec)
        if not res:
            return False
        self.pivots[min(res)] = res
        return True

    def contains(self, vec):
        return not self.reduce(vec)


def rank(vectors):
    ech = Echelon()
    for v in vectors:
        ech.add(v)
    return ech.rank


def in_span(vectors, target):
    """Is ``target`` a rational linear combination of ``vectors``?"""
    ech = Echelon()
    for v in vectors:
        ech.add(v)
    return ech.contains(target)
