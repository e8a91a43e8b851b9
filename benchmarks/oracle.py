"""Reference values the benchmark checks outputs against.

Everything here is computed from braid words, torus parameters or PD
tuples with closed forms, without calling linksn, so a wrong answer from
the program cannot also change the value it is compared with.
"""

from math import gcd


# -- braid closures -----------------------------------------------------------


def braid_components(word, strands):
    """Number of components of the closure: cycles of the permutation."""
    perm = list(range(strands))
    for g in word:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, cycles = set(), 0
    for start in range(strands):
        if start in seen:
            continue
        cycles += 1
        k = start
        while k not in seen:
            seen.add(k)
            k = perm[k]
    return cycles


def positive_braid_sn(word, strands, n):
    """s_n of a positive braid closure, (1-n)(c-r+1) with r = strands."""
    return (1 - n) * (len(word) - strands + 1)


def positivization_interval(word, strands, n):
    """Interval from changing every negative crossing to positive; each
    change moves s_n by at most 2(n-1)."""
    base = positive_braid_sn([abs(g) for g in word], strands, n)
    slack = 2 * (n - 1) * sum(1 for g in word if g < 0)
    return base - slack, base + slack


def mirror_window(word, strands, n):
    """Interval for s_n(L) from the positivization interval of its mirror,
    via 0 <= s_n(L) + s_n(mirror L) <= (2l-2)(n-1)."""
    lo, hi = positivization_interval([-g for g in word], strands, n)
    l = braid_components(word, strands)
    return -hi, (2 * l - 2) * (n - 1) - lo


def check_braid_value(word, strands, s2):
    """Raise ValueError unless a recorded s_2 lies in both windows."""
    for name, (lo, hi) in (
            ("positivization interval",
             positivization_interval(word, strands, 2)),
            ("mirror window", mirror_window(word, strands, 2))):
        if not lo <= s2 <= hi:
            raise ValueError(f"s_2 = {s2} of braid {word} lies outside its "
                             f"{name} [{lo}, {hi}]")


# -- torus links --------------------------------------------------------------


def torus_expected(p, q, n_range):
    """Closed forms for T(p, q) drawn as the closure of (s_1..s_{p-1})^q:
    exact s_n and the bounds block of ``bounds --torus``.  Each component
    of a torus link is the torus knot T(p/l, q/l)."""
    c, r, l = (p - 1) * q, p, gcd(p, q)
    s = {n: (1 - n) * (c - r + 1) for n in n_range}
    g = (2 - (r - c + l)) // 2
    bounds = {f"g4_lb(n={n})": max(0, -(-(abs(v) - (l - 1) * (n - 1))
                                         // (2 * (n - 1))))
              for n, v in s.items()}
    bounds.update(g3=g, g4=g, g4_torus=((p - 1) * (q - 1) + 1 - l) // 2)
    if l > 1:
        bounds["sp_torus"] = (l * (l - 1) // 2) * (p // l) * (q // l)
        if 2 in s:
            knot = -(p // l - 1) * (q // l - 1)
            bounds["sp_lb"] = -(-abs(s[2] - l * knot - (l - 1)) // 2)
    return s, bounds


# -- planar diagrams ----------------------------------------------------------


def faces(crossings):
    """Faces of a PD diagram as sets of edge ids.

    A corner (k, i) lies between slots i and i+1 of crossing k, listed
    counterclockwise.  Leaving along the edge in slot i+1 and arriving at
    its other end (k2, j), the same face continues at corner (k2, j).
    """
    ends = {}
    for k, x in enumerate(crossings):
        for i, e in enumerate(x):
            ends.setdefault(e, []).append((k, i))
    seen, out = set(), []
    for k in range(len(crossings)):
        for i in range(4):
            if (k, i) in seen:
                continue
            edges = set()
            corner = (k, i)
            while corner not in seen:
                seen.add(corner)
                ck, ci = corner
                e = crossings[ck][(ci + 1) % 4]
                edges.update((crossings[ck][ci], e))
                a, b = ends[e]
                corner = b if a == (ck, (ci + 1) % 4) else a
            out.append(edges)
    return out


def is_planar(crossings):
    """Euler's formula per connected piece: F = c + 2 * pieces."""
    parent = list(range(len(crossings)))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    first = {}
    for k, x in enumerate(crossings):
        for e in x:
            if e in first:
                parent[find(k)] = find(first[e])
            else:
                first[e] = k
    pieces = len({find(k) for k in range(len(crossings))})
    return len(faces(crossings)) == len(crossings) + 2 * pieces


# -- expression trees ---------------------------------------------------------


def expr_components(node):
    kind = node["type"]
    if kind in ("PositiveDiagram", "EngineDiagram"):
        return node["l"]
    if kind == "Unknot":
        return 1
    if kind in ("StronglySliceLink", "KnownValue"):
        return node["l"]
    if kind == "DisjointUnion":
        return sum(expr_components(c) for c in node["children"])
    if kind == "ConnectSum":
        return (expr_components(node["left"])
                + expr_components(node["right"]) - 1)
    return expr_components(node["child"])


def expr_true_value(node, n):
    """The exact s_n of the link an expression describes, where theorems
    determine it from the leaves; None where they do not."""
    kind = node["type"]
    if kind in ("PositiveDiagram", "EngineDiagram", "KnownValue"):
        return node["s"].get(str(n))
    if kind == "Unknot":
        return 0
    if kind == "StronglySliceLink":
        return (n - 1) * (node["l"] - 1)
    if kind == "DisjointUnion":
        vals = [expr_true_value(c, n) for c in node["children"]]
        if None in vals:
            return None
        return sum(vals) + (n - 1) * (len(vals) - 1)
    if kind == "ConnectSum":
        a = expr_true_value(node["left"], n)
        b = expr_true_value(node["right"], n)
        return None if a is None or b is None else a + b
    if kind == "Mirror":
        v = expr_true_value(node["child"], n)
        if v is None or expr_components(node["child"]) != 1:
            return None
        return -v
    if kind == "ConcordantTo":
        return expr_true_value(node["child"], n)
    return None  # CrossingChange
