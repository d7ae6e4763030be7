"""Reference implementations of the Stallings kernel, the conjugacy
search and the least rotation, kept as test oracles for the fast paths
that replaced them.

Each function is the straightforward version: fold restarts its scan
after every merge, the peels recount every degree each round, intersect
builds the whole product, arcs_from scans every edge, the conjugacy
search tries every rotation at every vertex and the least rotation
compares all n rotations.  They are slow on purpose and use only the
library's graph type, `components` and `path_word`;
`tests/test_kernel_differential.py` asserts that the library returns
exactly what they return.
"""

from __future__ import annotations

from freegroups.stallings import Subgroup, XDigraph, path_word
from freegroups.words import Letter, Word


def restrict(g, keep, base):
    """Induced subgraph on `keep`, renumbered densely in old-index order."""
    keep_sorted = sorted(set(keep))
    index = {v: i for i, v in enumerate(keep_sorted)}
    edges = tuple(
        (index[o], index[t], l) for o, t, l in g.edges if o in index and t in index
    )
    new_base = index[base] if base is not None and base in index else None
    return XDigraph(g.rank, len(keep_sorted), edges, new_base)


def fold(g):
    """Scan the edges for a same-labeled pair, merge it, and start over."""
    parent = list(range(g.vertex_count))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    while True:
        out_of, in_of = {}, {}
        merge = None
        for o, t, l in g.edges:
            ro, rt = find(o), find(t)
            if (ro, l) in out_of and out_of[(ro, l)] != rt:
                merge = (out_of[(ro, l)], rt)
                break
            out_of[(ro, l)] = rt
            if (rt, l) in in_of and in_of[(rt, l)] != ro:
                merge = (in_of[(rt, l)], ro)
                break
            in_of[(rt, l)] = ro
        if merge is None:
            break
        a, b = sorted(find(v) for v in merge)
        parent[b] = a
    reps = sorted({find(v) for v in range(g.vertex_count)})
    index = {r: i for i, r in enumerate(reps)}
    edges = {(index[find(o)], index[find(t)], l) for o, t, l in g.edges}
    base = index[find(g.base)] if g.base is not None else None
    return XDigraph(g.rank, len(reps), tuple(edges), base)


def _peel_rounds(g, keep):
    # Drop every degree-<=1 vertex other than `keep`, recount, repeat.
    alive = set(range(g.vertex_count))
    while True:
        deg = {u: 0 for u in alive}
        for o, t, _ in g.edges:
            if o in alive and t in alive:
                deg[o] += 1
                deg[t] += 1
        drop = [u for u in alive if u != keep and deg[u] <= 1]
        if not drop:
            return alive
        alive.difference_update(drop)


def core(g, v):
    trimmed = restrict(g, _peel_rounds(g, v), v)
    for comp in trimmed.components():
        if trimmed.base in comp:
            return restrict(trimmed, comp, trimmed.base)
    raise AssertionError("base lost its component")


def type_graph(h):
    g = h.graph
    if g.degrees[h.base] != 1:
        return g.with_base(None)
    return restrict(g, _peel_rounds(g, None), None)


def product(g, h, designated=()):
    """The full label-matched product, the designated pairs numbered first."""
    index = {}

    def at(pair):
        if pair not in index:
            index[pair] = len(index)
        return index[pair]

    for pair in designated:
        at(pair)
    by_label = {}
    for o, t, l in h.edges:
        by_label.setdefault(l, []).append((o, t))
    edges = []
    for o1, t1, l in g.edges:
        for o2, t2 in by_label.get(l, ()):
            edges.append((at((o1, o2)), at((t1, t2)), l))
    base = index[designated[0]] if designated else None
    return XDigraph(g.rank, len(index), tuple(edges), base)


def intersect(h, k):
    """The core of the full product at the pair of bases."""
    prod = product(h.graph, k.graph, ((h.base, k.base),))
    return Subgroup(core(prod, prod.base), h.alphabet)


def arcs_from(g, v):
    out = []
    for eid, (o, t, l) in enumerate(g.edges):
        if o == v:
            out.append((Letter(l, 1), t, eid))
        if t == v:
            out.append((Letter(l, -1), o, eid))
    out.sort(key=lambda a: (a[0].key, a[1], a[2]))
    return out


def least_rotation(letters):
    n = len(letters)
    if n <= 1:
        return letters
    keys = [l.key for l in letters]
    best = min(range(n), key=lambda r: [keys[(r + i) % n] for i in range(n)])
    return letters[best:] + letters[:best]


def conjugator_into(h, w):
    """Strip w = s r s^-1, then try every rotation of r at every vertex."""
    letters = w.letters
    i, j = 0, len(letters)
    while i < j - 1 and letters[i] == letters[j - 1].inverse():
        i += 1
        j -= 1
    strip = Word(w.alphabet, letters[:i])
    r0 = letters[i:j]
    if not r0:
        return Word(w.alphabet)
    g = h.graph
    for r in range(len(r0)):
        rot = r0[r:] + r0[:r]  # rot = prefix^-1 * r0 * prefix
        prefix = Word(w.alphabet, r0[:r])
        for u in range(g.vertex_count):
            v = u
            for letter in rot:
                v = g.step(v, letter)
                if v is None:
                    break
            if v == u:
                return path_word(g, h.base, u, h.alphabet) * ~prefix * ~strip
    return None
