"""Labeled digraphs carrying finitely generated subgroups of free groups.

A graph here is a finite digraph whose edges are labeled by generator
indices; traversing an edge against its direction reads the inverse
letter.  A subgroup H of F(X) is carried by the folded core graph whose
reduced base-to-base path labels are exactly the elements of H.  The
main operations: building the graph from generators, membership,
intersection via the labeled product, conjugacy via type graphs, and
extraction of a free basis from a spanning tree.

One kernel folds, `_add_arcs`: it adds arcs to a folded graph kept as
per-vertex tables (letter code -> neighbour), identifying vertices
where an arc's code is already taken.  `build_subgroup` and the
generation test read each word in from the base along the arcs that
exist, so most of the wedge is never made; `fold` pushes a graph's
edges.  The folded graph of freely reduced generators is the core at
the base, so no peel runs; `core` serves other graphs, such as
products.  Each graph caches two adjacency tables.  `XDigraph._arcs`
holds per vertex its sorted arcs (letter code, head, edge index),
bucketed from the edges once; degrees, reachability, the cycle search
and breadth-first trees read it.  `_steps` maps (vertex, letter code) to
head, built from `_arcs`; the folding test, steps and walks read it.
`with_base` copies share both.  `find_cycle`, a depth-first search on
the arc table, gives a cycle as a witness; `has_cycle`, a union-find
over the edges on `_find`, shares no code with it and certifies a "no".

Graphs are immutable after construction; all functions are pure.
"""

from __future__ import annotations

__all__ = [
    "CertificateError",
    "GraphFormatError",
    "NotFoldedError",
    "Subgroup",
    "XDigraph",
    "build_subgroup",
    "conjugate_subgroups",
    "conjugator_into",
    "contains",
    "contains_conjugate",
    "core",
    "digraph_isomorphic",
    "find_cycle",
    "fold",
    "graph_from_text",
    "graph_to_dot",
    "graph_to_text",
    "has_cycle",
    "intersect",
    "path_word",
    "spanning_tree_basis",
    "type_graph",
]

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .words import (
    Alphabet,
    AlphabetMismatchError,
    Letter,
    Word,
    _arc_letters,
    _conjugator_length,
    _encode,
    _inverse,
    _reduce,
)


class CertificateError(AssertionError):
    """A computed answer failed its own re-check.  This signals a defect
    in the library, never bad input, so it is not a ValueError; unlike a
    bare assert, the check still runs under `python -O`."""


class GraphFormatError(ValueError):
    """Malformed graph text."""


class NotFoldedError(ValueError):
    """An operation that requires a folded graph received an unfolded one."""


@dataclass(frozen=True)
class XDigraph(object):
    """A generator-labeled digraph.

    Edges are (origin, terminus, label) triples over dense vertex
    indices 0..vertex_count-1; parallel duplicates are allowed (folding
    removes them).  The edge list is stored sorted by (origin, label,
    terminus), which fixes the serialization and all traversal orders.
    """

    rank: int
    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]
    base: int | None = None

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank %d is below 1" % self.rank)
        if self.vertex_count < 0:
            raise ValueError("vertex count %d is negative" % self.vertex_count)
        edges = tuple(sorted(map(tuple, self.edges), key=itemgetter(0, 2, 1)))
        object.__setattr__(self, "edges", edges)
        for o, t, l in edges:
            if not (0 <= o < self.vertex_count and 0 <= t < self.vertex_count):
                raise ValueError("edge %r endpoint out of range" % ((o, t, l),))
            if not 0 <= l < self.rank:
                raise ValueError("edge label %d out of range" % l)
        if self.base is not None and not 0 <= self.base < self.vertex_count:
            raise ValueError("base vertex %r out of range" % (self.base,))

    @cached_property
    def _arcs(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        # Per vertex, its arcs (letter code, head, edge index) in sorted
        # order: an edge labelled l reads code 2l forwards, 2l + 1 back.
        lists: list[list[tuple[int, int, int]]] = [[] for _ in range(self.vertex_count)]
        for eid, (o, t, l) in enumerate(self.edges):
            lists[o].append((2 * l, t, eid))
            lists[t].append((2 * l + 1, o, eid))
        return tuple([tuple(sorted(arcs)) for arcs in lists])

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        # Degree in the symmetrized graph: a loop has two arcs.
        return tuple(map(len, self._arcs))

    @cached_property
    def _steps(self) -> dict[tuple[int, int], int]:
        # (vertex, letter code) -> head; two arcs sharing a key leave one entry.
        return {(v, c): head for v, arcs in enumerate(self._arcs) for c, head, _ in arcs}

    @cached_property
    def is_folded(self) -> bool:
        """No two edges share a label and an origin, or a label and a
        terminus: every arc has its own (vertex, code) key."""
        return len(self._steps) == 2 * len(self.edges)

    def step(self, v: int, letter: Letter) -> int | None:
        """Follow one letter from v in a folded graph (inverse letters walk edges backwards)."""
        self._check_vertex(v)
        (code,) = _encode((letter,), self.rank)
        if not self.is_folded:
            raise NotFoldedError("graph is not folded")
        return self._steps.get((v, code))

    def _walk(self, v: int, codes: Iterable[int]) -> int | None:
        """Where the code word leads from v, or None if it falls off."""
        steps = self._steps
        for c in codes:
            v = steps.get((v, c))  # type: ignore[assignment]
            if v is None:
                return None
        return v

    def _check_vertex(self, v: int, role: str = "vertex") -> None:
        if not 0 <= v < self.vertex_count:
            raise ValueError("%s %d out of range" % (role, v))

    def _check_alphabet(self, alphabet: Alphabet) -> None:
        if alphabet.rank != self.rank:
            raise ValueError("alphabet rank does not match graph")

    def arcs_from(self, v: int) -> tuple[tuple[Letter, int, int], ...]:
        """All arcs leaving v in the symmetrized graph, sorted by letter.

        Returns (letter, head, edge index) triples; a loop contributes
        one positive and one negative arc.
        """
        self._check_vertex(v)
        letters = _arc_letters(self.rank)
        return tuple([(letters[k], head, eid) for k, head, eid in self._arcs[v]])

    def _reach(self, start: int, alive: Sequence[bool] | None = None) -> set[int]:
        """The vertices a walk from start reaches, passing only through
        vertices flagged in `alive` when it is given."""
        arcs = self._arcs
        seen = {start}
        stack = [start]
        while stack:
            for _, w, _ in arcs[stack.pop()]:
                if w not in seen and (alive is None or alive[w]):
                    seen.add(w)
                    stack.append(w)
        return seen

    def with_base(self, v: int | None) -> "XDigraph":
        """The same graph at another base.  The cached tables that do not
        depend on the base are shared with the copy, not built again."""
        g = XDigraph(self.rank, self.vertex_count, self.edges, v)
        for name in _BASE_FREE_TABLES:
            if name in self.__dict__:
                g.__dict__[name] = self.__dict__[name]
        return g


# The cached properties of an XDigraph that read only its edges.
_BASE_FREE_TABLES = ("_arcs", "degrees", "_steps", "is_folded")


def _restrict(g: XDigraph, keep: Iterable[int], base: int | None) -> XDigraph:
    """Induced subgraph on `keep`, renumbered densely in old-index order."""
    keep_sorted = sorted(set(keep))
    index = {v: i for i, v in enumerate(keep_sorted)}
    edges = tuple(
        (index[o], index[t], l) for o, t, l in g.edges if o in index and t in index
    )
    new_base = index[base] if base is not None and base in index else None
    return XDigraph(g.rank, len(keep_sorted), edges, new_base)


def _find(alias: dict[int, int], v: int) -> int:
    """The live vertex that absorbed v, halving the alias chain."""
    while v in alias:
        up = alias[v]
        alias[v] = v = alias.get(up, up)
    return v


def _add_arcs(adj: list, alias: dict[int, int], work: list[tuple[int, int, int]]) -> None:
    """Add the arcs (u, code, x) of `work` to the folded graph `adj` and
    fold again (Stallings 1983; Kapovich-Myasnikov 2002).  adj[v] maps a
    code to v's one neighbour along it, beside each arc its reverse (x,
    code ^ 1, u); an absorbed vertex's entry is None, and `alias` maps it
    to its absorber.  An arc whose code is taken at u, or its reverse's
    at x, identifies two vertices: the larger's arcs leave its
    neighbours and are pushed again from the smaller.  So each class
    keeps its least member, a merge costs O(rank), and the classes do
    not depend on the order of the work."""
    while work:
        u, c, x = work.pop()
        u, x = _find(alias, u), _find(alias, x)
        y = adj[u].get(c)
        if y is None:
            y = adj[x].get(c ^ 1)
            if y is None:
                adj[u][c] = x
                adj[x][c ^ 1] = u
                continue
            x = u  # the arc closes onto y's arc: u and y are one vertex
        if x == y:
            continue
        keep, gone = min(x, y), max(x, y)
        arcs, adj[gone], alias[gone] = adj[gone], None, keep
        for d, w in arcs.items():
            if w != gone:
                del adj[w][d ^ 1]
            work.append((keep, d, w))


def _graph(rank: int, adj: list, base: int | None) -> XDigraph:
    """The graph on the live vertices of `adj`, numbered densely in index
    order; `base` is live or None."""
    live = [v for v, arcs in enumerate(adj) if arcs is not None]
    new = {v: i for i, v in enumerate(live)} if len(live) < len(adj) else range(len(adj))
    edges = [(new[v], new[w], c >> 1) for v in live for c, w in adj[v].items() if not c & 1]
    return XDigraph(rank, len(live), tuple(edges), None if base is None else new[base])


def fold(g: XDigraph) -> XDigraph:
    """Merge edges with equal label and a shared endpoint until folded.
    Vertices are numbered by their class's smallest original index."""
    adj: list = [{} for _ in range(g.vertex_count)]
    alias: dict[int, int] = {}
    _add_arcs(adj, alias, [(o, 2 * l, t) for o, t, l in g.edges])
    return _graph(g.rank, adj, None if g.base is None else _find(alias, g.base))


def _peel(g: XDigraph, keep: int | None) -> list[bool]:
    """Survival flags after repeatedly removing every vertex of g of
    degree at most one other than `keep`.

    Degrees count arcs in the symmetrized graph, so a loop counts twice.
    The removals do not depend on their order.  A worklist holds the
    removed vertices whose arcs are still to be taken away; taking them
    away costs each neighbour still alive one degree per arc and removes
    it when its degree falls to one.  A neighbour already removed is
    skipped, since its degree no longer matters, so no edge ids are
    needed and each arc is read once.  A vertex with a loop keeps degree
    at least two, so it is never removed.
    """
    arcs = g._arcs
    deg = list(g.degrees)
    alive = [True] * len(deg)
    work = [u for u, d in enumerate(deg) if d <= 1 and u != keep]
    for u in work:
        alive[u] = False
    while work:
        for _, w, _ in arcs[work.pop()]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] <= 1 and w != keep:
                    alive[w] = False
                    work.append(w)
    return alive


def core(g: XDigraph, v: int) -> XDigraph:
    """The union of reduced v-to-v paths in g.

    For a folded graph this is the connected component of v with
    degree-at-most-one vertices other than v repeatedly peeled off.
    Peeling never disconnects what remains, so the component is found
    among the survivors.  The base of the result is v.
    """
    g._check_vertex(v, "core base")
    return _restrict(g, g._reach(v, _peel(g, v)), v)


@dataclass(frozen=True)
class Subgroup(object):
    """A subgroup carried by a folded core graph with a base vertex.

    Construction verifies the folded and core certificates, so holding
    a Subgroup is proof that both hold.
    """

    graph: XDigraph
    alphabet: Alphabet

    def __post_init__(self) -> None:
        g = self.graph
        if g.base is None:
            raise ValueError("subgroup graph needs a base vertex")
        if g.rank != self.alphabet.rank:
            raise ValueError("graph rank %d does not match alphabet" % g.rank)
        if not g.is_folded:
            raise NotFoldedError("subgroup graph must be folded")
        # The core: connected, and no vertex but the base of degree below two.
        if len(g._reach(g.base)) != g.vertex_count or any(
            d < 2 for v, d in enumerate(g.degrees) if v != g.base
        ):
            raise ValueError("subgroup graph must be a core graph at its base")

    @property
    def base(self) -> int:
        return self.graph.base  # type: ignore[return-value]

    @property
    def free_rank(self) -> int:
        """Edges minus vertices plus one: the rank of the carried subgroup."""
        return len(self.graph.edges) - self.graph.vertex_count + 1

    @property
    def is_trivial(self) -> bool:
        return not self.graph.edges


def _read(code_words: Iterable[Sequence[int]]) -> tuple[list, dict[int, int]]:
    """The folded graph of the code words at base 0, as (adj, alias).

    Each word follows the arcs that exist from 0, adds a vertex only
    where none does, and links its last letter back to 0.  Vertices are
    made in wedge order, and each class's smallest wedge vertex is made,
    so the live vertices number the classes as folding the wedge would.
    """
    adj: list = [{}]
    alias: dict[int, int] = {}
    for codes in code_words:
        if not codes:
            continue
        v = 0
        for c in codes[:-1]:
            w = adj[v].get(c)
            if w is None:
                w = adj[v][c] = len(adj)
                adj.append({c ^ 1: v})
            v = w
        _add_arcs(adj, alias, [(v, codes[-1], 0)])
    return adj, alias


def _generates(code_words: Sequence[Sequence[int]], rank: int) -> bool:
    """Do the code words generate the free group of the rank?  Exactly
    when they fold to the rose: one vertex with all 2 * rank codes."""
    adj, alias = _read(code_words)
    return len(adj) - len(alias) == 1 and len(adj[0]) == 2 * rank


def build_subgroup(generators: Sequence[Word], alphabet: Alphabet) -> Subgroup:
    """Read the generators into one folded graph at base 0; it is the
    core, so no peel runs and it is the one graph made.

    Every edge of the folded graph is the image of an edge on some
    generator loop, and that loop reads a freely reduced word, which in
    a folded graph labels a path without backtracking.  So each edge
    lies on a reduced closed path at the base, and every vertex but the
    base has degree at least two (Stallings 1983).  Vertex 0, the base,
    leads its class.  `Subgroup` re-checks folded, connected and core,
    and a failure there is the library's defect.

    >>> A, a = Alphabet.of_rank(1), Letter(0, 1)
    >>> h = build_subgroup([Word(A, [a] * 3), Word(A, [a] * 4)], A)
    >>> print(graph_to_text(h.graph, A), end="")
    v 1
    base 0
    e 0 0 a
    """
    for w in generators:
        if w.alphabet != alphabet:
            raise AlphabetMismatchError("generator over a different alphabet")
    adj, _ = _read([w.codes for w in generators])
    try:
        return Subgroup(_graph(alphabet.rank, adj, 0), alphabet)
    except ValueError as exc:
        raise CertificateError("build_subgroup made a graph that is not a core: %s" % exc) from None


def contains(h: Subgroup, w: Word) -> bool:
    """Trace w letter by letter from the base; membership iff it closes up."""
    if w.alphabet != h.alphabet:
        raise AlphabetMismatchError("word over a different alphabet")
    return h.graph._walk(h.base, w.codes) == h.base


def contains_conjugate(h: Subgroup, w: Word) -> bool:
    """Is some conjugate of w an element of h?"""
    return _closing_vertex(h, w) is not None


def conjugator_into(h: Subgroup, w: Word) -> "Word | None":
    """A word x with x w x^-1 in h, or None if no conjugate of w lies in
    h: for w = s r s^-1, the base-to-u path label, then s^-1."""
    u = _closing_vertex(h, w)
    if u is None:
        return None
    strip = Word._of(w.alphabet, w.codes[: _conjugator_length(w.codes)])
    return path_word(h.graph, h.base, u, h.alphabet) * ~strip


def _closing_vertex(h: Subgroup, w: Word) -> int | None:
    """A vertex u of h's core graph where r closes up, for w = s r s^-1
    with r cyclically reduced (the base when r is empty), or None.  A
    conjugate of w lies in h exactly when r closes up at some vertex:
    if a rotation of r closes at u, r itself closes at the vertex the
    rotated-off part leads to, so one pass over the vertices suffices.
    """
    if w.alphabet != h.alphabet:
        raise AlphabetMismatchError("word over a different alphabet")
    codes = w.codes
    i = _conjugator_length(codes)
    r = codes[i : len(codes) - i]
    if not r:
        return h.base
    g = h.graph
    for u in range(g.vertex_count):
        if g._walk(u, r) == u:
            return u
    return None


def type_graph(h: Subgroup) -> XDigraph:
    """The conjugacy invariant of h: its graph with the hanging base path
    removed (equivalently, the intersection of the cores at every vertex).

    If the base has degree other than one there is nothing to remove.
    The result carries no base.
    """
    g = h.graph
    if g.degrees[h.base] != 1:
        return g.with_base(None)
    alive = _peel(g, None)
    return _restrict(g, (u for u in range(g.vertex_count) if alive[u]), None)


def product(g: XDigraph, h: XDigraph) -> XDigraph:
    """The label-matched product: edges ((o,o'),(t,t'),l) for every pair
    of same-labeled edges.  Only vertex pairs incident to a product edge
    are materialized, numbered in order of first appearance."""
    if g.rank != h.rank:
        raise ValueError("product of graphs over different ranks")
    index: dict[tuple[int, int], int] = {}
    by_label: dict[int, list[tuple[int, int]]] = {}
    for o, t, l in h.edges:
        by_label.setdefault(l, []).append((o, t))
    edges = []
    for o1, t1, l in g.edges:
        for o2, t2 in by_label.get(l, ()):
            origin = index.setdefault((o1, o2), len(index))
            edges.append((origin, index.setdefault((t1, t2), len(index)), l))
    return XDigraph(g.rank, len(index), tuple(edges))


def intersect(h: Subgroup, k: Subgroup) -> Subgroup:
    """The subgroup on the core of the product at the pair of bases.

    Only the base pair's component of the product matters, so it is
    found by a search that steps both folded graphs in lockstep: from
    each pair it walks h's arcs and looks up only their letters in k.
    Its pairs are numbered as the full product numbers them: by first
    appearance over the edges sorted by (o1, label, o2), origin before
    terminus, with the base pair first.
    """
    if h.alphabet != k.alphabet:
        raise AlphabetMismatchError("subgroups over different alphabets")
    arcs1, steps2 = h.graph._arcs, k.graph._steps
    start = (h.base, k.base)
    seen = {start}
    edges: dict[tuple[int, int, int], tuple[int, int]] = {}  # (o1, l, o2) -> terminus
    stack = [start]
    while stack:
        pair = u1, u2 = stack.pop()
        for c, far1, _ in arcs1[u1]:
            far2 = steps2.get((u2, c))
            if far2 is None:
                continue
            far = (far1, far2)
            if far not in seen:
                seen.add(far)
                stack.append(far)
            origin, terminus = (far, pair) if c & 1 else (pair, far)
            edges[origin[0], c >> 1, origin[1]] = terminus
    index = {start: 0}
    edge_list = tuple(
        (index.setdefault((o1, o2), len(index)), index.setdefault(t, len(index)), l)
        for (o1, l, o2), t in sorted(edges.items())
    )
    prod = XDigraph(h.alphabet.rank, len(index), edge_list, 0)
    return Subgroup(core(prod, 0), h.alphabet)


def conjugate_subgroups(h: Subgroup, k: Subgroup) -> bool:
    """Conjugacy test: the type graphs must be isomorphic as labeled digraphs."""
    if h.alphabet != k.alphabet:
        raise AlphabetMismatchError("subgroups over different alphabets")
    return digraph_isomorphic(type_graph(h), type_graph(k))


def digraph_isomorphic(
    g: XDigraph, h: XDigraph, bases: tuple[int, int] | None = None
) -> bool:
    """Label-and-direction-preserving isomorphism of folded connected graphs.

    Folded rigidity: a seed pair determines the whole map, so try vertex
    0 of g against every vertex of h (or just the given base pair) and
    propagate deterministically.
    """
    if g.rank != h.rank:
        raise ValueError("isomorphism test of graphs over different ranks")
    if bases is not None:
        g._check_vertex(bases[0], "base")
        h._check_vertex(bases[1], "base")
    for graph in (g, h):
        # More vertices than edges + 1 cannot be connected; this check
        # comes first, so a bare vertex count builds no per-vertex tables.
        if graph.vertex_count > len(graph.edges) + 1:
            raise ValueError("isomorphism test requires connected graphs")
        if not graph.is_folded:
            raise NotFoldedError("isomorphism test requires folded graphs")
        if graph.vertex_count and len(graph._reach(0)) != graph.vertex_count:
            raise ValueError("isomorphism test requires connected graphs")
    if g.vertex_count != h.vertex_count or len(g.edges) != len(h.edges):
        return False
    if g.vertex_count == 0:
        return True
    seed = bases[0] if bases is not None else 0
    candidates = [bases[1]] if bases is not None else list(range(h.vertex_count))
    for cand in candidates:
        if _propagate(g, h, seed, cand):
            return True
    return False


def _propagate(g: XDigraph, h: XDigraph, seed: int, cand: int) -> bool:
    arcs, steps = g._arcs, h._steps
    mapping = {seed: cand}
    queue = deque([seed])
    while queue:
        v = queue.popleft()
        for c, to, _ in arcs[v]:
            image = steps.get((mapping[v], c))
            if image is None:
                return False
            if to in mapping:
                if mapping[to] != image:
                    return False
            else:
                mapping[to] = image
                queue.append(to)
    return len(set(mapping.values())) == h.vertex_count


def spanning_tree_basis(h: Subgroup) -> list[Word]:
    """A free basis of h: one word per positive edge outside a breadth-first
    spanning tree, reading tree path + edge + tree path back.

    The tree explores arcs in (discovery order, label, sign) order, so
    the output is deterministic; its length is edges - vertices + 1.
    """
    tree = _bfs_tree(h.graph, h.base)
    tree_edges = {up[2] for up in tree.values() if up is not None}
    basis = []
    for eid, (o, t, l) in enumerate(h.graph.edges):
        if eid in tree_edges:
            continue
        down = _tree_path(tree, o) + (2 * l,)
        basis.append(Word._of(h.alphabet, _reduce(down + _inverse(_tree_path(tree, t)))))
    return basis


def _bfs_tree(g: XDigraph, root: int) -> dict[int, tuple[int, int, int] | None]:
    """A breadth-first spanning tree of root's component: each reached
    vertex maps to (parent, code of the arc from the parent, edge
    index), the root to None.  Arcs are explored in (discovery order,
    label, sign) order, and a vertex keeps the arc that first reaches it."""
    arcs = g._arcs
    tree: dict[int, tuple[int, int, int] | None] = {root: None}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for c, to, eid in arcs[v]:
            if to not in tree:
                tree[to] = (v, c, eid)
                queue.append(to)
    return tree


def _tree_path(tree: dict[int, tuple[int, int, int] | None], v: int) -> tuple[int, ...]:
    """The codes along the tree path from the root to v."""
    codes: list[int] = []
    up = tree[v]
    while up is not None:
        v, c, _ = up
        codes.append(c)
        up = tree[v]
    return tuple(codes[::-1])


def has_cycle(g: XDigraph) -> bool:
    """Does some connected component contain at least as many edges as
    vertices?  (Equivalently: the symmetrized graph is not a forest.)
    A union-find over the edges: a loop, or an edge whose ends are
    already joined, closes a cycle.  It shares no code with the search
    of `find_cycle`, so a "no" from one is re-checked by the other."""
    alias: dict[int, int] = {}
    for o, t, _ in g.edges:
        o, t = _find(alias, o), _find(alias, t)
        if o == t:
            return True
        alias[t] = o
    return False


def find_cycle(g: XDigraph) -> tuple[tuple[Letter, ...], int] | None:
    """The first cycle discovered by depth-first search, as (label word,
    anchor vertex), or None when the graph is a forest.  The word labels
    a closed path at the anchor; on a folded graph it is nontrivial and
    cyclically reduced.  An unfolded graph may get an unreduced label:
    two parallel a-edges give `a A`."""
    found = _find_cycle(g)
    if found is None:
        return None
    letters = _arc_letters(g.rank)
    return tuple([letters[c] for c in found[0]]), found[1]


def _find_cycle(g: XDigraph) -> tuple[tuple[int, ...], int] | None:
    """find_cycle with the label word as letter codes.  In an undirected
    depth-first search an edge that meets a reached vertex, other than
    the one it came by, meets a vertex still on the path, so one depth
    table serves every start."""
    all_arcs = g._arcs
    depth: dict[int, int] = {}
    for start in range(g.vertex_count):
        if start in depth:
            continue
        depth[start] = 0
        # (arc iterator, entering edge id, entering code) per path vertex
        stack = [(iter(all_arcs[start]), -1, -1)]
        while stack:
            arcs, enter_eid, _ = stack[-1]
            for c, to, eid in arcs:
                if eid == enter_eid:
                    continue
                if to in depth:
                    codes = tuple([k for _, _, k in stack[depth[to] + 1 :]]) + (c,)
                    return codes, to
                depth[to] = len(stack)
                stack.append((iter(all_arcs[to]), eid, c))
                break
            else:
                stack.pop()
    return None


def path_word(g: XDigraph, u: int, v: int, alphabet: Alphabet) -> Word:
    """The free reduction of the label of a shortest u-to-v path in the
    symmetrized graph.  On a folded graph it labels that path.  On an
    unfolded graph it need not label any u-to-v path: for 0 -a-> 1 <-a- 2
    the path from 0 to 2 reads `a A`, and the result is the trivial word."""
    g._check_alphabet(alphabet)
    g._check_vertex(u)
    g._check_vertex(v)
    tree = _bfs_tree(g, u)
    if v not in tree:
        raise ValueError("no path between %d and %d" % (u, v))
    return Word._of(alphabet, _reduce(_tree_path(tree, v)))


def graph_to_text(g: XDigraph, alphabet: Alphabet) -> str:
    """Line-oriented serialization: vertex count, optional base, then edges
    sorted by (origin, label, terminus)."""
    g._check_alphabet(alphabet)
    lines = ["v %d" % g.vertex_count]
    if g.base is not None:
        lines.append("base %d" % g.base)
    for o, t, l in g.edges:
        lines.append("e %d %d %s" % (o, t, alphabet.symbols[l]))
    return "\n".join(lines) + "\n"


def graph_from_text(text: str, alphabet: Alphabet) -> XDigraph:
    vertex_count: int | None = None
    base: int | None = None
    edges: list[tuple[int, int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "v" and len(parts) == 2:
                if vertex_count is not None:
                    raise GraphFormatError("repeated 'v' line")
                vertex_count = int(parts[1])
            elif parts[0] == "base" and len(parts) == 2:
                if base is not None:
                    raise GraphFormatError("repeated 'base' line")
                base = int(parts[1])
            elif parts[0] == "e" and len(parts) == 4:
                edges.append((int(parts[1]), int(parts[2]), alphabet.index(parts[3])))
            else:
                raise GraphFormatError("unrecognized graph line %r" % line)
        except ValueError as exc:
            raise GraphFormatError("bad graph line %r: %s" % (line, exc)) from None
    if vertex_count is None:
        raise GraphFormatError("missing 'v <count>' line")
    try:
        return XDigraph(alphabet.rank, vertex_count, tuple(edges), base)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def graph_to_dot(g: XDigraph, alphabet: Alphabet) -> str:
    """A dot rendering for inspection; the base vertex is doubly circled."""
    g._check_alphabet(alphabet)
    lines = ["digraph stallings {"]
    for v in range(g.vertex_count):
        shape = "doublecircle" if v == g.base else "circle"
        lines.append('  v%d [shape=%s label="%d"];' % (v, shape, v))
    for o, t, l in g.edges:
        lines.append('  v%d -> v%d [label="%s"];' % (o, t, alphabet.symbols[l]))
    lines.append("}")
    return "\n".join(lines) + "\n"
