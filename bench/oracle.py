"""A small free-group toolkit that shares no code with `freegroups`.

The workload generators build inputs with it and the checker verifies
outputs with it, so a bug in the library cannot vouch for itself.
Words are strings in the `fgt` text format: lowercase for a generator,
uppercase for its inverse, "1" for the empty word.  Internally a letter
is an int code `2 * gen + (0 if positive else 1)`; `code ^ 1` inverts
it and code order is the library's letter order (a < A < b < B < ...).
"""

from __future__ import annotations

import random
from collections import deque

SYMBOLS = "abcdefghijklmnopqrstuvwxyz"


def codes(word: str) -> list[int]:
    if word == "1":
        return []
    return [2 * SYMBOLS.index(c.lower()) + (0 if c.islower() else 1) for c in word]


def text(cs) -> str:
    if not cs:
        return "1"
    return "".join(SYMBOLS[c >> 1] if c & 1 == 0 else SYMBOLS[c >> 1].upper() for c in cs)


def reduce_codes(cs) -> list[int]:
    stack: list[int] = []
    for c in cs:
        if stack and stack[-1] == c ^ 1:
            stack.pop()
        else:
            stack.append(c)
    return stack


def reduce(word: str) -> str:
    return text(reduce_codes(codes(word)))


def inverse(word: str) -> str:
    if word == "1":
        return word
    return "".join(c.swapcase() for c in reversed(word))


def mul(*words: str) -> str:
    return reduce("".join(w for w in words if w != "1"))


def cyclic_core(cs: list[int]) -> list[int]:
    """The cyclically reduced middle of a reduced word."""
    i, j = 0, len(cs)
    while i < j - 1 and cs[i] == cs[j - 1] ^ 1:
        i += 1
        j -= 1
    return cs[i:j]


def least_rotation(cs: list[int]) -> list[int]:
    """Booth's linear-time least rotation."""
    n = len(cs)
    if n <= 1:
        return list(cs)
    s = cs + cs
    fail = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        c = s[j]
        i = fail[j - k - 1]
        while i != -1 and c != s[k + i + 1]:
            if c < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != s[k + i + 1]:
            if c < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return s[k:k + n]


def canonical_cyclic(word: str) -> str:
    """The text `fgt cyclic` must print for this word."""
    return text(least_rotation(cyclic_core(reduce_codes(codes(word)))))


def support(word: str) -> set[int]:
    return {c >> 1 for c in codes(word)}


# ---------------------------------------------------------------- random words


def random_word(rng: random.Random, length: int, rank: int, cyclic: bool = False) -> str:
    """A uniformly grown reduced (optionally cyclically reduced) word."""
    if length <= 0:
        return "1"
    out: list[int] = []
    while len(out) < length:
        c = rng.randrange(2 * rank)
        if out and c == out[-1] ^ 1:
            continue
        if cyclic and len(out) == length - 1 and length > 1 and c == out[0] ^ 1:
            continue
        out.append(c)
    return text(out)


# ------------------------------------------------- Whitehead automorphisms


ACTIONS = ("keep", "right", "left", "conj")


def whitehead_image(gen: int, mult: int, action: str) -> list[int]:
    """Image of the positive generator `gen` under a multiplier automorphism."""
    x = 2 * gen
    if gen == mult >> 1 or action == "keep":
        return [x]
    if action == "right":
        return [x, mult]
    if action == "left":
        return [mult ^ 1, x]
    return [mult ^ 1, x, mult]


def apply_whitehead(cs: list[int], mult: int, actions: dict[int, str]) -> list[int]:
    out: list[int] = []
    for c in cs:
        image = whitehead_image(c >> 1, mult, actions.get(c >> 1, "keep"))
        if c & 1:
            out.extend(x ^ 1 for x in reversed(image))
        else:
            out.extend(image)
    return reduce_codes(out)


def parse_mult(line: str) -> tuple[int, dict[int, str]]:
    """Parse the `wmin --steps` form 'mult X a:keep b:right ...'."""
    parts = line.split()
    if len(parts) < 2 or parts[0] != "mult":
        raise ValueError("not a multiplier step: %r" % line)
    mult = codes(parts[1])[0]
    actions = {}
    for p in parts[2:]:
        name, _, act = p.partition(":")
        if act not in ACTIONS:
            raise ValueError("unknown action in %r" % line)
        actions[SYMBOLS.index(name)] = act
    return mult, actions


def random_whitehead(rng: random.Random, rank: int) -> tuple[int, dict[int, str]]:
    mult = rng.randrange(2 * rank)
    actions = {g: rng.choice(ACTIONS) for g in range(rank) if g != mult >> 1}
    return mult, actions


# ------------------------------------------------------------ Nielsen moves


def nielsen_move(basis: list[str], target: int, source: int | None) -> None:
    """The library's elementary moves: invert entry `target`, or
    right-multiply it by entry `source`."""
    if source is None:
        basis[target] = inverse(basis[target])
    else:
        basis[target] = mul(basis[target], basis[source])


# --------------------------------------------------------- Stallings graphs


class Graph:
    """A folded labelled graph: out[v][label] and inn[v][label] give the
    neighbour across the unique edge of that label, if any."""

    def __init__(self, out: list[dict[int, int]], inn: list[dict[int, int]], base: int | None):
        self.out, self.inn, self.base = out, inn, base

    @property
    def vertex_count(self) -> int:
        return len(self.out)

    @property
    def edge_count(self) -> int:
        return sum(len(d) for d in self.out)

    def step(self, v: int, c: int) -> int | None:
        return (self.inn if c & 1 else self.out)[v].get(c >> 1)

    def arcs(self, v: int) -> list[tuple[int, int]]:
        """(letter code, head) pairs leaving v, in letter order."""
        arcs = [(2 * l, t) for l, t in self.out[v].items()]
        arcs += [(2 * l + 1, o) for l, o in self.inn[v].items()]
        arcs.sort()
        return arcs

    def reads(self, v: int, cs) -> int | None:
        for c in cs:
            v = self.step(v, c)
            if v is None:
                return None
        return v

    def contains(self, word: str) -> bool:
        return self.reads(self.base, reduce_codes(codes(word))) == self.base

    def contains_conjugate(self, word: str) -> bool:
        core = cyclic_core(reduce_codes(codes(word)))
        return any(self.reads(v, core) == v for v in range(self.vertex_count))

    @property
    def rank(self) -> int:
        return self.edge_count - self.vertex_count + 1

    def canonical(self) -> tuple:
        """Breadth-first renumbering from the base; folded graphs make it
        a complete invariant of the based graph."""
        order = {self.base: 0}
        queue = deque([self.base])
        edges = []
        while queue:
            v = queue.popleft()
            for c, t in self.arcs(v):
                if t not in order:
                    order[t] = len(order)
                    queue.append(t)
        for v in range(self.vertex_count):
            if v in order:
                edges.extend((order[v], order[t], l) for l, t in self.out[v].items())
        return len(order), tuple(sorted(edges))

    def basis(self) -> list[str]:
        """Free basis from a breadth-first spanning tree at the base."""
        parent: dict[int, tuple[int, int] | None] = {self.base: None}
        queue = deque([self.base])
        tree = set()
        while queue:
            v = queue.popleft()
            for c, t in self.arcs(v):
                if t not in parent:
                    parent[t] = (v, c)
                    tree.add((v, t, c >> 1) if c & 1 == 0 else (t, v, c >> 1))
                    queue.append(t)

        def down(v: int) -> list[int]:
            path = []
            while parent[v] is not None:
                v, c = parent[v]
                path.append(c)
            return path[::-1]

        out = []
        for o in range(self.vertex_count):
            for l, t in self.out[o].items():
                if (o, t, l) not in tree:
                    out.append(text(reduce_codes(down(o) + [2 * l] + [c ^ 1 for c in reversed(down(t))])))
        return out

    def degree_signature(self) -> list[tuple]:
        return sorted((tuple(sorted(self.out[v])), tuple(sorted(self.inn[v]))) for v in range(self.vertex_count))


def fold_edges(n: int, edges, base: int | None) -> Graph:
    """Stallings folding by a worklist of merges, then dense renumbering."""
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    out: list[dict[int, int]] = [dict() for _ in range(n)]
    inn: list[dict[int, int]] = [dict() for _ in range(n)]
    pending: list[tuple[int, int]] = []

    def add(o: int, t: int, l: int) -> None:
        if l in out[o] and out[o][l] != t:
            pending.append((out[o][l], t))
        elif l in inn[t] and inn[t][l] != o:
            pending.append((inn[t][l], o))
        else:
            out[o][l] = t
            inn[t][l] = o

    for o, t, l in edges:
        add(find(o), find(t), l)
        while pending:
            a, b = pending.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            moved = [(b, t2, l2) for l2, t2 in out[b].items()] + [(o2, b, l2) for l2, o2 in inn[b].items()]
            for o2, t2, l2 in moved:
                if out[o2].get(l2) == t2:
                    del out[o2][l2]
                if inn[t2].get(l2) == o2:
                    del inn[t2][l2]
            for o2, t2, l2 in moved:
                add(find(o2), find(t2), l2)
    alive = sorted({find(v) for v in range(n)})
    index = {v: i for i, v in enumerate(alive)}
    new_out = [{l: index[find(t)] for l, t in out[v].items()} for v in alive]
    new_inn = [{l: index[find(o)] for l, o in inn[v].items()} for v in alive]
    return Graph(new_out, new_inn, index[find(base)] if base is not None else None)


def core_graph(g: Graph, keep_base: bool = True) -> Graph:
    """Peel degree <= 1 vertices (never the base when `keep_base`) and
    keep the base's component (or the rest, for type graphs)."""
    deg = [len(g.out[v]) + len(g.inn[v]) for v in range(g.vertex_count)]
    alive = [True] * g.vertex_count
    queue = deque(v for v in range(g.vertex_count) if deg[v] <= 1)
    while queue:
        v = queue.popleft()
        if not alive[v] or (keep_base and v == g.base) or deg[v] > 1:
            continue
        alive[v] = False
        for _, t in g.arcs(v):
            if alive[t] and t != v:
                deg[t] -= 1
                if deg[t] <= 1:
                    queue.append(t)
    if keep_base:
        seen = {g.base}
        queue = deque([g.base])
        while queue:
            v = queue.popleft()
            for _, t in g.arcs(v):
                if alive[t] and t not in seen:
                    seen.add(t)
                    queue.append(t)
        alive = [v in seen for v in range(g.vertex_count)]
    keep = [v for v in range(g.vertex_count) if alive[v]]
    index = {v: i for i, v in enumerate(keep)}
    out = [{l: index[t] for l, t in g.out[v].items() if t in index} for v in keep]
    inn = [{l: index[o] for l, o in g.inn[v].items() if o in index} for v in keep]
    base = index[g.base] if g.base in index else None
    return Graph(out, inn, base)


def subgroup_graph(words) -> Graph:
    """Folded core graph of the subgroup generated by `words`."""
    edges = []
    n = 1
    for w in words:
        cs = reduce_codes(codes(w))
        prev = 0
        for i, c in enumerate(cs):
            nxt = 0 if i == len(cs) - 1 else n
            if nxt:
                n += 1
            edges.append((prev, nxt, c >> 1) if c & 1 == 0 else (nxt, prev, c >> 1))
            prev = nxt
    return core_graph(fold_edges(n, edges, 0))


def graph_from_text(txt: str) -> Graph:
    """Load a graph in the `fgt` format, rejecting it unless it is folded."""
    out: list[dict[int, int]] = []
    inn: list[dict[int, int]] = []
    base = None
    for line in txt.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            out = [dict() for _ in range(int(parts[1]))]
            inn = [dict() for _ in range(int(parts[1]))]
        elif parts[0] == "base":
            base = int(parts[1])
        elif parts[0] == "e":
            o, t, l = int(parts[1]), int(parts[2]), SYMBOLS.index(parts[3])
            if l in out[o] or l in inn[t]:
                raise ValueError("graph is not folded")
            out[o][l] = t
            inn[t][l] = o
        else:
            raise ValueError("bad graph line %r" % line)
    return Graph(out, inn, base)


def graph_to_text(g: Graph, perm: list[int] | None = None) -> str:
    """Serialize in the `fgt` graph format, optionally renumbered."""
    p = perm or list(range(g.vertex_count))
    lines = ["v %d" % g.vertex_count]
    if g.base is not None:
        lines.append("base %d" % p[g.base])
    edges = sorted((p[o], p[t], l) for o in range(g.vertex_count) for l, t in g.out[o].items())
    lines += ["e %d %d %s" % (o, t, SYMBOLS[l]) for o, t, l in edges]
    return "\n".join(lines) + "\n"


def is_basis(words, rank: int) -> bool:
    """Do the words generate F_rank?  (n words generating are a basis.)"""
    g = subgroup_graph(words)
    return g.vertex_count == 1 and sorted(g.out[0]) == list(range(rank))
