"""Reference implementations of the Stallings kernel, the degree,
folding, component and cycle tests on graph edges, the conjugacy
search, the least rotation, the application of a Whitehead automorphism,
the Nielsen search, the per-move replay of a Nielsen move list as an
automorphism, the multiplier cut table, the walk of the relabelings
and the Letter-keyed words, kept as test oracles for the fast paths
that replaced them.

Each function is the straightforward version: degrees and is_folded
pass over the edges, is_folded with a seen-set per direction;
components grows one depth-first search per unseen vertex, and
has_cycle compares the edge and vertex counts of each component;
find_cycle keeps a visited set beside a stack of path records that it
unwinds per vertex, where the library keeps one depth table; fold
restarts its scan after every merge, the peels recount every degree
each round, intersect builds the whole product, arcs_from scans every
edge, the conjugacy search tries every rotation at every vertex,
the least rotation compares all n rotations, and Booth's algorithm
finds its start with a failure table, as the library did before its
two-pointer scan; a Whitehead automorphism
rewrites `Letter`s one by one, then reduces, cyclically reduces and
rotates in full; the Whitehead descent builds a public automorphism
per step and rotates every word after every step; the multiplier scan
slices one flat array of cut cells per multiplier at code offsets,
where the library keeps one `bytes` per candidate; the relabelings are
listed as each generator's image code, where the library keeps flat
code maps over every letter; the Nielsen search
keys its states by (gen, sign) pairs, reduces every product in full and
starts from as many forward layers as the library's shared ball holds;
a move list acts on a word by one letter substitution per move, where
the rebase substitutes the image words of the automorphism once, and
acts on the standard basis by one `Word` product per move, where the
library replays code words; its inverse is replayed with each
rmul(i, j) spelled as inv(j), rmul(i, j), inv(j), as the rebase once
did; the parser reads every
character by its case.  Words are tuples of `Letter`s, checked,
reduced and rotated letter by letter, as `Word` and `CyclicWord` were
before they stored vertex codes; the Nielsen search's words are signed
codes g + 1 and -(g + 1).  They are slow on purpose and use only the
library's graph type, `path_word` and the Nielsen move list;
`tests/test_kernel_differential.py` asserts that the library returns
exactly what they return.  The rose test reads the whole core graph
that build_subgroup returns, as the generation test did before it
stopped at the fold.  The last group is the kernel that build_subgroup,
the generation test and fold ran before they read words into a folded
graph: the wedge of subdivided loops, a union-find fold of its edge
list and the quotient by its classes, and the arc table made by one
sort of all arcs.
"""

from __future__ import annotations

import itertools
import string
from array import array
from functools import lru_cache

from freegroups.stallings import Subgroup, XDigraph, path_word
from freegroups.whitehead import (
    NielsenTransformation,
    _actions,
    _check_multipliers,
    _check_predicted,
    _cut_below,
    _elementary_moves,
    _length_changes,
    _multiplier,
    _whitehead_graph,
    standard_basis,
)
from freegroups.words import Letter, Word, WordFormatError, free_reduce


def restrict(g, keep, base):
    """Induced subgraph on `keep`, renumbered densely in old-index order."""
    keep_sorted = sorted(set(keep))
    index = {v: i for i, v in enumerate(keep_sorted)}
    edges = tuple(
        (index[o], index[t], l) for o, t, l in g.edges if o in index and t in index
    )
    new_base = index[base] if base is not None and base in index else None
    return XDigraph(g.rank, len(keep_sorted), edges, new_base)


def degrees(g):
    """Degree in the symmetrized graph: loops count twice."""
    deg = [0] * g.vertex_count
    for o, t, _ in g.edges:
        deg[o] += 1
        deg[t] += 1
    return tuple(deg)


def is_folded(g):
    seen_out, seen_in = set(), set()
    for o, t, l in g.edges:
        if (o, l) in seen_out or (t, l) in seen_in:
            return False
        seen_out.add((o, l))
        seen_in.add((t, l))
    return True


def components(g):
    """The vertex sets of the connected components, each sorted, in order
    of their least vertex."""
    neighbours = [[] for _ in range(g.vertex_count)]
    for o, t, _ in g.edges:
        neighbours[o].append(t)
        neighbours[t].append(o)
    seen = [False] * g.vertex_count
    comps = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            for w in neighbours[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def has_cycle(g):
    """Does some component hold at least as many edges as vertices?"""
    count, comp_of = {}, {}
    for i, comp in enumerate(components(g)):
        for v in comp:
            comp_of[v] = i
        count[i] = -len(comp)
    for o, _, _ in g.edges:
        count[comp_of[o]] += 1
    return any(c >= 0 for c in count.values())


def find_cycle(g):
    """The depth-first cycle search as it stood with a visited set and
    per-start stack records: (label letters, anchor) of the first cycle,
    or None on a forest."""
    all_arcs = g._arcs
    visited = set()
    for start in range(g.vertex_count):
        if start in visited:
            continue
        on_stack = {start: 0}
        order = [(start, None)]  # (vertex, code that entered it)
        stack = [(start, iter(all_arcs[start]), -1)]
        visited.add(start)
        while stack:
            v, arcs, enter_eid = stack[-1]
            advanced = False
            for c, to, eid in arcs:
                if eid == enter_eid:
                    continue
                if to in on_stack:
                    codes = [k for _, k in order[on_stack[to] + 1 :]] + [c]
                    return tuple(Letter(k >> 1, -1 if k & 1 else 1) for k in codes), to
                visited.add(to)
                on_stack[to] = len(order)
                order.append((to, c))
                stack.append((to, iter(all_arcs[to]), eid))
                advanced = True
                break
            if not advanced:
                stack.pop()
                del on_stack[v]
                order.pop()
    return None


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


def is_rose(h):
    """Is h the whole group?  Its graph is then the rose: one vertex with
    a loop per generator (folding makes the loop labels distinct)."""
    return h.graph.vertex_count == 1 and len(h.graph.edges) == h.graph.rank


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
    for comp in components(trimmed):
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


def booth_least_rotation_start(keys):
    """Where the least rotation of the integer sequence starts, by
    Booth's failure-function algorithm (Booth 1980)."""
    n = len(keys)
    if n <= 1:
        return 0
    s = list(keys) * 2
    failure = [-1] * (2 * n)
    k = 0  # start of the least rotation found so far
    for j in range(1, 2 * n):
        c = s[j]
        i = failure[j - k - 1]
        while i != -1 and c != s[k + i + 1]:
            if c < s[k + i + 1]:
                k = j - i - 1
            i = failure[i]
        if c != s[k + i + 1]:  # here i == -1
            if c < s[k]:
                k = j
            failure[j - k] = -1
        else:
            failure[j - k] = i + 1
    return k


def whitehead_letters(t, letters):
    """The unreduced image of the letters under the Whitehead
    automorphism t, substituting each letter's image."""
    out = []
    for l in letters:
        if t.images is not None:
            image = (t.images[l.gen],)
        else:
            m, x = t.mult, Letter(l.gen, 1)
            image = ((x,), (x, m), (m.inverse(), x), (m.inverse(), x, m))[t.actions[l.gen]]
        out.extend(image if l.sign > 0 else [y.inverse() for y in reversed(image)])
    return out


def reduce_letters(letters):
    out = []
    for l in letters:
        if out and out[-1] == l.inverse():
            out.pop()
        else:
            out.append(l)
    return out


def whitehead_word(t, w):
    """t applied to a linear word, as a reduced letter tuple."""
    return tuple(reduce_letters(whitehead_letters(t, w.letters)))


def whitehead_cyclic(t, w):
    """t applied to a cyclic word: reduce, strip the conjugator, take the
    least rotation; a letter tuple."""
    letters = whitehead_word(t, w)
    i, j = 0, len(letters)
    while i < j - 1 and letters[i] == letters[j - 1].inverse():
        i, j = i + 1, j - 1
    return least_rotation(letters[i:j])


def signed_permutations(rank):
    """The vertex code of each generator's image under each relabeling,
    in the order of enumerate_relabelings: each permutation, then each
    sign flip of it."""
    for perm in itertools.permutations(range(0, 2 * rank, 2)):
        for flips in itertools.product((0, 1), repeat=rank):
            yield tuple([p | f for p, f in zip(perm, flips)])


@lru_cache(maxsize=None)
def multiplier_cuts(rank):
    """For each multiplier vertex m: the matrix cells that join the side
    A of each of its automorphisms to the complement of A, concatenated
    in action-code order, and the offsets that bound each code's cells.
    Two flat arrays per multiplier, the cells sliced by a memoryview."""
    _check_multipliers(rank)
    size = 2 * rank
    table = []
    for m in range(size):
        cells, offsets = array("H"), array("I", [0])
        for code in range(1, 4 ** (rank - 1)):
            side = {m}
            for g, act in enumerate(_actions(rank, m >> 1, code)):
                if act & 1:
                    side.add(2 * g)
                if act & 2:
                    side.add(2 * g + 1)
            rest = [v for v in range(size) if v not in side]
            cells.extend([a * size + b for a in sorted(side) for b in rest])
            offsets.append(len(cells))
        table.append((memoryview(cells), offsets))
    return tuple(table)


def length_changes(words, rank, bound):
    """_length_changes as it scanned the offsets layout of
    `multiplier_cuts`, with the same max-flow pruning of blocks."""
    graph, degrees = _whitehead_graph(words, rank)
    size = 2 * rank
    cell = graph.__getitem__
    cuts = multiplier_cuts(rank)
    for x in range(0, size, 2):
        target = degrees[x] + bound + 1
        if target <= degrees[x] and _cut_below(graph, size, x, target) is None:
            continue
        for m in (x, x + 1):
            deg = degrees[m]
            cells, offsets = cuts[m]
            for code, (lo, hi) in enumerate(itertools.pairwise(offsets), 1):
                yield m, code, sum(map(cell, cells[lo:hi])) - deg


def whitehead_descent(ws):
    """minimize_tuple as it ran on `CyclicWord`s: each step builds the
    public multiplier automorphism (mult, actions) and applies it to
    every word by apply_to_cyclic, which rotates every image."""
    current = tuple(ws)
    rank = current[0].alphabet.rank
    descent = []
    length = sum(len(w) for w in current)
    while True:
        for m, code, change in _length_changes([w.codes for w in current], rank, -1):
            if change < 0:
                break
        else:
            return current, descent
        t = _multiplier(rank, m, code)
        current = tuple([t.apply_to_cyclic(w) for w in current])
        length += change
        _check_predicted(sum(len(w) for w in current), length)
        descent.append(t)


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


def _is_charmap(alphabet):
    return all(len(s) == 1 and s in string.ascii_lowercase for s in alphabet.symbols)


def parse_letters(text, alphabet):
    if not _is_charmap(alphabet):
        raise WordFormatError("text format needs single-letter generator names")
    if text == "1":
        return []
    out = []
    for ch in text:
        low = ch.lower()
        if not ch.isalpha() or low not in alphabet.symbols:
            raise WordFormatError("unexpected character %r in %r" % (ch, text))
        out.append(Letter(alphabet.index(low), 1 if ch.islower() else -1))
    return out


def _reduce_raw(seq):
    stack = []
    for g, s in seq:
        if stack and stack[-1][0] == g and stack[-1][1] == -s:
            stack.pop()
        else:
            stack.append((g, s))
    return tuple(stack)


def _raw_invert(w):
    return tuple((g, -s) for g, s in reversed(w))


def _raw_apply(key, move, undo):
    words = list(key)
    i = move.target
    if move.source is None:
        words[i] = _raw_invert(words[i])
    else:
        other = words[move.source]
        tail = _raw_invert(other) if undo else other
        words[i] = _reduce_raw(words[i] + tail)
    return tuple(words)


def _raw_layers(rank, depth):
    """The first `depth` breadth-first layers around the standard basis:
    (parents, last layer)."""
    std_key = tuple(((g, 1),) for g in range(rank))
    parents, frontier = {std_key: None}, [std_key]
    for _ in range(depth):
        fresh = []
        for state in frontier:
            for move in _elementary_moves(rank):
                new = _raw_apply(state, move, undo=False)
                if new not in parents:
                    parents[new] = (state, move)
                    fresh.append(new)
        frontier = fresh
    return parents, frontier


_resident_layers = {}


def bidirectional_search(target_key, rank, node_budget, resident=0):
    """The Nielsen search on (gen, sign) pairs, reducing every product
    in full and inverting a word for every move that needs it.  The
    forward side starts with its first `resident` layers reached, which
    do not count against the budget; the target is looked up in them.
    The count is checked after each expanded state, and a layer that
    passes the budget ends the search with None, meets or not."""
    if (rank, resident) not in _resident_layers:
        _resident_layers[rank, resident] = _raw_layers(rank, resident)
    parents_f, frontier_f = _resident_layers[rank, resident]
    parents_f = dict(parents_f)
    free = len(parents_f) - 1
    moves = _elementary_moves(rank)
    parents_b = {target_key: None}
    frontier_b = [target_key]

    def rebuild(meet):
        head = []
        state = meet
        while parents_f[state] is not None:
            state, move = parents_f[state]
            head.append(move)
        head.reverse()
        state = meet
        while parents_b[state] is not None:
            state, move = parents_b[state]
            head.append(move)
        return head

    def depth(parents, state):
        d = 0
        while parents[state] is not None:
            state = parents[state][0]
            d += 1
        return d

    if target_key in parents_f:
        return rebuild(target_key)
    while frontier_f and frontier_b:
        forward = len(frontier_f) <= len(frontier_b)
        frontier = frontier_f if forward else frontier_b
        parents = parents_f if forward else parents_b
        other = parents_b if forward else parents_f
        fresh, meets = [], []
        for state in frontier:
            for move in moves:
                new = _raw_apply(state, move, undo=not forward)
                if new in parents:
                    continue
                parents[new] = (state, move)
                fresh.append(new)
                if new in other:
                    meets.append(new)
            if len(parents_f) - free + len(parents_b) > node_budget:
                return None
        if meets:
            best = min(meets, key=lambda m: depth(other, m))
            return rebuild(best)
        if forward:
            frontier_f = fresh
        else:
            frontier_b = fresh
    return None


def substitute(move, w, inverse=False):
    """A Nielsen move applied to a word as an automorphism, or as its
    inverse, by letter substitution: inv(i) inverts letter i, and
    rmul(i, j) sends letter i to i j, or to i j^-1 for the inverse."""
    rank = w.alphabet.rank
    if max(move.target, move.source or 0) >= rank:
        raise ValueError("Nielsen move %r outside an alphabet of rank %d" % (move, rank))
    out = []
    for l in w.letters:
        if l.gen != move.target:
            out.append(l)
        elif move.source is None:
            out.append(l.inverse())
        else:
            tail = Letter(move.source, -1 if inverse else 1)
            out.extend((tail.inverse(), l) if l.sign < 0 else (l, tail))
    return free_reduce(out, w.alphabet)


def moves_apply_word(moves, w):
    """The automorphism the move list presents, the one sending the
    standard basis to apply_nielsen(moves), applied to a word."""
    for m in reversed(moves):
        w = substitute(m, w)
    return w


def moves_apply_word_inverse(moves, w):
    """The inverse of the automorphism the move list presents."""
    for m in moves:
        w = substitute(m, w, inverse=True)
    return w


def apply_moves(moves, alphabet):
    """The moves run in order from the standard basis, each applied to
    the tuple of Words by `NielsenTransformation.apply`."""
    words = standard_basis(alphabet)
    for m in moves:
        words = m.apply(words)
    return words


def undo_moves(moves):
    """Moves that, run forward from the standard basis, give the inverse
    automorphism's images of the letters: the moves in reverse order, an
    inversion kept and rmul(i, j) undone by inv(j), rmul(i, j), inv(j)."""
    inv = NielsenTransformation.invert
    undone = []
    for m in reversed(moves):
        undone += [m] if m.source is None else [inv(m.source), m, inv(m.source)]
    return undone


def check_letters(letters, rank):
    out = tuple(letters)
    for l in out:
        if not 0 <= l.gen < rank or l.sign not in (1, -1):
            raise ValueError("letter %r outside alphabet of rank %d" % (l, rank))
    return out


def word_letters(letters, rank):
    """What Word(alphabet, letters) stores: the checked letters, which
    must be freely reduced."""
    out = check_letters(letters, rank)
    for a, b in zip(out, out[1:]):
        if a == b.inverse():
            raise ValueError("word is not freely reduced at %r %r" % (a, b))
    return out


def cyclic_letters(letters, rank):
    """What CyclicWord(alphabet, letters) stores: the least rotation of
    the checked letters, which must be cyclically reduced."""
    out = check_letters(letters, rank)
    for i in range(len(out)):
        if out[i - 1] == out[i].inverse():
            raise ValueError("word is not cyclically reduced at %r %r" % (out[i - 1], out[i]))
    return least_rotation(out)


def cyclic_reduce(letters):
    """(least rotation of the cyclically reduced core, conjugator) of
    freely reduced letters."""
    i, j = 0, len(letters)
    while i < j - 1 and letters[i] == letters[j - 1].inverse():
        i, j = i + 1, j - 1
    return least_rotation(tuple(letters[i:j])), tuple(letters[:i])


def format_letters(letters, alphabet):
    if not letters:
        return "1"
    if _is_charmap(alphabet):
        return "".join(
            alphabet.symbols[l.gen] if l.sign > 0 else alphabet.symbols[l.gen].upper()
            for l in letters
        )
    return " ".join(
        alphabet.symbols[l.gen] if l.sign > 0 else alphabet.symbols[l.gen] + "^-1"
        for l in letters
    )


def signed_code(letters):
    """The Nielsen search's old word encoding: g + 1 for the generator g
    and -(g + 1) for its inverse."""
    return tuple(l.gen + 1 if l.sign > 0 else -(l.gen + 1) for l in letters)


def signed_join(u, v):
    """The free reduction of u v for reduced signed-code words, cancelling
    at the junction."""
    k, n = 0, min(len(u), len(v))
    while k < n and u[-1 - k] == -v[k]:
        k += 1
    return u[: len(u) - k] + v[k:]



def wedge_edges(code_words):
    """The wedge of subdivided loops, one per nontrivial code word, at
    base vertex 0: (vertex count, edge triples)."""
    edges = []
    n_vertices = 1
    for codes in code_words:
        if not codes:
            continue
        path = [0, *range(n_vertices, n_vertices + len(codes) - 1), 0]
        n_vertices += len(codes) - 1
        for prev, nxt, c in zip(path, path[1:], codes):
            edges.append((nxt, prev, c >> 1) if c & 1 else (prev, nxt, c >> 1))
    return n_vertices, edges


def fold_classes(vertex_count, edges):
    """(leader, out): leader[v] is the smallest vertex of v's fold class,
    and out[u] the out-table (label -> a member of the far class) of the
    class u leads, None for an absorbed vertex.  Worklist union-find:
    a union moves the absorbed class's out- and in-tables into the
    leader's and pushes each label clash it creates."""
    parent = list(range(vertex_count))
    out = [{} for _ in range(vertex_count)]
    inn = [{} for _ in range(vertex_count)]
    pending = []
    for o, t, l in edges:
        far = out[o].setdefault(l, t)
        if far != t:
            pending.append((far, t))
        far = inn[t].setdefault(l, o)
        if far != o:
            pending.append((far, o))

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    while pending:
        a, b = pending.pop()
        leader, absorbed = find(a), find(b)
        if leader == absorbed:
            continue
        if absorbed < leader:
            leader, absorbed = absorbed, leader
        parent[absorbed] = leader
        for table in (out, inn):
            mine = table[leader]
            for l, v in table[absorbed].items():
                far = mine.setdefault(l, v)
                if far != v:
                    pending.append((far, v))
            table[absorbed] = None
    return [find(v) for v in range(vertex_count)], out


def quotient(rank, leader, edges, base):
    """The graph with each class of `leader` made one vertex, numbered in
    the order of their smallest members; parallel duplicates collapse."""
    index = {}
    new = [index.setdefault(r, len(index)) for r in leader]
    folded = {(new[o], new[t], l) for o, t, l in edges}
    return XDigraph(rank, len(index), tuple(folded), None if base is None else new[base])


def union_find_fold(g):
    """fold as the union-find kernel and the quotient computed it."""
    leader, _ = fold_classes(g.vertex_count, g.edges)
    return quotient(g.rank, leader, g.edges, g.base)


def wedge_subgroup(generators, alphabet):
    """build_subgroup as the quotient of the folded wedge."""
    n_vertices, edges = wedge_edges([w.codes for w in generators])
    leader, _ = fold_classes(n_vertices, edges)
    return Subgroup(quotient(alphabet.rank, leader, edges, 0), alphabet)


def wedge_generates(code_words, rank):
    """_generates on the union-find classes: the rose has one class and
    all `rank` labels in its out-table."""
    n_vertices, edges = wedge_edges(code_words)
    leader, out = fold_classes(n_vertices, edges)
    return len(out[0]) == rank and not any(leader)


def flat_sorted_arcs(g):
    """XDigraph._arcs by one sort of all 2E (vertex, code, head, edge
    index) tuples, split by vertex."""
    flat = []
    for eid, (o, t, l) in enumerate(g.edges):
        flat.append((o, 2 * l, t, eid))
        flat.append((t, 2 * l + 1, o, eid))
    flat.sort()
    lists = [[] for _ in range(g.vertex_count)]
    for v, k, head, eid in flat:
        lists[v].append((k, head, eid))
    return tuple(map(tuple, lists))
