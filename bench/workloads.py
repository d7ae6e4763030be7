"""Seeded request decks for the three benchmark workloads.

A request is one `fgt` invocation: argv, stdin and the facts the
generator knows about it (`meta`), which the checker and the input-share
report use.  A deck is generated from one `random.Random` seeded by the
workload name and the seed, so the same seed gives the same deck.

Each deck is stratified: request kinds come round-robin, and each kind
walks a fixed cycle of size, rank and input family, so any stretch of a
few dozen requests has the same mix.  That keeps a run's cost close to
the same from seed to seed; only the random content of each slot varies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import oracle as fg


@dataclass
class Request:
    kind: str
    argv: list[str]
    stdin: str = ""
    meta: dict = field(default_factory=dict)


def _rank_flag(rank: int) -> list[str]:
    return ["-n", str(rank)]


# ---------------------------------------------------------------- graphs

GRAPH_KINDS = ("graph", "basis", "member", "type", "intersect", "conjugate", "iso", "cyclic")
GRAPH_SIZES = (25, 50, 100, 200, 400)
CYCLIC_SIZES = (500, 1000, 2000)
HEAVY_FAMILIES = ("powers", "conjugates", "prefix")
MAX_LETTERS = 1200


def _generators(rng: random.Random, rank: int, size: int, count: int, family: str) -> list[str]:
    """`count` generators of length about `size` from one input family.

    `powers` is the x^n x^(n+1) pair; `conjugates` wraps short words in a
    long common conjugator; `prefix` gives every generator a long shared
    prefix.  The first three fold heavily, `random` barely folds."""
    if family == "powers":
        x = fg.random_word(rng, 1, rank)
        return [x * size, x * (size + 1)]
    if family == "conjugates":
        x = fg.random_word(rng, size // 2, rank)
        return [fg.mul(x, fg.random_word(rng, max(1, size // 8), rank), fg.inverse(x)) for _ in range(count)]
    if family == "prefix":
        p = fg.random_word(rng, size - size // 4, rank)
        return [fg.mul(p, fg.random_word(rng, size // 4, rank)) for _ in range(count)]
    return [fg.random_word(rng, size, rank) for _ in range(count)]


def _graph_request(rng: random.Random, kind: str, c: int, k: int) -> Request:
    """The c-th request of kind index k in the graphs deck."""
    rank = 2 + c % 2
    size = GRAPH_SIZES[c % len(GRAPH_SIZES)]
    if kind in ("intersect", "conjugate"):
        # These build a product of two graphs, quadratic in their sizes: at
        # full size a few of them took most of a run and decided its spread.
        size //= 2
    heavy = (c // len(GRAPH_SIZES) + k) % 2 == 0
    # 2-6 generators, but at most 1200 letters in all: fold and core are
    # quadratic, and a few 2400-letter requests would decide a run.
    count = min(2 + (3 * c + k) % 5, max(2, MAX_LETTERS // size))
    family = HEAVY_FAMILIES[(c // 10 + k) % 3] if heavy else "random"
    gens = _generators(rng, rank, size, count, family)
    meta = {"rank": rank, "size": size, "family": family, "gens": gens}
    flag = _rank_flag(rank)
    if kind in ("graph", "basis", "type"):
        return Request(kind, [kind, *flag, " ".join(gens)], meta=meta)
    if kind == "member":
        if c % 2 == 0:  # a product of generators: a member by construction
            word = fg.mul(*(rng.choice((g, fg.inverse(g))) for g in (gens * 4)[:4]))
            meta["expect"] = True
        else:
            word = fg.random_word(rng, size, rank)
        meta["word"] = word
        return Request(kind, [kind, *flag, " ".join(gens), "-w", word], meta=meta)
    if kind == "intersect":
        # Both subgroups hold u*v and v*v, so the product core is nontrivial.
        u, v = fg.random_word(rng, max(2, size // 2), rank), fg.random_word(rng, max(2, size // 2), rank)
        shared = [fg.mul(u, v), fg.mul(v, v)]
        other = [u, v] + gens[: max(0, count - 2)]
        meta.update(gens2=other, shared=shared)
        gens1 = shared + gens[: max(0, count - 2)]
        meta["gens"] = gens1
        return Request(kind, [kind, *flag, " ".join(gens1), " ".join(other)], meta=meta)
    if kind == "conjugate":
        x = fg.random_word(rng, max(1, size // 4), rank)
        if c % 2 == 0:  # a Nielsen-moved basis of the same subgroup, conjugated
            moved = list(gens)
            if len(moved) > 1:
                fg.nielsen_move(moved, 0, 1)
            other = [fg.mul(x, g, fg.inverse(x)) for g in moved]
            meta["expect"] = True
        else:
            other = _generators(rng, rank, size, count, family)
        meta["gens2"] = other
        return Request(kind, [kind, *flag, " ".join(gens), " ".join(other)], meta=meta)
    if kind == "iso":
        g = fg.subgroup_graph(gens)
        based = c % 4 < 2
        if c % 2 == 0:  # the same graph renumbered
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            second = fg.graph_to_text(g, perm)
            meta["expect"] = True
        else:
            second = fg.graph_to_text(fg.subgroup_graph(_generators(rng, rank, size, count, family)))
        stdin = fg.graph_to_text(g) + "\n" + second
        argv = [kind, *flag] + (["--based"] if based else [])
        return Request(kind, argv, stdin, meta)
    if kind == "cyclic":
        length = CYCLIC_SIZES[c % len(CYCLIC_SIZES)]
        x = fg.random_word(rng, length // 10, rank)
        word = fg.mul(x, fg.random_word(rng, length, rank, cyclic=True), fg.inverse(x))
        return Request(kind, [kind, *flag, word], meta={"rank": rank, "size": length, "word": word})
    raise ValueError(kind)


def graphs_deck(rng: random.Random, n: int) -> list[Request]:
    return [_graph_request(rng, GRAPH_KINDS[j % 8], j // 8, j % 8) for j in range(n)]


# ------------------------------------------------------------- whitehead

WHITEHEAD_KINDS = ("wmin", "primitive", "dist2-word", "good", "orbit")
WORD_LENGTHS = (8, 12, 16, 24, 32)
# A rank-5 request costs 5-20 times a rank-3 one (the full scan has
# 2n(4^(n-1)-1) automorphisms), so rank 5 gets one slot in six and words
# of 8-10 letters; otherwise a handful of them decide a run.
RANKS = (3, 4, 3, 5, 3, 4)


def _image(rng: random.Random, words: list[str], rank: int, length: int) -> list[str]:
    """Images of `words` under random multiplier automorphisms, applied
    until the longest image has between `length` and 1.25 * `length`
    letters (starting over when a step overshoots)."""
    while True:
        cur = [fg.codes(w) for w in words]
        for _ in range(64):
            mult, actions = fg.random_whitehead(rng, rank)
            cur = [fg.cyclic_core(fg.apply_whitehead(w, mult, actions)) for w in cur]
            longest = max(len(w) for w in cur)
            if longest > length + length // 4:
                break
            if longest >= length:
                return [fg.text(w) for w in cur]


def _good_pair(rng: random.Random, rank: int) -> list[str]:
    """A pair on disjoint generator sets: elliptic to a coordinate splitting."""
    gens = list(range(rank))
    rng.shuffle(gens)
    cut = rng.randrange(1, rank)
    out = []
    for part in (gens[:cut], gens[cut:]):
        letters = [2 * g + s for g in part for s in (0, 1)]
        w = [rng.choice(letters) for _ in range(3)]
        w = fg.cyclic_core(fg.reduce_codes(w)) or [letters[0]]
        out.append(fg.text(w))
    return out


def _whitehead_request(rng: random.Random, kind: str, c: int, k: int) -> Request:
    image = (c // 3 + k) % 2 == 0
    length = WORD_LENGTHS[(c + 2 * k) % len(WORD_LENGTHS)]
    if kind == "orbit":
        rank = 2 + c % 2
        # At rank 3 a 4-letter orbit costs 0.1-0.5 s against 0.03-0.11 s
        # for 3 letters; drawing between them set a run's total by chance.
        word = fg.random_word(rng, rng.randrange(6, 11) if rank == 2 else 3, rank, cyclic=True)
        return Request(kind, [kind, *_rank_flag(rank), word], meta={"rank": rank, "words": [word]})
    rank = RANKS[(c + k) % len(RANKS)]
    if rank == 5 and kind == "dist2-word":
        # A rank-5 pair descent costs 0.1-1.5 s, and so do long rank-4
        # ones: a dozen in a run decided its figures by their content.
        rank = 3
    if rank == 5:
        length = 8
    flag = _rank_flag(rank)
    meta = {"rank": rank, "image": image}
    if kind in ("wmin", "primitive"):
        if image:
            words = _image(rng, [fg.random_word(rng, 1, rank)], rank, length)
            meta["expect"] = True  # primitive by construction
        else:
            words = [fg.random_word(rng, length, rank, cyclic=True)]
        meta["words"] = words
        argv = [kind, *flag, words[0]] + (["--steps"] if kind == "wmin" else [])
        return Request(kind, argv, meta=meta)
    if image:
        words = _image(rng, _good_pair(rng, rank), rank, length)
        meta["expect"] = True  # distance two by construction
    else:
        words = [fg.random_word(rng, length, rank, cyclic=True),
                 fg.random_word(rng, max(4, length // 2), rank, cyclic=True)]
    meta["words"] = words
    return Request(kind, [kind, *flag, *words], meta=meta)


def whitehead_deck(rng: random.Random, n: int) -> list[Request]:
    return [_whitehead_request(rng, WHITEHEAD_KINDS[j % 5], j // 5, j % 5) for j in range(n)]


# ------------------------------------------------------------ splittings

SPLIT_KINDS = ("dist2-split", "prim-intersect", "nielsen-bound")
POOL = 16  # first splittings are reused from the last POOL fresh ones
MAX_MOVES = {2: 10, 3: 6}  # generating moves per pair, within the BFS budget
# The documented defect: both splittings verify, but the Nielsen search
# exhausts its 300k-node budget and the greedy fallback stalls (exit 2).
# It is not in the deck, whose requests must all succeed; the traced run
# replays it once (see `known_defect`).
DEFECT = ((["abc", "babcabc", "CBAC"], 2), (["aba", "CABC", "C"], 2))


def _random_moves(rng: random.Random, basis: list[str], count: int, frozen: int | None = None) -> None:
    n = len(basis)
    for _ in range(count):
        target = rng.choice([i for i in range(n) if i != frozen])
        if rng.random() < 0.25:
            fg.nielsen_move(basis, target, None)
        else:
            fg.nielsen_move(basis, target, rng.choice([i for i in range(n) if i != target]))


def _split_text(basis: list[str], cut: int) -> str:
    return "split %s | %s" % (" ".join(basis[:cut]), " ".join(basis[cut:]))


def _splitting_request(rng: random.Random, kind: str, c: int, k: int, pools: dict) -> Request:
    rank = 2 + (c + k) % 2
    flag = _rank_flag(rank)
    pool = pools.setdefault(rank, [])
    repeat = c % 2 == 1 and bool(pool)
    if repeat:
        first, cut1 = rng.choice(pool)
    else:
        first = list(fg.SYMBOLS[:rank])
        _random_moves(rng, first, 1 + rng.randrange(4))
        cut1 = rng.randrange(1, rank)
        pool.append((first, cut1))
        del pool[:-POOL]
    second = list(first)
    moves = 1 + rng.randrange(MAX_MOVES[rank])
    meta = {"rank": rank, "repeat": repeat, "s1": (first, cut1), "moves": moves}
    shared = kind == "prim-intersect" or (kind == "dist2-split" and c % 4 < 2)
    # Freezing entry 0 keeps it in both splittings, so the factors holding
    # it intersect and the splittings share an elliptic element.
    _random_moves(rng, second, moves, frozen=0 if shared else None)
    if kind == "nielsen-bound":
        cut2 = cut1
    else:
        cut2 = rng.randrange(1, rank)
    factor2 = "A"
    if shared and kind == "prim-intersect" and c % 2 == 0:
        second = second[1:] + second[:1]  # entry 0 moves into factor B
        factor2 = "B"
    meta["s2"] = (second, cut2)
    s1, s2 = _split_text(first, cut1), _split_text(second, cut2)
    if kind == "dist2-split":
        if shared:
            meta["expect"] = True
        return Request(kind, [kind, *flag, s1, s2], meta=meta)
    if kind == "prim-intersect":
        meta["factors"] = ("A", factor2)
        return Request(kind, [kind, *flag, s1, "A", s2, factor2], meta=meta)
    return Request(kind, [kind, *flag, s1, s2], meta=meta)


def splittings_deck(rng: random.Random, n: int) -> list[Request]:
    pools: dict = {}
    return [_splitting_request(rng, SPLIT_KINDS[j % 3], j // 3, j % 3, pools) for j in range(n)]


def known_defect() -> Request:
    """The `nielsen-bound` request beyond the search budget that stalls."""
    argv = ["nielsen-bound", "-n", "3"] + [_split_text(*s) for s in DEFECT]
    meta = {"rank": 3, "beyond_budget": True, "known_defect": True, "s1": DEFECT[0], "s2": DEFECT[1]}
    return Request("nielsen-bound", argv, meta=meta)


# ------------------------------------------------------------- the table

DECKS = {"graphs": graphs_deck, "whitehead": whitehead_deck, "splittings": splittings_deck}


def deck(workload: str, seed: int, n: int) -> list[Request]:
    return DECKS[workload](random.Random("%s:%d" % (workload, seed)), n)


def _relabeled(rng: random.Random, word: str, rank: int) -> str:
    """`word` under a random signed permutation of the generators, which
    changes its letters but not the work the library does on it."""
    perm = list(range(rank))
    rng.shuffle(perm)
    flip = [rng.randrange(2) for _ in range(rank)]
    return fg.text([2 * perm[c >> 1] + ((c & 1) ^ flip[c >> 1]) for c in fg.codes(word)])


def warmup(workload: str, seed: int) -> list[Request]:
    """Small requests of every kind, from a stream disjoint from the deck.

    They load every code path once and fill `enumerate_whitehead` and
    `enumerate_relabelings` for the ranks the workload uses."""
    rng = random.Random("warmup:%s:%d" % (workload, seed))
    if workload == "graphs":
        out = []
        for c in range(2):
            for k, kind in enumerate(GRAPH_KINDS):
                r = _graph_request(rng, kind, c, k)
                if kind == "cyclic":
                    r.argv[-1] = r.argv[-1][:50]
                out.append(r)
        return out
    if workload == "whitehead":
        # Fixed patterns under a seeded relabelling: random words made the
        # warm-up, and so `setup_s`, cost 90-215 ms at rank 5 by seed.
        out = []
        for rank in (3, 4, 5):
            word = _relabeled(rng, "aabb", rank)  # Whitehead-minimal: one full scan
            out.append(Request("wmin", ["wmin", *_rank_flag(rank), word, "--steps"]))
            out.append(Request("good", ["good", *_rank_flag(rank), word, word]))
        out.append(Request("dist2-word", ["dist2-word", "-n", "3", "ab", "c"]))
        for rank, orbit, primitive in ((2, "aabAb", "aab"), (3, "abc", "abc")):
            out.append(Request("orbit", ["orbit", *_rank_flag(rank), _relabeled(rng, orbit, rank)]))
            out.append(Request("primitive", ["primitive", *_rank_flag(rank), _relabeled(rng, primitive, rank)]))
        return out
    pools: dict = {}
    return [_splitting_request(rng, SPLIT_KINDS[j % 3], j // 3, j % 3, pools) for j in range(12)]
