"""Free splittings and the ellipticity graph: distance-two questions.

A free splitting A*B of F presents two vertex groups; an element is
elliptic when some conjugate lands in a factor.  Two splittings are at
distance two in the ellipticity graph when a common nontrivial element
is elliptic for both; a word and a splitting are at distance two when
the word is elliptic for it.  Both deciders return certificates.  Run
with `python3 demos/04_ellipticity.py`.
"""

from freegroups import (
    Alphabet,
    contains,
    is_primitive,
    nielsen_bound,
    parse_cyclic,
    parse_word,
    primitive_in_intersection,
    splittings_distance_two,
    verify_splitting,
    word_elliptic,
    words_distance_two,
)

alphabet = Alphabet.of_rank(2)


def split(text, alph=alphabet):
    a, b = text.split("|")
    return verify_splitting([parse_word(t, alph) for t in a.split()],
                            [parse_word(t, alph) for t in b.split()], alph)


# Constructing a splitting verifies it: the factor bases together must
# actually form a basis of the whole group, with the right ranks.
s1 = split("a | b")
s2 = split("ab | b")
print("verified splittings:", s1, "and", s2)

# Distance two between splittings, with a common-elliptic witness.
answer = splittings_distance_two(s1, s2)
print("a|b vs ab|b:", answer)

# A negative: a|b vs aab|ab share no common elliptic element.
print("a|b vs aab|ab:", splittings_distance_two(s1, split("aab | ab")))

# Rank 3, where both factors can be bigger.
a3 = Alphabet.of_rank(3)
print("a b|c vs b c|a:",
      splittings_distance_two(split("a b | c", a3), split("b c | a", a3)))

# Ellipticity of a single element for a fixed splitting.
for text in ("a", "baB", "ab", "abAB"):
    print("%-4s elliptic for a|b: %s"
          % (text, word_elliptic(parse_word(text, alphabet), s1)))

# Word-vs-word distance two: is there one splitting making both
# elliptic?  The witness is such a splitting.
v = parse_cyclic("ab", alphabet)
w = parse_cyclic("a", alphabet)
print("dist2(ab, a):", words_distance_two(v, w))
print("dist2(abAB, a):",
      words_distance_two(parse_cyclic("abAB", alphabet), w))

# When two factors intersect nontrivially, the intersection is a free
# factor of F, so it contains a primitive element of F.
s3 = split("b | a")
g = primitive_in_intersection(s1, "A", s3, "B")
print("primitive in <a> meet <a>:", g)
assert is_primitive(g)
assert contains(s1.factor(0), g) and contains(s3.factor(1), g)

# An upper bound for the Nielsen distance between splittings: twice the
# number of elementary moves relating their combined bases.
print("nielsen bound a|b -> ab|b:", nielsen_bound(s1, s2))
print("nielsen bound a|b -> a|b: ", nielsen_bound(s1, s1))
