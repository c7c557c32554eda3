"""Cyclic words in a free group and their Whitehead graphs.

Letters are nonzero integers: +i is the i-th generator, -i its inverse. The
string form uses lowercase for generators and uppercase for inverses, so
"abAB" is a b a^-1 b^-1. Whitehead graphs live on the 2m signed letters and
have one edge per cyclic occurrence of a consecutive letter pair; tracing
occurrences equips them with a canonical V-involution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .multigraph import Multigraph, SurgeryError, is_two_connected
from .vsystem import ConnectingVSystem, End, least_rotation, primitive_period


class EmptyAfterReduction(SurgeryError):
    pass


class PeriodicWord(SurgeryError):
    pass


class ConjugateWords(SurgeryError):
    pass


class InvalidWord(SurgeryError):
    pass


class IsolatedVertex(SurgeryError):
    pass


def letter_str(x: int) -> str:
    if x == 0 or abs(x) > 26:
        raise InvalidWord(f"letter {x} out of range")
    c = chr(ord("a") + abs(x) - 1)
    return c if x > 0 else c.upper()


def parse_word(s: str) -> tuple[int, ...]:
    out = []
    for ch in s:
        if ch.islower():
            out.append(ord(ch) - ord("a") + 1)
        elif ch.isupper():
            out.append(-(ord(ch) - ord("A") + 1))
        else:
            raise InvalidWord(f"bad character {ch!r} in word {s!r}")
    return tuple(out)


def word_str(letters: Sequence[int]) -> str:
    return "".join(letter_str(x) for x in letters)


def _free_reduce(letters: Sequence[int]) -> list[int]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def _inverse_word(w: Sequence[int]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(w))


@dataclass(frozen=True)
class CyclicWord:
    """A cyclically reduced, non-periodic cyclic word with a peripheral label.

    letters is stored in its canonical rotation (lexicographically least).
    """

    letters: tuple[int, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))

    def __len__(self):
        return len(self.letters)


def cyclically_reduce(letters: Sequence[int], label: str = "") -> CyclicWord:
    """Free and cyclic reduction to a canonical CyclicWord.

    Rejects words that reduce to the empty word and words with proper-power
    structure.
    """
    if isinstance(letters, str):
        letters = parse_word(letters)
    w = _free_reduce(letters)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
        w = _free_reduce(w)
    if not w:
        raise EmptyAfterReduction("word reduces to the empty word")
    if primitive_period(w) < len(w):
        raise PeriodicWord(f"word {word_str(w)} is a proper power")
    return CyclicWord(least_rotation(w), label)


def conjugate_up_to_inversion(w1: CyclicWord, w2: CyclicWord) -> bool:
    c1 = least_rotation(w1.letters)
    return c1 == least_rotation(w2.letters) or c1 == least_rotation(_inverse_word(w2.letters))


@dataclass
class WhiteheadGraph:
    """A Whitehead graph with edge labels and occurrence bookkeeping.

    The graph's vertices are the 2m signed letters. edge_labels maps each
    edge to the label of the word that produced it (refined to (label, j) for
    extended graphs); occurrence_map maps each edge to (word index, position)
    of the consecutive-pair occurrence it came from.
    """

    rank: int
    graph: Multigraph
    edge_labels: dict[str, object]
    occurrence_map: dict[str, tuple[int, int]]
    words: list[CyclicWord]


@dataclass(frozen=True)
class PeripheralSpec:
    word: CyclicWord
    multiplicity: int

    def __post_init__(self):
        if self.multiplicity < 2:
            raise InvalidWord("peripheral multiplicity must be at least 2")


def _check_words(m: int, words: Sequence[CyclicWord]) -> None:
    if m < 2:
        raise InvalidWord("rank must be at least 2 (rank-1 free groups are elementary)")
    if not words:
        raise InvalidWord("need at least one word")
    for w in words:
        if not w.letters:
            raise InvalidWord("empty word")
        if any(x == 0 or abs(x) > m for x in w.letters):
            raise InvalidWord(f"word {word_str(w.letters)} uses letters beyond rank {m}")
        if _free_reduce(w.letters) != list(w.letters) or (
            len(w.letters) >= 2 and w.letters[0] == -w.letters[-1]
        ):
            raise InvalidWord(f"word {word_str(w.letters)} is not cyclically reduced")
        if primitive_period(w.letters) < len(w.letters):
            raise PeriodicWord(f"word {word_str(w.letters)} is a proper power")
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            if conjugate_up_to_inversion(words[i], words[j]):
                raise ConjugateWords(
                    f"words {word_str(words[i].letters)} and "
                    f"{word_str(words[j].letters)} are conjugate up to inversion"
                )


def whitehead_graph(m: int, words: Sequence[CyclicWord]) -> WhiteheadGraph:
    """One edge per cyclic occurrence of a consecutive pair (u, v), joining
    u^-1 and v; length-1 words contribute the single pair (x, x)."""
    words = list(words)
    _check_words(m, words)
    vertices = [letter_str(x) for i in range(1, m + 1) for x in (i, -i)]
    edges: dict[str, tuple[str, str]] = {}
    labels: dict[str, object] = {}
    occ: dict[str, tuple[int, int]] = {}
    for wi, w in enumerate(words):
        n = len(w.letters)
        for p in range(n):
            u, v = w.letters[p], w.letters[(p + 1) % n]
            e = f"w{wi}p{p}"
            edges[e] = (letter_str(-u), letter_str(v))
            labels[e] = w.label
            occ[e] = (wi, p)
    return WhiteheadGraph(m, Multigraph(vertices, edges), labels, occ, words)


def whitehead_v_involution(W: WhiteheadGraph) -> ConnectingVSystem:
    """The canonical V-involution of a Whitehead graph.

    a sends each letter vertex to its inverse. For each occurrence of a
    letter c, the arriving end of the incoming pair edge at vertex c is
    matched with the departing end of the outgoing pair edge at c^-1; the
    maps for inverse letters are forced by the inverse-compatibility law.
    """
    g = W.graph
    for v in g.vertex_ids():
        if g.degree(v) == 0:
            raise IsolatedVertex(f"letter {v} does not occur in the words")
    a = {}
    for i in range(1, W.rank + 1):
        a[letter_str(i)] = letter_str(-i)
        a[letter_str(-i)] = letter_str(i)
    partial: dict[str, dict[End, End]] = {v: {} for v in g.vertices}
    for wi, w in enumerate(W.words):
        n = len(w.letters)
        for p in range(n):
            c = w.letters[p]
            e_in = f"w{wi}p{(p - 1) % n}"
            e_out = f"w{wi}p{p}"
            # e_in's head is at letter c; e_out's tail is at c^-1
            partial[letter_str(c)][(e_in, 1)] = (e_out, 0)
    alpha: dict[str, dict[End, End]] = {}
    for v in g.vertex_ids():
        m = dict(partial[v])
        m.update({q: p for p, q in partial[a[v]].items()})
        alpha[v] = m
    return ConnectingVSystem(g, a, alpha)


def extended_whitehead_graph(
    m: int, specs: Sequence[PeripheralSpec]
) -> tuple[WhiteheadGraph, ConnectingVSystem]:
    """Replace each edge of label xi by multiplicity(xi) - 1 parallel copies.

    Copies carry refined labels (xi, j), j = 1..n-1, and the V-involution is
    lifted per index: the j-th copy of an end maps to the j-th copy of its
    image, so the refined labelling is invariant under the lifted maps.
    """
    words = [s.word for s in specs]
    mult = {}
    for s in specs:
        if s.word.label in mult:
            raise InvalidWord(f"duplicate peripheral label {s.word.label!r}")
        mult[s.word.label] = s.multiplicity
    base = whitehead_graph(m, words)
    vsys = whitehead_v_involution(base)

    edges: dict[str, tuple[str, str]] = {}
    labels: dict[str, object] = {}
    occ: dict[str, tuple[int, int]] = {}
    for e in base.graph.edge_ids():
        xi = base.edge_labels[e]
        for j in range(1, mult[xi]):
            ce = f"{e}x{j}"
            edges[ce] = base.graph.ends(e)
            labels[ce] = (xi, j)
            occ[ce] = base.occurrence_map[e]
    graph = Multigraph(base.graph.vertices, edges)
    ext = WhiteheadGraph(m, graph, labels, occ, list(words))

    def lift_copies(end: End, j: int) -> End:
        return (f"{end[0]}x{j}", end[1])

    alpha: dict[str, dict[End, End]] = {}
    for v, mp in vsys.alpha.items():
        lifted = {}
        for p, q in mp.items():
            n_p = mult[base.edge_labels[p[0]]]
            for j in range(1, n_p):
                lifted[lift_copies(p, j)] = lift_copies(q, j)
        alpha[v] = lifted
    return ext, ConnectingVSystem(graph, dict(vsys.a), alpha)


def check_rigidity_proxy(W: WhiteheadGraph) -> bool:
    """2-connectivity of the Whitehead graph, a check on the chosen basis.

    This verifies the no-relative-free-splitting criterion for the supplied
    basis; it does not search for a minimizing basis change.
    """
    return is_two_connected(W.graph)
