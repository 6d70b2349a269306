"""Explicit extremal constructions: crown graphs, balanced multipartite
r-graphs, and the admissible/feasible/good word machinery that witnesses
their Hamiltonian cycles.

Words are sequences over the alphabet {0,..,k-1}; letter l stands for part l.
A word of length n is *good* when every r consecutive letters are distinct
cyclically and letter l occurs exactly |A_l| times; placing part l's vertices
on letter-l positions turns a good word into a Hamiltonian cycle of the
multipartite graph.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from random import Random
from typing import Sequence

from .counting import permanent
from .errors import ExtensionFailed, InvalidParams, ScaleLimit, TooSmall
from .hypercore import CanonicalCycle, Hypergraph, canonicalize

Word = tuple[int, ...]

WORD_RESTARTS = 20000  # restarts of either word sampler before ExtensionFailed
CYCLE_ATTEMPTS = 200  # good-word draws per requested cycle in sample_good_cycles


# ---------------------------------------------------------------------------
# crown graphs
# ---------------------------------------------------------------------------

def crown_graph(n: int) -> Hypergraph:
    """Complete balanced bipartite graph minus a perfect matching.

    Sides are the even and odd 0-based vertices; the missing matching pairs
    vertex 2j with 2j+1. For odd n, one extra vertex is joined to the
    floor(3(n-1)/4) lowest-labeled vertices (the choice is free; lowest labels
    keep the construction deterministic).
    """
    if n < 6:
        raise TooSmall(f"crown graph needs n >= 6, got {n}")
    if n % 2 == 0:
        edges = [
            (x, y)
            for x in range(0, n, 2)
            for y in range(1, n, 2)
            if y != x + 1
        ]
        return Hypergraph.from_edges(n, 2, edges)
    base = crown_graph(n - 1)
    extra = n - 1
    degree = (3 * (n - 1)) // 4
    edges = set(base.edges)
    for v in range(degree):
        edges.add((v, extra))
    return Hypergraph.from_edges(n, 2, edges)


def crown_placement_matrix(m: int) -> list[list[int]]:
    """Allowed-position matrix for placing one side of the crown graph.

    Placing the other side fixes, for each remaining element, two forbidden
    locations; the forbidden pattern is always a single 2m-cycle, so up to
    relabeling the 0-pattern is {(i,i), (i,i+1 mod m)}.
    """
    return [
        [0 if (j == i or j == (i + 1) % m) else 1 for j in range(m)]
        for i in range(m)
    ]


def count_placements_crown(n: int) -> int:
    """Exact number of good permutations of the even-order crown graph.

    Computed as (n/2)! times the permanent of the allowed-position matrix.
    """
    if n % 2 != 0 or not (8 <= n <= 24):
        raise InvalidParams(f"exact placement count needs even 8 <= n <= 24, got {n}")
    m = n // 2
    return math.factorial(m) * permanent(crown_placement_matrix(m))


def crown_placement_lower_bound(n: int) -> Fraction:
    """Summation-free lower bound on the good-permutation count (even n):
    (n/2)! * (n/2)!/(n/2)^(n/2) * (n/2-2)^(n/2), as an exact rational."""
    if n % 2 != 0 or n < 8:
        raise InvalidParams("bound is stated for even n >= 8")
    m = n // 2
    return Fraction(math.factorial(m) ** 2 * (m - 2) ** m, m**m)


def crown_doubly_stochastic_permanent(n: int) -> Fraction:
    """Permanent of the doubly stochastic allowed-position matrix (entries
    1/(n/2-2)); must be at least (n/2)!/(n/2)^(n/2) by the van der Waerden
    bound for doubly stochastic matrices."""
    if n % 2 != 0 or n < 8:
        raise InvalidParams("stated for even n >= 8")
    m = n // 2
    return Fraction(permanent(crown_placement_matrix(m)), (m - 2) ** m)


# ---------------------------------------------------------------------------
# balanced multipartite r-graphs
# ---------------------------------------------------------------------------

def multipartite_parts(n: int, k: int) -> list[list[int]]:
    """Contiguous balanced partition of [0,n) into k parts (larger parts first)."""
    if k < 1 or n < k:
        raise InvalidParams(f"need 1 <= k <= n, got k={k}, n={n}")
    big = n % k
    sizes = [n // k + 1] * big + [n // k] * (k - big)
    parts = []
    start = 0
    for s in sizes:
        parts.append(list(range(start, start + s)))
        start += s
    return parts


def multipartite_rgraph(n: int, k: int, r: int) -> Hypergraph:
    """All r-sets meeting each of the k balanced parts at most once."""
    if r < 2 or k < r:
        raise InvalidParams(f"need k >= r >= 2, got k={k}, r={r}")
    parts = multipartite_parts(n, k)
    edges = []
    for chosen in itertools.combinations(range(k), r):
        for combo in itertools.product(*(parts[i] for i in chosen)):
            edges.append(tuple(sorted(combo)))
    return Hypergraph.from_edges(n, r, edges)


def turan_graph(n: int, k: int) -> Hypergraph:
    return multipartite_rgraph(n, k, 2)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def is_admissible(word: Sequence[int], r: int) -> bool:
    """Every r consecutive letters distinct (no wraparound)."""
    w = tuple(word)
    return all(
        len(set(w[i : i + r])) == r for i in range(len(w) - r + 1)
    )


def is_cyclically_admissible(word: Sequence[int], r: int) -> bool:
    w = tuple(word)
    if len(w) < r:
        return False
    doubled = w + w[: r - 1]
    return all(len(set(doubled[i : i + r])) == r for i in range(len(w)))


def is_good_word(word: Sequence[int], r: int, part_sizes: Sequence[int]) -> bool:
    w = tuple(word)
    if len(w) != sum(part_sizes):
        return False
    counts = Counter(w)
    if any(counts.get(l, 0) != s for l, s in enumerate(part_sizes)):
        return False
    return is_cyclically_admissible(w, r)


def count_admissible_words(t: int, k: int, r: int) -> int:
    """Closed-form count of admissible words: the first r-1 letters are
    distinct and each later letter avoids the previous r-1."""
    if k < r or r < 2:
        raise InvalidParams(f"need k >= r >= 2, got k={k}, r={r}")
    if t < r:
        raise InvalidParams(f"count is stated for t >= r, got t={t}")
    head = 1
    for i in range(r - 1):
        head *= k - i
    return head * (k - r + 1) ** (t - r + 1)


def enumerate_admissible(t: int, k: int, r: int) -> list[Word]:
    """All admissible words of length t over [k], by direct DFS."""
    if k < r or r < 2:
        raise InvalidParams(f"need k >= r >= 2, got k={k}, r={r}")
    if k**t > 10**7:
        raise ScaleLimit(f"enumeration of k^t = {k**t} words is over budget")
    out: list[Word] = []

    def extend(w: tuple[int, ...]):
        if len(w) == t:
            out.append(w)
            return
        recent = set(w[-(r - 1) :]) if r > 1 else set()
        for l in range(k):
            if l not in recent:
                extend(w + (l,))

    extend(())
    return out


def word_to_string(word: Sequence[int]) -> str:
    if any(l < 0 or l >= 26 for l in word):
        raise InvalidParams("string form supports k <= 26")
    return "".join(chr(ord("a") + l) for l in word)


def _lex_least_block(word: Word, letters: Sequence[int], r: int,
                     suffix: Word = ()) -> Word | None:
    """Lexicographically least arrangement of `letters` ending with `suffix`
    whose concatenation to `word` keeps every r consecutive letters distinct.

    Within the block letters are distinct, so only windows crossing the
    junction constrain the search.
    """
    pool = sorted(set(letters) - set(suffix))
    length = len(pool) + len(suffix)
    tail = word[-(r - 1):] if r > 1 else ()

    def ok_at(pos: int, letter: int) -> bool:
        # block letters are pairwise distinct, so only clashes with the
        # old word's tail (distance < r) can break admissibility
        back = r - 1 - pos
        if back <= 0:
            return True
        return letter not in tail[max(0, len(tail) - back):]

    def search(placed: Word, remaining: list[int]) -> Word | None:
        pos = len(placed)
        if pos == length - len(suffix):
            for off, letter in enumerate(suffix):
                if not ok_at(pos + off, letter):
                    return None
            return placed + suffix
        for i, letter in enumerate(remaining):
            if ok_at(pos, letter):
                found = search(placed + (letter,), remaining[:i] + remaining[i + 1:])
                if found is not None:
                    return found
        return None

    return search((), pool)


def _occurrence_gap(word: Word, k: int) -> int:
    counts = Counter(word)
    values = [counts.get(l, 0) for l in range(k)]
    return max(values) - min(values)


def extend_to_good_word(w: Sequence[int], n: int, k: int, r: int,
                        part_sizes: Sequence[int]) -> Word:
    """Extend an admissible word to a good word of length n with w as prefix.

    Stages: append permutations of all-but-the-most-common letter until the
    occurrence gap closes; compensate for the smaller parts when k does not
    divide n; pad with full-alphabet permutations to length n - kr; close the
    cycle with r permutations whose suffixes walk the word's first r letters.
    """
    word = tuple(w)
    part_sizes = list(part_sizes)
    if k <= r:
        raise InvalidParams(f"extension needs k > r, got k={k}, r={r}")
    if len(part_sizes) != k or sum(part_sizes) != n:
        raise InvalidParams("part_sizes must have k entries summing to n")
    if max(part_sizes) - min(part_sizes) > 1:
        raise InvalidParams("part sizes must differ by at most 1")
    if not is_admissible(word, r):
        raise InvalidParams("w must be admissible")
    if len(word) == n and is_good_word(word, r, part_sizes):
        return word
    if n < k * r + r:
        raise ExtensionFailed(f"n={n} leaves no room for the closure stage (needs >= kr+r={k*r+r})")

    trace: list[str] = []
    alphabet = list(range(k))

    def append_block(letters, suffix=()):
        nonlocal word
        block = _lex_least_block(word, letters, r, suffix)
        if block is None:
            raise ExtensionFailed(
                "no admissible arrangement of "
                f"{letters} with suffix {suffix}; trace: {trace}"
            )
        word = word + block

    # stage A: close the occurrence gap
    d0 = _occurrence_gap(word, k)
    max_steps = (k - 1) * (d0 + 1) + k
    steps = 0
    while _occurrence_gap(word, k) > 0:
        if steps > max_steps or len(word) + (k - 1) > n - k * r:
            raise ExtensionFailed(
                f"balancing budget exhausted (gap {_occurrence_gap(word, k)} "
                f"after {steps} steps, length {len(word)}); trace: {trace}"
            )
        counts = Counter(word)
        top = max(counts.get(l, 0) for l in alphabet)
        l = min(l for l in alphabet if counts.get(l, 0) == top)
        append_block([x for x in alphabet if x != l])
        steps += 1
    trace.append(f"balanced after {steps} steps at length {len(word)}")

    # stage B: one fewer occurrence for each smaller part
    if n % k:
        floor_size = n // k
        smalls = [l for l in alphabet if part_sizes[l] == floor_size]
        for l in smalls:
            if len(word) + (k - 1) > n - k * r:
                raise ExtensionFailed(f"no room for small-part stage; trace: {trace}")
            append_block([x for x in alphabet if x != l])
        trace.append(f"small parts {smalls} handled at length {len(word)}")

    # stage C: pad to n - kr with full-alphabet permutations
    if (n - k * r - len(word)) % k != 0 or len(word) > n - k * r:
        raise ExtensionFailed(
            f"length {len(word)} cannot be padded to {n - k * r}; trace: {trace}"
        )
    while len(word) < n - k * r:
        append_block(alphabet)
    trace.append(f"padded to {len(word)}")

    # stage D: r permutations whose suffixes walk the first r letters
    lead = word[:r]
    for i in range(1, r + 1):
        append_block(alphabet, suffix=lead[:i])

    if len(word) != n or not is_good_word(word, r, part_sizes):
        raise ExtensionFailed(f"extension produced an invalid word; trace: {trace}")
    return word


def word_to_permutation(word: Sequence[int], parts: Sequence[Sequence[int]],
                        rng: Random | None = None) -> tuple[int, ...]:
    """Place each part's vertices on its letter's positions.

    Within a part, vertices go to occurrences in increasing label order;
    passing an rng shuffles the within-part assignment instead (each good
    word corresponds to prod |A_l|! good permutations).
    """
    order = [-1] * len(word)
    for l, part in enumerate(parts):
        positions = [i for i, x in enumerate(word) if x == l]
        if len(positions) != len(part):
            raise InvalidParams(f"letter {l} occurs {len(positions)} times for part of size {len(part)}")
        vertices = list(part)
        if rng is not None:
            rng.shuffle(vertices)
        for pos, v in zip(positions, vertices):
            order[pos] = v
    return tuple(order)


def sample_good_word(n: int, k: int, r: int, part_sizes: Sequence[int],
                     rng: Random) -> Word:
    """Quota-constrained sequential sampler for good words, with restarts."""
    if k <= r:
        raise InvalidParams(f"need k > r, got k={k}, r={r}")
    for _ in range(WORD_RESTARTS):
        remaining = list(part_sizes)
        word: list[int] = []
        dead = False
        for _pos in range(n):
            recent = set(word[-(r - 1):])
            allowed = [l for l in range(k) if remaining[l] > 0 and l not in recent]
            if not allowed:
                dead = True
                break
            l = rng.choice(allowed)
            word.append(l)
            remaining[l] -= 1
        if dead:
            continue
        if is_cyclically_admissible(word, r):
            return tuple(word)
    raise ExtensionFailed(f"no good word found in {WORD_RESTARTS} restarts")


def sample_feasible_word(t: int, k: int, r: int, rng: Random) -> Word:
    """Uniform admissible word accepted when every letter count is within
    k*sqrt(t) of t/k."""
    if k < r:
        raise InvalidParams(f"need k >= r, got k={k}, r={r}")
    slack = k * math.sqrt(t)
    for _ in range(WORD_RESTARTS):
        word: list[int] = []
        for _pos in range(t):
            recent = set(word[-(r - 1):])
            allowed = [l for l in range(k) if l not in recent]
            word.append(rng.choice(allowed))
        counts = Counter(word)
        if all(abs(counts.get(l, 0) - t / k) <= slack for l in range(k)):
            return tuple(word)
    raise ExtensionFailed(f"no feasible word found in {WORD_RESTARTS} restarts")


def sample_good_cycles(n: int, k: int, r: int, count: int, rng: Random) -> list[CanonicalCycle]:
    """Distinct Hamiltonian cycles of the balanced multipartite r-graph,
    sampled through good words."""
    if count == 0:
        return []
    parts = multipartite_parts(n, k)
    part_sizes = [len(p) for p in parts]
    max_attempts = CYCLE_ATTEMPTS * count
    seen: dict[tuple[int, ...], CanonicalCycle] = {}
    for _ in range(max_attempts):
        word = sample_good_word(n, k, r, part_sizes, rng)
        perm = word_to_permutation(word, parts, rng=rng)
        canon = canonicalize(perm)
        seen.setdefault(canon.representative, canon)
        if len(seen) >= count:
            return [seen[key] for key in sorted(seen)][:count]
    raise ExtensionFailed(
        f"only {len(seen)} distinct cycles found in {max_attempts} attempts"
    )
