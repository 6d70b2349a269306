import itertools
import math
import random
from fractions import Fraction

import pytest

from hamforge.constructions import (
    count_admissible_words,
    count_placements_crown,
    crown_doubly_stochastic_permanent,
    crown_placement_lower_bound,
    crown_graph,
    enumerate_admissible,
    extend_to_good_word,
    is_admissible,
    is_cyclically_admissible,
    is_good_word,
    multipartite_parts,
    multipartite_rgraph,
    sample_feasible_word,
    sample_good_cycles,
    turan_graph,
    word_to_permutation,
    word_to_string,
)
from hamforge.counting import brute_force_ham_count, exact_ham_count
from hamforge.errors import ExtensionFailed, InvalidParams, TooSmall
from hamforge.hypercore import window_set


# -- crown graphs -----------------------------------------------------------

def test_crown_small():
    b6 = crown_graph(6)
    assert b6.edge_count == 6
    assert exact_ham_count(b6).count == 1  # it is a 6-cycle
    degrees = [sum(1 for e in b6.edges if v in e) for v in range(6)]
    assert degrees == [2] * 6


def test_crown_edge_counts():
    assert crown_graph(8).edge_count == 12
    assert crown_graph(9).edge_count == (9 * 8) // 4
    for n in (9, 11, 13):
        assert crown_graph(n).edge_count == (n * (n - 1)) // 4
        extra_degree = sum(1 for e in crown_graph(n).edges if n - 1 in e)
        assert extra_degree == (3 * (n - 1)) // 4


def test_crown_bipartite_regular():
    for n in (8, 10, 12):
        g = crown_graph(n)
        for u, v in g.edges:
            assert (u + v) % 2 == 1  # bipartite between evens and odds
        degrees = [sum(1 for e in g.edges if v in e) for v in range(n)]
        assert set(degrees) == {n // 2 - 1}
    with pytest.raises(TooSmall):
        crown_graph(5)


def brute_crown_placements(n):
    """Independent oracle: filter all n! permutations through the goodness
    predicate stated over 1-based labels (side X = odd labels in odd
    locations, partner locations never cyclically adjacent)."""
    m = n // 2
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        if any(perm[i] % 2 == 0 for i in range(0, n, 2)):
            continue
        pos = {v: i + 1 for i, v in enumerate(perm)}
        if all((pos[2 * i - 1] - pos[2 * i]) % n not in (1, n - 1) for i in range(1, m + 1)):
            count += 1
    return count


def test_crown_placements_permanent_vs_brute():
    assert count_placements_crown(8) == brute_crown_placements(8) == 48


def test_crown_chain():
    for n in (8, 10, 12):
        placements = count_placements_crown(n)
        assert crown_placement_lower_bound(n) <= placements
        ham = exact_ham_count(crown_graph(n)).count
        assert placements <= n * ham


def test_crown_doubly_stochastic_floor():
    m = 5
    assert crown_doubly_stochastic_permanent(10) >= Fraction(math.factorial(m), m**m)


# -- multipartite -----------------------------------------------------------

def test_multipartite_edge_counts():
    assert multipartite_rgraph(6, 3, 3).edge_count == math.comb(3, 3) * 2**3 == 8
    t = turan_graph(6, 3)
    assert t.edge_count == 12
    assert brute_force_ham_count(t).count == 16


def test_multipartite_parts_balanced():
    parts = multipartite_parts(9, 4)
    assert [len(p) for p in parts] == [3, 2, 2, 2]
    assert sorted(v for p in parts for v in p) == list(range(9))


def test_multipartite_density_approaches_limit():
    # the balanced k-partite r-graph has asymptotic density k!/((k-r)! k^r)
    limit = Fraction(math.factorial(5), math.factorial(5 - 3) * 5**3)
    gaps = []
    for n in (30, 60, 120):
        g = multipartite_rgraph(n, 5, 3)
        gaps.append(abs(g.density() - float(limit)))
    # the gap shrinks like 1/n: doubling n roughly halves it
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[0] < 10 / 30
    assert gaps[2] < gaps[0] * (30 / 120) * 2


def test_invalid_params():
    with pytest.raises(InvalidParams):
        multipartite_rgraph(6, 2, 3)  # k < r


# -- words ------------------------------------------------------------------

def test_admissible_count_examples():
    assert count_admissible_words(3, 4, 3) == 24 == len(enumerate_admissible(3, 4, 3))
    assert count_admissible_words(6, 4, 3) == 4 * 3 * 2**4 == len(enumerate_admissible(6, 4, 3))
    for k in (3, 4, 5):
        assert count_admissible_words(k=k, r=3, t=3) == math.factorial(k) // math.factorial(k - 3)


def test_admissible_grid():
    for r in (2, 3, 4):
        for k in range(r, 6):
            for t in range(r, 9):
                assert count_admissible_words(t, k, r) == len(enumerate_admissible(t, k, r))


def test_word_strings():
    assert word_to_string((0, 1, 2)) == "abc"
    assert word_to_string((0, 1, 2, 0)) == "abca"
    with pytest.raises(InvalidParams, match="k <= 26"):
        word_to_string((0, 26))


def test_good_word_iff_cycle_in_multipartite():
    rng = random.Random(4)
    for n, k, r in [(9, 4, 3), (10, 5, 3), (12, 4, 2)]:
        parts = multipartite_parts(n, k)
        sizes = [len(p) for p in parts]
        graph = multipartite_rgraph(n, k, r)
        letters = [l for l, s in enumerate(sizes) for _ in range(s)]
        for _ in range(60):
            word = letters[:]
            rng.shuffle(word)
            word = tuple(word)
            perm = word_to_permutation(word, parts)
            windows_in = all(w in graph.edges for w in window_set(perm, r).windows)
            assert windows_in == is_good_word(word, r, sizes)


def test_extension_produces_good_word():
    rng = random.Random(5)
    n, k, r = 40, 4, 3
    sizes = [len(p) for p in multipartite_parts(n, k)]
    w = sample_feasible_word(16, k, r, rng)
    good = extend_to_good_word(w, n, k, r, sizes)
    assert good[: len(w)] == w
    assert is_good_word(good, r, sizes)


def test_extension_passthrough_and_errors():
    n, k, r = 40, 4, 3
    sizes = [len(p) for p in multipartite_parts(n, k)]
    good = extend_to_good_word(sample_feasible_word(12, k, r, random.Random(1)), n, k, r, sizes)
    assert extend_to_good_word(good, n, k, r, sizes) == good
    with pytest.raises(InvalidParams):
        extend_to_good_word((0, 0, 1), n, k, r, sizes)  # not admissible
    with pytest.raises(InvalidParams):
        extend_to_good_word((0, 1, 2), n, 3, 3, [14, 13, 13])  # k = r
    with pytest.raises(ExtensionFailed):
        extend_to_good_word((0, 1, 2), 14, k, r, [4, 4, 3, 3])  # no closure room


def test_extension_words_map_to_cycles():
    n, k, r = 40, 4, 3
    parts = multipartite_parts(n, k)
    sizes = [len(p) for p in parts]
    graph = multipartite_rgraph(n, k, r)
    good = extend_to_good_word(sample_feasible_word(16, k, r, random.Random(2)), n, k, r, sizes)
    perm = word_to_permutation(good, parts)
    assert all(w in graph.edges for w in window_set(perm, r).windows)


def test_sample_good_cycles():
    cycles = sample_good_cycles(9, 4, 3, 50, random.Random(17))
    graph = multipartite_rgraph(9, 4, 3)
    reps = {c.representative for c in cycles}
    assert len(cycles) == len(reps) == 50
    for c in cycles:
        assert all(w in graph.edges for w in window_set(c.representative, 3).windows)
    assert exact_ham_count(graph).count >= 50
    assert sample_good_cycles(9, 4, 3, 0, random.Random(1)) == []


def test_admissibility_predicates():
    assert is_admissible((2, 3, 0, 2, 1, 3), 3)  # the word "341324", 0-based
    assert not is_admissible((0, 1, 0), 3)
    assert is_cyclically_admissible((0, 1, 2, 0, 3, 1, 0, 2, 3), 3)
    assert not is_cyclically_admissible((0, 1, 2, 3, 1, 0), 3)  # wraps onto 0
