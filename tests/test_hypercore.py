import io
import math
import itertools
import random
import time

import numpy as np
import pytest

from hamforge.errors import DegenerateCycle, ParseError, ScaleLimit
from hamforge.hypercore import (
    CanonicalCycle,
    Hypergraph,
    canonicalize,
    colex_rank,
    read_hypergraph,
    symmetry_images,
    too_many_r_sets,
    window_set,
    write_hypergraph,
)
from hamforge.randmodels import sample_gnm, sample_gnp


@pytest.mark.parametrize("n,r", [(7, 3), (9, 4), (6, 2), (5, 5), (12, 11), (30, 28), (100, 98),
                                 (100, 99)])
def test_colex_rank_is_a_bijection(n, r):
    # the sets in colex order (compare the largest vertex first) rank as
    # 0, 1, ..., C(n, r) - 1; for r near n, C(v, i+1) passes int64 for some
    # v < n and i < r although C(n, r) is small
    sets = sorted(itertools.combinations(range(n), r), key=lambda c: c[::-1])
    assert colex_rank(np.array(sets).T, n).tolist() == list(range(math.comb(n, r)))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("shape", [(50,), (6, 9)])
def test_colex_rank_matches_the_binomial_sum(r, shape):
    # r-tuples in shape (m, r) or (b, n, r), ranked from their r columns
    n = 40
    rng = random.Random(r)
    tuples = [sorted(rng.sample(range(n), r)) for _ in range(math.prod(shape))]
    a = np.array(tuples, dtype=np.intp).reshape(*shape, r)
    want = [sum(math.comb(c, i + 1) for i, c in enumerate(t)) for t in tuples]
    got = colex_rank(np.moveaxis(a, -1, 0), n)
    assert got.shape == shape
    assert got.ravel().tolist() == want


def test_window_set_r3_example():
    ws = window_set((0, 1, 2, 3, 4), 3)
    assert frozenset(ws.windows) == frozenset(
        [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)]
    )


def test_window_set_identity_cycle_r2():
    ws = window_set(tuple(range(6)), 2)
    assert frozenset(ws.windows) == frozenset([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])


def test_window_set_reversal_invariant():
    rng = random.Random(8)
    for _ in range(20):
        pi = tuple(rng.sample(range(8), 8))
        assert set(window_set(pi, 3).windows) == set(window_set(pi[::-1], 3).windows)


def test_window_count_and_distinctness():
    rng = random.Random(2)
    for n, r in [(5, 3), (6, 2), (7, 4), (9, 3), (10, 2)]:
        for _ in range(10):
            pi = tuple(rng.sample(range(n), n))
            ws = window_set(pi, r)
            assert len(ws.windows) == n
            assert len(frozenset(ws.windows)) == n


def test_window_set_degenerate():
    with pytest.raises(DegenerateCycle):
        window_set((0, 1, 2, 3), 3)


def test_canonicalize_rotation_reversal():
    assert canonicalize((0, 1, 2, 3)) == canonicalize((1, 2, 3, 0))
    assert canonicalize((0, 1, 2, 3)) == canonicalize((0, 3, 2, 1))


def test_canonicalize_collapses_symmetry_class():
    rng = random.Random(7)
    pi = tuple(rng.sample(range(7), 7))
    reps = {canonicalize(img).representative for img in symmetry_images(pi)}
    assert len(symmetry_images(pi)) == 14
    assert len(reps) == 1


@pytest.mark.parametrize("n", [5, 6, 7])
def test_canonicalize_exhaustive_classes(n):
    # distinct window sets <-> distinct representatives, over all of S_n
    reps = {}
    for pi in itertools.permutations(range(n)):
        rep = canonicalize(pi).representative
        ws = frozenset(window_set(pi, 3).windows)
        reps.setdefault(rep, set()).add(ws)
    assert len(reps) == math.factorial(n) // (2 * n)
    for windows in reps.values():
        assert len(windows) == 1
    all_window_sets = {next(iter(v)) for v in reps.values()}
    assert len(all_window_sets) == len(reps)


def test_density_complete():
    assert Hypergraph.complete(7, 3).density() == 1.0
    assert Hypergraph.empty(7, 3).density() == 0.0


def test_r_set_cap_is_checked_before_anything_is_listed():
    # C(494, 3) = 19,970,444 and C(495, 3) = 20,092,215 straddle the cap
    assert not too_many_r_sets(494, 3) and too_many_r_sets(495, 3)
    start = time.perf_counter()
    for make in (lambda: Hypergraph.complete(3000, 3), lambda: Hypergraph.complete(10**6, 2),
                 lambda: sample_gnm(3000, 3, 10, random.Random(0)),
                 lambda: sample_gnp(10**6, 5 * 10**5, 0.5, random.Random(0))):
        with pytest.raises(ScaleLimit):
            make()
    assert time.perf_counter() - start < 1.0


def test_read_single_edge():
    g = read_hypergraph(io.StringIO("5 3 1\n0 1 2\n"))
    assert g.n == 5 and g.r == 3 and g.edges == frozenset([(0, 1, 2)])


def test_write_is_bit_exact():
    g = Hypergraph.from_edges(5, 3, [(2, 1, 0)])
    buf = io.StringIO()
    write_hypergraph(g, buf)
    assert buf.getvalue() == "5 3 1\n0 1 2\n"


def test_round_trip_random():
    rng = random.Random(42)
    for _ in range(10):
        edges = [e for e in itertools.combinations(range(10), 3) if rng.random() < 0.4]
        g = Hypergraph.from_edges(10, 3, edges)
        buf = io.StringIO()
        write_hypergraph(g, buf)
        again = read_hypergraph(io.StringIO(buf.getvalue()))
        assert again == g


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("", 1),
        ("5 3\n", 1),
        ("5 3 1\n0 1 1\n", 2),
        ("5 3 1\n0 2 1\n", 2),
        ("5 3 1\n0 1 9\n", 2),
        ("5 3 2\n0 1 2\n0 1 2\n", 3),
        ("5 3 2\n0 1 2\n", 3),
    ],
)
def test_parse_errors_name_line(text, lineno):
    with pytest.raises(ParseError) as err:
        read_hypergraph(io.StringIO(text))
    assert f"line {lineno}" in str(err.value)


def test_canonical_representative_starts_at_zero():
    rng = random.Random(3)
    for _ in range(10):
        pi = tuple(rng.sample(range(9), 9))
        rep = canonicalize(pi).representative
        assert rep[0] == 0
        assert isinstance(canonicalize(pi), CanonicalCycle)
