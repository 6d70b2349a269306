import itertools
import math
import os
import random
import sys
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hamforge import counting
from hamforge.counting import (
    adjacency_matrix,
    alon_upper_bound_h2,
    bregman_bound,
    brute_force_ham_count,
    exact_ham_count,
    expectation_value,
    log2_alon_upper_bound_h2,
    log2_expectation_value,
    permanent,
    two_factor_profile,
    _dp_count_numpy,
    _dp_moduli,
    _dp_shape,
    _estimate_dp_bytes,
    _mem_budget_bytes,
)
from hamforge.errors import ScaleLimit
from hamforge.hypercore import Hypergraph


def random_hypergraph(n, r, p, rng):
    edges = [e for e in itertools.combinations(range(n), r) if rng.random() < p]
    return Hypergraph.from_edges(n, r, edges)


def permanent_brute_force(matrix):
    """Oracle: the permanent from its definition, a sum over all permutations."""
    a = [[int(x) for x in row] for row in matrix]
    return sum(math.prod(a[i][j] for i, j in enumerate(perm))
               for perm in itertools.permutations(range(len(a))))


def dict_dp_count(graph):
    """Oracle: the anchored subset DP on Python dicts and ints, unvectorized.

    Returns twice the cycle count, like _dp_count_numpy.
    """
    n, r = graph.n, graph.r
    trans = {}  # frontier (t1..t_{r-1}) -> vertices v completing an edge
    for edge in graph.edges:
        for perm in itertools.permutations(edge):
            trans.setdefault(perm[:-1], set()).add(perm[-1])
    total = 0
    prefix_pool = itertools.permutations(range(1, n), r - 2) if r > 2 else [()]
    for mid in prefix_pool:
        prefix = (0,) + tuple(mid)
        start_mask = 0
        for v in prefix:
            start_mask |= 1 << v
        layer = {(start_mask, prefix): 1}
        for _ in range(n - (r - 1)):
            nxt = {}
            for (mask, state), cnt in layer.items():
                for v in trans.get(state, ()):
                    bit = 1 << v
                    if mask & bit:
                        continue
                    key = (mask | bit, state[1:] + (v,))
                    nxt[key] = nxt.get(key, 0) + cnt
            layer = nxt
        full = (1 << n) - 1
        for (mask, state), cnt in layer.items():
            closure = state + prefix
            if mask == full and all(
                tuple(sorted(closure[h : h + r])) in graph.edges for h in range(r - 1)
            ):
                total += cnt
    return total


def inclusion_exclusion_count(graph, primes=(67108859, 67108837)):
    """Oracle for r = 2 by inclusion-exclusion (Karp 1982); twice the cycle count.

    A closed walk of n steps from 0 inside a vertex set S that holds 0 is a
    directed Hamiltonian cycle exactly when it visits every vertex, so the
    sum over all such S of (-1)^(n-|S|) times the number of those walks is
    2H. The walks of all 2^(n-1) sets step together on a numpy axis, in
    int64 modulo each prime, and the Chinese remainder theorem joins the
    residues. It shares no code with the DP.
    """
    n = graph.n
    big = math.prod(primes)
    assert graph.r == 2 and big > math.factorial(n - 1)  # 2H <= (n-1)!
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in graph.edges:
        adj[u, v] = adj[v, u] = 1
    subsets = np.arange(1 << (n - 1))
    inside = np.ones((subsets.size, n), dtype=np.int64)  # vertex 0 is in every set
    inside[:, 1:] = subsets[:, None] >> np.arange(n - 1) & 1
    sign = np.where((n - inside.sum(1)) % 2, -1, 1)
    total = 0
    for p in primes:
        walks = np.zeros((subsets.size, n), dtype=np.int64)
        walks[:, 0] = 1
        for _ in range(n):
            walks = walks @ adj % p * inside
        residue = int((sign * walks[:, 0]).sum()) % p
        total += residue * (big // p) * pow(big // p, -1, p)
    return total % big


def test_complete_graph_counts():
    assert brute_force_ham_count(Hypergraph.complete(5, 3)).count == 12
    assert exact_ham_count(Hypergraph.complete(7, 3)).count == 360
    for r in (2, 3, 4):
        for n in range(r + 2, 10):
            want = math.factorial(n - 1) // 2
            assert exact_ham_count(Hypergraph.complete(n, r)).count == want


def test_complete_graph_counts_r5_r6():
    # n from r+2 to 2r-1 includes every n < 2r-2, where the DP counts the
    # complements' (n-r)-graph, and n = 2r-2, where it makes no step
    for r in (5, 6):
        for n in range(r + 2, 2 * r):
            assert exact_ham_count(Hypergraph.complete(n, r)).count == math.factorial(n - 1) // 2


def test_r5_matches_brute_force():
    rng = random.Random(55)
    for n in (7, 8, 9):
        for p in (0.5, 0.7, 0.9):
            for _ in range(4):
                g = random_hypergraph(n, 5, p, rng)
                assert exact_ham_count(g).count == brute_force_ham_count(g).count


def test_cycle_graph_and_empty():
    cycle = Hypergraph.from_edges(6, 2, [(i, (i + 1) % 6) for i in range(6)])
    assert brute_force_ham_count(cycle).count == 1
    assert exact_ham_count(cycle).count == 1
    assert brute_force_ham_count(Hypergraph.empty(6, 3)).count == 0


def test_complete_bipartite_k44():
    k44 = Hypergraph.from_edges(8, 2, [(i, 4 + j) for i in range(4) for j in range(4)])
    # (n/2)! (n/2-1)!/2 for the balanced complete bipartite graph
    assert exact_ham_count(k44).count == math.factorial(4) * math.factorial(3) // 2 == 72
    assert brute_force_ham_count(k44).count == 72


def test_oracle_equivalence_random_suite():
    rng = random.Random(1)
    for _ in range(120):
        r = rng.choice([2, 3, 4])
        n = rng.randint(r + 2, 9)
        g = random_hypergraph(n, r, rng.choice([0.3, 0.6, 0.9]), rng)
        assert exact_ham_count(g).count == brute_force_ham_count(g).count


def test_numpy_backend_matches_dict_backend():
    # ten primes whose product, about 1.2e21, exceeds 13! >= 2H here: from
    # the step whose bound k! reaches 101 the DP runs ten residue channels
    primes = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149)
    rng = random.Random(5)
    for n, r, p in [(13, 2, 0.5), (13, 3, 0.35), (14, 3, 0.5), (11, 4, 0.5),
                    (7, 5, 0.8), (9, 5, 0.7)]:
        g = random_hypergraph(n, r, p, rng)
        want = dict_dp_count(g)
        for moduli in ((), primes):
            assert _dp_count_numpy(g, moduli) == want


PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149)


def test_inclusion_exclusion_oracle_matches_r2_counts():
    # n = 11..14 gives N = n-1 free vertices of both parities, so the middle
    # join meets the product of the last gathered step's layer (odd N) and
    # of one more matmul from the middle layer (even N)
    rng = random.Random(29)
    cases = [(n, p) for n in range(11, 15) for p in (0.35, 0.5, 0.7, 0.9) for _ in range(2)]
    for n, p in cases:
        g = random_hypergraph(n, 2, p, rng)
        assert inclusion_exclusion_count(g) == 2 * exact_ham_count(g).count, (n, p)
    assert len(cases) >= 30
    assert inclusion_exclusion_count(Hypergraph.complete(7, 2)) == math.factorial(6)


def test_exact_dot_is_exact_up_to_2_53():
    # no count at test sizes has entries wide enough to cut both factors
    # into limbs, so the limb sums are checked here against Python ints
    rng = np.random.default_rng(6)
    assert counting._exact_dot(np.zeros(5), np.zeros(5)) == 0
    for bits_x, bits_y, size in [(26, 22, 70000), (53, 53, 40000), (50, 20, 1000)]:
        x = rng.integers(0, 2**bits_x, size, dtype=np.int64)
        y = rng.integers(0, 2**bits_y, size, dtype=np.int64)
        x[0], y[0] = 2**bits_x - 1, 2**bits_y - 1  # the widest entries
        want = sum(a * b for a, b in zip(x.tolist(), y.tolist()))
        assert counting._exact_dot(x.astype(np.float64), y.astype(np.float64)) == want


def test_reversal_halves_match_the_dict_dp():
    # dict_dp_count anchors (0, mid) and counts both directions, so it does
    # not share the centred prefixes (a, 0, b) of an even r' or the middle
    # join of r' = 2. (11, 7) counts the complements' 4-graph. With the ten
    # primes the channels fork at step 5, so r = 2 joins ten channels at
    # n = 12 (N = 11) and n = 13 (N = 12)
    rng = random.Random(31)
    for n, r, p in [(10, 4, 0.5), (11, 4, 0.6), (10, 6, 0.8), (11, 7, 0.5), (12, 2, 0.6),
                    (13, 2, 0.6)]:
        g = random_hypergraph(n, r, p, rng)
        want = dict_dp_count(g)
        assert want > 0, (n, r)
        for moduli, workers in itertools.product(((), PRIMES), (1, 2)):
            assert _dp_count_numpy(g, moduli, workers) == want, (n, r, moduli, workers)
    assert [len(counting._prefixes(n, r)) for n, r in [(14, 4), (11, 6), (17, 3), (20, 2)]] == \
        [math.perm(13, 2) // 2, math.perm(10, 4) // 2, 16, 1]


def test_relabeling_that_moves_the_anchor_keeps_the_count():
    rng = random.Random(21)
    for n, r in [(12, 2), (11, 3), (10, 4)]:
        g = random_hypergraph(n, r, 0.5, rng)
        pi = list(range(n))
        while pi[0] == 0:
            rng.shuffle(pi)
        moved = Hypergraph.from_edges(n, r, [[pi[v] for v in e] for e in g.edges])
        want = exact_ham_count(g).count
        assert want > 0
        assert exact_ham_count(moved).count == want


def test_channel_boundary():
    # r = 2 stops at step N // 2, and 18! < 2^53 < 19!, so it forks no
    # channel below n = 39; r = 3 runs step N - 2 and forks from n = 23
    assert all(_dp_moduli(n, 2) == () for n in range(4, 39))
    assert _dp_moduli(22, 3) == ()
    for n, r in [(39, 2), (23, 3)]:
        moduli = _dp_moduli(n, r)
        assert moduli and math.prod(moduli) > math.factorial(n - 1)
        assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(moduli, 2))
    # N = n-1 from 3 to 22 meets the middle join at both parities; K_23^2
    # runs its extra matmul, step 11, in float64 (11! > 2^24), and its join
    # sums pass 2^63
    for n in range(4, 24):
        assert exact_ham_count(Hypergraph.complete(n, 2)).count == math.factorial(n - 1) // 2


def test_moduli_are_coprime_small_and_cover_the_count():
    for r in range(2, 7):
        for n in range(r + 2, 41):
            moduli = _dp_moduli(n, r)
            rr, N, K, _ = _dp_shape(n, r)
            assert (moduli == ()) == (math.factorial(counting._dp_steps(rr, K)) < 2**53), (n, r)
            if moduli:
                assert all(2 <= m <= 2**53 // N for m in moduli)
                assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(moduli, 2))
                assert math.prod(moduli) > math.factorial(n - 1)


def test_residue_channels_give_exact_ints():
    # a dense G_2(21, p=0.9) whose 2H has no float64 representation, so a
    # join or CRT taken in floats rounds it. The DP stops at the middle
    # layer, step 10, so three moduli near 10^7 (11! > 10^7) no longer fork
    # it and their one exact total serves each modulus; four near 10^5
    # (9! > 10^5) fork steps 9 and 10 and join four residue channels. Both
    # must give the same int as the production count, which needs no moduli
    g = random_hypergraph(21, 2, 0.9, random.Random(4))
    count = exact_ham_count(g).count
    assert type(count) is int
    assert float(2 * count) != 2 * count
    assert _dp_count_numpy(g, (10**7 + 19, 10**7 + 79, 10**7 + 103)) == 2 * count
    assert _dp_count_numpy(g, (100003, 100019, 100043, 100049)) == 2 * count


def test_memory_estimate_covers_traced_peak():
    # K_21^2 is the widest r = 2 count here; it stops at its middle layer
    for n, r in [(12, 2), (9, 3), (10, 3), (9, 4), (16, 2), (13, 3), (12, 4), (21, 2)]:
        g = Hypergraph.complete(n, r)
        tracemalloc.start()
        try:
            _dp_count_numpy(g, _dp_moduli(n, r))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= _estimate_dp_bytes(n, r), (n, r, peak)


def test_float32_steps_match_the_residue_channels_across_the_cut():
    # float32 holds every integer below 2^24 = 16777216, and 10! < 2^24 <= 11!
    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    assert [counting._step_dtype(k, ()) for k in (1, 10, 11, 18)] == [f32, f32, f64, f64]
    assert [counting._step_dtype(k, PRIMES) for k in (4, 5)] == [f32, f64]
    # the default path runs steps 1-10 in float32 and then copies up to
    # float64; PRIMES runs every step from k = 5 in float64 residue channels.
    # On these dense graphs entries pass 2^24 with odd parts, so a step
    # whose bound passes 2^24 and still runs in float32 rounds them
    rng = random.Random(3)
    for n, r, p in [(16, 2, 0.9), (17, 2, 0.85), (16, 3, 0.8)]:
        g = random_hypergraph(n, r, p, rng)
        assert _dp_count_numpy(g, _dp_moduli(n, r)) == _dp_count_numpy(g, PRIMES), (n, r)
    # complete graphs pass the cut too, but their entries k! have odd parts
    # below 2^24 up to 13!, so float32 rounds them only from step 14 on
    for n, r in [(n, 2) for n in range(12, 21)] + [(n, 3) for n in range(13, 18)]:
        assert exact_ham_count(Hypergraph.complete(n, r)).count == math.factorial(n - 1) // 2


def test_only_the_last_mask_table_is_kept(monkeypatch):
    # a table kept past its count is counted by no later estimate. K = 19
    # stops at the middle, so it keeps the masks of popcount 0..10 only:
    # 2^18 + C(19, 10) uint32s, 1.35 MiB of the 2 MiB of all 2^19
    monkeypatch.setattr(counting, "_kept_shape", None)
    assert exact_ham_count(Hypergraph.complete(20, 2)).count == math.factorial(19) // 2
    shape, masks = counting._kept_shape[0], counting._kept_shape[1][3]
    assert shape == (20, 2) and len(masks) == 11
    assert all(np.array_equal(np.bitwise_count(layer), np.full(len(layer), j))
               for j, layer in enumerate(masks))
    assert sum(layer.nbytes for layer in masks) == 4 * (2**18 + math.comb(19, 10))
    table = weakref.ref(masks[10])
    del masks
    assert exact_ham_count(Hypergraph.complete(9, 3)).count == math.factorial(8) // 2
    assert table() is None


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(counting, "_dp_workers", lambda n, r: workers)


def test_counts_do_not_depend_on_the_worker_count(monkeypatch):
    rng = random.Random(13)
    # r = 2 to 6; (8, 5) is n = 2r-2 and makes no step; (13, 3) and (12, 4)
    # are below THREAD_MIN_LAYER_BYTES, so they run on one thread by default
    graphs = [random_hypergraph(n, r, p, rng) for n, r, p in
              [(13, 2, 0.5), (13, 3, 0.4), (12, 4, 0.5), (9, 5, 0.7), (8, 5, 0.8), (10, 6, 0.8)]]
    assert counting._dp_workers(13, 3) == counting._dp_workers(12, 4) == 1
    assert counting._dp_workers(20, 2) == 1  # one prefix
    assert 1 <= counting._dp_workers(17, 3) <= 16

    def counts(workers):
        # the ten primes fork the channels at every r but 6, whose 3024
        # prefixes make the slowest count here
        _force_workers(monkeypatch, workers)
        return [(exact_ham_count(g).count, g.r < 6 and _dp_count_numpy(g, PRIMES))
                for g in graphs]

    want = counts(1)
    assert all(2 * count == residues for count, residues in want[:-1])
    assert counts(2) == want
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more workers than cores, switching often
    try:
        assert counts(3) == want
    finally:
        sys.setswitchinterval(interval)


def test_budget_picks_the_most_workers_that_fit(monkeypatch):
    g = random_hypergraph(12, 3, 0.5, random.Random(8))
    want = dict_dp_count(g) // 2
    _force_workers(monkeypatch, 2)
    one, two = _estimate_dp_bytes(12, 3, 1), _estimate_dp_bytes(12, 3, 2)
    assert one < two == _estimate_dp_bytes(12, 3)
    used = []
    count_numpy = counting._dp_count_numpy
    monkeypatch.setattr(counting, "_dp_count_numpy",
                        lambda graph, moduli, workers: used.append(workers)
                        or count_numpy(graph, moduli, workers))
    for budget, workers in [(two, 2), ((one + two) // 2, 1), (one, 1)]:
        monkeypatch.setenv("HAMFORGE_MEM_GIB", repr(budget / (1 << 30)))
        assert exact_ham_count(g).count == want
        assert used.pop() == workers
    monkeypatch.setenv("HAMFORGE_MEM_GIB", repr((one - 1024) / (1 << 30)))
    with pytest.raises(ScaleLimit) as err:
        exact_ham_count(g)
    assert "states" in str(err.value) and not used


def test_kept_shape_tables_follow_the_last_shape(monkeypatch):
    rng = random.Random(17)
    a1, a2 = (random_hypergraph(11, 3, 0.5, rng) for _ in range(2))
    b = random_hypergraph(10, 4, 0.6, rng)
    c = random_hypergraph(12, 2, 0.5, rng)
    want = {g: dict_dp_count(g) // 2 for g in (a1, a2, b, c)}
    monkeypatch.setattr(counting, "_kept_shape", None)
    for g, kept in [(a1, (11, 3)), (b, (10, 4)), (a2, (11, 3)), (a1, (11, 3)), (c, (12, 2))]:
        assert exact_ham_count(g).count == want[g]
        assert counting._kept_shape[0] == kept
        G, F, a, masks, index = counting._kept_shape[1]
        K = _dp_shape(*kept)[2]
        # r = 2 builds its slot indices as each step runs, and keeps none
        steps = [index(k) for k in range(1, K)] if g.r > 2 else []
        assert not any(t.flags.writeable for t in (G, F, a, *masks, *steps))
    # counts of two shapes on four threads replace the kept shape under each other
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            graphs = [a1, b, a2, c] * 4
            got = list(pool.map(lambda g: exact_ham_count(g).count, graphs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == [want[g] for g in graphs]


def reference_gather_indices(n, r):
    """_shape_tables' gather indices, entry by entry from their definition.

    At step k, slot t and frontier (t, G'), an entry for the next U' (a
    mask over the slots outside G') reads row (G, v) = ((t, G')[:-1],
    (t, G')[-1]) of P, at the rank of U' minus t over the slots outside G,
    or at that row's zero column when t is not in U'. A frontier that
    repeats t reads the zero column of row 0 everywhere.
    """
    _, N, K, ng = _dp_shape(n, r)
    tuples = list(itertools.permutations(range(N), r - 2))
    layers = [[m for m in range(1 << K) if m.bit_count() == k] for k in range(K + 1)]
    steps = []
    for k in range(1, K):
        cur, nxt = layers[k], layers[k + 1]
        width = len(cur) + 1
        step = []
        for t in range(N):
            for g2 in tuples:
                if t in g2:
                    step.append([len(cur)] * (len(nxt) + 1))
                    continue
                g, v = ((t,) + g2)[:-1], ((t,) + g2)[-1]
                row = (tuples.index(g) * N + v - t * ng) * width
                new = [s for s in range(N) if s not in g2]
                old = [s for s in range(N) if s not in g]
                line = []
                for mask in nxt:
                    placed = {new[i] for i in range(K) if mask >> i & 1}
                    j = (cur.index(sum(1 << old.index(s) for s in placed - {t}))
                         if t in placed else len(cur))
                    line.append(row + j)
                step.append(line + [row + len(cur)])
        steps.append(np.array(step).reshape(N, ng, -1))
    return steps


@pytest.mark.parametrize("n, r", [(12, 2), (7, 5), (12, 3), (9, 6), (12, 4), (12, 5), (8, 5), (12, 6)])
def test_shape_tables_match_the_reference(monkeypatch, n, r):
    # (7, 5) and (9, 6) count the complements' 2- and 3-graph; (8, 5) makes no step
    r = _dp_shape(n, r)[0]
    _, N, K, ng = _dp_shape(n, r)
    monkeypatch.setattr(counting, "_kept_shape", None)
    index = counting._shape_tables(n, r)[4]
    want = reference_gather_indices(n, r)
    assert len(want) == max(K - 1, 0)
    # r = 2 stops at the middle, so its steps past the last gather never run
    for k, ref in enumerate(want[: counting._top_layer(r, K) - 1], 1):
        step = np.stack(list(index(k)))
        width = math.comb(K, k) + 1
        assert step.dtype == (np.intp if r == 2 else np.uint16 if ng * width <= 1 << 16 else np.int32)
        assert np.array_equal(step, ref), (n, r, k)


def test_memory_estimate_covers_traced_peak_of_split_counts(monkeypatch):
    for n, r in [(13, 3), (12, 4), (16, 3)]:
        g = Hypergraph.complete(n, r)
        monkeypatch.setattr(counting, "_kept_shape", None)
        tracemalloc.start()
        try:
            _dp_count_numpy(g, _dp_moduli(n, r), 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= _estimate_dp_bytes(n, r, 2), (n, r, peak)


def _mem_available_bytes():
    with open(counting.MEMINFO) as f:
        for line in f:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) << 10


def test_default_budget_is_at_most_half_of_available(monkeypatch, tmp_path):
    monkeypatch.delenv("HAMFORGE_MEM_GIB", raising=False)
    if os.path.exists(counting.MEMINFO):
        before = _mem_available_bytes()
        budget = _mem_budget_bytes()
        after = _mem_available_bytes()
        assert budget <= max(before, after) // 2
    fake = tmp_path / "meminfo"
    monkeypatch.setattr(counting, "MEMINFO", str(fake))
    for avail_kib, want_gib in [(3 << 20, 1.5), (64 << 20, 8.0)]:
        fake.write_text(f"MemTotal: {2 * avail_kib} kB\nMemAvailable: {avail_kib} kB\n")
        assert _mem_budget_bytes() == int(want_gib * (1 << 30))
    monkeypatch.setattr(counting, "MEMINFO", str(tmp_path / "absent"))
    assert _mem_budget_bytes() == 8 << 30
    monkeypatch.setenv("HAMFORGE_MEM_GIB", "0.5")
    assert _mem_budget_bytes() == 1 << 29


def test_monotone_under_edge_addition():
    rng = random.Random(9)
    for _ in range(20):
        g = random_hypergraph(7, 3, 0.5, rng)
        missing = [e for e in itertools.combinations(range(7), 3) if e not in g.edges]
        if not missing:
            continue
        bigger = Hypergraph.from_edges(7, 3, g.edges | {rng.choice(missing)})
        assert exact_ham_count(bigger).count >= exact_ham_count(g).count


def test_scale_limits(monkeypatch):
    with pytest.raises(ScaleLimit):
        brute_force_ham_count(Hypergraph.complete(11, 3))
    monkeypatch.setenv("HAMFORGE_MEM_GIB", "0.001")
    with pytest.raises(ScaleLimit) as err:
        exact_ham_count(Hypergraph.complete(24, 3))
    assert "states" in str(err.value)
    # far too big for memory: the prefixes are counted, not listed, before the raise
    for r in (8, 9):
        start = time.perf_counter()
        with pytest.raises(ScaleLimit):
            exact_ham_count(Hypergraph.from_edges(40, r, []))
        assert time.perf_counter() - start < 1.0


def test_expectation_value():
    assert expectation_value(5, 1.0) == 12
    assert abs(expectation_value(8, 0.75) - 0.75**8 * 2520) < 1e-9
    direct = math.log2(expectation_value(20, 0.75))
    logged = log2_expectation_value(20, 0.75)
    assert abs(direct - logged) < 1e-12 * abs(logged)


def test_permanent_examples():
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    ones = [[1] * 4 for _ in range(4)]
    hollow = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
    assert permanent(eye) == 1
    assert permanent(ones) == 24
    assert permanent(hollow) == permanent_brute_force(hollow) == 9


def test_permanent_matches_brute_force():
    rng = random.Random(3)
    for _ in range(60):
        m = rng.randint(1, 6)
        mat = [[rng.randint(0, 1) for _ in range(m)] for _ in range(m)]
        assert permanent(mat) == permanent_brute_force(mat)


def test_two_factor_profile_c4():
    c4 = Hypergraph.from_edges(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)])
    prof = two_factor_profile(c4)
    assert prof.counts == (2, 1)  # two perfect matchings, one 4-cycle
    assert prof.weighted_sum() == permanent(adjacency_matrix(c4).tolist()) == 4


def test_two_factor_profile_triangle():
    k3 = Hypergraph.from_edges(3, 2, [(0, 1), (1, 2), (0, 2)])
    prof = two_factor_profile(k3)
    assert prof.counts[1] == 1
    assert prof.counts[0] == 0  # no perfect matching on 3 vertices


def test_permanent_identity_random_graphs():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 6)
        g = random_hypergraph(n, 2, rng.choice([0.3, 0.5, 0.8]), rng)
        prof = two_factor_profile(g)
        assert prof.weighted_sum() == permanent(adjacency_matrix(g).tolist())
        one_cycle = prof.counts[1] if len(prof.counts) > 1 else 0
        if n >= 4:
            # a Hamiltonian cycle is a one-cycle factor with no single edges;
            # for n >= 5 a short cycle plus matching edges also lands in F_1
            assert one_cycle >= brute_force_ham_count(g).count
            if n == 4:
                assert one_cycle == brute_force_ham_count(g).count


def test_bregman_bound():
    assert abs(bregman_bound([[1] * 4 for _ in range(4)]) - 24) < 1e-9
    assert abs(bregman_bound([[1 if i == j else 0 for j in range(4)] for i in range(4)]) - 1) < 1e-9
    rng = random.Random(13)
    for _ in range(60):
        mat = [[rng.randint(0, 1) for _ in range(8)] for _ in range(8)]
        assert permanent(mat) <= bregman_bound(mat) * (1 + 1e-9) + 1e-9


def test_alon_bound_direct_substitution():
    n, p = 100, 0.5
    expected = (
        (1 / math.e)
        * math.sqrt(2 * math.pi)
        * 0.5
        * n**1.5
        * expectation_value(n, p)
    )
    assert abs(alon_upper_bound_h2(n, p) - expected) < 1e-6 * expected


def test_alon_bound_monotone_in_n():
    for p in (0.3, 0.5, 0.8):
        values = [log2_alon_upper_bound_h2(n, p) for n in range(10, 1001, 90)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_alon_bound_log_slope():
    # the ratio to E(n,p) is a constant times n^{1/2+1/(2p)}, so the slope of
    # log-ratio against log n is exactly 1/2 + 1/(2p)
    for p in (0.25, 0.5, 0.75):
        def log_ratio(n):
            return log2_alon_upper_bound_h2(n, p) - log2_expectation_value(n, p)

        slope = (log_ratio(1000) - log_ratio(10)) / (math.log2(1000) - math.log2(10))
        assert abs(slope - (0.5 + 1 / (2 * p))) < 1e-9
