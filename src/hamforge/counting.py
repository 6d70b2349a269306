"""Exact tight-Hamiltonian-cycle counting, permanents, and counting bounds.

The exact counter anchors cycles at vertex 0 to kill rotations and divides by
two for reversal, so all 2n symmetric traversals of one cycle collapse to a
single count. One vectorized subset DP counts at every n and r; one
transition table steps its frontier and closes the cycle. Counts are exact
integers: the DP runs in float64 or int64 while a proven bound on its
entries, (n-r)!, fits the type exactly, on Python ints (numpy object arrays)
beyond that, and sums each closure in Python ints.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateCycle, ScaleLimit
from .hypercore import Hypergraph

DEFAULT_MEM_GIB = 8.0
MEMINFO = "/proc/meminfo"


def _default_mem_gib() -> float:
    """min(8 GiB, half of MemAvailable); 8 GiB where MEMINFO cannot be read."""
    try:
        with open(MEMINFO) as f:
            kib = next(int(ln.split()[1]) for ln in f if ln.startswith("MemAvailable:"))
    except (OSError, StopIteration):
        return DEFAULT_MEM_GIB
    return min(DEFAULT_MEM_GIB, kib / 2 / (1 << 20))


def _mem_budget_bytes(mem_gib: float | None = None) -> int:
    if mem_gib is None:
        mem_gib = float(os.environ.get("HAMFORGE_MEM_GIB") or _default_mem_gib())
    return int(mem_gib * (1 << 30))


@dataclass(frozen=True)
class CountResult:
    count: int
    method: str


@dataclass(frozen=True)
class TwoFactorProfile:
    """counts[k] = number of generalized 2-factors with exactly k cycles.

    A Hamiltonian cycle is a one-cycle factor with no single-edge components,
    so counts[1] >= H(G), with equality whenever n <= 4 (no room for a short
    cycle plus matching edges).
    """

    counts: tuple[int, ...]

    def weighted_sum(self) -> int:
        return sum(c << k for k, c in enumerate(self.counts))

    @property
    def f1(self) -> int:
        return self.counts[1] if len(self.counts) > 1 else 0


def brute_force_ham_count(graph: Hypergraph, limit: int = 10) -> CountResult:
    """Count Hamiltonian cycles by filtering all (n-1)! anchored permutations."""
    n, r = graph.n, graph.r
    if n < r + 2:
        raise DegenerateCycle(f"need n >= r+2 (got n={n}, r={r})")
    if n > limit:
        raise ScaleLimit(f"brute force enumerates (n-1)! permutations; n={n} > {limit}")
    edges = graph.edges
    total = 0
    for rest in itertools.permutations(range(1, n)):
        seq = (0,) + rest
        doubled = seq + seq[: r - 1]
        ok = True
        for i in range(n):
            if tuple(sorted(doubled[i : i + r])) not in edges:
                ok = False
                break
        if ok:
            total += 1
    assert total % 2 == 0
    return CountResult(count=total // 2, method="brute_force")


@lru_cache(maxsize=8)
def _mask_layers(nfree: int) -> tuple[np.ndarray, ...]:
    """Sorted bitmask arrays grouped by popcount, over nfree free slots."""
    popcount = np.zeros(1, dtype=np.uint8)
    for _ in range(nfree):
        popcount = np.concatenate([popcount, popcount + 1])
    # mask m sits at index m, so a stable argsort lists the masks grouped by
    # popcount and in increasing order within each group
    masks = np.argsort(popcount, kind="stable")
    masks.setflags(write=False)
    return tuple(np.split(masks, np.cumsum(np.bincount(popcount))[:-1]))


def _dp_dtype(n: int, r: int):
    """The cheapest dtype in which _dp_count_numpy is exact on n vertices.

    Every array entry is at most (n-r)! = (nfree-1)!, nfree = n-r+1. At
    layer c >= 1 an entry of `cur` counts orderings of its c masked vertices
    that end at the frontier's last vertex t_{r-1}: at most (c-1)!. At layer
    0 it is 0 or 1. An entry of P at layer c <= nfree-1 is at most c!, and
    the gather only copies. Closure step k <= r-2 keeps t_{r-1} in R, so its
    entries fix that free vertex: at most (nfree-1)!. Entries are
    non-negative, so partial sums obey the same bounds. Only the last closure
    step fixes no free vertex; its sum can reach nfree!, the total over
    prefixes 2H <= (n-1)!, and both are Python ints. float64 is exact up to
    2^53, int64 up to 2^63 - 1, and object arrays of Python ints at any size.
    """
    bound = math.factorial(n - r)
    if bound < 2**53:
        return np.float64
    if bound < 2**63:
        return np.int64
    return object


def _dp_count_numpy(graph: Hypergraph, dtype) -> int:
    """Layered vectorized subset DP over masks of the non-prefix vertices.

    Returns twice the cycle count. A layer is cur[F, m]: F is the base-n
    index of the frontier (t1, ..., t_{r-1}) of the last r-1 placed vertices,
    t1 most significant; m indexes the layer's masks. With R = (t2..t_{r-1})
    and T[R, v, t1] = 1 iff (t1, R..., v) is an edge, a batched matmul over R
    gives P[R, v, m], and (R, v) is the next frontier. Exact when `dtype` is
    exact up to (n-r)!; see _dp_dtype.
    """
    n, r = graph.n, graph.r
    rest = n ** (r - 2)  # R as one base-n index

    T = np.zeros((n,) * r, dtype=dtype)
    for edge in graph.edges:
        for perm in itertools.permutations(edge):
            T[perm[1:-1] + (perm[-1], perm[0])] = 1
    T = T.reshape(rest, n, n)

    def step(cur):
        return T @ cur.reshape(n, rest, -1).transpose(1, 0, 2)

    layers = _mask_layers(n - r + 1)
    total = 0
    for mid in itertools.permutations(range(1, n), r - 2):
        prefix = (0,) + mid
        free = [v for v in range(n) if v not in prefix]
        start = np.ravel_multi_index(prefix, (n,) * (r - 1))
        cur = np.zeros((n ** (r - 1), 1), dtype=dtype)
        cur[start, 0] = 1

        for masks, nxt_masks in zip(layers, layers[1:]):
            P = step(cur)
            # no other name or view holds the old layer, so it is freed here,
            # before the new one is allocated: at most two layer-sized arrays
            # are live at once
            del cur
            cur = np.zeros((rest, n, len(nxt_masks)), dtype=dtype)
            for fi, v in enumerate(free):
                bit = 1 << fi
                # a next mask holding fi has one source, itself without fi,
                # so each entry is assigned once
                has = np.flatnonzero(nxt_masks & bit)
                src = np.searchsorted(masks, nxt_masks[has] ^ bit)
                cur[:, v, has] = P[:, v, src]
            # the last slot's index arrays go too: kept alive into the next
            # layer, they fragment the heap and raise the peak RSS
            del P, has, src

        # Closing the cycle takes r-1 forced steps onto the prefix. The last
        # one lands on the prefix's own frontier; its sum can exceed (n-r)!,
        # so it is taken in Python ints.
        for v in prefix[:-1]:
            P = step(cur)
            cur = np.zeros_like(P)
            cur[:, v] = P[:, v]
        col = cur.reshape(n, rest)[:, start // n]
        total += sum(map(int, col[T[start // n, prefix[-1]] != 0]))
    return total


def _estimate_dp_bytes(n: int, r: int, dtype) -> int:
    """Upper bound on the bytes _dp_count_numpy(graph, dtype) holds at once.

    Its widest layer holds two arrays of comb(nfree, nfree//2) masks by
    n^(r-1) frontier states: the old layer and P during the matmul, P and
    the new layer during the gather. The gather temporary P[:, v, src] holds
    at most n^(r-2) entries per mask, counted twice for slack; a slot's index
    arrays take four int64s per mask. The transition table holds n^r
    entries; the mask table is 2^nfree int64s, and building it takes two
    more. An object entry is a pointer to a Python int of at most (n-r)!.
    64 KiB more covers array headers and small Python objects.
    """
    nfree = n - (r - 1)
    peak_masks = math.comb(nfree, nfree // 2)
    item = np.dtype(dtype).itemsize
    if np.dtype(dtype) == object:
        item += sys.getsizeof(math.factorial(n - r))
    per_mask = (2 * n ** (r - 1) + 2 * n ** (r - 2)) * item + 4 * 8
    return peak_masks * per_mask + n**r * item + 3 * 8 * 2**nfree + (1 << 16)


def exact_ham_count(graph: Hypergraph, mem_gib: float | None = None) -> CountResult:
    """Exact Hamiltonian cycle count via subset DP with an ordered (r-1)-frontier.

    Equals brute_force_ham_count on its whole domain. One DP serves every n;
    its dtype is the cheapest one that is exact for n (_dp_dtype). Raises
    ScaleLimit with a state-count estimate when the DP would exceed the memory
    budget: min(8 GiB, half of MemAvailable) by default, or HAMFORGE_MEM_GIB.
    """
    n, r = graph.n, graph.r
    if n < r + 2:
        raise DegenerateCycle(f"need n >= r+2 (got n={n}, r={r})")
    dtype = _dp_dtype(n, r)
    need = _estimate_dp_bytes(n, r, dtype)
    budget = _mem_budget_bytes(mem_gib)
    if need > budget:
        raise ScaleLimit(
            f"DP needs ~{need / (1 << 30):.2f} GiB "
            f"(~{math.comb(n - r + 1, (n - r + 1) // 2) * n ** (r - 1):,} peak states), "
            f"budget is {budget / (1 << 30):.2f} GiB"
        )
    total = _dp_count_numpy(graph, dtype)
    assert total % 2 == 0
    return CountResult(count=total // 2, method="subset_dp")


def expectation_value(n: int, p: float) -> float:
    """E(n,p) = p^n (n-1)!/2, the expected count in the binomial random model."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if not 0 < p <= 1:
        raise ValueError("p must be in (0,1]")
    if n <= 170:
        return (p**n) * math.factorial(n - 1) / 2
    return math.exp(n * math.log(p) + math.lgamma(n) - math.log(2))


def log2_expectation_value(n: int, p: float) -> float:
    """log2 of E(n,p); stable for large n."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if not 0 < p <= 1:
        raise ValueError("p must be in (0,1]")
    ln2 = math.log(2)
    return n * math.log2(p) + math.lgamma(n) / ln2 - 1.0


def permanent(matrix) -> int:
    """Exact permanent of a small square matrix via Ryser's formula (Gray code)."""
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    if n > 30:
        raise ScaleLimit(f"Ryser is O(2^n n); order {n} > 30")
    cols = list(zip(*a))
    rowsums = [0] * n
    total = 0
    sign = 1  # (-1)^{n-|S|}, updated as |S| changes parity
    gray = 0
    for k in range(1, 1 << n):
        bit = (k & -k).bit_length() - 1
        mask = 1 << bit
        gray ^= mask
        col = cols[bit]
        sign = -sign
        if gray & mask:
            for i in range(n):
                rowsums[i] += col[i]
        else:
            for i in range(n):
                rowsums[i] -= col[i]
        prod = 1
        for s in rowsums:
            if s == 0:
                prod = 0
                break
            prod *= s
        if prod:
            total += sign * prod
    # sign bookkeeping above tracks (-1)^{|S|}; overall factor (-1)^n
    return total if n % 2 == 0 else -total


def permanent_brute_force(matrix) -> int:
    """Definition-level permanent (sum over all permutations); test oracle."""
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= a[i][j]
            if prod == 0:
                break
        total += prod
    return total


def adjacency_matrix(graph: Hypergraph) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix of a 2-graph."""
    if graph.r != 2:
        raise ValueError("adjacency matrix requires r=2")
    a = np.zeros((graph.n, graph.n), dtype=np.int64)
    for u, v in graph.edges:
        a[u, v] = 1
        a[v, u] = 1
    return a


def two_factor_profile(graph: Hypergraph, limit: int = 10) -> TwoFactorProfile:
    """Count spanning subgraphs whose components are cycles and single edges,
    grouped by number of cycles. Exhaustive; n <= 10."""
    if graph.r != 2:
        raise ValueError("generalized 2-factors are defined for graphs (r=2)")
    n = graph.n
    if n > limit:
        raise ScaleLimit(f"two-factor enumeration is exponential; n={n} > {limit}")
    adj = [set() for _ in range(n)]
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)

    @lru_cache(maxsize=None)
    def profiles(uncovered: frozenset) -> tuple[tuple[int, int], ...]:
        # returns ((k, count), ...) for covering `uncovered` by cycles/edges
        if not uncovered:
            return ((0, 1),)
        v = min(uncovered)
        rest = uncovered - {v}
        acc: dict[int, int] = {}
        # v matched by a single edge
        for u in adj[v] & rest:
            for k, c in profiles(rest - {u}):
                acc[k] = acc.get(k, 0) + c
        # v on a cycle of length >= 3; v is the least vertex of its cycle.
        # Count each cycle once by requiring second vertex < last vertex.
        def extend(path: tuple[int, ...], used: frozenset):
            last = path[-1]
            for u in adj[last] & uncovered:
                if u in used:
                    continue
                new_path = path + (u,)
                if len(new_path) >= 3 and v in adj[u] and new_path[1] < u:
                    for k, c in profiles(uncovered - frozenset(new_path)):
                        acc[k + 1] = acc.get(k + 1, 0) + c
                extend(new_path, used | {u})

        extend((v,), frozenset((v,)))
        return tuple(sorted(acc.items()))

    result = dict(profiles(frozenset(range(n))))
    profiles.cache_clear()
    if not result:
        return TwoFactorProfile(counts=(0,))
    kmax = max(result)
    return TwoFactorProfile(counts=tuple(result.get(k, 0) for k in range(kmax + 1)))


def bregman_bound(matrix) -> float:
    """Product bound on the permanent of a binary matrix from its row sums.

    Rows with zero sum contribute factor 1 (the permanent is then 0 anyway).
    """
    a = [[int(x) for x in row] for row in matrix]
    log_total = 0.0
    for row in a:
        if any(x not in (0, 1) for x in row):
            raise ValueError("matrix entries must be 0/1")
        ri = sum(row)
        if ri > 0:
            log_total += math.lgamma(ri + 1) / ri
    return math.exp(log_total)


def alon_upper_bound_h2(n: int, p: float) -> float:
    """Asymptotic-only upper-bound expression for graph Hamiltonian counts.

    Evaluates the closed form without its (1+o(1)) factor; report it, never
    assert it as an inequality at finite n.
    """
    return math.exp(log2_alon_upper_bound_h2(n, p) * math.log(2))


def log2_alon_upper_bound_h2(n: int, p: float) -> float:
    if not 0 < p < 1:
        raise ValueError("p must be in (0,1)")
    if n < 3:
        raise ValueError("n must be >= 3")
    ln2 = math.log(2)
    log2_const = (
        -1.0 / ln2
        + (1.0 / p - 1.0) * 0.5 * math.log2(2 * math.pi)
        + (1.0 / (2 * p)) * math.log2(p)
    )
    return log2_const + (0.5 + 1.0 / (2 * p)) * math.log2(n) + log2_expectation_value(n, p)
