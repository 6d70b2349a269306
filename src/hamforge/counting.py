"""Exact tight-Hamiltonian-cycle counting, permanents, and counting bounds.

The exact counter anchors cycles at vertex 0 to kill rotations and uses
reversal where it can, so all 2n symmetric traversals of one cycle
collapse to a single count: an even r' centres its prefixes on vertex 0
and runs one of each reversed pair, r' = 2 joins the paths over half the
free vertices at the middle layer, and an odd r' counts both directions
and divides by two. One vectorized subset DP counts at every n and r; one
edge table steps its frontier, starts it and closes the cycle. Counts are
exact integers: a step whose entries stay below 2^24 runs in float32, one
below 2^53 in float64, and past 2^53 the last steps run in float64 modulo
coprime moduli, whose closure sums, taken in Python ints, the Chinese
remainder theorem joins.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateCycle, InvalidParams, ScaleLimit
from .hypercore import Hypergraph, capped_comb

DEFAULT_MEM_GIB = 8.0
BRUTE_FORCE_MAX_N = 10
TWO_FACTOR_MAX_N = 10
MEMINFO = "/proc/meminfo"
# a count whose largest layer is smaller runs all its prefixes on the calling thread
THREAD_MIN_LAYER_BYTES = 1 << 19

_kept_shape = None  # ((n, r), tables) of the last shape counted; see _shape_tables


def _default_mem_gib() -> float:
    """min(8 GiB, half of MemAvailable); 8 GiB where MEMINFO cannot be read."""
    try:
        with open(MEMINFO) as f:
            kib = next(int(ln.split()[1]) for ln in f if ln.startswith("MemAvailable:"))
    except (OSError, StopIteration):
        return DEFAULT_MEM_GIB
    return min(DEFAULT_MEM_GIB, kib / 2 / (1 << 20))


def _mem_budget_bytes() -> int:
    raw = os.environ.get("HAMFORGE_MEM_GIB")
    if not raw:
        return int(_default_mem_gib() * (1 << 30))
    try:
        mem_gib = float(raw)
    except ValueError:
        mem_gib = math.nan
    if not 0 < mem_gib < math.inf:
        raise InvalidParams(f"HAMFORGE_MEM_GIB must be a finite number > 0, got {raw!r}")
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


def brute_force_ham_count(graph: Hypergraph) -> CountResult:
    """Count Hamiltonian cycles by exhaustive search over anchored sequences.

    A depth-first search extends (0, ...) by one unused vertex at a time and
    abandons a sequence at its first window that is not an edge, so every
    vertex order is covered; a full sequence counts if its r-1 wrap-around
    windows are edges too. Each cycle is found once in each direction.
    """
    n, r = graph.n, graph.r
    if n < r + 2:
        raise DegenerateCycle(f"need n >= r+2 (got n={n}, r={r})")
    if n > BRUTE_FORCE_MAX_N:
        raise ScaleLimit(f"brute force searches up to (n-1)! sequences; n={n} > {BRUTE_FORCE_MAX_N}")
    edges = graph.edges
    # r-1 vertices -> bitmask of the vertices that complete an edge with them
    follow: dict[tuple[int, ...], int] = {}
    for edge in edges:
        for perm in itertools.permutations(edge):
            follow[perm[:-1]] = follow.get(perm[:-1], 0) | 1 << perm[-1]

    def extend(seq: tuple[int, ...], unused: int) -> int:
        if not unused:
            wrap = seq[n - r + 1 :] + seq[: r - 1]
            return all(tuple(sorted(wrap[i : i + r])) in edges for i in range(r - 1))
        found = 0
        ways = unused if len(seq) < r - 1 else follow.get(seq[1 - r :], 0) & unused
        while ways:
            bit = ways & -ways
            found += extend(seq + (bit.bit_length() - 1,), unused ^ bit)
            ways ^= bit
        return found

    total = extend((0,), (1 << n) - 2)
    assert total % 2 == 0
    return CountResult(count=total // 2, method="brute_force")


def _mask_layers(nfree: int, top: int) -> tuple[np.ndarray, ...]:
    """Sorted bitmask arrays of popcount 0..top, over nfree free slots.

    They are in the least unsigned dtype that holds every mask, so the bit
    tests of _shape_tables read and write the fewest bytes.
    """
    dtype = np.min_scalar_type((1 << nfree) - 1)
    layers, none = [np.zeros(1, dtype)], np.empty(0, dtype)
    for bit in range(nfree):
        # the sorted masks of popcount k over one more slot: those of
        # popcount k without the new bit, then the larger ones that hold it
        new = dtype.type(1 << bit)
        layers = [np.concatenate([low, high + new])
                  for low, high in zip(layers + [none], [none] + layers)][: top + 1]
    return tuple(layers)


def _dp_shape(n: int, r: int) -> tuple[int, int, int, int]:
    """(r', N, K, ng) of _dp_count_numpy on n vertices of an r-graph.

    r' is the uniformity it counts at: r, or n-r below n = 2r-2, where no
    frontier of r-1 free vertices exists. There it counts the (n-r)-graph of
    edge complements instead: a window's complement is the n-r cyclically
    consecutive vertices after it, so both graphs have the same tight
    Hamiltonian cycles, and n >= 2(n-r)-2 holds. N = n-r'+1 free slots,
    K = N-r'+2 of them outside a frontier tuple G, and ng = N!/K! tuples G.
    """
    r = r if n >= 2 * r - 2 else n - r
    N = n - r + 1
    return r, N, N - r + 2, math.perm(N, r - 2)


def _dp_moduli(n: int, r: int) -> tuple[int, ...]:
    """Moduli of _dp_count_numpy's float64 channels; () means one exact channel.

    With r, N and K from _dp_shape, an entry of P = E @ L at step k counts
    orderings of k+r-1 placed free vertices whose last r-1 are fixed: at
    most k!. L copies P, start weights and E are 0 or 1 and nothing is
    negative, so every partial sum obeys that bound too. So a step is exact
    in float32 while its k! is below 2^24 and in float64 while it is below
    2^53 (_step_dtype), and the counter needs no moduli while k! of its last
    step, _dp_steps(r, K), is below 2^53: for r = 2 that holds up to n = 38.
    Beyond it, from the step whose k! reaches the least modulus on, P is
    reduced modulo each m <= 2^53 // N, so a matmul sums N entries below m.
    The moduli are pairwise coprime with a product above (n-1)! >= 2H, the
    number of anchored vertex orders, so the CRT recovers 2H.
    """
    r, N, K, _ = _dp_shape(n, r)
    if math.factorial(_dp_steps(r, K)) < 2**53:
        return ()
    moduli, product, m, bound = [], 1, 2**53 // N, math.factorial(n - 1)
    while product <= bound:
        if math.gcd(m, product) == 1:
            moduli.append(m)
            product *= m
        m -= 1
    return tuple(moduli)


def _step_dtype(k: int, moduli: tuple[int, ...]) -> np.dtype:
    """Float dtype of step k of _dp_count_numpy, picked by its bound k! (_dp_moduli).

    float32 holds every integer below 2^24, so a step whose k! is below
    2^24 and below min(moduli), where the residue channels start, runs in
    float32; every later step runs in float64.
    """
    return np.dtype(np.float32 if math.factorial(k) < min((2**24, *moduli)) else np.float64)


def _dp_steps(r: int, K: int) -> int:
    """Matmul steps of _dp_count_numpy, with r and K from _dp_shape.

    r > 2 steps from U-layer 1 to K. r = 2, where K = N, stops at the
    middle: it gathers up to layer ceil(N/2) and joins that layer with the
    product of layer floor(N/2), which is the last step's P for odd N and one
    more matmul for even N.
    """
    return K - 1 if r > 2 else K // 2


def _top_layer(r: int, K: int) -> int:
    """The last U-layer _dp_count_numpy gathers, and the largest popcount of a mask it reads."""
    return K if r > 2 else (K + 1) // 2


def _reversal_factor(r: int) -> int:
    """2 if _prefixes keeps one of each reversed pair for this r', else 1."""
    return 2 if r > 2 and r % 2 == 0 else 1


def _prefixes(n: int, r: int) -> list[tuple[int, ...]]:
    """Anchored prefixes of _dp_count_numpy, with r the r' of _dp_shape.

    A prefix is r-1 consecutive vertices of a cycle, one of them 0. For odd
    r they are (0, mid) over the injective (r-2)-tuples mid, one per
    directed cycle. For even r they are (a, 0, b), with h = (r-2)/2
    vertices on each side, and only those with a[-1] < b[0]: reversal maps
    (a, 0, b) to (b reversed, 0, a reversed), which swaps the neighbours of
    0, so exactly one direction of each cycle has a kept prefix, and the
    count multiplies its sum by _reversal_factor; there are
    perm(n-1, r-2) // _reversal_factor(r) of them. For r = 2 the one
    prefix (0,) is its own reverse. An odd r cannot centre 0 in its r-1
    places, and reversal maps (0, mid) to a prefix that ends at 0, so it
    keeps both directions.
    """
    h = (r - 2) // 2 if r % 2 == 0 else 0
    return [mid[:h] + (0,) + mid[h:] for mid in itertools.permutations(range(1, n), r - 2)
            if not h or mid[h - 1] < mid[h]]


def _buffer_bytes(r: int, N: int, K: int, ng: int, moduli: tuple[int, ...]) -> int:
    """Bytes of one layer buffer: the largest L, P or fmod of P of a count.

    Step k, for k up to _dp_steps(r, K), reads U-layer k, of comb(K, k) + 1
    u columns, and writes layer k+1, in _step_dtype(k, moduli) and in
    len(moduli) channels once k! reaches min(moduli), else in one. The
    first float64 step copies its layer up from float32, and the start
    layer, of K + 1 columns, is float32.
    """
    fork = min(moduli, default=math.inf)
    return N * ng * max([4 * (K + 1)] + [(max(math.comb(K, k), math.comb(K, k + 1)) + 1)
                                         * _step_dtype(k, moduli).itemsize
                                         * (len(moduli) if math.factorial(k) >= fork else 1)
                                         for k in range(1, _dp_steps(r, K) + 1)])


def _dp_workers(n: int, r: int) -> int:
    """Threads that share a count's anchored prefixes: at most one per CPU and per prefix.

    r' = 2 (one prefix) and a count whose largest layer is under
    THREAD_MIN_LAYER_BYTES run on the calling thread alone.
    """
    moduli = _dp_moduli(n, r)
    r, N, K, ng = _dp_shape(n, r)
    if _buffer_bytes(r, N, K, ng, moduli) < THREAD_MIN_LAYER_BYTES:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, math.perm(n - 1, r - 2) // _reversal_factor(r))


def _shape_tables(n: int, r: int) -> tuple:
    """(G, F, a, masks, index) of _dp_count_numpy for n vertices, with r the r' of _dp_shape.

    index(k), for each step k that gathers (_top_layer), gives per free
    slot t the index into t's block of P from U-layer k to k+1; masks are
    the mask layers those steps read. A frontier's row of the index depends
    on the slot only through its rank pair (a, b) and its row offset in the
    block: each distinct pair's template is built once per step and picked
    by a pair id found once per shape, and the offsets are added in place.
    For r > 2 index(k) reads arrays built here; for r = 2 it builds each
    slot's index, its one pair's template, in intp (so take does not cast
    it) as the step runs. The tables are read-only and kept for the next
    count of the same (n, r); one shape is kept, and a count of another
    shape drops it before it builds its own.
    """
    global _kept_shape
    kept = _kept_shape  # read once: a count in another thread may replace it
    if kept is not None and kept[0] == (n, r):
        return kept[1]
    _kept_shape = None
    _, N, K, ng = _dp_shape(n, r)
    masks = _mask_layers(K, _top_layer(r, K))
    G = np.array(list(itertools.permutations(range(N), r - 2)), dtype=np.intp).reshape(ng, r - 2)
    gidx = np.zeros(N ** (r - 2), dtype=np.intp)
    gidx[G @ N ** np.arange(r - 3, -1, -1)] = np.arange(ng)
    # F[t, g] = (t, G_g) is a frontier; as the next one it reads row
    # (F[:-1], F[-1]) of P
    F = np.empty((N, ng, r - 1), dtype=np.intp)
    F[..., 0], F[..., 1:] = np.arange(N)[:, None], G
    valid = (F[..., 1:] != F[..., :1]).all(-1)
    a = F[..., 0] - (F[..., 1:] < F[..., :1]).sum(-1)  # rank of t outside G_g
    v = F[..., -1]
    b = v - (F[..., :-1] < v[..., None]).sum(-1)  # rank of v outside F[:-1]
    # row of P that each next frontier reads, within slot t's block of P
    rows = gidx[F[..., :-1] @ N ** np.arange(r - 3, -1, -1)] * N + v - np.arange(N)[:, None] * ng
    a[~valid] = b[~valid] = rows[~valid] = 0
    # pair id of each (t, g): the index of its (a, b) among the distinct pairs
    pairs, pair_id = np.unique(a * K + b, return_inverse=True)
    pair_id, (ua, ub) = pair_id.reshape(a.shape), divmod(pairs, K)

    def templates(k, ua, ub, itype):
        # dropping t (rank ua) from U' and adding v (rank ub) to the slots
        # keeps mask order, and maps the masks holding t one to one onto the
        # masks lacking v: the j-th of the one reads the j-th of the other;
        # every other mask, and the trailing column, reads the zero column
        cur, nxt = masks[k], masks[k + 1]
        umap = np.full((len(ua), len(nxt) + 1), len(cur), dtype=itype)
        holds = {x: (nxt & 1 << x).astype(bool) for x in set(ua.tolist())}
        lacks = {y: np.flatnonzero((cur & 1 << y) == 0) for y in set(ub.tolist())}
        for row, x, y in zip(umap, ua.tolist(), ub.tolist()):
            row[:-1][holds[x]] = lacks[y]
        return umap

    def gather_indices(k):
        width = len(masks[k]) + 1
        itype = np.uint16 if ng * width <= 1 << 16 else np.int32
        umap = templates(k, ua, ub, itype)[pair_id]
        umap[~valid] = len(masks[k])
        umap += (rows * width).astype(itype)[..., None]
        return umap

    steps = [gather_indices(k) for k in range(1, K)] if r > 2 else []

    def index(k):
        # r = 2: slot t has one frontier (t,), which is valid and has offset 0
        return steps[k - 1] if r > 2 else (templates(k, ua[pair_id[t]], ub[pair_id[t]], np.intp)
                                             for t in range(N))

    for table in (G, F, a, *masks, *steps):
        table.setflags(write=False)
    tables = (G, F, a, masks, index)
    _kept_shape = ((n, r), tables)
    return tables


def _exact_dot(x: np.ndarray, y: np.ndarray) -> int:
    """The sum of x * y, as a Python int, over two equal-size arrays of integers in [0, 2^53).

    y is cut into limbs as wide as its largest entry, but at most 24 bits,
    and x into limbs of the other 48 - that many bits. So a product of two
    limbs is below 2^48, and an int64 sum of 2^15 of them cannot overflow;
    those sums are shifted and added in Python ints.
    """
    x, y = x.astype(np.int64), y.astype(np.int64)
    bx, by = (int(z.max(initial=0)).bit_length() for z in (x, y))

    def limbs(z, bits, width):
        if bits <= width:
            yield 0, z
            return
        for shift in range(0, bits, width):
            limb = z >> shift
            limb &= (1 << width) - 1
            yield shift, limb

    wy = min(by, 24)
    ys = list(limbs(y, by, wy))
    q = 1 << 15
    return sum(int(np.dot(u[i : i + q], v[i : i + q])) << (s + t)
               for s, u in limbs(x, bx, 48 - wy) for t, v in ys for i in range(0, x.size, q))


def _dp_count_numpy(graph: Hypergraph, moduli: tuple[int, ...], workers: int | None = None) -> int:
    """Layered vectorized subset DP over the vertices outside an anchored prefix.

    Returns twice the cycle count. Each anchored prefix of r-1 vertices
    (_prefixes) leaves N = n-r+1 free vertices, addressed by slot. A layer
    L[t1, g, u, c] counts, in channel c, the orderings of its placed free vertices that pass
    every window so far and end at the frontier (t1, G). g indexes the
    injective (r-2)-tuple G = (t2, ..., t_{r-1}) of slots, and u ranks the
    placed set minus G among the subsets of the K = N-r+2 other slots
    (_mask_layers order), with one trailing all-zero u column. With
    E[g, v, t1] = 1 iff (t1, G, v) is an edge, one batched matmul gives
    P[g, v, u], whose row (g, v) holds the new frontier (G, v). The next
    layer reads P through one gather index per free slot, shared by every
    prefix (_shape_tables); a frontier whose t1 is not placed reads the zero
    column, so no entry needs zeroing. The DP starts at layer r-1, weighted
    by the r-1 windows that touch the prefix, and closes with the r-1 that
    wrap around. Below n = 2r-2 it counts the complements' (n-r)-graph; see
    _dp_shape. Each step runs in the dtype its bound k! picks
    (_step_dtype): float32 while k! is below 2^24, then float64, where the
    first float64 step copies its layer and E up once. The arrays hold one
    exact channel until k! reaches min(moduli), then one per modulus; the
    closure sums each channel in Python ints and the CRT joins them; see
    _dp_moduli.

    Reversal halves the work for every even r. An even r > 2 centres its
    prefixes on 0 and runs only one of each reversed pair, then doubles the
    sum. r = 2 has the one prefix (0,) and stops at the middle: with m =
    ceil(N/2), a directed cycle's first m free vertices, ending at w, are a
    path of layer m, and its other N-m, read back from 0, are a path of
    layer N-m that P then steps to w. So 2H = sum over w and i of
    P[w, i] * L_m[w, C-1-i], with P the product of layer N-m and C =
    comb(N, m): the complements of the sorted popcount-(N-m) masks are the
    popcount-m masks in reverse order. For even N that product is one more
    matmul from layer m, in _step_dtype(m), and is joined unreduced, as its
    sums of N entries below min(moduli) or a modulus stay below 2^53. The
    join runs per channel and per w in int64 limbs (_exact_dot). An odd r
    counts both directions; see _prefixes.

    The prefixes are split over `workers` threads (default _dp_workers):
    the calling thread runs one share. Each worker keeps its layers in two
    flat byte buffers, allocated here once per count and viewed in each
    step's dtype: the matmul writes P into the one that does not hold L,
    and the slot gathers write the next layer back into the other. The sums
    are Python ints, so the split does not change the total.
    """
    n = graph.n
    r, N, K, ng = _dp_shape(n, graph.r)
    workers = _dp_workers(n, graph.r) if workers is None else workers
    if r != graph.r:
        everything = set(range(n))
        graph = Hypergraph.from_edges(n, r, [everything.difference(e) for e in graph.edges])
    G, F, a, masks, index = _shape_tables(n, r)
    T = np.zeros((n,) * r, dtype=np.float32)
    edges = np.array(list(graph.edges), dtype=np.intp).reshape(-1, r).T
    for perm in itertools.permutations(range(r)):
        T[tuple(edges[list(perm)])] = 1
    T = T.ravel()  # read at base-n window indices; every order of an edge is set
    weights = n ** np.arange(r - 1, -1, -1)
    start = (*np.indices((N, ng)), a, 0)
    fork = min(moduli, default=math.inf)
    residues = np.array(moduli, dtype=np.float64)
    dtypes = [_step_dtype(k, moduli) for k in range(1, _dp_steps(r, K) + 1)]

    def flat(buffer, dtype, size):
        return buffer[: size * dtype.itemsize].view(dtype)

    def count_share(prefixes, buffers):
        # seq[:, t, g] is prefix + F[t, g] + prefix; of its windows the first
        # r-1 weight the start at layer r-1, and the last r-1 close the cycle
        seq = np.empty((3 * r - 3, N, ng), dtype=np.intp)
        totals = [0]
        for prefix in prefixes:
            free = np.array([u for u in range(n) if u not in prefix])
            seq[: r - 1] = seq[2 * r - 2 :] = np.array(prefix)[:, None, None]
            seq[r - 1 : 2 * r - 2] = np.moveaxis(free[F], 2, 0)
            w = T[sum(seq[j : j + 2 * r - 2] * weights[j] for j in range(r))]
            E = T[(free[G] @ weights[1:-1])[:, None, None] + free[:, None] + free * n ** (r - 1)]
            src, dst = buffers  # src holds the layer, dst is free
            L = flat(src, E.dtype, N * ng * (K + 1)).reshape(N, ng, K + 1, 1)
            L.fill(0)
            L[start] = w[: r - 1].prod(0)
            for k, dtype in enumerate(dtypes, 1):
                if L.dtype != dtype:  # the first float64 step copies L and E up
                    up = flat(dst, dtype, L.size).reshape(L.shape)
                    up[...] = L
                    L, E = up, E.astype(dtype)
                    src, dst = dst, src
                # row t of P is the block that slot t's next frontiers read: the
                # rows whose G starts at t (r > 2), or row v = t (r = 2)
                c = L.shape[-1]
                P = np.matmul(E, L.transpose(1, 0, 2, 3).reshape(ng, N, -1),
                              out=flat(dst, dtype, L.size).reshape(ng, N, -1)).reshape(N, -1, c)
                src, dst = dst, src
                if k == len(masks) - 1:  # r = 2, even N: the product of the middle layer
                    break
                if math.factorial(k) >= fork:
                    c = len(moduli)
                    out = flat(dst, dtype, P[..., 0].size * c).reshape(N, -1, c)
                    P = np.fmod(P, residues, out=out)
                    src, dst = dst, src
                L = flat(dst, dtype, N * ng * (math.comb(K, k + 1) + 1) * c).reshape(N, ng, -1, c)
                for t, idx in enumerate(index(k)):
                    P[t].take(idx, axis=0, out=L[t], mode="clip")
                src, dst = dst, src
            if r == 2:
                C = math.comb(N, N // 2)
                ends = [sum(_exact_dot(P[v, :C, ch], L[v, 0, C - 1 :: -1, ch]) for v in range(N))
                        for ch in range(L.shape[-1])]
            else:
                ends = [sum(map(int, ch))
                        for ch in L[..., 0, :][w[r - 1 :].prod(0) != 0].T.tolist()]
            totals = [s + end for s, end in zip(itertools.cycle(totals), ends)]
        return totals

    prefixes = _prefixes(n, r)
    workers = min(workers, len(prefixes))
    size = _buffer_bytes(r, N, K, ng, moduli)
    buffers = [(np.empty(size, np.uint8), np.empty(size, np.uint8))  # on this thread
               for _ in range(workers)]
    shares: list = [None] * workers

    def run(j):
        try:
            shares[j] = count_share(prefixes[j::workers], buffers[j])
        except BaseException as exc:  # re-raised on the calling thread
            shares[j] = exc

    threads = [threading.Thread(target=run, args=(j,)) for j in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if errors := [share for share in shares if isinstance(share, BaseException)]:
        raise errors[0]
    totals = [_reversal_factor(r) * sum(channel) for channel in zip(*shares)]
    if not moduli:
        return totals[0]
    big = math.prod(moduli)  # if no step reduced, the one exact total serves every modulus
    return sum(t * (big // m) * pow(big // m, -1, m)
               for m, t in zip(moduli, itertools.cycle(totals))) % big


def _estimate_dp_bytes(n: int, r: int, workers: int | None = None) -> int:
    """Upper bound on the bytes _dp_count_numpy(graph, _dp_moduli(n, r), workers) holds.

    workers defaults to _dp_workers(n, r). Each worker holds two layer
    buffers of _buffer_bytes, which cover only the steps that run: L, its
    float64 copy, P, the fmod of P and the next L all live in them. take
    casts a kept slot index to intp; for r = 2 the index is built in intp,
    with its bit-test temporaries, as the step runs, and the middle join
    holds at most six int64 copies and limbs (_exact_dot) per entry of one
    slot's row. Six intp per entry of a slot's block, at the widest layer
    e_k = N * ng * (comb(K, k) + 1) (see _dp_shape), cover each; for r = 2
    the middle layer is the widest that runs. E holds
    ng * N^2 float32s and their float64 copy, plus two intp each to build
    it, and the start and closure windows take 12r intp per frontier; each
    worker holds its own. Shared once: for r > 2 the kept shape tables,
    that is every layer's gather indices (e_{k+1} uint16s or int32s at
    layer k) and the frontier index arrays, which with their build take 10r
    intp per frontier; T with n^r float32s plus an intp each for its edge
    lists; the kept masks, of popcount up to _top_layer(r, K), whose
    build holds at most two such tables of masks of at most 8 bytes. 64 KiB
    covers array headers, small Python objects and the threads.
    """
    workers = _dp_workers(n, r) if workers is None else workers
    moduli = _dp_moduli(n, r)
    r, N, K, ng = _dp_shape(n, r)
    e = [N * ng * (math.comb(K, k) + 1) for k in range(K + 1)]
    indices = sum(e[k + 1] * (2 if ng * (math.comb(K, k) + 1) <= 1 << 16 else 4)
                  for k in range(1, K)) if r > 2 else 0
    worker = (2 * _buffer_bytes(r, N, K, ng, moduli) + 48 * e[K // 2] // N + ng * N * N * 28
              + 12 * r * 8 * N * ng)
    masks = sum(math.comb(K, j) for j in range(_top_layer(r, K) + 1))
    return workers * worker + indices + n**r * 12 + 10 * r * 8 * N * ng + 16 * masks + (1 << 16)


def exact_ham_count(graph: Hypergraph) -> CountResult:
    """Exact Hamiltonian cycle count via subset DP with an ordered (r-1)-frontier.

    Equals brute_force_ham_count on its whole domain; one DP serves every
    n, in float32, float64 and residue channels as its bounds grow
    (_dp_moduli). It runs on the most workers, up to _dp_workers,
    whose estimate fits the memory budget: min(8 GiB, half of MemAvailable)
    by default, or HAMFORGE_MEM_GIB, which must be a finite number > 0.
    Raises ScaleLimit with a state-count estimate when one worker does not
    fit, and at once, before any estimate, moduli or table is built, when T
    and the widest layer alone, in float32, pass the budget.
    """
    n, r = graph.n, graph.r
    if n < r + 2:
        raise DegenerateCycle(f"need n >= r+2 (got n={n}, r={r})")
    budget = _mem_budget_bytes()
    # T holds n^r' >= n^m float32s; checked by bit lengths, before any power or perm is formed
    m = min(r, n - r)
    if 2 + m * (n.bit_length() - 1) >= budget.bit_length():
        raise ScaleLimit(f"DP needs over {budget >> 20:,} MiB for its edge table, "
                         f"at least {n}^{m} float32s")
    rr, N, K, ng = _dp_shape(n, r)
    if 4 * (n**rr + N * ng * capped_comb(K, K // 2, budget)) > budget:
        raise ScaleLimit(f"DP needs over {budget >> 20:,} MiB for its edge table, {n}^{rr} float32s, "
                         f"and widest layer, {N}*P({N},{rr - 2})*C({K},{K // 2}) states")
    workers = _dp_workers(n, r)
    while workers > 1 and _estimate_dp_bytes(n, r, workers) > budget:
        workers -= 1
    need = _estimate_dp_bytes(n, r, workers)
    if need > budget:
        raise ScaleLimit(f"DP needs ~{need >> 20:,} MiB (~{N * ng * math.comb(K, K // 2):,} peak "
                         f"states), budget is {budget >> 20:,} MiB")
    total = _dp_count_numpy(graph, _dp_moduli(n, r), workers)
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
        total += sign * math.prod(rowsums)
    # sign bookkeeping above tracks (-1)^{|S|}; overall factor (-1)^n
    return total if n % 2 == 0 else -total


def adjacency_matrix(graph: Hypergraph) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix of a 2-graph."""
    if graph.r != 2:
        raise ValueError("adjacency matrix requires r=2")
    a = np.zeros((graph.n, graph.n), dtype=np.int64)
    for u, v in graph.edges:
        a[u, v] = 1
        a[v, u] = 1
    return a


def two_factor_profile(graph: Hypergraph) -> TwoFactorProfile:
    """Count spanning subgraphs whose components are cycles and single edges,
    grouped by number of cycles. Exhaustive; n <= 10."""
    if graph.r != 2:
        raise ValueError("generalized 2-factors are defined for graphs (r=2)")
    n = graph.n
    if n > TWO_FACTOR_MAX_N:
        raise ScaleLimit(f"two-factor enumeration is exponential; n={n} > {TWO_FACTOR_MAX_N}")
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
            for u in adj[last] & uncovered - used:
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
