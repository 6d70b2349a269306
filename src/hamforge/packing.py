"""Randomized edge-disjoint packings, their validator, and the partitioner
that groups Steiner blocks, packing elements and leftover edges into
vertex-disjoint k-sets.

The randomized builder follows the sample -> reassign -> color -> trim
pipeline: sample K vertex q-sets, give each multiply-covered edge at most one
owner via a uniform draw, color surviving edges red/white, and trim white
edges so every element ends with the same edge count z. Red degrees are what
survives trimming, so the red-degree floor is the retry predicate guarding
the final min-degree property.

The partitioner sees each item only through its vertex set: two items
conflict when their vertex sets meet. It runs plain first-fit passes, as many
as the module constant RESTARTS allows; only the shuffle stream is a parameter.
A pass keeps, for each vertex, an int with one bit per open group holding it,
so an item's fit test is a few int operations however many groups are open.

A partitioned family is checked when it is made, in one pass that also enters
each edge's member in its owner table, so a repeated edge is a rank owned twice.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import (
    ConstructionBug,
    DivisibilityViolation,
    InfeasibleParams,
    InvalidParams,
    ParseError,
    PartitionFailed,
    RetryBudgetExhausted,
    ScaleLimit,
)
from .geometry import SteinerSystem
from .hypercore import MAX_R_SETS, Edge, colex_rank, too_many_r_sets


@dataclass(frozen=True)
class PackingParams:
    """Parameters of an (n, r, k, beta, delta)-packing.

    Faithful mode derives (q, K, M) and the per-size degree thresholds from
    the exponents; direct mode takes them explicitly (with a flat threshold
    tau), because the faithful M = floor(n^delta/4) >= 1 needs astronomically
    large n. The validator reads thresholds through tau_for_size either way.
    """

    n: int
    r: int
    k: int
    q: int
    K: int
    M: int
    mode: str  # "faithful" | "direct"
    beta: float | None = None
    delta: float | None = None
    tau: float | None = None

    @classmethod
    def faithful(cls, n: int, r: int, k: int, beta: float, delta: float) -> "PackingParams":
        if not 0 < delta < beta < 1:
            raise InvalidParams("need 0 < delta < beta < 1")
        if r < 3 or k < 1:
            raise InvalidParams("need r >= 3 and k >= 1")
        q = math.ceil(n**beta)
        K = math.ceil(n ** (r - r * beta))
        if K % k:
            K += k - K % k
        M = math.floor(n**delta / 4)
        if M < 1:
            raise InfeasibleParams(
                f"faithful M = floor(n^delta/4) = {M} < 1 at n={n}, delta={delta}; "
                "use direct mode at desk scale"
            )
        return cls(n=n, r=r, k=k, q=q, K=K, M=M, mode="faithful", beta=beta, delta=delta)

    @classmethod
    def direct(cls, n: int, r: int, k: int, q: int, K: int, M: int, tau: float) -> "PackingParams":
        if r < 3 or k < 1 or q < r or n < q:
            raise InvalidParams("need r >= 3, k >= 1, r <= q <= n")
        if K < 1 or K % k:
            raise InvalidParams(f"K={K} must be a positive multiple of k={k}")
        if M < 1:
            raise InvalidParams("M must be >= 1")
        if not 0 < tau < math.inf:
            raise InvalidParams(f"tau must be positive and finite, got {tau}")
        return cls(n=n, r=r, k=k, q=q, K=K, M=M, mode="direct", tau=tau)

    def tau_for_size(self, size: int) -> float:
        if not 1 <= size <= self.r - 1:
            raise InvalidParams(f"|X| must be in [1, r-1], got {size}")
        if self.mode == "faithful":
            return self.n ** (-self.delta) * math.comb(self.q - size, self.r - size)
        return self.tau

    def floor_element_count(self) -> float:
        if self.mode == "faithful":
            return self.n ** (self.r - self.r * self.beta)
        return self.K


@dataclass(frozen=True)
class Packing:
    """Pairwise edge-disjoint q-vertex r-subgraphs with equal edge counts."""

    n: int
    r: int
    q: int
    k: int
    z: int
    vertex_sets: tuple[tuple[int, ...], ...]
    edge_sets: tuple[tuple[Edge, ...], ...]

    @property
    def K(self) -> int:
        return len(self.vertex_sets)

    def covered_edges(self) -> set[Edge]:
        out: set[Edge] = set()
        for edges in self.edge_sets:
            out.update(edges)
        return out


@dataclass(frozen=True)
class PackingReport:
    ok: bool
    properties: tuple[tuple[str, bool, str], ...]  # (name, passed, detail)

    def failed(self) -> list[str]:
        return [name for name, passed, _ in self.properties if not passed]


def _low_codegree(vertices, edges, params: PackingParams) -> tuple | None:
    """Property (ii) for one element: the first (X, degree, threshold) with
    X a subset of `vertices`, 1 <= |X| <= r-1, and fewer than the threshold
    of `edges` containing X; None when every co-degree meets it."""
    for size in range(1, params.r):
        threshold = params.tau_for_size(size)
        for X in itertools.combinations(sorted(vertices), size):
            deg = sum(1 for e in edges if set(X) <= set(e))
            if deg < threshold:
                return X, deg, threshold
    return None


def validate_packing(packing: Packing, params: PackingParams) -> PackingReport:
    """Check the five packing properties plus pairwise edge-disjointness."""
    props: list[tuple[str, bool, str]] = []
    n, r, q = packing.n, packing.r, packing.q

    bad = next(
        (vs for vs in packing.vertex_sets if len(set(vs)) != q),
        None,
    )
    props.append(
        ("i_element_order", bad is None,
         "all elements have q vertices" if bad is None else f"element {bad} has {len(set(bad))} vertices")
    )

    violation = ""
    for ei, (vs, edges) in enumerate(zip(packing.vertex_sets, packing.edge_sets)):
        stray = next((e for e in edges if not set(e) <= set(vs)), None)
        if stray is not None:
            violation = f"element {ei} edge {stray} leaves its vertex set"
            break
        low = _low_codegree(vs, set(edges), params)
        if low is not None:
            X, deg, threshold = low
            violation = f"element {ei}: degree of X={X} is {deg} < {threshold:.4g}"
            break
    props.append(
        ("ii_min_degree", not violation, violation or "all co-degrees meet the threshold")
    )

    covered = packing.covered_edges()
    half = math.comb(n, r) / 2
    ok3 = len(covered) <= half
    props.append(
        ("iii_half_coverage", ok3,
         f"covered {len(covered)} of C(n,r) = {math.comb(n, r)} (half = {half:.1f})")
    )

    ok4 = packing.K >= params.floor_element_count() and packing.K % params.k == 0
    props.append(
        ("iv_element_count", ok4,
         f"K = {packing.K}, floor = {params.floor_element_count():.4g}, k = {params.k}")
    )

    sizes = {len(edges) for edges in packing.edge_sets}
    ok5 = sizes == {packing.z}
    props.append(
        ("v_uniform_edge_count", ok5,
         f"edge counts {sorted(sizes)} vs z = {packing.z}")
    )

    total = sum(len(edges) for edges in packing.edge_sets)
    ok_disjoint = total == len(covered)
    props.append(
        ("pairwise_edge_disjoint", ok_disjoint,
         f"{total} edge slots over {len(covered)} distinct edges")
    )

    return PackingReport(ok=all(p[1] for p in props), properties=tuple(props))


@dataclass(frozen=True)
class BuildStats:
    attempts: int
    failure_counts: dict


def build_random_packing(
    params: PackingParams, rng: Random, retries: int = 50
) -> tuple[Packing, BuildStats]:
    """Randomized packing construction with full-restart retries.

    Per attempt: sample K q-sets; each covered edge keeps at most one owner
    (dropped outright if covered more than M times or the uniform draw
    exceeds its multiplicity); color red/white; trim white edges to the
    minimum element size z (lexicographically smallest whites go first).

    Faithful mode gates each attempt on the three concentration claims in
    their stated forms: the red-degree floor (red edges survive trimming),
    the one-third per-element edge cap, and trim feasibility max red <= z.
    Direct mode exists precisely where those asymptotic thresholds cannot
    hold, so there the gates are trim feasibility plus the five-property
    validator on the trimmed elements (the claims' role, checked directly).
    Every successful attempt is validator-approved in both modes. When every
    attempt fails, RetryBudgetExhausted carries the smallest claim-3
    shortfall max(0, max red - z) over the attempts that reached the trim, or
    None when none did.
    """
    if retries < 1:
        raise InvalidParams(f"retries must be >= 1, got {retries}")
    n, r, q, K, M, k = params.n, params.r, params.q, params.K, params.M, params.k
    failures: dict[str, int] = {"claim1_red_degree": 0, "claim2_edge_cap": 0, "claim3_trim": 0}
    cap = math.comb(q, r) / 3
    shortfall = None

    for attempt in range(1, retries + 1):
        vertex_sets = [tuple(sorted(rng.sample(range(n), q))) for _ in range(K)]

        owners_of: dict[Edge, list[int]] = {}
        for i, vs in enumerate(vertex_sets):
            for e in itertools.combinations(vs, r):
                owners_of.setdefault(e, []).append(i)

        red: list[set[Edge]] = [set() for _ in range(K)]
        white: list[set[Edge]] = [set() for _ in range(K)]
        for e in sorted(owners_of):
            owners = owners_of[e]
            if len(owners) > M:
                continue
            j = rng.randint(1, M)
            if j > len(owners):
                continue
            i = owners[j - 1]
            if rng.random() < 0.5:
                red[i].add(e)
            else:
                white[i].add(e)

        # claim 1: red degrees meet the threshold (they survive trimming)
        if params.mode == "faithful" and any(
            _low_codegree(vs, red[i], params) is not None for i, vs in enumerate(vertex_sets)
        ):
            failures["claim1_red_degree"] += 1
            continue

        totals = [len(red[i]) + len(white[i]) for i in range(K)]
        if params.mode == "faithful" and max(totals) > cap:
            failures["claim2_edge_cap"] += 1
            continue

        z = min(totals)
        over = max(0, max(len(red[i]) for i in range(K)) - z)
        shortfall = over if shortfall is None else min(shortfall, over)
        if over:
            failures["claim3_trim"] += 1
            continue

        edge_sets = []
        for i in range(K):
            keep = sorted(white[i])[totals[i] - z :]
            edge_sets.append(tuple(sorted(red[i] | set(keep))))

        packing = Packing(
            n=n, r=r, q=q, k=k, z=z,
            vertex_sets=tuple(vertex_sets),
            edge_sets=tuple(edge_sets),
        )
        report = validate_packing(packing, params)
        if not report.ok:
            key = "validation:" + ",".join(report.failed())
            failures[key] = failures.get(key, 0) + 1
            continue
        return packing, BuildStats(attempts=attempt, failure_counts=dict(failures))

    closest = ("no attempt reached the claim-3 trim" if shortfall is None
               else f"smallest claim-3 shortfall max(red) - z = {shortfall}")
    raise RetryBudgetExhausted(
        f"no valid packing in {retries} attempts; {closest}; failures: {failures}",
        failure_counts=failures,
        shortfall=shortfall,
    )


def leftover_edges(packing: Packing) -> list[Edge]:
    """Edges of the complete r-graph not covered by any element, sorted."""
    n, r = packing.n, packing.r
    if too_many_r_sets(n, r):
        raise ScaleLimit(f"listing the leftover edges means enumerating C({n},{r}) r-sets, "
                         f"more than {MAX_R_SETS}")
    covered = packing.covered_edges()
    return [e for e in itertools.combinations(range(n), r) if e not in covered]


# ---------------------------------------------------------------------------
# disjoint-group partitioning
# ---------------------------------------------------------------------------

RESTARTS = 8  # shuffled passes after the degree-ordered one


def _first_fit(order: list[int], items: Sequence, vertex_key: Callable[..., Iterable[int]],
               k: int) -> tuple[list[list[int]], int]:
    """One pass: put each item of `order` in the first open group it fits.

    Groups fill in index order, so an item that fits no open non-empty group
    goes to the first empty one, `len(groups)`. Bit g - base of `open_` marks
    the open non-empty group g, and bit g - base of holds[v] an open group
    holding the vertex v, so an item fits the groups in
    `open_ & ~(OR of holds[v] over its vertices)`. Once every group below
    base + low is closed, where low is at least 64 and at least the number of
    held vertices, every bit shifts down by low: the ints stay about as wide
    as the span of open groups, and a shift costs no more than the groups it
    drops.

    Returns the groups and how many items were placed before the first one
    that fits nowhere; the pass succeeded when every item was.
    """
    n_groups = len(items) // k
    groups: list[list[int]] = []
    holds: dict = {}
    open_ = base = 0
    for placed, idx in enumerate(order):
        vertices = tuple(vertex_key(items[idx]))
        taken = 0
        for v in vertices:
            taken |= holds.get(v, 0)
        fits = open_ & ~taken
        if fits:
            bit = fits & -fits
            grp = groups[base + bit.bit_length() - 1]
        elif len(groups) < n_groups:
            bit = 1 << (len(groups) - base)
            open_ |= bit
            grp = []
            groups.append(grp)
        else:
            return groups, placed
        grp.append(idx)
        if len(grp) < k:
            for v in vertices:
                holds[v] = holds.get(v, 0) | bit
            continue
        # the group closes: clear its bit from the vertices its other members hold
        open_ ^= bit
        for i in grp[:-1]:
            for v in vertex_key(items[i]):
                if rest := holds.pop(v, 0) & ~bit:
                    holds[v] = rest
        low = (open_ & -open_).bit_length() - 1 if open_ else len(groups) - base
        if low >= 64 and low >= len(holds):
            open_ >>= low
            base += low
            holds = {v: h >> low for v, h in holds.items()}
    return groups, len(order)


def partition_into_disjoint_groups(
    items: Sequence,
    k: int,
    vertex_key: Callable[..., Iterable[int]],
    *,
    rng: Random | None = None,
) -> list[list]:
    """Partition items into |items|/k groups of k items with pairwise disjoint
    vertex sets, `vertex_key(item)` giving an item's vertex set.

    Plain first-fit passes: one ordered by vertex-sharing degree, then up to
    RESTARTS in shuffled orders drawn from `rng` (Random(0) when omitted). A
    pass finds the groups an item fits with a few int operations: each vertex
    keeps one bit per open group that holds it (see `_first_fit`). Each
    result of `vertex_key` is read once, so it may return an iterator.
    """
    items = list(items)
    if k < 1:
        raise InvalidParams("k must be >= 1")
    if len(items) % k:
        raise DivisibilityViolation(
            f"{len(items)} items cannot form groups of {k}", residue=len(items) % k
        )
    if k == 1:
        return [[it] for it in items]

    # vertex -> items holding it
    counts = Counter(itertools.chain.from_iterable(set(vertex_key(it)) for it in items))
    # vertex-sharing degree: the other items met at each vertex
    degree = []
    smallest = math.inf
    for it in items:
        vertices = set(vertex_key(it))
        smallest = min(smallest, len(vertices))
        degree.append(sum(map(counts.__getitem__, vertices)) - len(vertices))
    if items and k * smallest > len(counts):
        raise InvalidParams(
            f"{k} disjoint items of at least {smallest} vertices each "
            f"cannot fit in {len(counts)} vertices"
        )

    # sort keeps equal keys in index order, reversed or not: ties stay in index order
    order = sorted(range(len(items)), key=degree.__getitem__, reverse=True)
    del degree
    shuffler = rng or Random(0)
    best = 0
    for _ in range(RESTARTS + 1):
        groups, placed = _first_fit(order, items, vertex_key, k)
        if placed == len(items):
            for group in groups:
                group[:] = [items[i] for i in group]
            return groups
        best = max(best, placed)
        order = list(range(len(items)))
        shuffler.shuffle(order)
    raise PartitionFailed(
        f"no disjoint {k}-grouping of {len(items)} items: best pass placed "
        f"{best} of {len(items)} items ({RESTARTS} restarts)"
    )


# ---------------------------------------------------------------------------
# partitioned families
# ---------------------------------------------------------------------------

def _enter_block(block: list, owner: np.ndarray, n: int, r: int, k: int) -> None:
    """Check a block of whole groups, given as (group, member, vertices,
    edges) per member, and enter each edge's member id, group * k + member,
    in `owner` at its colex rank.

    The edges are checked in bulk and scanned one by one only to name a bad
    one: a Python test per edge would cost more than the member loop on an
    S(3,4,82) family. An edge lies inside its member when each of its keys
    member * n + vertex is among the member's own, and it is listed twice
    when its rank is owned already, by an earlier block or in this one.
    """
    bad = [x for _, _, vs, _ in block for x in vs if type(x) is not int or not 0 <= x < n]
    if bad:
        raise InvalidParams(f"a member has the vertex {bad[0]!r}, outside [0,{n})")
    listed = [e for *_, es in block for e in es]
    if not listed:
        return
    flat = np.array(list(itertools.chain.from_iterable(listed)))
    rows = flat.reshape(-1, r) if flat.dtype.kind == "i" and set(map(len, listed)) == {r} else None
    if (rows is None or rows[:, 0].min() < 0 or rows[:, -1].max() >= n
            or (rows[:, 1:] <= rows[:, :-1]).any()
            # numpy reads a bool as 0 or 1, so only an edge holding 0 or 1 can hide one
            or any(type(x) is bool for i in np.flatnonzero(rows[:, 0] <= 1).tolist()
                   for x in listed[i])):
        e = next(e for e in listed if not (len(e) == r and all(type(x) is int and 0 <= x < n for x in e)
                                           and all(map(operator.lt, e, e[1:]))))
        raise InvalidParams(f"edge {e} is not an increasing {r}-tuple of vertices in [0,{n})")
    at = np.repeat(np.arange(len(block)), [len(es) for *_, es in block])  # each edge's member
    own = np.repeat(np.arange(len(block)) * n, [len(vs) for _, _, vs, _ in block])
    own += np.fromiter(itertools.chain.from_iterable(vs for _, _, vs, _ in block),
                       dtype=np.intp, count=len(own))
    # sorted, with a last key above all others to keep each lookup in range
    own = np.sort(np.append(own, len(block) * n))
    inside = np.ones(len(listed), dtype=bool)
    for col in rows.T:
        keys = at * n + col
        inside &= own[np.searchsorted(own, keys)] == keys
    if not inside.all():
        i = int(np.argmin(inside))
        gi, a, _, _ = block[at[i]]
        raise InvalidParams(f"edge {listed[i]} of group {gi} member {a} leaves its vertices")
    ranks = colex_rank(rows.T, n)
    taken = owner[ranks] >= 0
    ordered = np.sort(ranks)
    if taken.any() or (ordered[1:] == ordered[:-1]).any():
        seen: set = set()
        e = next(e for e, t in zip(listed, taken.tolist()) if t or e in seen or seen.add(e))
        raise InvalidParams(f"edge {e} appears twice in the family")
    owner[ranks] = np.array([gi * k + a for gi, a, _, _ in block], dtype=np.int32)[at]


# whole groups are checked and entered in blocks of at least this many edges,
# so no temporary grows with the family
EDGE_BLOCK = 1 << 13


@dataclass(frozen=True, slots=True)
class FamilyElement:
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class PartitionedFamily:
    """Groups of k vertex-disjoint subgraphs plus groups of k disjoint
    leftover edges; the ownership structure behind the quasi-random builder
    and the permutation classifier.

    Readers walk both kinds through `groups()`, which yields every group as
    one tuple of (vertices, edges) members: the element groups first, then
    the leftover groups with each edge as a one-edge member.

    A family is checked when it is made, so every reader may rely on it: each
    group has k members with pairwise disjoint vertices in [0, n), and each
    edge is an increasing r-tuple inside its member, listed once in the family.
    The same pass fills `owner`, a read-only int32 array over the C(n, r)
    r-sets by colex rank: gi * k + a where member a of group gi holds the
    r-set, else -1. C(n, r) past MAX_R_SETS is a ScaleLimit.
    """

    n: int
    r: int
    k: int
    element_groups: tuple[tuple[FamilyElement, ...], ...]
    leftover_groups: tuple[tuple[Edge, ...], ...]
    steiner_q: int | None = None
    owner: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, r, k = self.n, self.r, self.k
        if n < 0 or r < 2 or k < 1:
            raise InvalidParams(f"need n >= 0, r >= 2 and k >= 1, got n={n}, r={r}, k={k}")
        if too_many_r_sets(n, r):
            raise ScaleLimit(f"owner table over C({n},{r}) r-sets exceeds {MAX_R_SETS}")
        owner = np.full(math.comb(n, r), -1, dtype=np.int32)
        block, size = [], 0
        for gi, grp in enumerate(self.groups()):
            if len(grp) != k:
                raise InvalidParams(f"group {gi} has {len(grp)} members, expected {k}")
            used: set[int] = set()
            listed = 0
            for a, (vertices, es) in enumerate(grp):
                if not used.isdisjoint(vertices):
                    raise InvalidParams(f"group {gi} member {a} shares a vertex with another member")
                used.update(vertices)
                # the members so far are disjoint, so only a repeat leaves used short
                listed += len(vertices)
                if len(used) < listed:
                    raise InvalidParams(f"group {gi} member {a} repeats a vertex")
                block.append((gi, a, vertices, es))
                size += len(es)
            if size >= EDGE_BLOCK:
                _enter_block(block, owner, n, r, k)
                block, size = [], 0
        _enter_block(block, owner, n, r, k)
        owner.setflags(write=False)
        object.__setattr__(self, "owner", owner)

    def __setstate__(self, state: dict) -> None:
        # an unpickled array is writeable again
        self.__dict__.update(state)
        self.owner.setflags(write=False)

    def groups(self) -> Iterator[tuple[tuple[tuple[int, ...], tuple[Edge, ...]], ...]]:
        for grp in self.element_groups:
            yield tuple((el.vertices, el.edges) for el in grp)
        for grp in self.leftover_groups:
            yield tuple((e, (e,)) for e in grp)

    def is_complete(self) -> bool:
        return bool((self.owner >= 0).all())

    def uniform_element_size(self) -> int | None:
        sizes = {len(el.edges) for grp in self.element_groups for el in grp}
        if len(sizes) == 1:
            return sizes.pop()
        return None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "k": self.k,
            "steiner_q": self.steiner_q,
            "element_groups": [
                [
                    {"vertices": list(el.vertices), "edges": [list(e) for e in el.edges]}
                    for el in grp
                ]
                for grp in self.element_groups
            ],
            "leftover_groups": [
                [list(e) for e in grp] for grp in self.leftover_groups
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PartitionedFamily":
        # construction checks the family; it hashes each vertex and edge, so a
        # nested list is a TypeError, and int() of an infinite float overflows
        try:
            return cls(
                n=_json_int(data, "n"),
                r=_json_int(data, "r"),
                k=_json_int(data, "k"),
                steiner_q=(None if data.get("steiner_q") is None else _json_int(data, "steiner_q")),
                element_groups=tuple(
                    tuple(
                        FamilyElement(
                            vertices=tuple(el["vertices"]),
                            edges=tuple(tuple(e) for e in el["edges"]),
                        )
                        for el in grp
                    )
                    for grp in data["element_groups"]
                ),
                leftover_groups=tuple(
                    tuple(tuple(e) for e in grp) for grp in data["leftover_groups"]
                ),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed family JSON: {exc}") from None


def _json_int(data: dict, key: str) -> int:
    """The JSON integer data[key]; a bool, a float or a string is refused,
    although int() would take it."""
    value = data[key]
    if type(value) is not int:
        int(value)  # infinity, NaN and text that is no number fail with int()'s message
        raise ParseError(f"malformed family JSON: {key} must be an integer, got {value!r}")
    return value


def family_from_design(system: SteinerSystem, k: int, *, rng: Random | None = None) -> PartitionedFamily:
    """Partition a Steiner system's blocks into vertex-disjoint k-groups.

    Each block becomes a complete 3-graph element; designs cover every
    triple, so there are no leftover edges.
    """
    groups = partition_into_disjoint_groups(system.blocks, k, lambda b: b, rng=rng)
    element_groups = tuple(
        tuple(
            FamilyElement(
                vertices=b, edges=tuple(itertools.combinations(b, 3))
            )
            for b in grp
        )
        for grp in groups
    )
    del groups  # the family is checked next; these lists would only add to its peak
    fam = PartitionedFamily(
        n=system.n, r=3, k=k,
        element_groups=element_groups,
        leftover_groups=(),
        steiner_q=system.q,
    )
    if not fam.is_complete():
        raise ConstructionBug("design-derived family does not cover all triples")
    return fam


def family_from_packing(packing: Packing, *, rng: Random | None = None) -> PartitionedFamily:
    """Group packing elements and leftover edges into vertex-disjoint k-sets."""
    k = packing.k
    elements = [
        FamilyElement(vertices=vs, edges=es)
        for vs, es in zip(packing.vertex_sets, packing.edge_sets)
    ]
    element_groups = partition_into_disjoint_groups(elements, k, lambda el: el.vertices, rng=rng)
    leftovers = leftover_edges(packing)
    leftover_groups = partition_into_disjoint_groups(leftovers, k, lambda e: e, rng=rng)
    fam = PartitionedFamily(
        n=packing.n, r=packing.r, k=k,
        element_groups=tuple(tuple(grp) for grp in element_groups),
        leftover_groups=tuple(tuple(grp) for grp in leftover_groups),
        steiner_q=None,
    )
    if not fam.is_complete():
        raise ConstructionBug("packing-derived family must cover all of K_n^r")
    return fam


# ---------------------------------------------------------------------------
# packing file format
# ---------------------------------------------------------------------------

def write_packing(packing: Packing, stream: TextIO) -> None:
    stream.write(
        f"{packing.n} {packing.r} {packing.q} {packing.K} {packing.k} {packing.z}\n"
    )
    for vs, edges in zip(packing.vertex_sets, packing.edge_sets):
        stream.write(" ".join(map(str, vs)) + "\n")
        for e in edges:
            stream.write(" ".join(map(str, e)) + "\n")
    leftovers = leftover_edges(packing)
    stream.write(f"W {len(leftovers)}\n")
    for e in leftovers:
        stream.write(" ".join(map(str, e)) + "\n")


def _read_vertices(stream: TextIO, lineno: int, n: int) -> tuple[int, ...]:
    try:
        vs = tuple(int(x) for x in stream.readline().split())
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer vertex") from None
    if any(v < 0 or v >= n for v in vs):
        raise ParseError(f"line {lineno}: vertex out of range [0,{n})")
    return vs


def read_packing(stream: TextIO) -> Packing:
    header = stream.readline().split()
    if len(header) != 6:
        raise ParseError("line 1: packing header must be 'n r q K k z'")
    try:
        n, r, q, K, k, z = (int(x) for x in header)
    except ValueError:
        raise ParseError("line 1: non-integer packing header") from None
    if not (2 <= r <= q <= n and K >= 0 and k >= 1 and z >= 0):
        raise ParseError(f"line 1: no packing has the header '{' '.join(header)}'; "
                         "need 2 <= r <= q <= n, K >= 0, k >= 1 and z >= 0")
    lineno = 1
    vertex_sets = []
    edge_sets = []
    for _ in range(K):
        lineno += 1
        vs = _read_vertices(stream, lineno, n)
        if len(vs) != q:
            raise ParseError(f"line {lineno}: element must list q = {q} vertices")
        edges = []
        for _ in range(z):
            lineno += 1
            e = _read_vertices(stream, lineno, n)
            if len(e) != r:
                raise ParseError(f"line {lineno}: edge must have r = {r} vertices")
            edges.append(e)
        vertex_sets.append(vs)
        edge_sets.append(tuple(edges))
    lineno += 1
    w_header = stream.readline().split()
    if len(w_header) != 2 or w_header[0] != "W" or not w_header[1].isdecimal():
        raise ParseError(f"line {lineno}: expected leftover header 'W m'")
    packing = Packing(
        n=n, r=r, q=q, k=k, z=z,
        vertex_sets=tuple(vertex_sets),
        edge_sets=tuple(edge_sets),
    )
    leftovers = leftover_edges(packing)
    if int(w_header[1]) != len(leftovers):
        raise ParseError(
            f"line {lineno}: W block lists {int(w_header[1])} edges, "
            f"the packing leaves {len(leftovers)}"
        )
    for want in leftovers:
        lineno += 1
        e = _read_vertices(stream, lineno, n)
        if e != want:
            raise ParseError(f"line {lineno}: expected leftover edge {' '.join(map(str, want))}")
    return packing
