"""Random r-graph samplers, the group-choice quasi-random builder, and the
sampled quasi-randomness audit.

Samplers take an explicit Random handle and draw in a fixed edge order, so a
seed fully determines the output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterable, Sequence

import numpy as np

from .errors import ConstructionBug, InvalidParams, ScaleLimit
from .hypercore import MAX_R_SETS, Hypergraph, too_many_r_sets
from .packing import PartitionedFamily


@dataclass(frozen=True)
class DensitySpec:
    """Exact rational density p = num/den in lowest terms, 0 < p < 1."""

    num: int
    den: int

    def __post_init__(self):
        if not 0 < self.num < self.den:
            raise InvalidParams(f"need 0 < num < den, got {self.num}/{self.den}")
        if math.gcd(self.num, self.den) != 1:
            raise InvalidParams(f"{self.num}/{self.den} is not in lowest terms")

    @classmethod
    def parse(cls, text: str) -> "DensitySpec":
        try:
            num, den = (int(x) for x in text.split("/"))
        except ValueError:
            raise InvalidParams(f"density must look like 'NUM/DEN', got {text!r}") from None
        g = math.gcd(num, den) or 1  # 0/0: let __post_init__ reject it
        return cls(num // g, den // g)

    def check_family_k(self, k: int) -> None:
        """Raise InvalidParams unless den is k: a build picks num of each group's k members."""
        if self.den != k:
            raise InvalidParams(f"density denominator {self.den} must equal the family's k = {k}")

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def as_float(self) -> float:
        return self.num / self.den

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def sample_gnp(n: int, r: int, p: float, rng: Random) -> Hypergraph:
    """Each r-set included independently with probability p."""
    if not 0 <= p <= 1:
        raise InvalidParams(f"p must be in [0,1], got {p}")
    if too_many_r_sets(n, r):
        raise ScaleLimit(f"sampling lists all C({n},{r}) r-sets, more than {MAX_R_SETS}")
    edges = [e for e in itertools.combinations(range(n), r) if rng.random() < p]
    return Hypergraph.from_edges(n, r, edges)


def sample_gnm(n: int, r: int, m: int, rng: Random) -> Hypergraph:
    """Uniform r-graph with exactly m edges."""
    if too_many_r_sets(n, r):
        raise ScaleLimit(f"sampling lists all C({n},{r}) r-sets, more than {MAX_R_SETS}")
    universe = list(itertools.combinations(range(n), r))
    if not 0 <= m <= len(universe):
        raise InvalidParams(f"m must be in [0, C(n,r)] = [0, {len(universe)}], got {m}")
    return Hypergraph.from_edges(n, r, rng.sample(universe, m))


def _edge_target(n: int, r: int, p) -> int:
    total = math.comb(n, r)
    if isinstance(p, DensitySpec):
        p = p.as_fraction()
    if isinstance(p, Fraction):
        m = p * total
        if m.denominator != 1:
            raise InvalidParams(f"p*C(n,r) = {m} is not an integer")
        return int(m)
    m = p * total
    if abs(m - round(m)) > 1e-9:
        raise InvalidParams(f"p*C(n,r) = {m} is not an integer")
    return int(round(m))


def sample_exact_density_subgraph(graph: Hypergraph, p, rng: Random) -> Hypergraph:
    """Uniform spanning subgraph with exactly p*C(n,r) edges of `graph`."""
    m = _edge_target(graph.n, graph.r, p)
    if graph.edge_count < m:
        raise InvalidParams(
            f"graph has {graph.edge_count} edges, fewer than p*C(n,r) = {m}"
        )
    chosen = rng.sample(graph.sorted_edges(), m)
    return Hypergraph.from_edges(graph.n, graph.r, chosen)


def build_quasirandom_from_partition(
    family: PartitionedFamily, spec: DensitySpec, rng: Random
) -> Hypergraph:
    """Choose exactly `num` of the k members of every group and take their edges.

    On a family that partitions all of K_n^r into equal-size elements plus
    single leftover edges, the output density is exactly num/den.
    """
    spec.check_family_k(family.k)
    chosen = itertools.chain.from_iterable(
        grp[idx][1] for grp in family.groups() for idx in rng.sample(range(family.k), spec.num))
    # a family's edges were checked as increasing r-tuples in [0, n) when it was made
    graph = Hypergraph(family.n, family.r, frozenset(chosen))
    if family.is_complete() and family.uniform_element_size() is not None:
        want = _edge_target(family.n, family.r, spec.as_fraction())
        if graph.edge_count != want:
            raise ConstructionBug(
                f"complete family build has {graph.edge_count} edges, expected {want}"
            )
    return graph


# bytes of temporaries one block of audited edges may hold
AUDIT_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class AuditReport:
    """Sampled relaxation of the half-set density definition.

    `passed` means no sampled violation; it never claims exhaustive
    verification over all floor(n/2)-subsets.
    """

    p: float
    epsilon: float
    samples: int
    max_abs_deviation: float
    violations: int
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "epsilon": self.epsilon,
            "samples": self.samples,
            "max_abs_deviation": self.max_abs_deviation,
            "violations": self.violations,
            "seed": self.seed,
        }


def audit_quasirandomness(
    graph: Hypergraph,
    epsilon: float,
    samples: int,
    rng: Random,
    p: float | None = None,
    extra_subsets: Sequence[Iterable[int]] = (),
    seed: int | None = None,
) -> AuditReport:
    """Sample floor(n/2)-subsets and report the worst induced-density deviation.

    `extra_subsets` lets callers plant adversarial half-sets alongside the
    uniform samples.
    """
    if graph.n < 4:
        raise InvalidParams("audit needs n >= 4")
    if not 0 < epsilon < math.inf:
        raise InvalidParams(f"epsilon must be positive and finite, got {epsilon}")
    if samples < 0:
        raise InvalidParams(f"samples must be >= 0, got {samples}")
    if p is None:
        p = graph.density()
    half = graph.n // 2
    denom = math.comb(half, graph.r)
    subsets = [tuple(sorted(rng.sample(range(graph.n), half))) for _ in range(samples)]
    for extra in extra_subsets:
        sub = tuple(sorted(extra))
        if len(sub) != half or len(set(sub)) != half:
            raise InvalidParams(f"extra subset must have floor(n/2) = {half} distinct vertices")
        if sub[0] < 0 or sub[-1] >= graph.n:
            raise InvalidParams(f"extra subset {sub} has a vertex outside [0,{graph.n})")
        subsets.append(sub)

    max_dev = 0.0
    violations = 0
    for count in _inside_counts(graph, subsets):
        dev = abs(count / denom - p)
        if dev > max_dev:
            max_dev = dev
        if dev >= epsilon:
            violations += 1
    return AuditReport(
        p=p,
        epsilon=epsilon,
        samples=len(subsets),
        max_abs_deviation=max_dev,
        violations=violations,
        seed=seed,
    )


def _inside_counts(graph: Hypergraph, subsets: Sequence[Sequence[int]]) -> list[int]:
    """Edges of `graph` inside each vertex subset, 64 subsets to a word.

    Subset i is bit i % 64 of word i // 64 in the rows of its vertices, so
    the AND of an edge's r rows holds the subsets the edge lies inside. Read
    as little-endian bytes and unpacked, bit b of byte j of word w is subset
    64w + 8j + b, so a column sum over the edges counts each subset. Edges go
    in blocks whose temporaries, 80 bytes per edge and word, fit
    AUDIT_BLOCK_BYTES.
    """
    if not subsets:
        return []
    edges = np.fromiter(itertools.chain.from_iterable(graph.edges), dtype=np.intp,
                        count=graph.r * graph.edge_count).reshape(-1, graph.r)
    words = -(-len(subsets) // 64)
    rows = np.zeros((graph.n, words), dtype=np.uint64)
    for i, sub in enumerate(subsets):
        rows[list(sub), i >> 6] |= np.uint64(1 << (i & 63))
    counts = np.zeros(64 * words, dtype=np.int64)
    step = max(1, AUDIT_BLOCK_BYTES // (80 * words))
    for start in range(0, len(edges), step):
        block = edges[start : start + step]
        hit = rows[block[:, 0]]
        for j in range(1, graph.r):
            hit &= rows[block[:, j]]
        bits = np.unpackbits(hit.astype("<u8", copy=False).view(np.uint8), axis=1, bitorder="little")
        # a block holds fewer than 2**31 edges; bits goes before the next block's
        counts += np.add.reduce(bits, axis=0, dtype=np.int32)
        del bits
    return counts[: len(subsets)].tolist()
