"""Canonical hypergraph and permutation types.

Vertices are dense 0-based integers. Edges are strictly increasing r-tuples,
which gives every edge set a total order and makes iteration deterministic.
All types are immutable after construction; every operation here is pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import DegenerateCycle, InvalidParams, ParseError, ScaleLimit

Edge = tuple[int, ...]

# r-sets of [0, n) past which nothing lists or tables all of them: the
# complete r-graph, the samplers' universe, a family's owner table (one int32
# entry per r-set), a packing's leftover list and the Steiner validator
MAX_R_SETS = 20_000_000


def capped_comb(n: int, r: int, cap: int) -> int:
    """C(n, r) when it is at most cap, else a number above cap.

    The running binomial C(n, i) grows with i up to min(r, n-r), so it
    stops as soon as it passes cap, within a few dozen steps for a cap that
    fits in memory, whatever n and r are.
    """
    if not 0 <= r <= n:
        return 0
    count = 1
    for i in range(min(r, n - r)):
        count = count * (n - i) // (i + 1)
        if count > cap:
            break
    return count


def too_many_r_sets(n: int, r: int) -> bool:
    """Whether C(n, r) exceeds MAX_R_SETS."""
    return capped_comb(n, r, MAX_R_SETS) > MAX_R_SETS


def _normalize_edge(edge: Iterable[int], n: int, r: int) -> Edge:
    e = tuple(sorted(edge))
    if len(e) != r or len(set(e)) != r:
        raise InvalidParams(f"edge {tuple(edge)!r} does not have {r} distinct vertices")
    if e[0] < 0 or e[-1] >= n:
        raise InvalidParams(f"edge {e!r} has a vertex outside [0,{n})")
    return e


@dataclass(frozen=True)
class Hypergraph:
    """An n-vertex r-uniform hypergraph with a sorted, duplicate-free edge set."""

    n: int
    r: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.r < 2:
            raise InvalidParams(f"uniformity r must be >= 2, got {self.r}")
        if self.n < 0:
            raise InvalidParams(f"vertex count n must be >= 0, got {self.n}")

    @classmethod
    def from_edges(cls, n: int, r: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        normalized = set()
        for edge in edges:
            normalized.add(_normalize_edge(edge, n, r))
        return cls(n=n, r=r, edges=frozenset(normalized))

    @classmethod
    def complete(cls, n: int, r: int) -> "Hypergraph":
        if too_many_r_sets(n, r):
            raise ScaleLimit(f"K_{n}^{r} has C({n},{r}) edges, more than {MAX_R_SETS}")
        return cls(n=n, r=r, edges=frozenset(itertools.combinations(range(n), r)))

    @classmethod
    def empty(cls, n: int, r: int) -> "Hypergraph":
        return cls(n=n, r=r, edges=frozenset())

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def density(self) -> float:
        total = math.comb(self.n, self.r)
        if total == 0:
            return 0.0
        return len(self.edges) / total


@lru_cache(maxsize=None)
def _colex_binomials(n: int, r: int) -> tuple[np.ndarray, ...]:
    """Row i maps v to C(v, i+1) for each v that column i of a sorted r-set
    over [0, n) holds, i <= v <= n-r+i. The rows are views, row i from entry
    i(n-r) on, into one flat (r, n-r+1) table of C(i+j, i+1), each row the
    running sum of the one before, so every entry is below C(n, r)."""
    width = max(n - r + 1, 0)
    table = np.empty((r, width), dtype=np.int64)
    table[0] = np.arange(width)
    for i in range(1, r):
        np.cumsum(table[i - 1], out=table[i])
    flat = table.ravel()
    flat.setflags(write=False)
    return tuple(flat[i * (n - r) : i * (n - r) + width + i] for i in range(r))


def colex_rank(columns, n: int) -> np.ndarray:
    """Colex ranks of r-sets over [0, n) given as r columns of one shape.

    Column i holds the i-th smallest vertex of every set, c_0 < ... < c_{r-1}
    elementwise; an (m, r) array of increasing tuples passes as its transpose.
    A set ranks as sum C(c_i, i+1), a bijection from the r-sets of [0, n) onto
    [0, C(n, r)). The sum adds one 1-D gather per column in place.
    """
    columns = [np.asarray(c, dtype=np.intp) for c in columns]
    rows = _colex_binomials(n, len(columns))
    ranks = rows[0][columns[0]]
    for row, col in zip(rows[1:], columns[1:]):
        ranks += row[col]
    return ranks


@dataclass(frozen=True)
class CyclicWindowSet:
    """The n cyclic length-r windows of a permutation, each stored sorted.

    windows[i] is the sorted window starting at position i of the source.
    """

    windows: tuple[Edge, ...]
    source: tuple[int, ...]


@dataclass(frozen=True)
class CanonicalCycle:
    """Lexicographically least permutation among the 2n rotations/reversals."""

    representative: tuple[int, ...]


def _as_order(pi) -> tuple[int, ...]:
    order = tuple(pi)
    n = len(order)
    if sorted(order) != list(range(n)):
        raise ValueError("sequence is not a permutation of 0..n-1")
    return order


def window_set(pi, r: int) -> CyclicWindowSet:
    """Extract the n cyclic r-windows of a permutation.

    Requires n >= r+2; below that the cycle/permutation association the
    counting operations rely on degenerates.
    """
    order = _as_order(pi)
    n = len(order)
    if n < r + 2:
        raise DegenerateCycle(f"need n >= r+2 (got n={n}, r={r})")
    doubled = order + order[: r - 1]
    windows = tuple(tuple(sorted(doubled[i : i + r])) for i in range(n))
    return CyclicWindowSet(windows=windows, source=order)


def symmetry_images(order: Sequence[int]) -> list[tuple[int, ...]]:
    """All 2n rotations and reversed rotations of a permutation."""
    order = tuple(order)
    n = len(order)
    images = []
    for seq in (order, order[::-1]):
        for s in range(n):
            images.append(seq[s:] + seq[:s])
    return images


def canonicalize(pi) -> CanonicalCycle:
    """Stable representative of the 2n-element symmetry class of pi."""
    order = _as_order(pi)
    if len(order) < 3:
        raise DegenerateCycle("canonical cycle needs at least 3 vertices")
    return CanonicalCycle(representative=min(symmetry_images(order)))


def write_hypergraph(graph: Hypergraph, stream: TextIO) -> None:
    """Write the bit-exact text format: 'n r m' then m sorted edge lines."""
    edges = graph.sorted_edges()
    stream.write(f"{graph.n} {graph.r} {len(edges)}\n")
    for e in edges:
        stream.write(" ".join(map(str, e)) + "\n")


def read_hypergraph(stream: TextIO) -> Hypergraph:
    """Parse the text format, validating every line; errors name the line."""
    header = stream.readline()
    if not header:
        raise ParseError("line 1: empty input, expected header 'n r m'")
    parts = header.split()
    if len(parts) != 3:
        raise ParseError("line 1: header must be three integers 'n r m'")
    try:
        n, r, m = (int(p) for p in parts)
    except ValueError:
        raise ParseError("line 1: header fields are not integers") from None
    if r < 2 or n < 0 or m < 0:
        raise ParseError("line 1: header out of range (need n >= 0, r >= 2, m >= 0)")
    edges = set()
    for idx in range(m):
        lineno = idx + 2
        line = stream.readline()
        if not line:
            raise ParseError(f"line {lineno}: expected {m} edges, file ended early")
        fields = line.split()
        if len(fields) != r:
            raise ParseError(f"line {lineno}: expected {r} vertices, got {len(fields)}")
        try:
            verts = tuple(int(f) for f in fields)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex") from None
        if any(v < 0 or v >= n for v in verts):
            raise ParseError(f"line {lineno}: vertex out of range [0,{n})")
        if any(verts[i] >= verts[i + 1] for i in range(r - 1)):
            raise ParseError(f"line {lineno}: vertices must be strictly increasing")
        if verts in edges:
            raise ParseError(f"line {lineno}: duplicate edge {verts}")
        edges.add(verts)
    return Hypergraph(n=n, r=r, edges=frozenset(edges))
