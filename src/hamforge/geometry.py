"""Finite-field arithmetic and the spherical Steiner systems S(3, q+1, q^s+1).

The system on the projective line over GF(q^s) is the orbit of the subfield
line GF(q) + {infinity} under fractional-linear maps. The group's generators
z+1, gz and 1/z are computed once as permutations of the point indices, and
the orbit is walked on sorted index tuples; the exhaustive validator is the
ground truth for every constructed design. The shared cap on r-sets,
hypercore.MAX_R_SETS, bounds C(n,3) for both the build (checked before the
orbit) and the validator.

Point indexing: infinity is index 0; field elements (encoded as integers in
base p from their coefficient vectors) take indices 1..q^s in encoding order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .errors import (
    ConstructionBug,
    FieldDivisionError,
    InvalidParams,
    ParseError,
    ScaleLimit,
)
from .hypercore import MAX_R_SETS, colex_rank, too_many_r_sets

# triples the validator ranks per numpy block
TRIPLE_BLOCK = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, a) with q = p^a for prime p, or None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            break
        if q % p == 0:
            a = 0
            x = q
            while x % p == 0:
                x //= p
                a += 1
            return (p, a) if x == 1 else None
    return (q, 1)


class FieldCtx:
    """GF(p^m) with the encoding-least monic irreducible modulus.

    Elements are integers in [0, p^m): the base-p digits of an element are
    its coefficient vector (constant term = least significant digit).
    Multiplication and inversion run on discrete-log tables.
    """

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise InvalidParams(f"characteristic {p} is not prime")
        if m < 1:
            raise InvalidParams("extension degree must be >= 1")
        self.p = p
        self.m = m
        self.order = p**m
        if self.order > 200_000:
            raise ScaleLimit(f"field order {self.order} beyond desk scale")
        self.modulus = self._find_irreducible()
        self._build_tables()

    # -- construction ------------------------------------------------------
    def _decode(self, x: int, d: int | None = None) -> list[int]:
        """The first d (default m) base-p digits of x, least significant first."""
        coeffs = []
        for _ in range(self.m if d is None else d):
            coeffs.append(x % self.p)
            x //= self.p
        return coeffs

    def _encode(self, coeffs: Iterable[int]) -> int:
        x = 0
        for c in reversed(list(coeffs)):
            x = x * self.p + (c % self.p)
        return x

    def _find_irreducible(self) -> list[int]:
        # monic degree-m candidates in increasing encoding of the low part
        for low in range(self.p**self.m):
            cand = self._decode(low) + [1]
            if self._is_irreducible(cand):
                return cand
        raise ConstructionBug("no irreducible polynomial found")

    def _is_irreducible(self, poly: list[int]) -> bool:
        # trial division by all monic polynomials of degree 1..deg//2
        for d in range(1, (len(poly) - 1) // 2 + 1):
            for low in range(self.p**d):
                if not any(self._rem(poly, self._decode(low, d) + [1])):
                    return False
        return True

    def _rem(self, poly: list[int], monic: list[int]) -> list[int]:
        """poly modulo a monic polynomial; coefficients little-endian."""
        p, d = self.p, len(monic) - 1
        rem = list(poly)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c:
                for j in range(d):
                    rem[i - d + j] = (rem[i - d + j] - c * monic[j]) % p
        return rem[:d]

    def _raw_mul(self, a: int, b: int) -> int:
        # dense schoolbook multiply, then reduce by the modulus
        p, bs = self.p, self._decode(b)
        out = [0] * (2 * self.m - 1)
        for i, ai in enumerate(self._decode(a)):
            if ai:
                for j, bj in enumerate(bs):
                    out[i + j] = (out[i + j] + ai * bj) % p
        return self._encode(self._rem(out, self.modulus))

    def _build_tables(self):
        # find a multiplicative generator, then log/exp tables
        n = self.order - 1
        factors = set()
        x = n
        f = 2
        while f * f <= x:
            while x % f == 0:
                factors.add(f)
                x //= f
            f += 1
        if x > 1:
            factors.add(x)

        def raw_pow(base: int, e: int) -> int:
            acc = 1
            cur = base
            while e:
                if e & 1:
                    acc = self._raw_mul(acc, cur)
                cur = self._raw_mul(cur, cur)
                e >>= 1
            return acc

        # 1 passes only in GF(2), where n = 1 has no prime factors
        for gen in range(1, self.order):
            if all(raw_pow(gen, n // f) != 1 for f in factors):
                break
        else:
            raise ConstructionBug("no multiplicative generator found")
        self.generator = gen
        self._exp = [1] * n
        self._log = [0] * self.order
        cur = 1
        for i in range(n):
            self._exp[i] = cur
            self._log[cur] = i
            cur = self._raw_mul(cur, gen)

    # -- field operations ----------------------------------------------------
    def elements(self) -> range:
        return range(self.order)

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self._encode(
            (x + y) % self.p for x, y in zip(self._decode(a), self._decode(b))
        )

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        n = self.order - 1
        return self._exp[(self._log[a] + self._log[b]) % n]

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldDivisionError("inverse of zero")
        n = self.order - 1
        return self._exp[(-self._log[a]) % n]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise FieldDivisionError("negative power of zero")
            return 0
        n = self.order - 1
        return self._exp[(self._log[a] * e) % n]

    def subfield(self, q: int) -> list[int]:
        """Elements of the order-q subfield: fixed points of x -> x^q."""
        sub = [x for x in self.elements() if self.pow(x, q) == x]
        if len(sub) != q:
            raise InvalidParams(f"GF({self.order}) has no subfield of order {q}")
        return sub


# ---------------------------------------------------------------------------
# the projective line and the spherical design
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteinerSystem:
    """S(3, q+1, n) with n = q^s + 1; blocks are sorted point-index tuples."""

    n: int
    q: int
    s: int
    blocks: tuple[tuple[int, ...], ...]

    def expected_block_count(self) -> int:
        return math.comb(self.n, 3) // math.comb(self.q + 1, 3)

    def expected_point_count(self) -> int:
        return math.comb(self.n - 1, 2) // math.comb(self.q, 2)


@dataclass(frozen=True)
class SteinerReport:
    ok: bool
    problems: tuple[str, ...]

    def first_problem(self) -> str | None:
        return self.problems[0] if self.problems else None


def build_spherical_steiner(q: int, s: int) -> SteinerSystem:
    """Orbit of the subfield line under fractional-linear maps over GF(q^s).

    The result is validated exhaustively; a validation failure is a
    construction bug, not a tolerated outcome.
    """
    pp = prime_power(q)
    if pp is None:
        raise InvalidParams(f"q={q} is not a prime power")
    if s < 2:
        raise InvalidParams("need s >= 2 (s=1 gives the single-block design)")
    n = q**s + 1
    if too_many_r_sets(n, 3):
        raise ScaleLimit(f"C({n},3) triples exceed {MAX_R_SETS}")
    p, a = pp
    ctx = FieldCtx(p, a * s)

    # generators of the fractional-linear group as permutations of the point
    # indices: z+1, gz, and 1/z (which swaps 0 and infinity)
    shift = [0] + [1 + ctx.add(z, 1) for z in ctx.elements()]
    scale = [0] + [1 + ctx.mul(ctx.generator, z) for z in ctx.elements()]
    invert = [1, 0] + [1 + ctx.inv(z) for z in range(1, ctx.order)]

    base = tuple(sorted([0] + [1 + z for z in ctx.subfield(q)]))
    seen = {base}
    stack = [base]
    while stack:
        block = stack.pop()
        for perm in (shift, scale, invert):
            img = tuple(sorted([perm[v] for v in block]))
            if img not in seen:
                seen.add(img)
                stack.append(img)

    system = SteinerSystem(n=n, q=q, s=s, blocks=tuple(sorted(seen)))
    report = verify_steiner(system)
    if not report.ok:
        raise ConstructionBug(f"spherical design failed validation: {report.first_problem()}")
    return system


def verify_steiner(system: SteinerSystem) -> SteinerReport:
    """Exhaustively check block shape, counts, and exact triple coverage."""
    n, q = system.n, system.q
    problems: list[str] = []
    if too_many_r_sets(n, 3):
        raise ScaleLimit(f"exhaustive triple check over C({n},3) triples exceeds {MAX_R_SETS}")

    size = q + 1
    malformed = False
    for b in system.blocks:
        if len(b) != size or len(set(b)) != size:
            problems.append(f"block {b} does not have {size} distinct points")
            malformed = True
            break
        if b[0] < 0 or b[-1] >= n:
            problems.append(f"block {b} has out-of-range points")
            malformed = True
            break
    if len(set(system.blocks)) != len(system.blocks):
        problems.append("duplicate blocks present")

    expected_blocks = system.expected_block_count()
    if len(system.blocks) != expected_blocks:
        problems.append(
            f"block count {len(system.blocks)} != C(n,3)/C(q+1,3) = {expected_blocks}"
        )

    if not malformed:
        blocks = np.sort(np.array(system.blocks, dtype=np.intp).reshape(-1, size), axis=1)
        # the triples of every block in block order, as colex ranks, a
        # bounded number of blocks at a time
        positions = np.array(list(itertools.combinations(range(size), 3)), dtype=np.intp)
        step = max(1, TRIPLE_BLOCK // max(1, len(positions)))

        def triple_ranks():
            for start in range(0, len(blocks), step):
                chunk = blocks[start : start + step]
                yield colex_rank([chunk[:, col] for col in positions.T], n).ravel()

        coverage = bytearray(math.comb(n, 3))
        marks = np.frombuffer(coverage, dtype=np.uint8)
        streamed = 0
        for ranks in triple_ranks():
            marks[ranks] = 1
            streamed += len(ranks)
        covered = int(np.count_nonzero(marks))
        if covered < streamed:
            # some triple came twice: report the one first seen earliest
            stream = np.concatenate(list(triple_ranks()))
            _, first, counts = np.unique(stream, return_index=True, return_counts=True)
            at = first[counts > 1].min()
            block, pos = divmod(int(at), len(positions))
            over = tuple(blocks[block, positions[pos]].tolist())
            problems.append(f"triple {over} covered {int(counts[first == at][0])} times")
        if covered != math.comb(n, 3):
            missing = _colex_unrank3(np.flatnonzero(marks == 0), n)
            first_missing = missing[np.lexsort(missing.T[::-1])[0]]
            problems.append(f"triple {tuple(first_missing.tolist())} covered 0 times")

        per_point = np.bincount(blocks.ravel(), minlength=n)
        want = system.expected_point_count()
        off = np.flatnonzero(per_point != want)
        if off.size:
            v = int(off[0])
            problems.append(f"point {v} lies in {per_point[v]} blocks, expected {want}")

    return SteinerReport(ok=not problems, problems=tuple(problems))


def _colex_unrank3(ranks: np.ndarray, n: int) -> np.ndarray:
    """(len(ranks), 3) sorted triples over [0, n) with the given colex ranks."""
    out = np.empty((len(ranks), 3), dtype=np.intp)
    rest = ranks.astype(np.int64)
    for i in (2, 1, 0):
        # the largest c with C(c, i+1) <= rest
        column = np.array([math.comb(c, i + 1) for c in range(n)], dtype=np.int64)
        out[:, i] = np.searchsorted(column, rest, side="right") - 1
        rest = rest - column[out[:, i]]
    return out


def write_design(system: SteinerSystem, stream: TextIO) -> None:
    stream.write(f"{system.n} {system.q} {system.s} {len(system.blocks)}\n")
    for b in system.blocks:
        stream.write(" ".join(map(str, b)) + "\n")


def read_design(stream: TextIO) -> SteinerSystem:
    """Parse a design file and check that it is a Steiner system (verify_steiner)."""
    header = stream.readline()
    parts = header.split()
    if len(parts) != 4:
        raise ParseError("line 1: design header must be 'n q s b'")
    try:
        n, q, s, b = (int(x) for x in parts)
    except ValueError:
        raise ParseError("line 1: non-integer design header") from None
    if not 2 <= q < n:
        raise ParseError("line 1: design header out of range (need 2 <= q < n)")
    blocks = []
    for i in range(b):
        line = stream.readline()
        if not line:
            raise ParseError(f"line {i + 2}: expected {b} blocks, file ended early")
        try:
            block = tuple(int(x) for x in line.split())
        except ValueError:
            raise ParseError(f"line {i + 2}: non-integer point") from None
        if len(block) != q + 1:
            raise ParseError(f"line {i + 2}: block must have q+1 = {q + 1} points")
        if any(v < 0 or v >= n for v in block):
            raise ParseError(f"line {i + 2}: point out of range [0,{n})")
        if tuple(sorted(block)) != block:
            raise ParseError(f"line {i + 2}: points must be sorted ascending")
        blocks.append(block)
    system = SteinerSystem(n=n, q=q, s=s, blocks=tuple(sorted(blocks)))
    report = verify_steiner(system)
    if not report.ok:
        raise ParseError(f"not a Steiner system S(3,{q + 1},{n}): {report.first_problem()}")
    return system
