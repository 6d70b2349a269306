"""Good/bad permutation classification, the one Monte Carlo pass that reads
the bad fraction, f-bar, g-bar and g-bar-star off uniform permutations, and
the arithmetic-geometric-mean lower bound on the expected Hamiltonian count
of group-choice builds.

A permutation is good when no group of the family holds two of its windows
in distinct members; f counts the groups its windows touch, g counts cyclic
consecutive window pairs landing inside one family element. Each window is
located by one gather from the family's owner table, which gives its member
id; the group is that id divided by k. All probability products are carried
in log2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

import numpy as np

from .counting import exact_ham_count, log2_expectation_value
from .errors import (
    DegenerateCycle,
    FamilyIncomplete,
    FamilyKindMismatch,
    InsufficientGoodSamples,
    InvalidParams,
)
from .hypercore import colex_rank, window_set
from .packing import PartitionedFamily
from .randmodels import DensitySpec, build_quasirandom_from_partition

# permutations the Monte Carlo pass classifies per numpy block
MC_BLOCK = 256


@dataclass(frozen=True)
class Classification:
    verdict: str  # "good" | "bad"
    f_value: int | None  # groups touched; only for good permutations
    g_value: int  # consecutive window pairs inside one element
    witness: tuple | None = None  # (group_kind, group_index, window_a, window_b)

    @property
    def is_good(self) -> bool:
        return self.verdict == "good"


def _window_owners(perms: np.ndarray, family: PartitionedFamily) -> np.ndarray:
    """Owner member id, group * k + member, of every window of each row of a
    (b, n) array of permutations; FamilyIncomplete names the first
    unlocatable window in row order."""
    n, r = family.n, family.r
    doubled = np.concatenate([perms, perms[:, : r - 1]], axis=1)
    # column i holds entry i of every window; r rounds of an odd-even
    # transposition network sort each window across the columns
    cols = [doubled[:, i : i + n] for i in range(r)]
    for rnd in range(r):
        for i in range(rnd % 2, r - 1, 2):
            lo, hi = cols[i], cols[i + 1]
            cols[i], cols[i + 1] = np.minimum(lo, hi), np.maximum(lo, hi)
    ids = family.owner[colex_rank(cols, n)]
    missing = np.flatnonzero(ids < 0)
    if missing.size:
        row, pos = divmod(int(missing[0]), n)
        w = tuple(int(c[row, pos]) for c in cols)
        raise FamilyIncomplete(f"window {w} is not locatable in the family")
    return ids


def classify(pi, family: PartitionedFamily) -> Classification:
    """Classify a permutation of the family's n vertices against a family
    that locates every window."""
    order = tuple(pi)
    if len(order) != family.n:
        raise InvalidParams(f"permutation has {len(order)} entries, the family has n = {family.n}")
    windows = window_set(order, family.r).windows
    ids = _window_owners(np.array([order], dtype=np.intp), family)
    owners = [divmod(i, family.k) for i in ids[0].tolist()]

    witness = None
    first: dict[int, tuple[int, tuple]] = {}  # group -> (member, first window)
    for w, (gi, member) in zip(windows, owners):
        if gi not in first:
            first[gi] = (member, w)
        elif witness is None and first[gi][0] != member:
            witness = (gi, first[gi][1], w)

    # windows are distinct and a leftover member holds one edge, so two
    # consecutive windows share a member only inside an element
    g_value = sum(1 for a, b in zip(owners, owners[1:] + owners[:1]) if a == b)

    if witness is not None:
        gi, a, b = witness
        n_elem = len(family.element_groups)
        kind = ("L", gi) if gi < n_elem else ("W", gi - n_elem)
        return Classification(verdict="bad", f_value=None, g_value=g_value, witness=(*kind, a, b))
    return Classification(verdict="good", f_value=len(first), g_value=g_value, witness=None)


def _block_stats(perms: np.ndarray, family: PartitionedFamily):
    """bad, f and g of each row of a (b, n) array of permutations, as
    `classify` computes them for one permutation."""
    ids = _window_owners(perms, family)
    g = (ids == np.roll(ids, -1, axis=1)).sum(axis=1)
    # one sort of the member ids per row: a group boundary counts toward f,
    # a member change inside a group makes the row bad
    ids.sort(axis=1)
    new_group = np.diff(ids // family.k, axis=1) != 0
    f = new_group.sum(axis=1) + 1
    bad = ((np.diff(ids, axis=1) != 0) & ~new_group).any(axis=1)
    return bad, f, g


@dataclass(frozen=True)
class Estimate:
    """Sample mean with a 3-sigma central-limit half-width."""

    mean: float
    ci3: float
    samples: int

    @classmethod
    def of(cls, values) -> "Estimate":
        """Mean of `values` and 3 sqrt(var/n), var the population variance."""
        n = len(values)
        if n == 0:
            raise InvalidParams("no samples")
        mean = sum(values) / n
        var = sum((x - mean) ** 2 for x in values) / n
        return cls(mean=mean, ci3=3 * math.sqrt(var / n), samples=n)

    def to_json_dict(self) -> dict:
        return {"mean": self.mean, "ci3": self.ci3, "samples": self.samples}


def _permutation_rows(n: int, rows: int, rng: Random) -> np.ndarray:
    """A (rows, n) array of uniform permutations: each row argsorts n
    64-bit keys read little-endian from `rng.randbytes(8 * rows * n)`. Two
    keys of a row tie with probability below C(n, 2) 2^-64; a row without a
    tie is an exactly uniform permutation, whatever the sort algorithm."""
    keys = np.frombuffer(rng.randbytes(8 * rows * n), "<u8").reshape(rows, n)
    return keys.argsort(axis=1)


def gbar_star_formula(family: PartitionedFamily) -> float:
    """n(q-2)/(n-3) for a family built from a Steiner system S(3, q+1, n)."""
    if family.steiner_q is None:
        raise FamilyKindMismatch("g-bar-star formula needs a Steiner-derived family")
    q = family.steiner_q
    return family.n * (q - 2) / (family.n - 3)


@dataclass(frozen=True)
class EstimateReport:
    """Monte Carlo summary feeding the AM-GM lower bound.

    log2_bound is `log2_amgm_bound` at the sampled good fraction and f-bar;
    bound_linear is its float value when representable.
    """

    family_label: str
    n: int
    r: int
    p: DensitySpec
    samples: int
    bad_fraction: Estimate
    fbar: Estimate
    gbar: Estimate
    gbar_star: Estimate
    gbar_star_exact: float | None
    log2_bound: float
    log2_expectation: float
    log2_ratio: float
    seed: int | None = None

    @property
    def bound_linear(self) -> float:
        return 2.0**self.log2_bound if self.log2_bound < 1000 else math.inf

    def to_json_dict(self) -> dict:
        return {
            "family": self.family_label,
            "n": self.n,
            "r": self.r,
            "p": {"num": self.p.num, "den": self.p.den},
            "samples": self.samples,
            "bad_fraction": self.bad_fraction.to_json_dict(),
            "fbar": self.fbar.to_json_dict(),
            "gbar": self.gbar.to_json_dict(),
            "gbar_star": self.gbar_star.to_json_dict(),
            "gbar_star_exact": self.gbar_star_exact,
            "log2_bound": self.log2_bound,
            "log2_E": self.log2_expectation,
            "log2_ratio": self.log2_ratio,
            "seed": self.seed,
        }


def log2_amgm_bound(good_fraction: float, n: int, fbar: float, p: float) -> float:
    """log2 of the AM-GM lower bound good_fraction * n!/(2n) * p^fbar."""
    return (
        math.log2(good_fraction)
        + math.lgamma(n + 1) / math.log(2)
        - math.log2(2 * n)
        + fbar * math.log2(p)
    )


def mc_fbar_and_bound(
    family: PartitionedFamily,
    spec: DensitySpec,
    samples: int,
    rng: Random,
    family_label: str = "family",
    seed: int | None = None,
) -> EstimateReport:
    """Classify `samples` uniform permutations once and report the bad
    fraction, f-bar and g-bar over good permutations, g-bar-star over all of
    them, and the AM-GM lower bound.

    Asserts f <= n - g on every good sample (a structural identity: windows
    inside one element are consecutive at worst).
    """
    if samples < 1:
        raise InvalidParams("samples must be >= 1")
    n = family.n
    if n < family.r + 2:
        raise DegenerateCycle(f"need n >= r+2 (got n={n}, r={family.r})")
    # bad, f and g of every row, block by block, as small int arrays
    blocks = []
    for start in range(0, samples, MC_BLOCK):
        rows = min(MC_BLOCK, samples - start)
        bad, f, g = _block_stats(_permutation_rows(n, rows, rng), family)
        good = ~bad
        over = np.flatnonzero(good & (f > n - g))
        if over.size:
            i = over[0]
            raise AssertionError(f"good permutation with f={f[i]} > n-g={n - g[i]}")
        blocks.append((bad, f.astype(np.int32), g.astype(np.int32)))
    bad, f, g = (np.concatenate(col) for col in zip(*blocks))
    del blocks
    good = ~bad
    if not good.any():
        raise InsufficientGoodSamples(f"no good permutation in {samples} samples")

    # the values are small integers, so Python ints give the same sums as
    # floats, exactly, in the same order
    bad = Estimate.of(bad.astype(np.int8).tolist())
    fbar = Estimate.of(f[good].tolist())
    gbar = Estimate.of(g[good].tolist())
    g_star = Estimate.of(g.tolist())
    log2_bound = log2_amgm_bound(1.0 - bad.mean, n, fbar.mean, spec.as_float())
    log2_e = log2_expectation_value(n, spec.as_float())
    exact = gbar_star_formula(family) if family.steiner_q is not None else None
    return EstimateReport(
        family_label=family_label,
        n=n,
        r=family.r,
        p=spec,
        samples=samples,
        bad_fraction=bad,
        fbar=fbar,
        gbar=gbar,
        gbar_star=g_star,
        gbar_star_exact=exact,
        log2_bound=log2_bound,
        log2_expectation=log2_e,
        log2_ratio=log2_bound - log2_e,
        seed=seed,
    )


@dataclass(frozen=True)
class ExpectedHReport:
    """Exact Hamiltonian counts over repeated quasi-random builds."""

    builds: int
    values: tuple[int, ...]
    mean: float
    maximum: int
    log2_expectation: float
    mean_over_expectation: float
    max_over_expectation: float

    def mean_estimate(self) -> Estimate:
        return Estimate.of([float(v) for v in self.values])

    def to_json_dict(self) -> dict:
        return {
            "builds": self.builds,
            "mean": self.mean,
            "max": self.maximum,
            "log2_E": self.log2_expectation,
            "mean_over_E": self.mean_over_expectation,
            "max_over_E": self.max_over_expectation,
            "values": list(self.values),
        }


def mc_expected_H(
    family: PartitionedFamily,
    spec: DensitySpec,
    build_samples: int,
    rng: Random,
) -> ExpectedHReport:
    """Build quasi-random graphs from the family and exact-count each one."""
    if build_samples < 1:
        raise InvalidParams("build_samples must be >= 1")
    values = []
    for _ in range(build_samples):
        graph = build_quasirandom_from_partition(family, spec, rng)
        values.append(exact_ham_count(graph).count)
    mean = sum(values) / len(values)
    ev = 2.0 ** log2_expectation_value(family.n, spec.as_float())
    return ExpectedHReport(
        builds=build_samples,
        values=tuple(values),
        mean=mean,
        maximum=max(values),
        log2_expectation=log2_expectation_value(family.n, spec.as_float()),
        mean_over_expectation=mean / ev,
        max_over_expectation=max(values) / ev,
    )

