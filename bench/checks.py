"""Correctness checks written apart from hamforge.

Each check reads only plain data off the program's results (edge tuples,
vertex tuples, numbers) and recomputes what it needs itself: a DFS cycle
counter, closed forms, coverage recounts and density recounts. A check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import math
from random import Random


def complete_count(n: int) -> int:
    """Tight Hamiltonian cycles of the complete r-graph K_n^r: (n-1)!/2."""
    return math.factorial(n - 1) // 2


def dfs_ham_count(n: int, r: int, edges) -> int:
    """Count tight Hamiltonian cycles by depth-first search from vertex 0.

    Every cycle is met twice (once per direction), so the count of anchored
    vertex orders is halved.
    """
    edges = frozenset(tuple(sorted(e)) for e in edges)
    path = [0]
    total = 0

    def extend(used: int) -> None:
        nonlocal total
        if len(path) == n:
            closing = path[n - r + 1:] + path[: r - 1]
            if all(tuple(sorted(closing[i:i + r])) in edges for i in range(r - 1)):
                total += 1
            return
        for v in range(1, n):
            if used >> v & 1:
                continue
            if len(path) >= r - 1 and tuple(sorted(path[1 - r:] + [v])) not in edges:
                continue
            path.append(v)
            extend(used | 1 << v)
            path.pop()

    extend(1)
    return total // 2


def relabeling(n: int, rng: Random) -> list[int]:
    """A seeded vertex permutation that moves vertex 0."""
    perm = list(range(n))
    while perm[0] == 0:
        rng.shuffle(perm)
    return perm


def relabel(edges, perm) -> list[tuple[int, ...]]:
    return [tuple(sorted(perm[v] for v in e)) for e in edges]


def count_problems(label: str, value, n: int) -> list[str]:
    if not isinstance(value, int) or not 0 <= value <= complete_count(n):
        return [f"{label}: count {value!r} is not an integer in [0, {n - 1}!/2]"]
    return []


def steiner_problems(n: int, block_size: int, blocks) -> list[str]:
    """Every triple of [0, n) lies in exactly one block."""
    seen: set[tuple[int, int, int]] = set()
    for b in blocks:
        if len(set(b)) != block_size or min(b) < 0 or max(b) >= n:
            return [f"block {b} is not {block_size} distinct points of [0, {n})"]
        for t in itertools.combinations(sorted(b), 3):
            if t in seen:
                return [f"triple {t} lies in two blocks"]
            seen.add(t)
    if len(seen) != math.comb(n, 3):
        return [f"blocks cover {len(seen)} of C({n},3) = {math.comb(n, 3)} triples"]
    return []


def family_problems(family, complete_elements: bool) -> list[str]:
    """Groups of k pairwise vertex-disjoint members covering K_n^r exactly once.

    With complete_elements, each member's edges must be all r-subsets of its
    vertices (design-derived families).
    """
    n, r, k = family.n, family.r, family.k
    seen: set[tuple[int, ...]] = set()
    for gi, grp in enumerate(family.element_groups):
        if len(grp) != k:
            return [f"element group {gi} has {len(grp)} members, not k = {k}"]
        vertex_sets = [set(el.vertices) for el in grp]
        for a, b in itertools.combinations(range(k), 2):
            if vertex_sets[a] & vertex_sets[b]:
                return [f"element group {gi}: members {a} and {b} share a vertex"]
        for el in grp:
            edges = [tuple(e) for e in el.edges]
            if complete_elements and set(edges) != set(
                itertools.combinations(sorted(el.vertices), r)
            ):
                return [f"element {el.vertices} does not carry all its {r}-subsets"]
            for e in edges:
                if not set(e) <= set(el.vertices):
                    return [f"edge {e} leaves its element {el.vertices}"]
                if e in seen:
                    return [f"edge {e} is covered twice"]
                seen.add(e)
    for gi, grp in enumerate(family.leftover_groups):
        if len(grp) != k:
            return [f"leftover group {gi} has {len(grp)} edges, not k = {k}"]
        for a, b in itertools.combinations(range(k), 2):
            if set(grp[a]) & set(grp[b]):
                return [f"leftover group {gi}: edges {a} and {b} share a vertex"]
        for e in grp:
            e = tuple(e)
            if e in seen:
                return [f"edge {e} is covered twice"]
            seen.add(e)
    if len(seen) != math.comb(n, r):
        return [f"family covers {len(seen)} of C({n},{r}) = {math.comb(n, r)} edges"]
    if any(len(e) != r or min(e) < 0 or max(e) >= n for e in seen):
        return [f"family holds an edge that is not an {r}-subset of [0, {n})"]
    return []


def build_problems(family, edges, num: int) -> list[str]:
    """Exactly num members of every group are taken, whole; p*C(n,r) edges."""
    graph = frozenset(tuple(e) for e in edges)
    want = math.comb(family.n, family.r) * num // family.k
    if len(graph) != want:
        return [f"build has {len(graph)} edges, not p*C(n,r) = {want}"]
    taken_total = 0
    for gi, grp in enumerate(family.element_groups):
        taken = 0
        for el in grp:
            inside = sum(1 for e in el.edges if tuple(e) in graph)
            if inside not in (0, len(el.edges)):
                return [f"group {gi}: member {el.vertices} is taken in part"]
            if inside:
                taken += 1
                taken_total += inside
        if taken != num:
            return [f"group {gi}: {taken} members taken, not {num}"]
    for gi, grp in enumerate(family.leftover_groups):
        taken = sum(1 for e in grp if tuple(e) in graph)
        if taken != num:
            return [f"leftover group {gi}: {taken} edges taken, not {num}"]
        taken_total += taken
    if taken_total != len(graph):
        return ["build holds edges outside the family's chosen members"]
    return []


def packing_problems(packing, n: int, r: int, q: int, K: int, k: int, tau: float) -> list[str]:
    """The packing properties, recounted: element order q, co-degrees >= tau,
    at most half of K_n^r covered, K elements with k | K, equal edge counts,
    pairwise edge-disjoint elements."""
    if len(packing.vertex_sets) != K or K % k:
        return [f"packing has {len(packing.vertex_sets)} elements, want K = {K} with k | K"]
    seen: set[tuple[int, ...]] = set()
    sizes = set()
    for vs, es in zip(packing.vertex_sets, packing.edge_sets):
        if len(set(vs)) != q or min(vs) < 0 or max(vs) >= n:
            return [f"element {vs} is not {q} distinct vertices of [0, {n})"]
        sizes.add(len(es))
        for e in es:
            if len(set(e)) != r or not set(e) <= set(vs):
                return [f"edge {e} is not an {r}-subset of its element {vs}"]
            if tuple(e) in seen:
                return [f"edge {e} lies in two elements"]
            seen.add(tuple(e))
        for size in range(1, r):
            for X in itertools.combinations(vs, size):
                degree = sum(1 for e in es if set(X) <= set(e))
                if degree < tau:
                    return [f"element {vs}: co-degree of {X} is {degree} < {tau}"]
    if len(sizes) != 1:
        return [f"element edge counts differ: {sorted(sizes)}"]
    if 2 * len(seen) > math.comb(n, r):
        return [f"packing covers {len(seen)} edges, more than half of C({n},{r})"]
    return []


def halfset_deviation(edges, subset, r: int, p: float) -> float:
    """|density of the sub-r-graph induced on subset - p|."""
    inside = set(subset)
    count = sum(1 for e in edges if inside.issuperset(e))
    return abs(count / math.comb(len(inside), r) - p)


def log2_bound(n: int, p: float, good_fraction: float, fbar: float) -> float:
    """log2 of good_fraction * n!/(2n) * p^fbar, the AM-GM lower bound."""
    return (
        math.log2(good_fraction)
        + math.lgamma(n + 1) / math.log(2)
        - math.log2(2 * n)
        + fbar * math.log2(p)
    )


def log2_expectation(n: int, p: float) -> float:
    """log2 of E(n, p) = p^n (n-1)!/2."""
    return n * math.log2(p) + math.lgamma(n) / math.log(2) - 1.0


def estimate_problems(report: dict, p: float) -> list[str]:
    """The report's log2 bound and ratio match a recomputation from its own
    good fraction and f-bar."""
    n = report["n"]
    good = 1.0 - report["bad_fraction"]["mean"]
    want = log2_bound(n, p, good, report["fbar"]["mean"])
    ratio = want - log2_expectation(n, p)
    problems = []
    if not math.isclose(report["log2_bound"], want, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"log2_bound {report['log2_bound']} != recomputed {want}")
    if not math.isclose(report["log2_ratio"], ratio, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"log2_ratio {report['log2_ratio']} != recomputed {ratio}")
    if not 0 <= report["fbar"]["mean"] <= n:
        problems.append(f"f-bar {report['fbar']['mean']} outside [0, {n}]")
    return problems


def gbar_star_problems(report: dict, n: int, q: int, sigmas: float) -> list[str]:
    """Monte Carlo g-bar-star lies within `sigmas` standard errors of
    n(q-2)/(n-3), its exact value on a family from S(3, q+1, n)."""
    exact = n * (q - 2) / (n - 3)
    mean, ci3 = report["gbar_star"]["mean"], report["gbar_star"]["ci3"]
    if abs(mean - exact) > sigmas * ci3 / 3:
        return [f"g-bar-star {mean} is more than {sigmas} sigma from {exact}"]
    return []
