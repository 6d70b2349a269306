#!/usr/bin/env python3
"""Spherical Steiner systems and the block-choice quasi-random 3-graph.

Builds S(3,3,17) from the projective line over GF(16), partitions its 680
blocks into 340 vertex-disjoint pairs, and flips one coin per pair to get a
3-graph with exactly half of all triples. Good permutations, the f/g
statistics, and exact Hamiltonian counts then quantify how the construction
compares to the expectation value and to uniform random graphs of the same
size.

Runs in a few seconds; bump BUILDS for tighter statistics.
"""

import random

from hamforge import (
    DensitySpec,
    audit_quasirandomness,
    build_quasirandom_from_partition,
    build_spherical_steiner,
    classify,
    exact_ham_count,
    expectation_value,
    family_from_design,
    mc_fbar_and_bound,
    sample_gnm,
)

BUILDS = 5
SAMPLES = 5000

print("building S(3,3,17) as the orbit of the subfield line over GF(16)...")
system = build_spherical_steiner(2, 4)
print(f"  {len(system.blocks)} blocks, every point in {system.expected_point_count()} of them")

print("partitioning blocks into 340 disjoint pairs...")
family = family_from_design(system, 2, rng=random.Random(0))
print(f"  {len(family.element_groups)} groups; family covers all triples: {family.is_complete()}")

spec = DensitySpec(1, 2)
rng = random.Random(1)
graph = build_quasirandom_from_partition(family, spec, rng)
print(f"\none build: {graph.edge_count} edges (density exactly {graph.density()})")

report = audit_quasirandomness(graph, epsilon=0.25, samples=300, rng=random.Random(2))
print(f"half-set density audit at eps=0.25: max deviation {report.max_abs_deviation:.4f}, "
      f"violations {report.violations}/300")

print("\npermutation statistics (one Monte Carlo pass):")
est = mc_fbar_and_bound(family, spec, SAMPLES, random.Random(3))
print(f"  bad fraction ~ {est.bad_fraction.mean:.4f} +- {est.bad_fraction.ci3:.4f}")
print(f"  mean g over all permutations: {est.gbar_star.mean} (formula value "
      f"{est.gbar_star_exact}; blocks of size 3 cannot hold two windows)")
print(f"  mean f over good permutations: {est.fbar.mean} (equals n: every window "
      "occupies its own group)")
print(f"  log2 AM-GM bound = {est.log2_bound:.3f}, log2 E(17,1/2) = {est.log2_expectation:.3f}")

print(f"\nexact Hamiltonian counts over {BUILDS} builds vs {BUILDS} uniform G(17,340) draws:")
build_rng, base_rng = random.Random(6), random.Random(7)
build_counts = []
base_counts = []
for i in range(BUILDS):
    build_counts.append(exact_ham_count(build_quasirandom_from_partition(family, spec, build_rng)).count)
    base_counts.append(exact_ham_count(sample_gnm(17, 3, 340, base_rng)).count)
    print(f"  build {i}: H = {build_counts[-1]:>10,}   baseline: H = {base_counts[-1]:>10,}")

e_value = expectation_value(17, 0.5)
print(f"\n  builder mean  = {sum(build_counts)/BUILDS:>14,.0f}  ({sum(build_counts)/BUILDS/e_value:.3f} x E)")
print(f"  baseline mean = {sum(base_counts)/BUILDS:>14,.0f}  ({sum(base_counts)/BUILDS/e_value:.3f} x E)")
print(f"  E(17, 1/2)    = {e_value:>14,.0f}")
print(f"  AM-GM bound   = {est.bound_linear:>14,.0f}  (tight here: f is constant at q=2)")

print("\na planted bad permutation (two windows in one group's two blocks):")
grp = family.element_groups[0]
rest = [v for v in range(17) if v not in grp[0].vertices and v not in grp[1].vertices]
perm = tuple(list(grp[0].vertices) + rest[:5] + list(grp[1].vertices) + rest[5:])
cls = classify(perm, family)
print(f"  verdict: {cls.verdict}, witness: {cls.witness}")
