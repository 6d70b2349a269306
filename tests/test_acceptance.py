"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 9's build half runs the stated direct-mode parameters faithfully;
see notes in the repository docs about its feasibility.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import conftest
from hamforge import cli
from hamforge.constructions import (
    count_admissible_words,
    count_placements_crown,
    crown_placement_lower_bound,
    crown_graph,
    enumerate_admissible,
    multipartite_rgraph,
    sample_good_cycles,
)
from hamforge.counting import (
    adjacency_matrix,
    bregman_bound,
    brute_force_ham_count,
    exact_ham_count,
    expectation_value,
    permanent,
    two_factor_profile,
)
from hamforge.errors import RetryBudgetExhausted
from hamforge.estimators import mc_fbar_and_bound
from hamforge.geometry import build_spherical_steiner, verify_steiner
from hamforge.hypercore import Hypergraph, window_set
from hamforge.packing import (
    Packing,
    PackingParams,
    build_random_packing,
    family_from_design,
    validate_packing,
)
from hamforge.randmodels import (
    DensitySpec,
    build_quasirandom_from_partition,
    sample_exact_density_subgraph,
    sample_gnm,
    sample_gnp,
)


def _report(number, ok, detail, t0, limit):
    elapsed = time.time() - t0
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail} ({elapsed:.1f}s)"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget ({elapsed:.1f}s)"
    return ok


def random_hypergraph(n, r, p, rng):
    edges = [e for e in itertools.combinations(range(n), r) if rng.random() < p]
    return Hypergraph.from_edges(n, r, edges)


def test_criterion_01_complete_graph_counts():
    t0 = time.time()
    for r, n in [(2, 5), (2, 8), (3, 6), (3, 7), (4, 7), (4, 8)]:
        got = exact_ham_count(Hypergraph.complete(n, r)).count
        assert got == math.factorial(n - 1) // 2, (r, n, got)
    assert _report(1, True, "H(K_n^r) = (n-1)!/2 on all six (r,n) pairs", t0, 10)


def test_criterion_02_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(20240)
    pairs = [(r, n) for r in (2, 3, 4) for n in range(r + 2, 10)]
    checked = 0
    for r, n in pairs:
        for density in (0.3, 0.6, 0.9):
            for _ in range(67):
                g = random_hypergraph(n, r, density, rng)
                assert exact_ham_count(g).count == brute_force_ham_count(g).count
                checked += 1
    assert _report(2, True, f"DP == brute force on {checked} instances over {len(pairs)} (r,n) pairs", t0, 300)


def test_criterion_03_permanent_identity():
    t0 = time.time()
    # every labeled 5-vertex graph (a superset of any isomorphism-class list)
    all_pairs = list(itertools.combinations(range(5), 2))
    for mask in range(1 << len(all_pairs)):
        edges = [e for i, e in enumerate(all_pairs) if mask >> i & 1]
        g = Hypergraph.from_edges(5, 2, edges)
        assert two_factor_profile(g).weighted_sum() == permanent(adjacency_matrix(g).tolist())
    rng = random.Random(3)
    for _ in range(200):
        g = random_hypergraph(6, 2, rng.choice([0.3, 0.5, 0.7, 0.9]), rng)
        assert two_factor_profile(g).weighted_sum() == permanent(adjacency_matrix(g).tolist())
    assert _report(3, True, "Per(A) = sum 2^k F_k on all 1024 labeled 5-vertex graphs + 200 random 6-vertex", t0, 60)


def test_criterion_04_bregman():
    t0 = time.time()
    rng = random.Random(4)
    for _ in range(500):
        mat = [[rng.randint(0, 1) for _ in range(8)] for _ in range(8)]
        assert permanent(mat) <= bregman_bound(mat) * (1 + 1e-9) + 1e-9
    assert _report(4, True, "permanent <= row-sum product bound on 500 random 8x8 matrices", t0, 60)


def test_criterion_05_crown_chain():
    t0 = time.time()

    def brute_placements(n):
        m = n // 2
        count = 0
        for perm in itertools.permutations(range(1, n + 1)):
            if any(perm[i] % 2 == 0 for i in range(0, n, 2)):
                continue
            pos = {v: i + 1 for i, v in enumerate(perm)}
            if all((pos[2 * i - 1] - pos[2 * i]) % n not in (1, n - 1) for i in range(1, m + 1)):
                count += 1
        return count

    assert count_placements_crown(8) == brute_placements(8)
    for n in (8, 10, 12):
        placements = count_placements_crown(n)
        assert crown_placement_lower_bound(n) <= placements
        assert placements <= n * exact_ham_count(crown_graph(n)).count
    assert _report(5, True, "placement lower bound <= P(n) <= n*H(B_n) at n=8,10,12; P(8) equal both ways", t0, 120)


def test_criterion_06_steiner_designs():
    t0 = time.time()
    for q, s, blocks in [(2, 2, 10), (3, 2, 30), (2, 4, 680)]:
        system = build_spherical_steiner(q, s)
        assert len(system.blocks) == blocks
        report = verify_steiner(system)  # exhaustive coverage + counts
        assert report.ok, report.problems
        per_point = math.comb(system.n - 1, 2) // math.comb(q, 2)
        counts = [0] * system.n
        for b in system.blocks:
            for v in b:
                counts[v] += 1
        assert set(counts) == {per_point}
    assert _report(6, True, "S(3,3,5)/S(3,4,10)/S(3,3,17) built and exhaustively verified (10/30/680 blocks)", t0, 30)


def test_criterion_07_gbar_star():
    t0 = time.time()
    fam10 = family_from_design(build_spherical_steiner(3, 2), 1)
    result = mc_fbar_and_bound(fam10, DensitySpec(1, 2), 100_000, random.Random(7))
    target = 10 * (3 - 2) / (10 - 3)
    assert result.gbar_star_exact == pytest.approx(target)
    assert abs(result.gbar_star.mean - target) <= result.gbar_star.ci3

    fam17 = family_from_design(build_spherical_steiner(2, 4), 1)
    result17 = mc_fbar_and_bound(fam17, DensitySpec(1, 2), 100_000, random.Random(8))
    assert result17.gbar_star.mean == 0.0 and result17.gbar_star_exact == 0.0
    assert _report(
        7, True,
        f"g-bar-star: S(3,4,10) MC {result.gbar_star.mean:.4f} within 3sigma of 10/7; S(3,3,17) all zero",
        t0, 30,
    )


def test_criterion_08_steiner_builder_bound():
    t0 = time.time()
    system = build_spherical_steiner(2, 4)
    fam = family_from_design(system, 2, rng=random.Random(0))
    spec = DensitySpec(1, 2)

    est = mc_fbar_and_bound(fam, spec, 20_000, random.Random(88), seed=88)
    good = 1.0 - est.bad_fraction.mean
    log2_bound_lo = (
        math.log2(max(good - est.bad_fraction.ci3, 1e-12))
        + math.lgamma(18) / math.log(2)
        - math.log2(34)
        + (est.fbar.mean + est.fbar.ci3) * math.log2(0.5)
    )
    sigma_bound = (est.bound_linear - 2.0**log2_bound_lo) / 3

    rng = random.Random(99)
    values = []
    for _ in range(100):
        g = build_quasirandom_from_partition(fam, spec, rng)
        assert g.edge_count == 340
        values.append(exact_ham_count(g).count)
    mean_h = sum(values) / len(values)
    var_h = sum((v - mean_h) ** 2 for v in values) / len(values)
    sigma_mean = math.sqrt(var_h / len(values))

    base_rng = random.Random(77)
    baseline = [exact_ham_count(sample_gnm(17, 3, 340, base_rng)).count for _ in range(100)]
    base_mean = sum(baseline) / len(baseline)

    # at q=2 every good permutation has f = n, so the AM-GM bound is exactly
    # tight; both the bound estimate and the build mean carry Monte Carlo
    # noise, hence the combined 3-sigma margin
    margin = 3 * math.sqrt(sigma_bound**2 + sigma_mean**2)
    ok = mean_h >= est.bound_linear - margin
    detail = (
        f"builds mean H = {mean_h:.4g} >= bound {est.bound_linear:.4g} - 3sigma {margin:.3g}; "
        f"baseline G(17,340) mean = {base_mean:.4g}, E(17,1/2) = {expectation_value(17, 0.5):.4g}"
    )
    result = _report(8, ok, detail, t0, 1800)
    assert ok, detail
    assert result


def test_criterion_09_packing_direct_build():
    # stated parameters, run faithfully: n=60 r=3 q=8 K=210 k=3 M=3 tau=2
    t0 = time.time()
    params = PackingParams.direct(n=60, r=3, k=3, q=8, K=210, M=3, tau=2)
    successes = 0
    profiles = {}
    for run in range(20):
        try:
            build_random_packing(params, random.Random(1000 + run), retries=50)
            successes += 1
        except RetryBudgetExhausted as exc:
            for key, cnt in exc.failure_counts.items():
                profiles[key] = profiles.get(key, 0) + cnt
    rate = successes / 20
    ok = rate >= 0.95
    detail = (
        f"validator-approved builds in {successes}/20 runs (need >= 19); "
        f"attempt-failure profile over all retries: {profiles}"
    )
    _report("9 (build)", ok, detail, t0, 300)
    assert ok, detail


def test_criterion_09_packing_mutations():
    t0 = time.time()
    params = PackingParams.direct(n=60, r=3, k=3, q=8, K=30, M=1, tau=1)
    packing, _ = build_random_packing(params, random.Random(5), retries=50)

    edges = list(packing.edge_sets)
    donor = edges[1][0]
    dup = Packing(n=packing.n, r=packing.r, q=packing.q, k=packing.k, z=packing.z,
                  vertex_sets=packing.vertex_sets,
                  edge_sets=(edges[0][:-1] + (donor,),) + tuple(edges[1:]))
    assert "pairwise_edge_disjoint" in validate_packing(dup, params).failed()

    shrunk = Packing(n=packing.n, r=packing.r, q=packing.q, k=packing.k, z=packing.z,
                     vertex_sets=packing.vertex_sets,
                     edge_sets=(edges[0][:-1],) + tuple(edges[1:]))
    assert "v_uniform_edge_count" in validate_packing(shrunk, params).failed()

    stretched = Packing(n=packing.n, r=packing.r, q=packing.q, k=packing.k, z=packing.z,
                        vertex_sets=((0,) * packing.q,) + tuple(packing.vertex_sets[1:]),
                        edge_sets=packing.edge_sets)
    assert "i_element_order" in validate_packing(stretched, params).failed()
    assert _report("9 (mutations)", True, "each mutation trips its own validator property", t0, 300)


def test_criterion_10_word_machinery():
    t0 = time.time()
    for r in (2, 3, 4):
        for k in range(r, 6):
            for t in range(r, 9):
                assert count_admissible_words(t, k, r) == len(enumerate_admissible(t, k, r))
    graph = multipartite_rgraph(9, 4, 3)
    cycles = sample_good_cycles(9, 4, 3, 50, random.Random(17))
    assert len({c.representative for c in cycles}) == 50
    for c in cycles:
        assert all(w in graph.edges for w in window_set(c.representative, 3).windows)
    h = exact_ham_count(graph).count
    assert h >= 50
    assert _report(10, True, f"word formula == enumeration on the full grid; 50 valid distinct cycles, H = {h}", t0, 120)


def test_criterion_11_subsample_transfer_bound():
    t0 = time.time()
    graph = multipartite_rgraph(9, 4, 3)
    h_full = exact_ham_count(graph).count
    p = Fraction(1, 2)
    q_dens = Fraction(graph.edge_count, math.comb(9, 3))
    bound = float(p / q_dens) ** 9 * math.exp(-2 / float(p)) * h_full
    rng = random.Random(11)
    values = [
        exact_ham_count(sample_exact_density_subgraph(graph, p, rng)).count
        for _ in range(2000)
    ]
    mean = sum(values) / len(values)
    ok = mean >= bound
    _report(11, ok, f"mean H over 2000 exact-density subsamples = {mean:.2f} >= transfer bound {bound:.2f}", t0, 600)
    assert ok


def test_criterion_12_expectation_sanity():
    t0 = time.time()
    rng = random.Random(12)
    values = [exact_ham_count(sample_gnp(8, 3, 0.75, rng)).count for _ in range(2000)]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    ci3 = 3 * math.sqrt(var / len(values))
    target = expectation_value(8, 0.75)
    ok = abs(mean - target) <= ci3
    _report(12, ok, f"mean H over 2000 binomial draws = {mean:.2f} within {ci3:.2f} of E(8,3/4) = {target:.4f}", t0, 300)
    assert ok


PRESET_SMALL_ARGS = {
    "crown-lower-bound": [],
    "turan-subsample": ["--samples", "50"],
    "steiner17-half": ["--samples", "300", "--builds", "2"],
    "packing-direct": ["--runs", "2", "--retries", "2"],
    "multipartite-words": [],
}


def test_criterion_13_reproducibility(tmp_path):
    t0 = time.time()
    for preset, extra in PRESET_SMALL_ARGS.items():
        outputs = []
        for run in ("a", "b"):
            out_dir = tmp_path / f"{preset}-{run}"
            code = cli.main(
                ["experiment", "--preset", preset, "--seed", "42", "--workers", "1",
                 "--out-dir", str(out_dir)] + extra
            )
            assert code == 0
            blob = b""
            for path in sorted(out_dir.iterdir()):
                blob += path.name.encode() + b"\n" + path.read_bytes()
            outputs.append(blob)
        assert outputs[0] == outputs[1], f"preset {preset} not byte-identical"
    assert _report(13, True, "all five presets byte-identical across two seeded runs", t0, 600)
