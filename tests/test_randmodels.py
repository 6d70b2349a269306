import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from hamforge.counting import exact_ham_count
from hamforge.errors import InvalidParams
from hamforge.geometry import build_spherical_steiner
from hamforge.hypercore import Hypergraph
from hamforge.packing import family_from_design
from hamforge import randmodels
from hamforge.randmodels import (
    AuditReport,
    DensitySpec,
    audit_quasirandomness,
    build_quasirandom_from_partition,
    sample_exact_density_subgraph,
    sample_gnm,
    sample_gnp,
)


def test_density_spec():
    spec = DensitySpec.parse("2/4")
    assert (spec.num, spec.den) == (1, 2)
    assert DensitySpec(1, 3).as_float() == pytest.approx(1 / 3)
    with pytest.raises(InvalidParams):
        DensitySpec(2, 2)  # p = 1 disallowed
    with pytest.raises(InvalidParams):
        DensitySpec(0, 2)
    with pytest.raises(InvalidParams):
        DensitySpec.parse("0.5")
    for text in ("0/0", "1/0", "0/4"):
        with pytest.raises(InvalidParams):
            DensitySpec.parse(text)


def test_gnp_extremes():
    rng = random.Random(0)
    assert sample_gnp(8, 3, 1.0, rng) == Hypergraph.complete(8, 3)
    assert sample_gnp(8, 3, 0.0, rng) == Hypergraph.empty(8, 3)


def test_gnp_mean_edge_count():
    rng = random.Random(1)
    total = math.comb(10, 3)
    counts = [sample_gnp(10, 3, 0.5, rng).edge_count for _ in range(10_000)]
    mean = sum(counts) / len(counts)
    sigma = math.sqrt(total * 0.25 / len(counts))
    assert abs(mean - 0.5 * total) <= 3 * sigma


def test_gnm_exact_count_and_marginals():
    rng = random.Random(2)
    assert sample_gnm(6, 3, math.comb(6, 3), rng) == Hypergraph.complete(6, 3)
    target = (0, 1, 2)
    hits = 0
    trials = 10_000
    for _ in range(trials):
        g = sample_gnm(6, 3, 10, rng)
        assert g.edge_count == 10
        if target in g.edges:
            hits += 1
    p = 10 / 20
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 3 * sigma
    with pytest.raises(InvalidParams):
        sample_gnm(6, 3, 21, rng)


def test_exact_density_subgraph():
    rng = random.Random(3)
    g = Hypergraph.complete(8, 3)
    sub = sample_exact_density_subgraph(g, Fraction(1, 2), rng)
    assert sub.edge_count == math.comb(8, 3) // 2
    assert sub.edges <= g.edges
    # p equal to the graph's own density keeps the edge count
    again = sample_exact_density_subgraph(sub, Fraction(1, 2), rng)
    assert again.edge_count == sub.edge_count
    with pytest.raises(InvalidParams):
        sample_exact_density_subgraph(g, Fraction(1, 3), rng)  # 56/3 not integral
    with pytest.raises(InvalidParams):
        sample_exact_density_subgraph(sub, Fraction(3, 4), rng)  # too few edges


def test_lemma_subsample_bound_light():
    # mean exact count over exact-density subsamples dominates the
    # (p/q)^n e^(-2/p) H(G) transfer bound
    graph = Hypergraph.complete(7, 3)
    p = Fraction(3, 5)  # 21 of 35 edges
    h_full = exact_ham_count(graph).count
    bound = float(p) ** 7 * math.exp(-2 / float(p)) * h_full
    rng = random.Random(4)
    values = [
        exact_ham_count(sample_exact_density_subgraph(graph, p, rng)).count
        for _ in range(300)
    ]
    assert sum(values) / len(values) >= bound


@pytest.fixture(scope="module")
def steiner_family():
    system = build_spherical_steiner(2, 4)
    return family_from_design(system, 2, rng=random.Random(0))


def test_builder_exact_density(steiner_family):
    spec = DensitySpec(1, 2)
    seen = set()
    for seed in range(10):
        g = build_quasirandom_from_partition(steiner_family, spec, random.Random(seed))
        assert g.edge_count == 340
        assert g.density() == 0.5
        seen.add(g.edges)
    assert len(seen) > 1  # different seeds give different graphs


def test_builder_marginal_inclusion(steiner_family):
    spec = DensitySpec(1, 2)
    target = steiner_family.element_groups[0][0].edges[0]
    trials = 2000
    hits = 0
    rng = random.Random(9)
    for _ in range(trials):
        if target in build_quasirandom_from_partition(steiner_family, spec, rng).edges:
            hits += 1
    sigma = math.sqrt(0.25 / trials)
    assert abs(hits / trials - 0.5) <= 3 * sigma


def test_builder_group_size_mismatch(steiner_family):
    with pytest.raises(InvalidParams):
        build_quasirandom_from_partition(steiner_family, DensitySpec(1, 3), random.Random(0))


def test_audit_complete_graph():
    g = Hypergraph.complete(10, 3)
    report = audit_quasirandomness(g, epsilon=0.05, samples=50, rng=random.Random(1))
    assert report.max_abs_deviation == 0.0
    assert report.passed


def test_audit_detects_planted_clique():
    # two disjoint 10-cliques: the half-set equal to one clique has induced
    # density 1 against a global density just under 1/2
    n = 20
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if (u < 10) == (v < 10)
    ]
    g = Hypergraph.from_edges(n, 2, edges)
    report = audit_quasirandomness(
        g, epsilon=0.1, samples=50, rng=random.Random(2),
        extra_subsets=[range(10)],
    )
    assert not report.passed
    assert report.max_abs_deviation >= 1 - g.density()


def test_audit_planted_subsets_only():
    report = audit_quasirandomness(
        Hypergraph.complete(8, 3), epsilon=0.1, samples=0, rng=random.Random(1),
        extra_subsets=[range(4), range(4, 8)],
    )
    assert report.samples == 2 and report.passed


def test_audit_rejects_out_of_range_planted_vertex():
    for sub in [(0, 1, 2, 100), (0, 1, 2, -1)]:
        with pytest.raises(InvalidParams):
            audit_quasirandomness(
                Hypergraph.complete(8, 3), epsilon=0.1, samples=0, rng=random.Random(1),
                extra_subsets=[sub],
            )


def test_audit_counts_match_issuperset_across_blocks(monkeypatch):
    g = sample_gnm(12, 3, 110, random.Random(3))
    rng = random.Random(5)
    subsets = [tuple(sorted(rng.sample(range(12), 6))) for _ in range(20)]
    subsets += [tuple(range(6)), tuple(range(6, 12))]
    want = [sum(1 for e in g.edges if set(sub).issuperset(e)) for sub in subsets]
    # one word of subsets, 80 bytes per edge: forty edges per block, so the
    # 110 edges span three blocks
    monkeypatch.setattr(randmodels, "AUDIT_BLOCK_BYTES", 40 * 80)
    assert randmodels._inside_counts(g, subsets) == want
    report = audit_quasirandomness(
        g, epsilon=0.1, samples=20, rng=random.Random(5), extra_subsets=subsets[20:]
    )
    devs = [abs(c / math.comb(6, 3) - g.density()) for c in want]
    assert report.samples == 22
    assert report.max_abs_deviation == max(devs)
    assert report.violations == sum(d >= 0.1 for d in devs)


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 129])
def test_audit_counts_match_issuperset_at_word_edges(r, count):
    # subsets fill the bits of 64-bit words: a partial word, a full one, and
    # one bit past one and two words
    g = sample_gnm(13, r, math.comb(13, r) // 2, random.Random(r))
    rng = random.Random(count)
    subsets = [tuple(sorted(rng.sample(range(13), 6))) for _ in range(count)]
    want = [sum(1 for e in g.edges if set(sub).issuperset(e)) for sub in subsets]
    assert randmodels._inside_counts(g, subsets) == want


def test_audit_temporaries_stay_within_the_block_budget(monkeypatch):
    g = sample_gnm(40, 3, 4940, random.Random(1))
    rng = random.Random(2)
    subsets = [tuple(sorted(rng.sample(range(40), 20))) for _ in range(200)]
    monkeypatch.setattr(randmodels, "AUDIT_BLOCK_BYTES", 1 << 16)
    tracemalloc.start()
    try:
        randmodels._inside_counts(g, subsets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beyond the edge table, one block's temporaries and a few small arrays;
    # all edges at once would hold 80 bytes per edge and word, 1.5 MiB
    assert peak - 8 * g.r * g.edge_count <= (1 << 16) + (1 << 16), peak


def test_audit_report_json(steiner_family):
    g = build_quasirandom_from_partition(steiner_family, DensitySpec(1, 2), random.Random(3))
    report = audit_quasirandomness(g, epsilon=0.25, samples=100, rng=random.Random(4), seed=4)
    data = report.to_json_dict()
    assert set(data) == {"p", "epsilon", "samples", "max_abs_deviation", "violations", "seed"}
    assert isinstance(report, AuditReport)
    # at n=17 a half-set holds 56 triples; deviations beyond 0.25 are ~4-sigma
    assert report.passed
