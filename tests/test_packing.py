import dataclasses
import hashlib
import io
import itertools
import json
import math
import pickle
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamforge.errors import (
    DivisibilityViolation,
    InfeasibleParams,
    InvalidParams,
    ParseError,
    PartitionFailed,
    RetryBudgetExhausted,
    ScaleLimit,
)
from hamforge.estimators import mc_fbar_and_bound
from hamforge.geometry import build_spherical_steiner
from hamforge.hypercore import capped_comb
from hamforge.packing import (
    EDGE_BLOCK,
    FamilyElement,
    Packing,
    PackingParams,
    PartitionedFamily,
    _first_fit,
    build_random_packing,
    family_from_design,
    family_from_packing,
    leftover_edges,
    partition_into_disjoint_groups,
    read_packing,
    validate_packing,
    write_packing,
)
from hamforge.randmodels import DensitySpec

FEASIBLE = dict(n=60, r=3, k=3, q=8, K=30, M=1, tau=1)


def test_faithful_arithmetic():
    params = PackingParams.faithful(n=100, r=3, k=2, beta=0.45, delta=0.35)
    assert params.q == math.ceil(100**0.45) == 8
    assert params.K == 1996 and params.K % 2 == 0  # ceil(100^1.65) = 1996
    assert params.M == math.floor(100**0.35 / 4) == 1
    assert abs(params.tau_for_size(2) - 100 ** (-0.35) * 6) < 1e-12
    assert abs(params.tau_for_size(1) - 100 ** (-0.35) * math.comb(7, 2)) < 1e-12


def test_faithful_infeasible_m():
    with pytest.raises(InfeasibleParams):
        PackingParams.faithful(n=50, r=3, k=2, beta=0.3, delta=0.1)


def test_faithful_claim1_gate():
    # one 6-set owning all 20 triples: each pair's co-degree threshold is
    # below 1, so claim 1 fails exactly when some pair has no red triple;
    # every attempt that passes it meets the one-third edge cap next
    params = PackingParams(n=12, r=3, k=1, q=6, K=1, M=1, mode="faithful", beta=0.5, delta=0.99)
    with pytest.raises(RetryBudgetExhausted) as exc:
        build_random_packing(params, random.Random(0), retries=10)
    assert exc.value.failure_counts == {
        "claim1_red_degree": 5, "claim2_edge_cap": 5, "claim3_trim": 0,
    }


def test_direct_params_validation():
    with pytest.raises(InvalidParams):
        PackingParams.direct(n=60, r=3, k=3, q=8, K=31, M=1, tau=1)  # K not multiple
    with pytest.raises(InvalidParams):
        PackingParams.direct(n=60, r=3, k=3, q=8, K=30, M=0, tau=1)
    for tau in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(InvalidParams, match=f"tau must be positive and finite, got {tau}"):
            PackingParams.direct(n=60, r=3, k=3, q=8, K=30, M=1, tau=tau)
    for retries in (0, -3):
        with pytest.raises(InvalidParams, match=f"retries must be >= 1, got {retries}"):
            build_random_packing(PackingParams.direct(**FEASIBLE), random.Random(0), retries)


def test_build_feasible_config():
    params = PackingParams.direct(**FEASIBLE)
    packing, stats = build_random_packing(params, random.Random(2), retries=50)
    report = validate_packing(packing, params)
    assert report.ok, report.failed()
    assert packing.K == 30 and packing.k == 3
    # (v): uniform edge count by construction
    assert {len(es) for es in packing.edge_sets} == {packing.z}
    # reassignment keeps at most one owner per edge
    covered = packing.covered_edges()
    assert sum(len(es) for es in packing.edge_sets) == len(covered)


def test_build_self_validates_across_seeds():
    params = PackingParams.direct(**FEASIBLE)
    for seed in range(5):
        packing, _ = build_random_packing(params, random.Random(seed), retries=50)
        assert validate_packing(packing, params).ok


def test_retry_budget_exhausted_reports_failures():
    # edge cap far below what any attempt produces
    params = PackingParams.direct(n=60, r=3, k=3, q=8, K=210, M=3, tau=2)
    with pytest.raises(RetryBudgetExhausted) as err:
        build_random_packing(params, random.Random(0), retries=3)
    assert sum(err.value.failure_counts.values()) == 3


def test_validator_mutations():
    params = PackingParams.direct(**FEASIBLE)
    packing, _ = build_random_packing(params, random.Random(3), retries=50)

    # duplicate one edge across two elements -> disjointness fails
    edges = list(packing.edge_sets)
    donor = next(e for e in edges[1] if set(e) <= set(packing.vertex_sets[1]))
    edges0 = list(edges[0])
    edges0[-1] = donor
    mutated = Packing(
        n=packing.n, r=packing.r, q=packing.q, k=packing.k, z=packing.z,
        vertex_sets=packing.vertex_sets,
        edge_sets=(tuple(edges0),) + tuple(edges[1:]),
    )
    assert "pairwise_edge_disjoint" in validate_packing(mutated, params).failed()

    # removing one edge breaks the uniform edge count
    shrunk = Packing(
        n=packing.n, r=packing.r, q=packing.q, k=packing.k, z=packing.z,
        vertex_sets=packing.vertex_sets,
        edge_sets=(tuple(packing.edge_sets[0][:-1]),) + tuple(packing.edge_sets[1:]),
    )
    assert "v_uniform_edge_count" in validate_packing(shrunk, params).failed()

    # growing an element's vertex set breaks property (i)
    stretched = Packing(
        n=packing.n, r=packing.r, q=packing.q, k=packing.k, z=packing.z,
        vertex_sets=(packing.vertex_sets[0] + (59,),) + tuple(packing.vertex_sets[1:]),
        edge_sets=packing.edge_sets,
    )
    assert "i_element_order" in validate_packing(stretched, params).failed()

    # a co-degree floor above what the build met breaks property (ii)
    strict = dataclasses.replace(params, tau=2)
    assert validate_packing(packing, strict).properties[1] == (
        "ii_min_degree", False, "element 27: degree of X=(14, 21) is 1 < 2"
    )


def test_leftover_edges_complement():
    params = PackingParams.direct(**FEASIBLE)
    packing, _ = build_random_packing(params, random.Random(4), retries=50)
    leftovers = leftover_edges(packing)
    assert len(leftovers) == math.comb(60, 3) - 30 * packing.z
    covered = packing.covered_edges()
    assert not covered & set(leftovers)
    with pytest.raises(DivisibilityViolation) as exc:
        # C(60,3) = 34220 is not a multiple of 3, so k=3 can never split W
        partition_into_disjoint_groups(leftovers, 3, lambda e: e)
    assert exc.value.residue == 2


def test_partition_steiner_blocks():
    system = build_spherical_steiner(2, 4)
    groups = partition_into_disjoint_groups(list(system.blocks), 2, vertex_key=lambda b: b)
    assert len(groups) == 340
    seen = set()
    for g in groups:
        assert len(g) == 2
        assert not set(g[0]) & set(g[1])
        seen.update(g)
    assert len(seen) == 680


def test_partition_k1_and_small_leftovers():
    # k=1 returns singletons, even for items that all share a vertex
    items = [(0, i) for i in range(1, 8)]
    assert partition_into_disjoint_groups(items, 1, lambda e: e) == [[e] for e in items]
    triples = list(itertools.combinations(range(8), 3))
    groups = partition_into_disjoint_groups(triples, 2, lambda e: e)
    assert all(len(g) == 2 and not set(g[0]) & set(g[1]) for g in groups)
    assert sorted(e for g in groups for e in g) == triples


def test_partition_failure_and_divisibility():
    with pytest.raises(DivisibilityViolation):
        partition_into_disjoint_groups([(0,), (1,), (2,)], 2, lambda e: e)
    # four edges through vertex 0 pairwise conflict, so none can be paired
    with pytest.raises(PartitionFailed, match="best pass placed 2 of 4 items"):
        partition_into_disjoint_groups([(0, 1), (0, 2), (0, 3), (0, 4)], 2, lambda e: e)


def test_partition_too_few_vertices_is_invalid():
    # S(3,5,17) with k=4: four disjoint 5-blocks need 20 > 17 vertices
    system = build_spherical_steiner(4, 2)
    assert system.n == 17 and system.q == 4
    with pytest.raises(InvalidParams, match="cannot fit in 17 vertices"):
        family_from_design(system, 4, rng=random.Random(0))


def _family_digest(fam) -> str:
    return hashlib.sha256(json.dumps(fam.to_json_dict(), sort_keys=True).encode()).hexdigest()


def test_partition_output_is_pinned():
    # seeded reports built on a family change exactly when these digests do
    fam17 = family_from_design(build_spherical_steiner(2, 4), 2, rng=random.Random(0))
    assert _family_digest(fam17) == (
        "32db56982018676b807af5c3b595a22f044719806ae7b479fbdb8252af354b9f"
    )
    params = PackingParams.direct(n=40, r=3, k=2, q=6, K=10, M=1, tau=1)
    packing, _ = build_random_packing(params, random.Random(0), retries=30)
    fam40 = family_from_packing(packing, rng=random.Random(0))
    assert _family_digest(fam40) == (
        "3bf62c66ebdf8acde0b8781fd435af14cd64753b0e7501609c2927efcce63720"
    )


def test_partition_outcomes_are_pinned_on_many_streams():
    # which pass builds varies with the stream: these cover degree-ordered and
    # shuffled successes and the s = 18 failure, so a change to any pass shows
    outcomes = hashlib.sha256()
    for system, seeds in ((build_spherical_steiner(2, 4), range(60)),
                          (build_spherical_steiner(5, 2), range(30))):
        for s in seeds:
            try:
                fam = family_from_design(system, 2, rng=random.Random(f"{s}:family"))
                outcomes.update(_family_digest(fam).encode())
            except PartitionFailed as exc:
                placed = re.search(r"best pass placed \d+ of \d+ items", str(exc)).group()
                outcomes.update(f"{type(exc).__name__}: {placed}".encode())
    assert outcomes.hexdigest() == (
        "14a6389eb6613376b0fd064d3cd6f27a8a5d95da4f8db09658970874939df0b6"
    )


def test_estimate_reports_are_pinned():
    # the Monte Carlo pass's permutation stream and classification: a seeded
    # report changes exactly when these digests do
    fam17 = family_from_design(build_spherical_steiner(2, 4), 2, rng=random.Random(0))
    params = PackingParams.direct(n=40, r=3, k=2, q=6, K=10, M=1, tau=1)
    packing, _ = build_random_packing(params, random.Random(0), retries=30)
    fam40 = family_from_packing(packing, rng=random.Random(0))
    assert fam40.leftover_groups
    digests = [
        hashlib.sha256(json.dumps(
            mc_fbar_and_bound(fam, DensitySpec(1, 2), 3000, random.Random(3)).to_json_dict(),
            sort_keys=True).encode()).hexdigest()
        for fam in (fam17, fam40)
    ]
    assert digests == [
        "a495ffcb3b3ab90ff1ff446b41cd017282cb46a7a4f24de772b7b733a3297776",
        "615f91461b97c4ca9059f30b0d973fd08e16d8e562e34093020077cee9988977",
    ]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.frozensets(st.integers(0, 11), max_size=4), max_size=24),
    st.sampled_from([1, 2, 3]),
    st.integers(0, 2**32),
)
def test_partition_property(keys, k, seed):
    items = list(enumerate(keys))  # distinct items, possibly equal vertex sets
    try:
        groups = partition_into_disjoint_groups(items, k, lambda it: it[1], rng=random.Random(seed))
    except (DivisibilityViolation, InvalidParams, PartitionFailed):
        return
    assert sorted(it for g in groups for it in g) == items
    for g in groups:
        assert len(g) == k
        for a, b in itertools.combinations(g, 2):
            assert a[1].isdisjoint(b[1])


def _linear_first_fit(order, vertex_sets, k):
    """Oracle: the linear scan the bitset pass replaced. Each item goes to the
    first open group whose members' vertices miss its own."""
    n_groups = len(vertex_sets) // k
    groups = [[] for _ in range(n_groups)]
    used = [set() for _ in range(n_groups)]
    open_groups = list(range(n_groups))
    for placed, idx in enumerate(order):
        g = next((g for g in open_groups if used[g].isdisjoint(vertex_sets[idx])), None)
        if g is None:
            return [grp for grp in groups if grp], placed
        groups[g].append(idx)
        used[g].update(vertex_sets[idx])
        if len(groups[g]) == k:
            open_groups.remove(g)
    return groups, len(order)


@st.composite
def _first_fit_instances(draw):
    k = draw(st.sampled_from([2, 3, 4]))
    # up to 400 groups: long passes close far more than 64 groups, so the
    # bits shift down many times
    n_groups = draw(st.integers(0, 400))
    n_vertices = draw(st.integers(1, 80))
    width = draw(st.integers(0, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    # drawn with replacement: a vertex may repeat within an item
    items = [tuple(rng.choices(range(n_vertices), k=rng.randint(0, width)))
             for _ in range(n_groups * k)]
    # equal vertex sets: some items copy an earlier one
    for i in range(1, len(items)):
        if rng.random() < 0.1:
            items[i] = items[rng.randrange(i)]
    order = list(range(len(items)))
    if draw(st.booleans()):
        rng.shuffle(order)
    return items, k, order


@settings(max_examples=150, deadline=None)
@given(_first_fit_instances())
def test_first_fit_matches_the_linear_scan(instance):
    items, k, order = instance
    groups, placed = _first_fit(order, items, lambda it: it, k)
    # the placed count is what PartitionFailed reports as the best pass
    assert (groups, placed) == _linear_first_fit(order, items, k)


def test_partition_reads_an_iterator_vertex_key_once_per_use():
    blocks = list(build_spherical_steiner(2, 4).blocks)
    assert (partition_into_disjoint_groups(blocks, 2, lambda b: iter(b), rng=random.Random(5))
            == partition_into_disjoint_groups(blocks, 2, lambda b: b, rng=random.Random(5)))
    star = [(0, i) for i in range(1, 7)]
    with pytest.raises(PartitionFailed, match="best pass placed 3 of 6 items"):
        partition_into_disjoint_groups(star, 2, lambda e: iter(e))


def test_family_from_design_complete():
    fam = family_from_design(build_spherical_steiner(3, 2), 1)
    assert fam.is_complete()
    assert fam.steiner_q == 3
    assert len(fam.element_groups) == 30
    assert fam.leftover_groups == ()

    fam17 = family_from_design(build_spherical_steiner(2, 4), 2, rng=random.Random(1))
    assert fam17.is_complete() and len(fam17.element_groups) == 340


def test_owner_table_survives_pickling():
    # a family reaches pool workers pickled, and numpy unpickles an array as
    # writeable; each edge's entry is its member id, group * k + member
    fam = family_from_design(build_spherical_steiner(2, 4), 2, rng=random.Random(1))
    want = np.full(math.comb(17, 3), -1)
    for gi, grp in enumerate(fam.groups()):
        for a, (_, es) in enumerate(grp):
            for e in es:
                want[sum(math.comb(c, i + 1) for i, c in enumerate(e))] = gi * fam.k + a
    back = pickle.loads(pickle.dumps(fam))
    assert back == fam
    for table in (fam.owner, back.owner):
        assert table.dtype == np.int32 and table.tolist() == want.tolist()
        assert not table.flags.writeable


def test_family_outside_partition_regime():
    # S(3,4,10) blocks are each disjoint from only 3 others, far below the
    # |items| >= (degree+1)*k regime; the typed failure is the contract
    system = build_spherical_steiner(3, 2)
    with pytest.raises(PartitionFailed):
        family_from_design(system, 2, rng=random.Random(1))


def test_family_from_packing_round_trip():
    params = PackingParams.direct(n=40, r=3, k=2, q=6, K=10, M=1, tau=1)
    packing, _ = build_random_packing(params, random.Random(0), retries=30)
    fam = family_from_packing(packing, rng=random.Random(0))
    assert fam.is_complete()
    assert len(fam.element_groups) == 5
    assert len(fam.leftover_groups) == (math.comb(40, 3) - 10 * packing.z) // 2
    # JSON round trip
    again = type(fam).from_json_dict(fam.to_json_dict())
    assert again == fam


@pytest.mark.parametrize("element, message", [
    ({"vertices": [0, 1, 2], "edges": [[False, True, 2]]}, r"edge \(False, True, 2\) is not"),
    ({"vertices": [0, 1, 2], "edges": [[True, False, 3]]}, r"edge \(True, False, 3\) is not"),
    ({"vertices": [0, 1, 2], "edges": [[3, 4, 5]]}, r"edge \(3, 4, 5\) of group 0 member 0 leaves"),
    ({"vertices": [0, 1, 2, 3], "edges": [[0, 1, 2], [1, 2, 4]]}, r"edge \(1, 2, 4\) of group 0 member 0"),
    ({"vertices": [], "edges": [[0, 1, 2]]}, r"edge \(0, 1, 2\) of group 0 member 0"),
], ids=["bools-sorted", "bools-unsorted", "disjoint-edge", "second-edge-strays", "no-vertices"])
def test_family_json_rejects_bools_and_stray_edges(element, message):
    data = {"n": 6, "r": 3, "k": 1, "steiner_q": None, "leftover_groups": [],
            "element_groups": [[element]]}
    with pytest.raises(InvalidParams, match=message):
        PartitionedFamily.from_json_dict(data)


@pytest.mark.parametrize("groups", [
    [[{"vertices": [0, 0, 1, 2], "edges": [[0, 1, 2]]}]],
    [[{"vertices": [0, 0, 1, 2], "edges": []}]],
    [[{"vertices": [3, 4, 5], "edges": [[3, 4, 5]]}], [{"vertices": [0, 1, 2, 1], "edges": []}]],
], ids=["with-edges", "no-edges", "second-group"])
def test_family_json_rejects_a_member_that_repeats_a_vertex(groups):
    data = {"n": 6, "r": 3, "k": 1, "steiner_q": None, "leftover_groups": [],
            "element_groups": groups}
    with pytest.raises(InvalidParams, match=f"group {len(groups) - 1} member 0 repeats a vertex"):
        PartitionedFamily.from_json_dict(data)


def test_family_keys_past_int64_are_a_scale_limit():
    # each member's vertices are looked up as member * span + vertex; a family
    # whose vertices pass int64 has more r-sets than its owner table may hold
    big = 2**62
    element_groups = [[{"vertices": [0, 1, v], "edges": [[0, 1, v]]}] for v in (big, 3)]
    data = {"n": 2**70, "r": 3, "k": 1, "steiner_q": None, "leftover_groups": [],
            "element_groups": element_groups}
    for groups in (element_groups, element_groups[:1]):
        with pytest.raises(ScaleLimit, match=rf"owner table over C\({2**70},3\) r-sets exceeds"):
            PartitionedFamily.from_json_dict({**data, "element_groups": groups})


def _k63_leftovers(odd):
    """K_6^3 as one-edge leftover groups, with the edge (0, 1, 2) replaced by `odd`."""
    edges = [odd if e == (0, 1, 2) else e for e in itertools.combinations(range(6), 3)]
    return dict(n=6, r=3, k=1, element_groups=(), leftover_groups=tuple((e,) for e in edges))


_A = FamilyElement(vertices=(0, 1, 2), edges=((0, 1, 2),))
_B = FamilyElement(vertices=(3, 4, 5), edges=((3, 4, 5),))
_C = FamilyElement(vertices=(6, 7, 8), edges=((6, 7, 8),))


@pytest.mark.parametrize("fields, message", [
    (_k63_leftovers((2, 1, 0)), r"edge \(2, 1, 0\) is not an increasing 3-tuple"),
    (_k63_leftovers((0, 1)), r"edge \(0, 1\) is not an increasing 3-tuple"),
    (_k63_leftovers((0, 1, 7)), r"a member has the vertex 7, outside \[0,6\)"),
    (_k63_leftovers(("0", "1", "2")), r"a member has the vertex '[012]', outside \[0,6\)"),
    # a group whose members meet: a build choosing both would take an edge twice
    (dict(n=6, r=3, k=2, element_groups=((_A, _A), (_A, _B)), leftover_groups=()),
     "group 0 member 1 shares a vertex with another member"),
    (dict(n=9, r=3, k=2, element_groups=((_A, _B), (_A, _C)), leftover_groups=()),
     r"edge \(0, 1, 2\) appears twice in the family"),
    (dict(n=9, r=3, k=2, element_groups=((_A, _B),), leftover_groups=(((6, 7, 8),),)),
     "group 1 has 1 members, expected 2"),
    (dict(n=-1, r=3, k=1, element_groups=(), leftover_groups=()), "need n >= 0, r >= 2 and k >= 1"),
    (dict(n=6, r=1, k=1, element_groups=(), leftover_groups=()), "need n >= 0, r >= 2 and k >= 1"),
    (dict(n=6, r=3, k=0, element_groups=(), leftover_groups=()), "need n >= 0, r >= 2 and k >= 1"),
], ids=["unsorted-edge", "short-edge", "edge-past-n", "string-vertices",
        "shared-vertex", "edge-twice", "short-group", "n-negative", "r-below-2", "k-zero"])
def test_malformed_family_is_rejected_when_made(fields, message):
    with pytest.raises(InvalidParams, match=message):
        PartitionedFamily(**fields)


def test_edge_repeated_in_a_later_block_is_rejected():
    # the repeat comes past EDGE_BLOCK edges, so the first copy is already
    # in the owner table when the block holding the second is checked
    groups = tuple((e,) for e in itertools.combinations(range(38), 3))
    assert len(groups) > EDGE_BLOCK
    with pytest.raises(InvalidParams, match=r"edge \(0, 1, 2\) appears twice in the family"):
        PartitionedFamily(n=38, r=3, k=1, element_groups=(), leftover_groups=groups + groups[:1])


@pytest.mark.parametrize("vertex", [2**63, 2**64])
def test_family_edge_vertex_past_int64_is_a_scale_limit(vertex):
    # numpy holds such an edge as float64 or object, not int64, and its n has
    # more r-sets than the owner table may hold
    with pytest.raises(ScaleLimit, match="owner table over"):
        PartitionedFamily(n=2**70, r=3, k=1, element_groups=(), leftover_groups=(((0, 1, vertex),),))


# any JSON value in a place the format gives a shape: a leaf, or a small
# container of the wrong shape
_json = (st.none() | st.booleans() | st.integers() | st.text(max_size=2)
         | st.floats(allow_nan=True, allow_infinity=True)
         | st.sampled_from([[], {}, [[0]], [None], {"vertices": [0]}, {"n": 6}]))
_vertex = st.integers(-1, 9) | st.sampled_from([2**63, 2**64, True, 1.0, "1"]) | _json
_edge = st.lists(_vertex, max_size=4) | _json
_member = st.fixed_dictionaries({"vertices": st.lists(_vertex, max_size=5),
                                 "edges": st.lists(_edge, max_size=3)}) | _json
_size = st.integers(-1, 9) | st.sampled_from([2**70, float("inf"), float("-inf"), float("nan")]) | _json


@settings(max_examples=1000, deadline=None)
@given(st.fixed_dictionaries(
    {"n": _size, "r": _size, "k": _size,
     "element_groups": st.lists(st.lists(_member, max_size=3) | _json, max_size=3) | _json,
     "leftover_groups": st.lists(st.lists(_edge, max_size=3) | _json, max_size=3) | _json},
    optional={"steiner_q": _size}) | _json)
def test_family_reader_raises_only_typed_errors(data):
    # any JSON value gives a family or one of three typed errors
    try:
        fam = PartitionedFamily.from_json_dict(data)
    except (ParseError, InvalidParams, ScaleLimit):
        return
    assert PartitionedFamily.from_json_dict(fam.to_json_dict()) == fam


@pytest.mark.parametrize("field, value", [
    ("n", 6.7), ("n", 6.0), ("n", True), ("n", "6"), ("r", 3.0), ("k", True), ("k", "1"),
    ("steiner_q", 2.5), ("steiner_q", False),
])
def test_family_json_sizes_are_json_integers(field, value):
    # int() would read 6.7 as 6, true as 1 and "6" as 6
    data = {"n": 6, "r": 3, "k": 1, "steiner_q": None, "leftover_groups": [[[0, 1, 2]]],
            "element_groups": []}
    PartitionedFamily.from_json_dict(data)
    with pytest.raises(ParseError, match=f"{field} must be an integer, got {value!r}"):
        PartitionedFamily.from_json_dict({**data, field: value})


def test_singleton_family():
    # every edge of K_6^3 in its own leftover group
    groups = tuple((e,) for e in itertools.combinations(range(6), 3))
    fam = PartitionedFamily(n=6, r=3, k=1, element_groups=(), leftover_groups=groups)
    assert fam.k == 1 and fam.is_complete()
    fewer = PartitionedFamily(n=6, r=3, k=1, element_groups=(), leftover_groups=groups[1:])
    assert not fewer.is_complete()


def test_is_complete_stops_once_the_binomial_passes_the_edges():
    # C(10^6, 5*10^5) has about 301,000 digits; computed exactly it took
    # seconds, and no owner table over it can be made
    start = time.perf_counter()
    with pytest.raises(ScaleLimit, match="owner table over"):
        PartitionedFamily(n=10**6, r=5 * 10**5, k=1, element_groups=(), leftover_groups=())
    assert time.perf_counter() - start < 0.1
    assert PartitionedFamily(n=2, r=3, k=1, element_groups=(), leftover_groups=()).is_complete()
    for n in range(12):
        for r in range(-1, n + 3):
            for cap in (0, 1, 5, 40, 10**6):
                got = capped_comb(n, r, cap)
                want = math.comb(n, r) if r >= 0 else 0
                assert got == want if want <= cap else got > cap, (n, r, cap)


def test_packing_file_round_trip():
    params = PackingParams.direct(**FEASIBLE)
    packing, _ = build_random_packing(params, random.Random(5), retries=50)
    buf = io.StringIO()
    write_packing(packing, buf)
    again = read_packing(io.StringIO(buf.getvalue()))
    assert again == packing
    header = buf.getvalue().splitlines()[0].split()
    assert [int(x) for x in header[:5]] == [60, 3, 8, 30, 3]


def _small_packing_text():
    packing = Packing(n=6, r=3, q=3, k=2, z=1, vertex_sets=((0, 1, 2), (3, 4, 5)),
                      edge_sets=(((0, 1, 2),), ((3, 4, 5),)))
    buf = io.StringIO()
    write_packing(packing, buf)
    return buf.getvalue().splitlines()


_token = (st.integers(-3, 12).map(str) | st.sampled_from(["100000", str(2**64), "W", "x", "1.5", ""])
          | st.text(max_size=3))
_line = st.lists(_token, max_size=7).map(" ".join)


@st.composite
def _packing_texts(draw):
    """A packing file: free lines, or a valid one with some lines replaced,
    dropped or repeated."""
    if draw(st.booleans()):
        return "\n".join(draw(st.lists(_line, max_size=10)))
    lines = _small_packing_text()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["replace", "drop", "repeat"]))
        if edit == "replace":
            lines[i] = draw(_line)
        elif edit == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
        if not lines:
            break
    return "\n".join(lines) + "\n"


@settings(max_examples=500, deadline=None)
@given(_packing_texts())
def test_packing_reader_raises_only_typed_errors(text):
    # any text gives a packing or one of three typed errors
    try:
        packing = read_packing(io.StringIO(text))
    except (ParseError, InvalidParams, ScaleLimit):
        return
    buf = io.StringIO()
    write_packing(packing, buf)
    assert read_packing(io.StringIO(buf.getvalue())) == packing


@pytest.mark.parametrize("header, error", [
    ("5 -3 4 0 2 0", ParseError), ("6 3 7 0 2 0", ParseError), ("6 3 4 0 0 0", ParseError),
    ("6 3 4 -1 2 0", ParseError), ("6 3 4 0 2 -1", ParseError),
    ("100000 3 4 0 2 0", ScaleLimit), (f"{2**64} {2**63} {2**63} 0 1 0", ScaleLimit),
])
def test_packing_header_no_packing_has_is_refused(header, error):
    # the leftover block is listed only after a header some packing can have,
    # and over at most MAX_R_SETS r-sets
    with pytest.raises(error):
        read_packing(io.StringIO(f"{header}\nW 0\n"))


def test_family_and_first_estimate_peaks_are_bounded():
    # S(3,5,65) at k=2: 4368 blocks of ten triples each
    system = build_spherical_steiner(4, 3)
    tracemalloc.start()
    try:
        fam = family_from_design(system, 2, rng=random.Random(0))
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        mc_fbar_and_bound(fam, DensitySpec(1, 2), 4000, random.Random(1))
        above = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    # the partitioner's and the checks' temporaries stay well below the family
    assert peak <= 1.5 * kept, (peak, kept)
    # the owner table holds two int32 entries per r-set; the rest is a few
    # blocks of permutations and a small int per sample
    assert above <= 8 * math.comb(fam.n, 3) + 2**21, above
