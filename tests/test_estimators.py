import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hamforge.counting import exact_ham_count, expectation_value
from hamforge import estimators
from hamforge.errors import (
    FamilyIncomplete,
    FamilyKindMismatch,
    InsufficientGoodSamples,
    InvalidParams,
    ScaleLimit,
)
from hamforge.estimators import (
    MC_BLOCK,
    Estimate,
    classify,
    gbar_star_formula,
    mc_expected_H,
    mc_fbar_and_bound,
)
from hamforge.geometry import build_spherical_steiner
from hamforge.hypercore import Hypergraph, symmetry_images
from hamforge.packing import (
    FamilyElement,
    PartitionedFamily,
    family_from_design,
)
from hamforge.randmodels import DensitySpec


def singleton_leftover_family(n, r):
    """Every edge of K_n^r in its own leftover group: no two windows share a
    group, so every permutation is good with f = n and g = 0."""
    groups = tuple((e,) for e in itertools.combinations(range(n), r))
    return PartitionedFamily(n=n, r=r, k=1, element_groups=(), leftover_groups=groups)


def classify_oracle(perm, fam):
    """Definition-level reimplementation: scan every group for ownership."""
    n, r = fam.n, fam.r
    doubled = tuple(perm) + tuple(perm)[: r - 1]
    windows = [tuple(sorted(doubled[i : i + r])) for i in range(n)]
    owners = []
    for w in windows:
        found = None
        for gi, grp in enumerate(fam.element_groups):
            for ei, el in enumerate(grp):
                if w in el.edges:
                    found = ("L", gi, ei)
        for gi, grp in enumerate(fam.leftover_groups):
            if w in grp:
                found = ("W", gi)
        if found is None:
            raise LookupError(w)
        owners.append(found)
    bad = False
    for gi in range(len(fam.element_groups)):
        members = {o[2] for o, w in zip(owners, windows) if o[:2] == ("L", gi)}
        if len(members) > 1:
            bad = True
    for gi in range(len(fam.leftover_groups)):
        ws = [w for o, w in zip(owners, windows) if o == ("W", gi)]
        if len(ws) > 1:
            bad = True
    g = sum(
        1
        for i in range(n)
        if owners[i][0] == "L" and owners[i] == owners[(i + 1) % n]
    )
    if bad:
        return ("bad", None, g)
    touched = {o[:2] for o in owners}
    return ("good", len(touched), g)


def _key_rows(n, rows, rng):
    """The pass's reference stream, without numpy: one `randbytes` read per
    block, cut into 8-byte little-endian keys; each row lists its positions
    in key order."""
    data = rng.randbytes(8 * rows * n)
    keys = [int.from_bytes(data[8 * i : 8 * i + 8], "little") for i in range(rows * n)]
    return [
        tuple(sorted(range(n), key=lambda j: keys[t * n + j])) for t in range(rows)
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 16, 17, 33, 64, 65, 82, 129])
def test_permutation_rows_follow_the_shuffle_stream(n):
    # a read of the wrong length, the wrong byte order or the wrong key width
    # gives other rows or leaves another state
    for seed in range(5):
        rng, ref = random.Random(seed), random.Random(seed)
        rows = estimators._permutation_rows(n, 7, rng)
        assert rows.dtype == np.intp and rows.shape == (7, n)
        assert [tuple(row) for row in rows.tolist()] == _key_rows(n, 7, ref)
        assert rng.getstate() == ref.getstate()


def test_pass_leaves_the_stream_where_per_sample_shuffles_do(fam17):
    # one read per block of the pass: a full MC_BLOCK, then the 5 left over
    rng, ref = random.Random(7), random.Random(7)
    mc_fbar_and_bound(fam17, DensitySpec(1, 2), MC_BLOCK + 5, rng)
    for rows in (MC_BLOCK, 5):
        ref.randbytes(8 * rows * fam17.n)
    assert rng.getstate() == ref.getstate()


def test_permutation_rows_are_uniform():
    # seed and threshold fixed before the first run: the chi-square over the
    # 24 permutations of 4 points stays below 49.73, the df = 23, p = 0.001
    # critical value
    rows = estimators._permutation_rows(4, 24_000, random.Random(0))
    counts = {}
    for row in map(tuple, rows.tolist()):
        counts[row] = counts.get(row, 0) + 1
    assert set(counts) == set(itertools.permutations(range(4)))
    expected = 24_000 / 24
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 49.73
    for n in (82, 129):
        rows = estimators._permutation_rows(n, 300, random.Random(n))
        assert (np.sort(rows, axis=1) == np.arange(n)).all()


def test_the_pass_does_not_import_numpy_random():
    # importing numpy.random raised ru_maxrss by 5.5 MiB after
    # `import hamforge.cli` (30.4 -> 35.9 MiB), past the benchmark's 5% peak
    # memory bound on family-estimate
    code = (
        "import itertools, random, sys\n"
        "import hamforge.cli\n"
        "from hamforge.estimators import mc_fbar_and_bound\n"
        "from hamforge.packing import PartitionedFamily\n"
        "from hamforge.randmodels import DensitySpec\n"
        "groups = tuple((e,) for e in itertools.combinations(range(8), 3))\n"
        "fam = PartitionedFamily(n=8, r=3, k=1, element_groups=(), leftover_groups=groups)\n"
        "mc_fbar_and_bound(fam, DensitySpec(1, 2), 300, random.Random(1))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_window_network_sorts_like_np_sort(r):
    # every window of the block against np.sort, through the owner table of
    # the complete singleton family, which maps each r-set to itself
    n = r + 5
    fam = singleton_leftover_family(n, r)
    rng = np.random.default_rng(r)
    perms = np.array([rng.permutation(n) for _ in range(40)], dtype=np.intp)
    # with k = 1 a member id is its group
    ids = estimators._window_owners(perms, fam)
    doubled = np.concatenate([perms, perms[:, : r - 1]], axis=1)
    windows = np.sort(np.lib.stride_tricks.sliding_window_view(doubled, r, axis=1), axis=-1)
    windows = [tuple(w) for w in windows.reshape(-1, r).tolist()]
    assert [fam.leftover_groups[g][0] for g in ids.ravel().tolist()] == windows
    # without two of its r-sets the family fails on the one met first in row order
    gone = {windows[7 * n + 3], windows[2 * n + 5]}
    first = next(w for w in windows if w in gone)
    kept = tuple(g for g in fam.leftover_groups if g[0] not in gone)
    holed = PartitionedFamily(n=n, r=r, k=1, element_groups=(), leftover_groups=kept)
    with pytest.raises(FamilyIncomplete, match=f"window {re.escape(str(first))} is not"):
        estimators._window_owners(perms, holed)


@pytest.fixture(scope="module")
def fam17():
    return family_from_design(build_spherical_steiner(2, 4), 2, rng=random.Random(0))


@pytest.fixture(scope="module")
def fam10():
    return family_from_design(build_spherical_steiner(3, 2), 1)


def test_classify_matches_oracle(fam17, fam10):
    rng = random.Random(6)
    for fam in (fam17, fam10):
        for _ in range(25):
            perm = tuple(rng.sample(range(fam.n), fam.n))
            got = classify(perm, fam)
            want = classify_oracle(perm, fam)
            assert (got.verdict, got.f_value, got.g_value) == want
    ident = tuple(range(fam17.n))
    got = classify(ident, fam17)
    assert (got.verdict, got.f_value, got.g_value) == classify_oracle(ident, fam17)


@pytest.fixture(scope="module")
def fam40():
    # packing-derived family: element groups and leftover (W) groups
    from hamforge.packing import PackingParams, build_random_packing, family_from_packing

    params = PackingParams.direct(n=40, r=3, k=2, q=6, K=10, M=1, tau=1)
    packing, _ = build_random_packing(params, random.Random(0), retries=30)
    return family_from_packing(packing, rng=random.Random(0))


def test_classify_with_leftover_groups(fam40):
    rng = random.Random(1)
    for _ in range(5):
        perm = tuple(rng.sample(range(40), 40))
        got = classify(perm, fam40)
        assert (got.verdict, got.f_value, got.g_value) == classify_oracle(perm, fam40)


def test_witness_names_its_group(fam40):
    # a bad permutation's witness names the group, by kind and index within
    # that kind, that holds two of its windows in distinct members
    rng = random.Random(1)
    kinds = set()
    for _ in range(200):
        c = classify(tuple(rng.sample(range(40), 40)), fam40)
        if c.is_good:
            assert c.witness is None
            continue
        kind, gi, w1, w2 = c.witness
        kinds.add(kind)
        if kind == "L":
            grp = fam40.element_groups[gi]
            m1, m2 = (next(i for i, el in enumerate(grp) if w in el.edges) for w in (w1, w2))
            assert m1 != m2
        else:
            assert kind == "W" and w1 != w2 and {w1, w2} <= set(fam40.leftover_groups[gi])
    assert kinds == {"L", "W"}


def test_classify_symmetry(fam17):
    rng = random.Random(12)
    perm = tuple(rng.sample(range(17), 17))
    base = classify(perm, fam17)
    for img in symmetry_images(perm):
        c = classify(img, fam17)
        assert (c.verdict, c.f_value, c.g_value) == (base.verdict, base.f_value, base.g_value)


def test_adversarial_bad_permutation(fam17):
    grp = fam17.element_groups[0]
    b1, b2 = grp[0].vertices, grp[1].vertices
    rest = [v for v in range(17) if v not in b1 and v not in b2]
    perm = tuple(list(b1) + rest[:5] + list(b2) + rest[5:])
    c = classify(perm, fam17)
    assert not c.is_good
    kind, gi, w1, w2 = c.witness
    assert (kind, gi) == ("L", 0)
    assert {w1, w2} == {tuple(sorted(b1)), tuple(sorted(b2))}


def test_singleton_family_all_good():
    fam = singleton_leftover_family(8, 3)
    rng = random.Random(3)
    for _ in range(10):
        perm = tuple(rng.sample(range(8), 8))
        c = classify(perm, fam)
        assert c.is_good and c.f_value == 8 and c.g_value == 0
    report = mc_fbar_and_bound(fam, DensitySpec(1, 2), 200, random.Random(1))
    assert report.bad_fraction.mean == 0.0


def test_incomplete_family_raises():
    el = FamilyElement(vertices=(0, 1, 2), edges=((0, 1, 2),))
    fam = PartitionedFamily(n=6, r=3, k=1, element_groups=((el,),), leftover_groups=())
    with pytest.raises(FamilyIncomplete):
        classify(tuple(range(6)), fam)


def test_classify_rejects_wrong_length(fam17):
    with pytest.raises(InvalidParams):
        classify(tuple(range(10)), fam17)


def test_incomplete_family_raises_through_the_pass():
    el = FamilyElement(vertices=(0, 1, 2), edges=((0, 1, 2),))
    fam = PartitionedFamily(n=6, r=3, k=1, element_groups=((el,),), leftover_groups=())
    # the first window of the first sample that the family cannot locate
    perm = tuple(estimators._permutation_rows(6, 5, random.Random(4))[0].tolist())
    doubled = perm + perm[:2]
    want = next(w for w in (tuple(sorted(doubled[i : i + 3])) for i in range(6)) if w != (0, 1, 2))
    with pytest.raises(FamilyIncomplete, match=f"window {re.escape(str(want))} is not"):
        mc_fbar_and_bound(fam, DensitySpec(1, 2), 5, random.Random(4))


@pytest.mark.parametrize("name", ["fam17", "fam10", "fam40", "singleton"])
def test_pass_matches_per_sample_classify(name, request, monkeypatch):
    # the block pass feeds Estimate.of the same lists, in sample order, as
    # classifying each row of the twin stream's blocks one at a time
    fam = singleton_leftover_family(8, 3) if name == "singleton" else request.getfixturevalue(name)
    samples = 2 * MC_BLOCK + 37
    stream = random.Random(41)
    perms = []
    for start in range(0, samples, MC_BLOCK):
        rows = estimators._permutation_rows(fam.n, min(MC_BLOCK, samples - start), stream)
        perms += [tuple(row) for row in rows.tolist()]
    want = {"bad": [], "f": [], "g": [], "g_all": []}
    for perm in perms:
        c = classify(perm, fam)
        want["g_all"].append(float(c.g_value))
        want["bad"].append(0.0 if c.is_good else 1.0)
        if c.is_good:
            want["f"].append(float(c.f_value))
            want["g"].append(float(c.g_value))

    seen = []
    original = Estimate.of.__func__

    def record(cls, values):
        seen.append(list(values))
        return original(cls, values)

    monkeypatch.setattr(Estimate, "of", classmethod(record))
    mc_fbar_and_bound(fam, DensitySpec(1, 2), samples, random.Random(41))
    assert seen == [want["bad"], want["f"], want["g"], want["g_all"]]
    if name == "fam40":
        assert 0 < sum(want["bad"]) < samples


def test_owner_table_scale_limit():
    # C(2000, 3) r-sets: the family, and so any classification, is refused
    with pytest.raises(ScaleLimit, match="owner table over"):
        PartitionedFamily(n=2000, r=3, k=1, element_groups=(), leftover_groups=())


def test_gbar_star_steiner17_zero(fam17):
    report = mc_fbar_and_bound(fam17, DensitySpec(1, 2), 2000, random.Random(5))
    assert report.gbar_star_exact == 0.0
    assert report.gbar_star.mean == 0.0


def test_gbar_star_s3410_formula(fam10):
    assert gbar_star_formula(fam10) == pytest.approx(10 / 7)
    g_star = mc_fbar_and_bound(fam10, DensitySpec(1, 2), 30_000, random.Random(8)).gbar_star
    assert abs(g_star.mean - 10 / 7) <= g_star.ci3


def test_gbar_star_formula_guard():
    fam = singleton_leftover_family(8, 3)
    with pytest.raises(FamilyKindMismatch):
        gbar_star_formula(fam)


def test_fbar_bound_singleton_family_recovers_expectation():
    fam = singleton_leftover_family(8, 3)
    # k=1 cannot host a DensitySpec; classification-level check instead:
    # every permutation is good with f = n, so the bound with density p would
    # be exactly E(n,p). Verify via the report pieces on a k=2 pairing family.
    rng = random.Random(2)
    for _ in range(50):
        perm = tuple(rng.sample(range(8), 8))
        c = classify(perm, fam)
        assert c.f_value == 8 == fam.n


def test_fbar_report_consistency(fam17):
    spec = DensitySpec(1, 2)
    report = mc_fbar_and_bound(fam17, spec, 3000, random.Random(10), seed=10)
    assert report.fbar.mean <= fam17.n - report.gbar.mean + 1e-9
    assert report.log2_ratio == pytest.approx(report.log2_bound - report.log2_expectation)
    data = report.to_json_dict()
    assert data["p"] == {"num": 1, "den": 2}
    assert data["seed"] == 10
    # q=2 blocks hold a single triple each: every good permutation has f = n
    assert report.fbar.mean == 17.0
    assert report.gbar.mean == 0.0


def test_fbar_report_reproducible(fam17):
    spec = DensitySpec(1, 2)
    a = mc_fbar_and_bound(fam17, spec, 500, random.Random(99))
    b = mc_fbar_and_bound(fam17, spec, 500, random.Random(99))
    assert a == b


def test_union_bound_sanity(fam17):
    # exact worst-case pair collision: the partner block of a disjoint window
    est = mc_fbar_and_bound(fam17, DensitySpec(1, 2), 3000, random.Random(20)).bad_fraction
    q, n, k = 2, 17, 2
    pair = (k - 1) * ((q + 1) * q * (q - 1)) / ((n - 3) * (n - 4) * (n - 5))
    assert est.mean <= n**2 * pair


def test_insufficient_good_samples():
    # pair the 15 edges of K_6 into 5 perfect matchings: every Hamiltonian
    # cycle has 6 windows over 5 groups, so some group holds two of them
    rounds = []
    vs = list(range(1, 6))
    for i in range(5):
        matches = [tuple(sorted((0, vs[i])))]
        for j in range(1, 3):
            a, b = vs[(i + j) % 5], vs[(i - j) % 5]
            matches.append(tuple(sorted((a, b))))
        rounds.append(tuple(matches))
    fam = PartitionedFamily(
        n=6, r=2, k=3, element_groups=(), leftover_groups=tuple(rounds)
    )
    assert fam.is_complete()
    with pytest.raises(InsufficientGoodSamples):
        mc_fbar_and_bound(fam, DensitySpec(1, 3), 200, random.Random(1))


def test_mc_expected_h_and_ratio(fam17):
    spec = DensitySpec(1, 2)
    report = mc_expected_H(fam17, spec, 3, random.Random(30))
    assert report.builds == 3 and len(report.values) == 3
    assert report.mean == pytest.approx(sum(report.values) / 3)
    # complete graph at p = 1: the ratio to expectation is exactly 1
    h = exact_ham_count(Hypergraph.complete(8, 3)).count
    assert h / expectation_value(8, 1.0) == pytest.approx(1.0)


def test_leftover_only_family_bound_consistency():
    # leftover-edge groups only: the group-choice model degenerates to one
    # fair coin per group, and the expected count equals the AM-GM bound
    # estimate up to Monte Carlo noise on both sides
    import itertools
    import math as m

    from hamforge.packing import partition_into_disjoint_groups

    triples = list(itertools.combinations(range(8), 3))
    groups = partition_into_disjoint_groups(triples, 2, vertex_key=lambda e: e)
    fam = PartitionedFamily(
        n=8, r=3, k=2,
        element_groups=(),
        leftover_groups=tuple(tuple(g) for g in groups),
    )
    assert fam.is_complete()
    spec = DensitySpec(1, 2)
    est = mc_fbar_and_bound(fam, spec, 4000, random.Random(31))
    report = mc_expected_H(fam, spec, 400, random.Random(32))
    mean_est = report.mean_estimate()
    sigma_bound = est.bound_linear * est.bad_fraction.ci3 / (3 * (1 - est.bad_fraction.mean))
    margin = 3 * m.sqrt(sigma_bound**2 + (mean_est.ci3 / 3) ** 2)
    assert report.mean >= est.bound_linear - margin
