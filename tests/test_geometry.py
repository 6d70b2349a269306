import hashlib
import io
import itertools
import math
import time

import pytest

from hamforge.errors import (
    FieldDivisionError,
    InvalidParams,
    ParseError,
    ScaleLimit,
)
from hamforge.geometry import (
    FieldCtx,
    SteinerSystem,
    build_spherical_steiner,
    prime_power,
    read_design,
    verify_steiner,
    write_design,
)


def test_gf2():
    f = FieldCtx(2, 1)
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1


def test_gf4_axioms_exhaustive():
    f = FieldCtx(2, 2)
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert [f.add(a, b) for b in els].count(0) == 1  # one additive inverse
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_gf16_inverses():
    f = FieldCtx(2, 4)
    for x in range(1, 16):
        assert f.mul(x, f.inv(x)) == 1
    with pytest.raises(FieldDivisionError):
        f.inv(0)


def test_odd_characteristic_field():
    f = FieldCtx(3, 2)
    for x in range(1, 9):
        assert f.mul(x, f.inv(x)) == 1
    assert all([f.add(x, y) for y in f.elements()].count(0) == 1 for x in f.elements())


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(6) is None
    assert prime_power(1) is None


def test_subfield():
    f = FieldCtx(2, 4)
    sub = f.subfield(4)
    assert len(sub) == 4 and 0 in sub and 1 in sub
    # closed under multiplication
    for a in sub:
        for b in sub:
            assert f.mul(a, b) in sub


@pytest.mark.parametrize(
    "q, s, blocks, per_point",
    [(2, 2, 10, 6), (3, 2, 30, 12), (2, 4, 680, 120)],
)
def test_spherical_designs(q, s, blocks, per_point):
    system = build_spherical_steiner(q, s)
    assert system.n == q**s + 1
    assert len(system.blocks) == blocks == system.expected_block_count()
    assert system.expected_point_count() == per_point
    counts = [0] * system.n
    for b in system.blocks:
        for v in b:
            counts[v] += 1
    assert set(counts) == {per_point}
    assert verify_steiner(system).ok


def test_s34_block_count_formula():
    # at s=4 the closed form q^3(q^6+q^4+q^2+1) matches C(n,3)/C(q+1,3)
    q = 2
    assert q**3 * (q**6 + q**4 + q**2 + 1) == math.comb(17, 3) // math.comb(3, 3) == 680


def test_prime_power_q():
    system = build_spherical_steiner(4, 2)  # q = 4 = 2^2
    assert system.n == 17
    assert len(system.blocks) == math.comb(17, 3) // math.comb(5, 3) == 68


def test_mutations_fail_validation():
    system = build_spherical_steiner(3, 2)
    deleted = SteinerSystem(n=system.n, q=system.q, s=system.s, blocks=system.blocks[1:])
    report = verify_steiner(deleted)
    assert not report.ok
    assert any("covered 0 times" in p for p in report.problems)

    duplicated = SteinerSystem(
        n=system.n, q=system.q, s=system.s,
        blocks=system.blocks[:-1] + (system.blocks[0],),
    )
    report2 = verify_steiner(duplicated)
    assert not report2.ok
    assert any("duplicate" in p or "covered 2 times" in p for p in report2.problems)


def test_validation_problems_are_pinned():
    blocks = build_spherical_steiner(3, 2).blocks
    cases = {
        blocks[:-1] + (blocks[0],): [
            "duplicate blocks present",
            "triple (0, 1, 2) covered 2 times",
            "triple (5, 6, 8) covered 0 times",
            "point 0 lies in 13 blocks, expected 12",
        ],
        blocks + (blocks[1],) * 300: [
            "duplicate blocks present",
            "block count 330 != C(n,3)/C(q+1,3) = 30",
            "triple (0, 1, 4) covered 301 times",
            "point 0 lies in 312 blocks, expected 12",
        ],
        (): [
            "block count 0 != C(n,3)/C(q+1,3) = 30",
            "triple (0, 1, 2) covered 0 times",
            "point 0 lies in 0 blocks, expected 12",
        ],
    }
    for mutated, problems in cases.items():
        report = verify_steiner(SteinerSystem(n=10, q=3, s=2, blocks=mutated))
        assert list(report.problems) == problems


def test_invalid_and_scale_params():
    with pytest.raises(InvalidParams):
        build_spherical_steiner(6, 2)
    with pytest.raises(InvalidParams):
        build_spherical_steiner(2, 1)
    with pytest.raises(ScaleLimit):
        build_spherical_steiner(11, 5)
    # C(513,3) = 22,413,856 triples: refused before any block is built
    start = time.perf_counter()
    with pytest.raises(ScaleLimit):
        build_spherical_steiner(2, 9)
    assert time.perf_counter() - start < 0.5


def test_triple_coverage_exhaustive_uniqueness():
    system = build_spherical_steiner(2, 2)
    # S(3,3,5): blocks are exactly the 10 triples of a 5-set
    assert set(system.blocks) == set(itertools.combinations(range(5), 3))


def test_design_io_round_trip():
    system = build_spherical_steiner(3, 2)
    buf = io.StringIO()
    write_design(system, buf)
    again = read_design(io.StringIO(buf.getvalue()))
    assert again == system
    first = buf.getvalue().splitlines()[0]
    assert first == "10 3 2 30"


def test_design_parse_errors():
    with pytest.raises(ParseError):
        read_design(io.StringIO("10 3 2\n"))
    with pytest.raises(ParseError) as err:
        read_design(io.StringIO("10 3 2 1\n0 1 2\n"))
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("q, s, digest", [
    (2, 5, "9300c92a8cf15fc2"), (3, 3, "7d264210f3ffc5cf"), (3, 4, "0d52c69e7035ff7e"),
    (4, 3, "2b9a2097f2da0596"), (5, 2, "d970461dbc5c87bb"), (7, 2, "c9ca679b771ff264"),
    (9, 2, "ac5c5acdb8ddfba0"),
])
def test_designs_are_pinned(q, s, digest):
    blocks = build_spherical_steiner(q, s).blocks
    assert hashlib.sha256(repr(blocks).encode()).hexdigest()[:16] == digest


def test_fields_are_pinned():
    assert (FieldCtx(3, 4).modulus, FieldCtx(3, 4).generator) == ([2, 1, 0, 0, 1], 3)
    assert (FieldCtx(7, 3).modulus, FieldCtx(7, 3).generator) == ([2, 0, 0, 1], 22)
    assert FieldCtx(2, 9).generator == 7
