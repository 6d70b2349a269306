import io
import json
import multiprocessing
import re
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hamforge.cli import main
from hamforge.geometry import build_spherical_steiner, write_design


def run(argv):
    return main([str(a) for a in argv])


def test_steiner_and_count(tmp_path, capsys):
    design = tmp_path / "d.txt"
    assert run(["steiner", "--q", 2, "--s", 4, "--out", design]) == 0
    lines = design.read_text().splitlines()
    assert lines[0] == "17 2 4 680"
    assert len(lines) == 681

    graph = tmp_path / "k7.txt"
    assert run(["construct", "--kind", "complete", "--n", 7, "--r", 3, "--out", graph]) == 0
    assert run(["count", "--in", graph]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == "360"
    assert out["method"] == "subset_dp"


def test_count_brute_method(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    run(["construct", "--kind", "turan", "--n", 6, "--k", 3, "--out", graph])
    assert run(["count", "--in", graph, "--method", "brute"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == "16" and out["method"] == "brute_force"


def test_count_dp_method(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    run(["construct", "--kind", "turan", "--n", 6, "--k", 3, "--out", graph])
    capsys.readouterr()
    for extra in ([], ["--method", "dp"]):
        assert run(["count", "--in", graph, *extra]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["count"] == "16" and out["method"] == "subset_dp"
    with pytest.raises(SystemExit) as exc:
        run(["count", "--in", graph, "--method", "auto"])
    assert exc.value.code == 1


def test_family_build_audit_estimate(tmp_path, capsys):
    design = tmp_path / "d.txt"
    fam = tmp_path / "fam.json"
    graph = tmp_path / "g.txt"
    run(["steiner", "--q", 2, "--s", 4, "--out", design])
    assert run(["family", "--design", design, "--k", 2, "--seed", 1, "--out", fam]) == 0
    assert run(["build", "--family", fam, "--l", 1, "--seed", 7, "--out", graph]) == 0
    assert graph.read_text().splitlines()[0] == "17 3 340"

    assert run(["audit", "--in", graph, "--eps", 0.25, "--samples", 100,
                "--seed", 3, "--p", "1/2"]) == 0
    audit = json.loads(capsys.readouterr().out)
    assert audit["samples"] == 100 and audit["p"] == 0.5

    report = tmp_path / "est.json"
    assert run(["estimate", "--family", fam, "--p", "1/2", "--samples", 500,
                "--seed", 5, "--out", report]) == 0
    est = json.loads(report.read_text())
    assert est["p"] == {"num": 1, "den": 2}
    assert est["fbar"]["mean"] == 17.0

    csv_out = tmp_path / "est.csv"
    assert run(["estimate", "--family", fam, "--p", "1/2", "--samples", 200,
                "--seed", 5, "--format", "csv", "--out", csv_out]) == 0
    header = csv_out.read_text().splitlines()[0]
    assert header.startswith("family,n,r,p,samples,bad_mean")


def test_estimate_density_must_match_k(tmp_path, capsys):
    design = tmp_path / "d.txt"
    fam = tmp_path / "fam.json"
    report = tmp_path / "est.json"
    run(["steiner", "--q", 2, "--s", 4, "--out", design])
    run(["family", "--design", design, "--k", 2, "--seed", 1, "--out", fam])
    capsys.readouterr()
    assert run(["estimate", "--family", fam, "--p", "1/3", "--samples", 200,
                "--seed", 1, "--out", report]) == 2
    assert capsys.readouterr().err == (
        "InvalidParams: density denominator 3 must equal the family's k = 2\n"
    )
    assert not report.exists()


def test_pack_subcommand(tmp_path, capsys):
    out = tmp_path / "p.txt"
    assert run(["pack", "--n", 60, "--r", 3, "--k", 3, "--q", 8, "--K", 30,
                "--M", 1, "--tau", 1, "--seed", 2, "--out", out]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["attempts"] >= 1
    assert out.read_text().split()[0:3] == ["60", "3", "8"]


def test_exit_codes(tmp_path, capsys):
    assert run(["count", "--in", tmp_path / "missing.txt"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.txt"
    bad.write_text("5 3 1\n0 1 1\n")
    assert run(["count", "--in", bad]) == 2
    err = capsys.readouterr().err
    assert "ParseError" in err and "line 2" in err

    with pytest.raises(SystemExit) as exc:
        run(["count"])  # missing required --in
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run(["bogus-subcommand"])
    assert exc.value.code == 1


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-1"])
def test_bad_mem_budget_exits_2(tmp_path, capsys, monkeypatch, value):
    graph = tmp_path / "k7.txt"
    run(["construct", "--kind", "complete", "--n", 7, "--r", 3, "--out", graph])
    capsys.readouterr()
    monkeypatch.setenv("HAMFORGE_MEM_GIB", value)
    assert run(["count", "--in", graph]) == 2
    assert capsys.readouterr().err == (
        f"InvalidParams: HAMFORGE_MEM_GIB must be a finite number > 0, got {value!r}\n"
    )


def test_domain_error_verbatim(tmp_path, capsys):
    design = tmp_path / "d.txt"
    run(["steiner", "--q", 2, "--s", 2, "--out", design])
    capsys.readouterr()
    # S(3,3,5) blocks can never pair disjointly on 5 points: two disjoint
    # triples need 6, so the partitioner refuses before any pass
    assert run(["family", "--design", design, "--k", 2, "--seed", 1,
                "--out", tmp_path / "f.json"]) == 2
    assert capsys.readouterr().err == (
        "InvalidParams: 2 disjoint items of at least 3 vertices each "
        "cannot fit in 5 vertices\n"
    )
    # S(3,4,10) passes that count but no pass pairs its blocks
    run(["steiner", "--q", 3, "--s", 2, "--out", design])
    capsys.readouterr()
    assert run(["family", "--design", design, "--k", 2, "--seed", 1,
                "--out", tmp_path / "f.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("PartitionFailed: ") and "best pass placed" in err


@pytest.mark.parametrize("argv, message", [
    (["--kind", "complete", "--n", 5, "--r", 1], "uniformity r must be >= 2, got 1"),
    (["--kind", "complete", "--n", -3], "vertex count n must be >= 0, got -3"),
    (["--kind", "empty", "--n", 5, "--r", 0], "uniformity r must be >= 2, got 0"),
], ids=["r1", "n-negative", "empty-r0"])
def test_construct_bad_size_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "g.txt"
    assert run(["construct", *argv, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"InvalidParams: {message}\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("field", ["n", "r", "k", "steiner_q"])
@pytest.mark.parametrize("command", [
    ["estimate", "--p", "1/2", "--samples", 10, "--seed", 5],
    ["build", "--l", 1, "--seed", 5],
], ids=["estimate", "build"])
def test_infinite_family_size_exits_2(tmp_path, capsys, field, command):
    # Python's json reads Infinity, and int() of it overflows
    data = {"n": 6, "r": 3, "k": 2, "steiner_q": None, "element_groups": [], "leftover_groups": []}
    fam = tmp_path / "f.json"
    fam.write_text(json.dumps({**data, field: float("inf")}))
    assert "Infinity" in fam.read_text()
    assert run([command[0], "--family", fam, *command[1:], "--out", tmp_path / "o"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "ParseError: malformed family JSON: cannot convert float infinity to integer\n"
    assert captured.out == ""


def test_fractional_family_size_exits_2(tmp_path, capsys):
    # int() would read 6.7 as 6 and load the family
    fam = tmp_path / "f.json"
    fam.write_text(json.dumps({"n": 6.7, "r": 3, "k": 1, "steiner_q": None,
                               "element_groups": [], "leftover_groups": [[[0, 1, 2]]]}))
    assert run(["build", "--family", fam, "--l", 1, "--seed", 5, "--out", tmp_path / "o"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "ParseError: malformed family JSON: n must be an integer, got 6.7\n"
    assert captured.out == ""


@pytest.mark.parametrize("header, error", [
    ("5 -3 4 0 2 0", "ParseError: line 1: no packing has the header '5 -3 4 0 2 0'"),
    ("100000 3 4 0 2 0", "ScaleLimit: listing the leftover edges means enumerating C(100000,3)"),
], ids=["negative-r", "huge-n"])
def test_impossible_packing_header_exits_2(tmp_path, capsys, header, error):
    bad = tmp_path / "p.txt"
    bad.write_text(f"{header}\nW 0\n")
    start = time.perf_counter()
    assert run(["family", "--packing", bad, "--k", 2, "--seed", 1,
                "--out", tmp_path / "f.json"]) == 2
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith(error) and "Traceback" not in err, err


def test_experiment_preset_reproducible(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert run(["experiment", "--preset", "multipartite-words", "--seed", 11,
                    "--workers", 1, "--out-dir", d]) == 0
    capsys.readouterr()
    a = (dirs[0] / "multipartite-words-report.json").read_bytes()
    b = (dirs[1] / "multipartite-words-report.json").read_bytes()
    assert a == b
    report = json.loads(a)
    assert report["formula_matches_enumeration"] is True
    assert report["all_cycles_valid"] is True
    assert report["config"]["seed"] == 11


def test_experiment_crown(tmp_path, capsys):
    assert run(["experiment", "--preset", "crown-lower-bound", "--seed", 1,
                "--out-dir", tmp_path]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "crown-lower-bound-report.json").read_text())
    assert report["all_checks"] is True
    assert [row["n"] for row in report["rows"]] == [8, 10, 12]


@pytest.mark.parametrize("vertex_line", ["0 1 x", "0 1 9"])
def test_malformed_packing_exits_2(tmp_path, capsys, vertex_line):
    # header n r q K k z, then one element: its vertex line and one edge
    bad = tmp_path / "p.txt"
    bad.write_text(f"6 3 3 1 2 1\n{vertex_line}\n0 1 2\nW 0\n")
    assert run(["family", "--packing", bad, "--k", 2, "--seed", 1,
                "--out", tmp_path / "f.json"]) == 2
    err = capsys.readouterr().err
    assert "ParseError" in err and "line 2" in err and "Traceback" not in err


def _cut_w_block(lines):
    w = next(i for i, line in enumerate(lines) if line.startswith("W "))
    return [
        (lines[:-1], len(lines), "expected leftover edge"),  # truncated inside the block
        (lines[:w], w + 1, "expected leftover header"),  # block missing
        (lines[:w] + ["W x"] + lines[w + 1:], w + 1, "expected leftover header"),
        (lines[:w] + [f"W {len(lines) - w}"] + lines[w + 1:], w + 1, "W block lists"),
        (lines[:w + 1] + [lines[w + 2], lines[w + 1]] + lines[w + 3:], w + 2,
         "expected leftover edge"),
    ]


def test_packing_w_block_is_checked(tmp_path, capsys):
    good = tmp_path / "p.txt"
    assert run(["pack", "--n", 12, "--r", 3, "--k", 2, "--q", 4, "--K", 4, "--M", 1,
                "--tau", 1, "--seed", 2, "--out", good]) == 0
    bad = tmp_path / "bad.txt"
    for lines, lineno, message in _cut_w_block(good.read_text().splitlines()):
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["family", "--packing", bad, "--k", 2, "--seed", 1,
                    "--out", tmp_path / "f.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ParseError: line {lineno}: {message}"), err


def test_truncated_family_json_exits_2(tmp_path, capsys):
    design = tmp_path / "d.txt"
    fam = tmp_path / "fam.json"
    run(["steiner", "--q", 2, "--s", 4, "--out", design])
    run(["family", "--design", design, "--k", 2, "--seed", 1, "--out", fam])
    fam.write_text(fam.read_text()[:200])
    capsys.readouterr()
    assert run(["estimate", "--family", fam, "--p", "1/2", "--samples", 10,
                "--seed", 5]) == 2
    err = capsys.readouterr().err
    assert "ParseError" in err and "Traceback" not in err


@pytest.mark.parametrize("member, error", [
    ({"vertices": [0, 1, 5], "edges": [[0, 1, 9]]}, "InvalidParams"),  # edge outside [0, n)
    ({"vertices": [0, 1, 9], "edges": [[0, 1, 9]]}, "InvalidParams"),  # vertex outside [0, n)
    ({"vertices": [0, 1, 5], "edges": [[1, 0, 5]]}, "InvalidParams"),  # edge not increasing
    ({"vertices": [0, 1, 5], "edges": [[0, 1]]}, "InvalidParams"),  # edge of the wrong size
    ({"vertices": [0, 1, 5], "edges": [[0, 1, 2.0]]}, "InvalidParams"),  # not an int
    ({"vertices": [0, 1, 5], "edges": [[0, 1, [5]]]}, "ParseError"),  # not a vertex at all
    ({"vertices": [0, 1, 5], "edges": [[False, True, 5]]}, "InvalidParams"),  # a bool, not an int
    ({"vertices": [0, 1, 5], "edges": [[1, 3, 5]]}, "InvalidParams"),  # edge outside its member
    ({"vertices": [0, 0, 1, 5], "edges": [[0, 1, 5]]}, "InvalidParams"),  # a repeated vertex
])
def test_family_with_a_bad_member_exits_2_on_every_seed(tmp_path, capsys, member, error):
    # the build picks one member of the pair per seed, so a family checked
    # only where it is read would fail on some seeds and build on others
    fam = tmp_path / "f.json"
    fam.write_text(json.dumps({
        "n": 6, "r": 3, "k": 2, "steiner_q": None, "leftover_groups": [],
        "element_groups": [[member, {"vertices": [2, 3, 4], "edges": [[2, 3, 4]]}]],
    }))
    for seed in range(1, 12):
        assert run(["build", "--family", fam, "--l", 1, "--seed", seed,
                    "--out", tmp_path / "g.txt"]) == 2, seed
        err = capsys.readouterr().err
        assert err.startswith(error) and "Traceback" not in err, err


def test_family_with_r_near_n_exits_cleanly(tmp_path, capsys):
    # C(100, 98) = 4950 r-sets; a colex table of C(v, i+1) over every v < n
    # and i < r would hold C(99, 49), past int64
    fam = tmp_path / "f.json"
    fam.write_text(json.dumps({
        "n": 100, "r": 98, "k": 2, "steiner_q": None, "leftover_groups": [],
        "element_groups": [[{"vertices": list(range(98)), "edges": [list(range(98))]},
                            {"vertices": [98, 99], "edges": []}]],
    }))
    for argv in (["estimate", "--family", fam, "--p", "1/2", "--samples", 10, "--seed", 1],
                 ["build", "--family", fam, "--l", 1, "--seed", 1, "--out", tmp_path / "g.txt"]):
        start = time.perf_counter()
        assert run(argv) in (0, 2)
        assert time.perf_counter() - start < 1.0
        assert "Traceback" not in capsys.readouterr().err


def _experiment_files(out_dir, preset, workers, extra):
    assert run(["experiment", "--preset", preset, "--seed", 42, "--workers", workers,
                "--out-dir", out_dir, *extra]) == 0
    assert multiprocessing.active_children() == []  # the pool is joined
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("preset, extra", [
    ("steiner17-half", ["--samples", 300, "--builds", 2]),
    ("packing-direct", ["--runs", 2, "--retries", 2]),
])
def test_experiment_report_is_the_same_for_every_worker_count(tmp_path, capsys, preset, extra):
    files = [_experiment_files(tmp_path / f"w{w}", preset, w, extra) for w in (1, 2, 3)]
    assert files[0] and files[0] == files[1] == files[2]
    assert "workers" not in json.loads(files[0][f"{preset}-report.json"])["config"]


def test_worker_domain_error_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HAMFORGE_MEM_GIB", "0.0001")
    errs = []
    for w in (1, 2):
        assert run(["experiment", "--preset", "steiner17-half", "--seed", 42, "--samples", 300,
                    "--builds", 2, "--workers", w, "--out-dir", tmp_path]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0].startswith("ScaleLimit: ") and errs[0] == errs[1]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_experiment_workers_below_1_is_a_usage_error(tmp_path, capsys, workers):
    with pytest.raises(SystemExit) as exc:
        run(["experiment", "--preset", "crown-lower-bound", "--seed", 1,
             "--workers", workers, "--out-dir", tmp_path])
    assert exc.value.code == 1
    assert f"must be >= 1, got {workers}" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    (["--eps", 0.1, "--p", "0/0"], "need 0 < num < den, got 0/0"),
    (["--eps", 0], "epsilon must be positive and finite, got 0.0"),
    (["--eps", "nan"], "epsilon must be positive and finite, got nan"),
    (["--eps", "inf"], "epsilon must be positive and finite, got inf"),
    (["--eps", 0.1, "--samples", -5], "samples must be >= 0, got -5"),
])
def test_malformed_audit_input_exits_2(tmp_path, capsys, extra, message):
    graph = tmp_path / "k8.txt"
    run(["construct", "--kind", "complete", "--n", 8, "--r", 3, "--out", graph])
    capsys.readouterr()
    assert run(["audit", "--in", graph, "--seed", 1, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"InvalidParams: {message}\n" and captured.out == ""


PACK_ARGS = ["pack", "--n", 30, "--r", 3, "--k", 1, "--q", 6, "--K", 4, "--M", 1, "--seed", 2]


@pytest.mark.parametrize("tau", ["nan", "-1", "inf"])
def test_pack_tau_must_be_positive_and_finite(tmp_path, capsys, tau):
    out = tmp_path / "p.txt"
    assert run([*PACK_ARGS, "--tau", tau, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"InvalidParams: tau must be positive and finite, got {float(tau)}\n"
    assert not out.exists()


def test_pack_out_of_retries_names_its_shortfall(tmp_path, capsys):
    # criterion 9's parameters: every attempt fails the trim, and the one-line
    # message says by how many edges the nearest one missed
    out = tmp_path / "p.txt"
    assert run(["pack", "--n", 60, "--r", 3, "--k", 3, "--q", 8, "--K", 210, "--M", 3,
                "--tau", 2, "--retries", 5, "--seed", 0, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("RetryBudgetExhausted: no valid packing in 5")
    shortfall = re.search(r"smallest claim-3 shortfall max\(red\) - z = (\d+);", err)
    assert shortfall and int(shortfall.group(1)) >= 1
    assert "'claim3_trim': 5" in err
    assert not out.exists()


@pytest.mark.parametrize("retries", ["0", "-3"])
def test_pack_retries_below_1_is_a_usage_error(tmp_path, capsys, retries):
    with pytest.raises(SystemExit) as exc:
        run([*PACK_ARGS, "--tau", 1, "--retries", retries, "--out", tmp_path / "p.txt"])
    assert exc.value.code == 1
    assert f"must be >= 1, got {retries}" in capsys.readouterr().err


def test_steiner_scale_limit_exits_2_at_once(tmp_path, capsys):
    start = time.perf_counter()
    assert run(["steiner", "--q", 2, "--s", 9, "--out", tmp_path / "d.txt"]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("ScaleLimit: ") and err.count("\n") == 1


@pytest.mark.parametrize("header", ["1500 3 0", "1100 2 0", "3000 3 0", "100000 3 0",
                                    "1000000 499999 0"])
def test_oversized_count_exits_2_at_once(tmp_path, capsys, header):
    # an empty r-graph whose edge table or widest layer alone is past any
    # budget stops before the moduli, the estimate or any table is built
    graph = tmp_path / "g.txt"
    graph.write_text(f"{header}\n")
    start = time.perf_counter()
    assert run(["count", "--in", graph]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("ScaleLimit: ") and err.count("\n") == 1


def test_construct_past_the_r_set_cap_exits_2_at_once(tmp_path, capsys):
    # C(3000, 3) is about 4.5e9 triples
    out = tmp_path / "g.txt"
    start = time.perf_counter()
    assert run(["construct", "--kind", "complete", "--n", 3000, "--r", 3, "--out", out]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("ScaleLimit: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("edit, problem", [
    ("drop", "block count 83 != C(n,3)/C(q+1,3) = 84"), ("repeat", "duplicate blocks present"),
])
def test_design_that_is_not_a_steiner_system_exits_2(tmp_path, capsys, edit, problem):
    design = tmp_path / "d.txt"
    run(["steiner", "--q", 2, "--s", 3, "--out", design])
    header, *blocks = design.read_text().splitlines()
    blocks = blocks[1:] if edit == "drop" else blocks[:1] + blocks
    design.write_text("\n".join([header.rsplit(" ", 1)[0] + f" {len(blocks)}", *blocks]) + "\n")
    assert run(["family", "--design", design, "--k", 1, "--seed", 1,
                "--out", tmp_path / "f.json"]) == 2
    assert capsys.readouterr().err == f"ParseError: not a Steiner system S(3,3,9): {problem}\n"


def _exits_0_or_2(argv, capsys):
    code = run(argv)
    err = capsys.readouterr().err
    assert code in (0, 2) and "Traceback" not in err and "ConstructionBug" not in err, (code, err)
    assert code == 0 or err.count("\n") == 1, err


# the fixtures hold no state across examples: each example rewrites its file
_FUZZ = settings(max_examples=500, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(n=st.integers(0, 40) | st.integers(0, 10**6), r=st.integers(2, 8),
       m=st.integers(0, 2) | st.integers(0, 10**9))
def test_hypergraph_headers_count_or_exit_2(tmp_path, capsys, monkeypatch, n, r, m):
    # any header gives a count or one typed error line; with a 1 MiB budget
    # the largest DP that runs takes a few ms
    monkeypatch.setenv("HAMFORGE_MEM_GIB", "0.001")
    graph = tmp_path / "g.txt"
    graph.write_text(f"{n} {r} {m}\n")
    _exits_0_or_2(["count", "--in", graph], capsys)


def _design_lines(q, s):
    buf = io.StringIO()
    write_design(build_spherical_steiner(q, s), buf)
    return buf.getvalue().splitlines()


_DESIGNS = [_design_lines(2, 2), _design_lines(3, 2)]  # S(3,3,5) and S(3,4,10)
_point = st.integers(-2, 12).map(str) | st.sampled_from(["100000", str(2**64), "x", "1.5", ""])
_design_line = st.lists(_point, max_size=5).map(" ".join)


@st.composite
def _design_texts(draw):
    """A design file: free lines, or a valid one with lines replaced,
    dropped, repeated or cut off, and its block count kept or fixed up."""
    if draw(st.booleans()):
        return "\n".join(draw(st.lists(_design_line, max_size=8)))
    lines = list(draw(st.sampled_from(_DESIGNS)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(1, len(lines) - 1))
        edit = draw(st.sampled_from(["replace", "drop", "repeat", "cut", "point"]))
        if edit == "replace":
            lines[i] = draw(_design_line)
        elif edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "cut":
            lines = lines[:i]
        else:  # one point out of range, or moved within it
            points = lines[i].split() or ["0"]
            points[draw(st.integers(0, len(points) - 1))] = draw(st.integers(-1, 10).map(str))
            lines[i] = " ".join(points)
        if len(lines) < 2:
            break
    if draw(st.booleans()):  # a block count that matches the lines
        lines[0] = lines[0].rsplit(" ", 1)[0] + f" {len(lines) - 1}"
    return "\n".join(lines) + "\n"


@_FUZZ
@given(text=_design_texts(), k=st.sampled_from([1, 2]))
def test_design_files_give_a_family_or_exit_2(tmp_path, capsys, text, k):
    design = tmp_path / "d.txt"
    design.write_text(text)
    _exits_0_or_2(["family", "--design", design, "--k", k, "--seed", 1,
                   "--out", tmp_path / "f.json"], capsys)


@pytest.mark.parametrize("flag", ["--samples", "--builds", "--runs", "--retries"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_experiment_counts_below_1_are_usage_errors(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        run(["experiment", "--preset", "turan-subsample", "--seed", 1,
             flag, value, "--out-dir", tmp_path])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"must be >= 1, got {value}" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["pack", "--n", 12, "--r", 3, "--k", 2, "--q", 4, "--K", 4, "--M", 1, "--tau", 1,
     "--seed", 1, "--out", "p.txt"],
    ["family", "--design", "d.txt", "--k", 2, "--seed", 1, "--out", "f.json"],
    ["build", "--family", "f.json", "--l", 1, "--seed", 1, "--out", "g.txt"],
    ["audit", "--in", "g.txt", "--eps", 0.25, "--seed", 1],
    ["estimate", "--family", "f.json", "--p", "1/2", "--seed", 1],
])
def test_workers_only_on_experiment(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--workers", 2])
    assert exc.value.code == 1
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
