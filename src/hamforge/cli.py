"""Experiment harness: subcommands wiring constructions, designs, families,
builders, counters, and estimators into seeded, reproducible reports.

Exit codes: 0 success, 1 usage error, 2 typed domain error. Every random
stream is Random("{seed}:{label}"), so with a fixed seed every report is
byte-identical across runs. `experiment --workers w` runs a preset's
independently seeded parts in up to w processes; each part owns its stream,
so the report is the same for every w. Reports embed their run configuration
and carry no timestamps.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from random import Random

from . import constructions, counting, estimators, geometry, hypercore, packing, randmodels
from .errors import HamforgeError, InvalidParams, ParseError

PRESETS = (
    "crown-lower-bound",
    "turan-subsample",
    "steiner17-half",
    "packing-direct",
    "multipartite-words",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, domain errors exit 2
        self.print_usage(sys.stderr)
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _stream_rng(seed: int, label: str) -> Random:
    return Random(f"{seed}:{label}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _run_parts(parts: list, workers: int) -> list:
    """Call each zero-argument part and return the results in part order.

    Each part draws only from its own seeded stream, so the results do not
    depend on how many processes run them: min(workers, CPUs, parts) worker
    processes, or the calling process alone when that is 1. On Linux the
    workers are forked, so they skip re-importing numpy and hamforge; this
    is safe because no hamforge thread is alive when the pool opens, as
    each exact count joins its threads before it returns. Elsewhere they
    are spawned, where fork is not the safe default. The pool module is
    imported here, not at the top, because every `hamforge` command would
    pay for it.
    """
    procs = min(workers, os.cpu_count() or 1, len(parts))
    if procs == 1:
        return [part() for part in parts]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    method = "fork" if sys.platform.startswith("linux") else "spawn"
    with ProcessPoolExecutor(procs, mp_context=multiprocessing.get_context(method)) as pool:
        futures = [pool.submit(part) for part in parts]
        return [future.result() for future in futures]


def _dump_json(data: dict, out: str | None) -> None:
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_graph(graph, out: str) -> None:
    buf = io.StringIO()
    hypercore.write_hypergraph(graph, buf)
    Path(out).write_text(buf.getvalue())


def _read_graph(path: str):
    with open(path) as fh:
        return hypercore.read_hypergraph(fh)


def _read_family(path: str) -> packing.PartitionedFamily:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ParseError(f"{path}: malformed family JSON: {exc}") from None
    return packing.PartitionedFamily.from_json_dict(data)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_construct(args) -> int:
    kind = args.kind
    if kind == "complete":
        graph = hypercore.Hypergraph.complete(args.n, args.r)
    elif kind == "empty":
        graph = hypercore.Hypergraph.empty(args.n, args.r)
    elif kind == "crown":
        graph = constructions.crown_graph(args.n)
    elif kind == "turan":
        if args.k is None:
            raise InvalidParams("turan needs --k")
        graph = constructions.turan_graph(args.n, args.k)
    else:  # multipartite
        if args.k is None:
            raise InvalidParams("multipartite needs --k")
        graph = constructions.multipartite_rgraph(args.n, args.k, args.r)
    _write_graph(graph, args.out)
    return 0


def cmd_count(args) -> int:
    graph = _read_graph(getattr(args, "in"))
    if args.method == "brute":
        result = counting.brute_force_ham_count(graph)
    else:
        result = counting.exact_ham_count(graph)
    _dump_json(
        {
            "count": str(result.count),
            "method": result.method,
            "n": graph.n,
            "r": graph.r,
            "edges": graph.edge_count,
        },
        args.out,
    )
    return 0


def cmd_steiner(args) -> int:
    system = geometry.build_spherical_steiner(args.q, args.s)
    buf = io.StringIO()
    geometry.write_design(system, buf)
    Path(args.out).write_text(buf.getvalue())
    return 0


def cmd_pack(args) -> int:
    if args.beta is not None or args.delta is not None:
        if args.beta is None or args.delta is None:
            raise InvalidParams("faithful mode needs both --beta and --delta")
        params = packing.PackingParams.faithful(args.n, args.r, args.k, args.beta, args.delta)
    else:
        for name in ("q", "K", "M", "tau"):
            if getattr(args, name) is None:
                raise InvalidParams(f"direct mode needs --{name}")
        params = packing.PackingParams.direct(
            args.n, args.r, args.k, q=args.q, K=args.K, M=args.M, tau=args.tau
        )
    rng = _stream_rng(args.seed, "pack")
    built, stats = packing.build_random_packing(params, rng, retries=args.retries)
    buf = io.StringIO()
    packing.write_packing(built, buf)
    Path(args.out).write_text(buf.getvalue())
    print(
        json.dumps(
            {"attempts": stats.attempts, "failures": stats.failure_counts, "z": built.z},
            sort_keys=True,
        )
    )
    return 0


def cmd_family(args) -> int:
    rng = _stream_rng(args.seed, "family")
    if args.design:
        with open(args.design) as fh:
            system = geometry.read_design(fh)
        fam = packing.family_from_design(system, args.k, rng=rng)
    else:
        with open(args.packing) as fh:
            built = packing.read_packing(fh)
        if built.k != args.k:
            raise InvalidParams(f"packing was built for k={built.k}, got --k {args.k}")
        fam = packing.family_from_packing(built, rng=rng)
    Path(args.out).write_text(
        json.dumps(fam.to_json_dict(), sort_keys=True, indent=2) + "\n"
    )
    return 0


def cmd_build(args) -> int:
    fam = _read_family(args.family)
    spec = randmodels.DensitySpec(args.l, fam.k)
    rng = _stream_rng(args.seed, "build")
    graph = randmodels.build_quasirandom_from_partition(fam, spec, rng)
    _write_graph(graph, args.out)
    return 0


def cmd_audit(args) -> int:
    graph = _read_graph(getattr(args, "in"))
    p = randmodels.DensitySpec.parse(args.p).as_float() if args.p else None
    rng = _stream_rng(args.seed, "audit")
    report = randmodels.audit_quasirandomness(
        graph, epsilon=args.eps, samples=args.samples, rng=rng, p=p, seed=args.seed
    )
    data = report.to_json_dict()
    data["passed"] = report.passed
    if args.format == "csv":
        _dump_csv([data], args.out)
    else:
        _dump_json(data, args.out)
    return 0


def cmd_estimate(args) -> int:
    fam = _read_family(args.family)
    spec = randmodels.DensitySpec.parse(args.p)
    spec.check_family_k(fam.k)
    rng = _stream_rng(args.seed, "estimate")
    report = estimators.mc_fbar_and_bound(
        fam, spec, args.samples, rng, family_label=args.family, seed=args.seed
    )
    data = report.to_json_dict()
    if args.format == "csv":
        flat = {
            "family": data["family"], "n": data["n"], "r": data["r"],
            "p": f"{spec.num}/{spec.den}", "samples": data["samples"],
            "bad_mean": data["bad_fraction"]["mean"], "bad_ci3": data["bad_fraction"]["ci3"],
            "fbar_mean": data["fbar"]["mean"], "fbar_ci3": data["fbar"]["ci3"],
            "gbar_mean": data["gbar"]["mean"], "gbar_ci3": data["gbar"]["ci3"],
            "gbar_star_mean": data["gbar_star"]["mean"], "gbar_star_ci3": data["gbar_star"]["ci3"],
            "gbar_star_exact": data["gbar_star_exact"],
            "log2_bound": data["log2_bound"], "log2_E": data["log2_E"],
            "log2_ratio": data["log2_ratio"], "seed": data["seed"],
        }
        _dump_csv([flat], args.out)
    else:
        _dump_json(data, args.out)
    return 0


def _dump_csv(rows: list[dict], out: str | None) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    if out:
        Path(out).write_text(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def preset_crown_lower_bound(args) -> dict:
    rows = []
    for n in (8, 10, 12):
        placements = constructions.count_placements_crown(n)
        bound = constructions.crown_placement_lower_bound(n)
        ham = counting.exact_ham_count(constructions.crown_graph(n)).count
        rows.append(
            {
                "n": n,
                "placements": placements,
                "placement_lower_bound": float(bound),
                "exact_H": ham,
                "bound_le_placements": bound <= placements,
                "placements_le_nH": placements <= n * ham,
            }
        )
    ef = constructions.crown_doubly_stochastic_permanent(10)
    floor = Fraction(math.factorial(5), 5**5)
    return {
        "rows": rows,
        "doubly_stochastic_permanent_n10": float(ef),
        "van_der_waerden_floor_n10": float(floor),
        "floor_holds": ef >= floor,
        "all_checks": all(r["bound_le_placements"] and r["placements_le_nH"] for r in rows),
    }


def preset_turan_subsample(args) -> dict:
    n, k, r = 9, 4, 3
    samples = args.samples or 2000
    graph = constructions.multipartite_rgraph(n, k, r)
    h_full = counting.exact_ham_count(graph).count
    q_dens = Fraction(graph.edge_count, math.comb(n, r))
    p = Fraction(1, 2)
    bound = float((p / q_dens) ** n) * math.exp(-2 / float(p)) * h_full
    rng = _stream_rng(args.seed, "turan-subsample")
    est = estimators.Estimate.of([
        counting.exact_ham_count(randmodels.sample_exact_density_subgraph(graph, p, rng)).count
        for _ in range(samples)
    ])
    return {
        "n": n, "k": k, "r": r,
        "p": "1/2",
        "graph_density": f"{q_dens.numerator}/{q_dens.denominator}",
        "H_full": h_full,
        "samples": samples,
        "mean_H": est.mean,
        "mean_H_ci3": est.ci3,
        "subsample_lower_bound": bound,
        "mean_ge_bound": est.mean >= bound,
    }


def _gnm_counts(n: int, r: int, m: int, draws: int, rng: Random) -> list[int]:
    """Exact counts of `draws` G_r(n, m) samples drawn from one stream."""
    return [
        counting.exact_ham_count(randmodels.sample_gnm(n, r, m, rng)).count
        for _ in range(draws)
    ]


def preset_steiner17_half(args) -> tuple[dict, list[dict]]:
    samples = args.samples or 20000
    builds = args.builds or 100
    system = geometry.build_spherical_steiner(2, 4)
    fam = packing.family_from_design(system, 2, rng=_stream_rng(args.seed, "family"))
    spec = randmodels.DensitySpec(1, 2)
    est, builds_report, baseline = _run_parts([
        partial(estimators.mc_fbar_and_bound, fam, spec, samples,
                _stream_rng(args.seed, "estimate"), family_label="S(3,3,17)/k=2",
                seed=args.seed),
        partial(estimators.mc_expected_H, fam, spec, builds, _stream_rng(args.seed, "builds")),
        partial(_gnm_counts, 17, 3, 340, builds, _stream_rng(args.seed, "baseline")),
    ], args.workers)
    base_mean = sum(baseline) / len(baseline)

    # the bound estimate and the build mean both carry Monte Carlo noise;
    # compare through a combined 3-sigma margin (at q=2 the bound is tight)
    good = 1.0 - est.bad_fraction.mean
    log2_bound_lo = estimators.log2_amgm_bound(
        max(good - est.bad_fraction.ci3, 1e-12), est.n,
        est.fbar.mean + est.fbar.ci3, spec.as_float(),
    )
    sigma_bound = (est.bound_linear - 2.0**log2_bound_lo) / 3
    mean_est = builds_report.mean_estimate()
    margin = 3 * math.sqrt(sigma_bound**2 + (mean_est.ci3 / 3) ** 2)
    report = {
        "estimate": est.to_json_dict(),
        "builds": builds_report.to_json_dict(),
        "baseline_gnm": {
            "draws": len(baseline),
            "mean": base_mean,
            "max": max(baseline),
            "mean_over_E": base_mean / 2.0**est.log2_expectation,
        },
        "bound_linear": est.bound_linear,
        "bound_combined_3sigma": margin,
        "mean_H": builds_report.mean,
        "mean_H_ci3": mean_est.ci3,
        "mean_ge_bound_within_noise": builds_report.mean >= est.bound_linear - margin,
        "edges_per_build": 340,
    }
    rows = [
        {"build": i, "builder_H": h, "baseline_H": b}
        for i, (h, b) in enumerate(zip(builds_report.values, baseline))
    ]
    return report, rows


def _pack_run(params: packing.PackingParams, run: int, retries: int, rng: Random) -> dict:
    """One direct-mode packing build, summarised whether or not it succeeds."""
    try:
        built, stats = packing.build_random_packing(params, rng, retries=retries)
    except HamforgeError as exc:
        return {"run": run, "success": False,
                "failures": getattr(exc, "failure_counts", {}), "error": type(exc).__name__}
    return {"run": run, "success": True, "attempts": stats.attempts,
            "failures": stats.failure_counts, "z": built.z}


def preset_packing_direct(args) -> dict:
    runs = args.runs or 20
    retries = args.retries or 50
    params = packing.PackingParams.direct(n=60, r=3, k=3, q=8, K=210, M=3, tau=2)
    results = _run_parts([
        partial(_pack_run, params, run, retries, _stream_rng(args.seed, f"pack-run{run}"))
        for run in range(runs)
    ], args.workers)
    successes = sum(1 for r in results if r["success"])
    return {
        "params": {"n": 60, "r": 3, "k": 3, "q": 8, "K": 210, "M": 3, "tau": 2},
        "runs": runs,
        "retries": retries,
        "successes": successes,
        "success_rate": successes / runs,
        "results": results,
    }


def preset_multipartite_words(args) -> dict:
    grid = []
    all_equal = True
    for r in (2, 3, 4):
        for k in range(r, 6):
            for t in range(r, 9):
                formula = constructions.count_admissible_words(t, k, r)
                enum = len(constructions.enumerate_admissible(t, k, r))
                grid.append({"t": t, "k": k, "r": r, "formula": formula, "enumeration": enum})
                all_equal = all_equal and formula == enum
    n, k, r = 9, 4, 3
    graph = constructions.multipartite_rgraph(n, k, r)
    rng = _stream_rng(args.seed, "words")
    cycles = constructions.sample_good_cycles(n, k, r, 50, rng)
    valid = all(
        all(w in graph.edges for w in hypercore.window_set(c.representative, r).windows)
        for c in cycles
    )
    h_exact = counting.exact_ham_count(graph).count
    return {
        "grid_cases": len(grid),
        "formula_matches_enumeration": all_equal,
        "sampled_cycles": len(cycles),
        "all_cycles_valid": valid,
        "distinct": len({c.representative for c in cycles}),
        "exact_H_T3_9_4": h_exact,
        "count_dominates_sample": h_exact >= len(cycles),
    }


def cmd_experiment(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = {
        "preset": args.preset, "seed": args.seed,
        "samples": args.samples, "builds": args.builds, "runs": args.runs,
        "retries": args.retries,
    }
    rows = None
    if args.preset == "crown-lower-bound":
        report = preset_crown_lower_bound(args)
    elif args.preset == "turan-subsample":
        report = preset_turan_subsample(args)
    elif args.preset == "steiner17-half":
        report, rows = preset_steiner17_half(args)
    elif args.preset == "packing-direct":
        report = preset_packing_direct(args)
    else:
        report = preset_multipartite_words(args)
    report = {"config": config, **report}
    report_path = out_dir / f"{args.preset}-report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(str(report_path))
    if rows is not None:
        csv_path = out_dir / f"{args.preset}-builds.csv"
        _dump_csv(rows, str(csv_path))
        print(str(csv_path))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="hamforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write a named construction to a graph file")
    p.add_argument("--kind", required=True,
                   choices=["complete", "empty", "crown", "turan", "multipartite"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--k", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("count", help="exact Hamiltonian cycle count of a graph file")
    p.add_argument("--in", required=True)
    p.add_argument("--method", choices=["dp", "brute"], default="dp")
    p.add_argument("--out")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("steiner", help="build and validate a spherical Steiner system")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_steiner)

    p = sub.add_parser("pack", help="randomized edge-disjoint packing")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--K", type=int)
    p.add_argument("--M", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--retries", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("family", help="partition a design or packing into k-groups")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--design")
    src.add_argument("--packing")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("build", help="quasi-random graph from a family")
    p.add_argument("--family", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("audit", help="sampled quasi-randomness audit")
    p.add_argument("--in", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--p", help="target density NUM/DEN (default: the graph's density)")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("estimate", help="Monte Carlo f-bar / g-bar / bound report")
    p.add_argument("--family", required=True)
    p.add_argument("--p", required=True, help="density NUM/DEN; DEN must equal the family's k")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("experiment", help="run a named preset end to end")
    p.add_argument("--preset", choices=PRESETS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=_positive_int)
    p.add_argument("--builds", type=_positive_int)
    p.add_argument("--runs", type=_positive_int)
    p.add_argument("--retries", type=_positive_int)
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="processes for the preset's independently seeded parts")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HamforgeError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
