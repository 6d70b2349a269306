"""The benchmark's three workloads.

A workload builds its inputs from the seed in `__init__` (set-up), runs one
round of operations through `round(op)`, where `op(kind, label, fn, *args)`
times one call into hamforge, checks each round's results with `problems`,
and derives its per-workload figures with `figures`. Every round repeats the
same operations on the same inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import statistics
import tempfile
from fractions import Fraction
from pathlib import Path
from random import Random

from hamforge import cli, constructions, counting, estimators, geometry, hypercore, packing, randmodels
from hamforge.errors import PartitionFailed

import checks
from spans import REGIMES

OUT = Path(__file__).resolve().parent / "out"  # run outputs; never committed


def first_family(design, k, streams):
    """The k-family of `design` from the first stream the partitioner
    completes, and how many streams it gave up on before that one.

    partition_into_disjoint_groups raises PartitionFailed on about 1% of
    streams for S(3,3,17), so a family drawn from one seeded stream would make
    set-up fail on those seeds.
    """
    for skipped, rng in enumerate(streams):
        try:
            return packing.family_from_design(design, k, rng=rng), skipped
        except PartitionFailed:
            continue


class ExactCount:
    """Seeded r-graphs through counting.exact_ham_count, one regime per rung
    of the counter's n-ladder."""

    name = "exact-count"
    regimes = REGIMES
    relabeled = {"r3n17": "quasirandom", "r4n14": "gnm", "r2n20": "gnm", "small": "gnm0"}
    complete = {"r3n17": (17, 3), "r4n14": (14, 4), "r2n20": (20, 2), "small": (12, 3)}

    def __init__(self, seed: int):
        def rng(label):
            return Random(f"{seed}:{label}")

        half = randmodels.DensitySpec(1, 2)
        corpus = []  # (regime, name, graph)

        # r3n17: the paper's core comparison; float64 backend
        design = geometry.build_spherical_steiner(2, 4)
        family, self.skipped_streams = first_family(
            design, 2, (rng(f"family17:{i}") for i in itertools.count()))
        qr = randmodels.build_quasirandom_from_partition(family, half, rng("build17"))
        corpus += [
            ("r3n17", "quasirandom", qr),
            ("r3n17", "gnm", randmodels.sample_gnm(17, 3, 340, rng("gnm17"))),
        ]
        # r4n14: 156 anchored prefixes; the prefix loop dominates
        corpus.append(("r4n14", "gnm", randmodels.sample_gnm(14, 4, 500, rng("gnm14"))))
        # r2n20: int64 backend
        corpus.append(("r2n20", "gnm", randmodels.sample_gnm(20, 2, 95, rng("gnm20"))))
        # small: pure-Python dict DP, many cheap calls
        turan = constructions.multipartite_rgraph(9, 4, 3)
        sub_rng = rng("turan-halves")
        for i in range(12):
            sub = randmodels.sample_exact_density_subgraph(turan, Fraction(1, 2), sub_rng)
            corpus.append(("small", f"turan-half{i}", sub))
        gnm_rng = rng("gnm12")
        for i in range(6):
            corpus.append(("small", f"gnm{i}", randmodels.sample_gnm(12, 3, 110, gnm_rng)))

        # per regime: one graph relabeled by a permutation that moves vertex 0,
        # and the complete r-graph
        graphs = {(regime, name): g for regime, name, g in corpus}
        for regime, name in self.relabeled.items():
            graph = graphs[regime, name]
            perm = checks.relabeling(graph.n, rng(f"relabel-{regime}"))
            corpus.append((regime, f"relabeled-{name}", hypercore.Hypergraph.from_edges(
                graph.n, graph.r, checks.relabel(graph.edges, perm))))
        for regime, (n, r) in self.complete.items():
            corpus.append((regime, "complete", hypercore.Hypergraph.complete(n, r)))
        corpus.sort(key=lambda item: self.regimes.index(item[0]))
        self.corpus = [(regime, f"{regime}.{name}", g) for regime, name, g in corpus]
        self.graphs = {label: g for _, label, g in self.corpus}
        # the DFS oracle checks every turan half and a seeded pair of G_3(12,110)
        self.dfs_labels = {label for _, label, _ in self.corpus if ".turan-half" in label}
        self.dfs_labels |= {f"small.gnm{i}" for i in rng("dfs-subset").sample(range(6), 2)}

    def round(self, op) -> None:
        for regime, label, graph in self.corpus:
            op(regime, label, lambda g=graph: counting.exact_ham_count(g).count)

    def first_graphs(self):
        """One graph per regime, for the traced-memory probe."""
        for regime in self.regimes:
            yield regime, next(g for reg, _, g in self.corpus if reg == regime)

    def problems(self, results: dict) -> list[str]:
        out = []
        for label, value in results.items():
            graph = self.graphs[label]
            out += checks.count_problems(label, value, graph.n)
            if label.endswith(".complete") and value != checks.complete_count(graph.n):
                out.append(f"{label}: {value} != (n-1)!/2 = {checks.complete_count(graph.n)}")
            if ".relabeled-" in label:
                original = results.get(label.replace("relabeled-", ""))
                if original is not None and value != original:
                    out.append(f"{label}: {value} != {original} before relabeling")
            if label in self.dfs_labels:
                want = checks.dfs_ham_count(graph.n, graph.r, graph.edges)
                if value != want:
                    out.append(f"{label}: {value} != DFS count {want}")
        return out

    def figures(self, rounds) -> dict:
        out = {}
        for regime in self.regimes:
            times = [op.seconds for ops in rounds for op in ops if op.kind == regime]
            out[f"count_{regime}_s"] = (statistics.fmean(times), "s")
        out["partition_streams_skipped"] = (self.skipped_streams, "count")
        return out


class FamilyEstimate:
    """S(3,4,82), its k=2 family, a quasi-random build with its audit, the
    Monte Carlo f-bar / AM-GM bound, and a direct-mode random packing."""

    name = "family-estimate"
    q, s, k = 3, 4, 2
    samples = 20000
    audit_samples = 300
    epsilon = 0.1
    pack = dict(n=48, r=3, k=2, q=6, K=12, M=1, tau=1)

    def __init__(self, seed: int):
        self.seed = seed
        n = self.q ** self.s + 1
        half_rng = Random(f"{seed}:halfsets")
        self.halfsets = [tuple(sorted(half_rng.sample(range(n), n // 2))) for _ in range(16)]
        self.params = packing.PackingParams.direct(**self.pack)
        self.spec = randmodels.DensitySpec(1, 2)

    def _rng(self, label):
        return Random(f"{self.seed}:{label}")

    def round(self, op) -> None:
        design = op("family", "design", geometry.build_spherical_steiner, self.q, self.s)
        # The partitioner's first, degree-ordered pass always fails on these
        # blocks; how many shuffled restarts follow depends on its stream
        # (one or two, 15 s or 24 s). A fixed stream keeps that luck out of
        # the seed-to-seed spread; it takes one restart.
        family = op("family", "family", lambda: packing.family_from_design(
            design, self.k, rng=Random("family-estimate:partition")))
        op("family", "packing", packing.build_random_packing, self.params, self._rng("packing"))
        graph = op("build_audit", "build", randmodels.build_quasirandom_from_partition,
                   family, self.spec, self._rng("build"))
        op("build_audit", "audit", lambda: randmodels.audit_quasirandomness(
            graph, self.epsilon, self.audit_samples, self._rng("audit"), p=0.5,
            extra_subsets=self.halfsets))
        op("estimate", "estimate", lambda: estimators.mc_fbar_and_bound(
            family, self.spec, self.samples, self._rng("estimate"),
            family_label="S(3,4,82)/k=2").to_json_dict())

    def problems(self, results: dict) -> list[str]:
        design, family, graph = results["design"], results["family"], results["build"]
        n = design.n
        out = checks.steiner_problems(n, self.q + 1, design.blocks)
        out += checks.family_problems(family, complete_elements=True)
        p = self.pack
        out += checks.packing_problems(results["packing"][0], p["n"], p["r"], p["q"],
                                       p["K"], p["k"], p["tau"])
        out += checks.build_problems(family, graph.edges, self.spec.num)
        audit = results["audit"]
        own = max(checks.halfset_deviation(graph.edges, sub, 3, 0.5) for sub in self.halfsets)
        if own >= self.epsilon:
            out.append(f"audit: a seeded half-set deviates by {own} >= {self.epsilon}")
        if audit.max_abs_deviation < own - 1e-12 or audit.samples != self.audit_samples + len(self.halfsets):
            out.append("audit: report misses the seeded half-sets")
        report = results["estimate"]
        out += checks.estimate_problems(report, 0.5)
        out += checks.gbar_star_problems(report, n, self.q, sigmas=5)
        return out

    def figures(self, rounds) -> dict:
        def per_round(kind):
            return statistics.median(
                sum(op.seconds for op in ops if op.kind == kind) for ops in rounds)

        mc = statistics.median(op.seconds for ops in rounds for op in ops if op.kind == "estimate")
        report = next(op.result for op in rounds[-1] if op.label == "estimate")
        return {
            "family_s": (per_round("family"), "s"),
            "build_audit_s": (per_round("build_audit"), "s"),
            "mc_perms_per_s": (self.samples / mc, "1/s"),
            "log2_ratio": (report["log2_ratio"], "log2"),
        }


class Steiner17Preset:
    """`hamforge experiment --preset steiner17-half --workers 2` through
    cli.main, one call per round, with reduced --builds. A run makes at least
    four calls: every report is compared with the first, and the median of
    four short calls is steadier than one call."""

    name = "steiner17-preset"
    builds = 2
    min_rounds = 4

    def __init__(self, seed: int):
        # The preset partitions S(3,3,17) with Random(f"{seed}:w2:family")
        # (cli._stream_rng at --workers 2) and exits 2 when the partitioner
        # gives up, as it does on about 1% of seeds. The preset's --seed is the
        # first from `seed` on whose stream the partition succeeds.
        design = geometry.build_spherical_steiner(2, 4)
        _, self.skipped_seeds = first_family(
            design, 2, (Random(f"{s}:w2:family") for s in itertools.count(seed)))
        self.seed = seed + self.skipped_seeds
        self.first_files = None

    def _main(self):
        """One cli.main call; returns its exit code and the files it wrote."""
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="preset-", dir=OUT) as out:
            argv = ["experiment", "--preset", "steiner17-half", "--seed", str(self.seed),
                    "--builds", str(self.builds), "--workers", "2", "--out-dir", out]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            return code, {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}

    def round(self, op) -> None:
        op("preset", "preset", self._main)

    @staticmethod
    def _report(files: dict) -> dict:
        return json.loads(files["steiner17-half-report.json"])

    def problems(self, results: dict) -> list[str]:
        code, files = results["preset"]
        if code != 0:
            return [f"exit code {code}"]
        if self.first_files is None:
            self.first_files = files
        elif files != self.first_files:
            return ["report bytes differ from the run's first report"]
        report = self._report(files)
        rows = list(csv.DictReader(io.StringIO(files["steiner17-half-builds.csv"].decode())))
        builder = [int(row["builder_H"]) for row in rows]
        baseline = [int(row["baseline_H"]) for row in rows]
        out = []
        if builder != report["builds"]["values"] or len(baseline) != self.builds:
            out.append("builds CSV does not match the report's build values")
        for i, value in enumerate(builder + baseline):
            out += checks.count_problems(f"count {i}", value, 17)
        if report["builds"]["mean"] != sum(builder) / len(builder):
            out.append("builds mean is not the mean of the build values")
        if report["baseline_gnm"]["mean"] != sum(baseline) / len(baseline):
            out.append("baseline mean is not the mean of the baseline values")
        if report["estimate"]["gbar_star"]["mean"] != 0:
            out.append(f"g-bar-star is {report['estimate']['gbar_star']['mean']}, not 0 at q=2")
        if report["edges_per_build"] != 340:
            out.append(f"edges_per_build is {report['edges_per_build']}, not 340")
        out += checks.estimate_problems(report["estimate"], 0.5)
        return out

    def figures(self, rounds) -> dict:
        report = self._report(rounds[0][0].result[1])
        return {
            "preset_s": (statistics.median(ops[0].seconds for ops in rounds), "s"),
            "mean_ge_bound_within_noise": (float(report["mean_ge_bound_within_noise"]), "bool"),
            "preset_seeds_skipped": (self.skipped_seeds, "count"),
        }


WORKLOADS = {w.name: w for w in (ExactCount, FamilyEstimate, Steiner17Preset)}
