"""Span tracing of hamforge's public functions, installed from outside.

`Tracer.install` replaces each traced function with a wrapper in every
hamforge namespace that binds it (a module that does `from .counting import
exact_ham_count` holds its own reference), so no call is missed. Spans are
kept in memory as [name, start, end, parent, op] and written once at the end.
A span's self time is its duration minus the durations of its children;
`layer_metrics` turns one traced round into the PER_LAYER table.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, counter): the counter maps (args, result) to the work
# done by one call; without one the call itself is counted.
TARGETS = (
    ("counting", "exact_ham_count", None),
    ("geometry", "build_spherical_steiner", None),
    ("geometry", "verify_steiner", None),
    ("packing", "partition_into_disjoint_groups", ("items", lambda args, res: len(args[0]))),
    ("packing", "family_from_design", None),
    ("packing", "build_random_packing", ("attempts", lambda args, res: res[1].attempts)),
    ("randmodels", "build_quasirandom_from_partition", None),
    ("randmodels", "audit_quasirandomness", ("subsets", lambda args, res: res.samples)),
    ("randmodels", "sample_gnm", None),
    ("estimators", "classify", None),
    ("estimators", "mc_fbar_and_bound", None),
    ("estimators", "mc_expected_H", None),
    ("hypercore", "window_set", None),
    ("hypercore", "Hypergraph.from_edges", None),
    ("cli", "cmd_experiment", None),
)


REGIMES = ("r3n17", "r4n14", "r2n20", "small")
PER_LAYER = {
    **{f"counting.exact_ham_count.{reg}.s": "s" for reg in REGIMES},
    "counting.exact_ham_count.s": "s",
    "counting.exact_ham_count.calls": "count",
    **{f"counting.peak_traced_mib.{reg}": "MiB" for reg in REGIMES},
    "geometry.build_spherical_steiner.s": "s",
    "geometry.verify_steiner.s": "s",
    "packing.partition_into_disjoint_groups.s": "s",
    "packing.partition_into_disjoint_groups.items": "count",
    "packing.family_from_design.s": "s",
    "packing.build_random_packing.s": "s",
    "packing.build_random_packing.attempts": "count",
    "estimators.classify.s": "s",
    "estimators.classify.calls": "count",
    "hypercore.window_set.s": "s",
    "hypercore.window_set.calls": "count",
    "estimators.mc_fbar_and_bound.s": "s",
    "randmodels.build_quasirandom_from_partition.s": "s",
    "randmodels.audit_quasirandomness.s": "s",
    "randmodels.audit_quasirandomness.subsets": "count",
    "hypercore.Hypergraph.from_edges.s": "s",
    "estimators.mc_expected_H.s": "s",
    "randmodels.sample_gnm.s": "s",
    "cli.cmd_experiment.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._undo: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is None:
                self.counts[name + ".calls"] += 1
            else:
                self.counts[f"{name}.{counter[0]}"] += counter[1](args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "hamforge" or key.startswith("hamforge."))]
        for mod_name, attr, counter in TARGETS:
            name = f"{mod_name}.{attr}"
            module = sys.modules[f"hamforge.{mod_name}"]
            if "." in attr:  # a classmethod
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(name, original.__func__, counter))
                setattr(cls, meth, wrapped)
                self._undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def self_times(self) -> tuple[dict, dict]:
        """Self seconds by span name, and by (span name, op id)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        by_name: dict = defaultdict(float)
        by_op: dict = defaultdict(float)
        for (name, start, end, _, op), inner in zip(self.spans, child):
            own = end - start - inner
            by_name[name] += own
            by_op[name, op] += own
        return by_name, by_op

    def write(self, path, ops, origin: float) -> None:
        """Write every span, times relative to origin, and the op table."""
        data = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [[n, s - origin, e - origin, p, o] for n, s, e, p, o in self.spans],
            "ops": ops,
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(data) + "\n")


def layer_metrics(tracer: Tracer, kinds: list[str], wall: float, reference_s: float,
                  peaks: dict) -> dict:
    """Every PER_LAYER value from one traced round; kinds[i] is op i's kind."""
    by_name, by_op = tracer.self_times()
    layer_self = sum(v for name, v in by_name.items() if not name.startswith("bench."))
    values = {
        "counting.exact_ham_count.s": by_name.get("counting.exact_ham_count", 0.0),
        "cli.cmd_experiment.self_s": by_name.get("cli.cmd_experiment", 0.0),
        "trace.wall_s": wall,
        "trace.untraced_s": wall - layer_self,
        "trace.overhead_s": wall - reference_s,
    }
    for reg in REGIMES:
        values[f"counting.exact_ham_count.{reg}.s"] = sum(
            v for (name, op), v in by_op.items()
            if name == "counting.exact_ham_count" and kinds[op] == reg)
        values[f"counting.peak_traced_mib.{reg}"] = peaks.get(reg, 0.0)
    for name in PER_LAYER:
        if name not in values:
            stem, _, suffix = name.rpartition(".")
            values[name] = by_name.get(stem, 0.0) if suffix == "s" else tracer.counts.get(name, 0)
    return values
