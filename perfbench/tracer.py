"""Spans around calls into spanembed's public functions, installed from outside.

``Tracer.install`` replaces each traced function in every spanembed module
whose namespace binds it (``pipeline`` and ``hampower`` bind names with
``from ... import``, so patching the defining module alone would miss their
calls), plus the ``DenseGraph`` methods.  ``Tracer.remove`` puts every
original back.

A span is ``(name, start, end, parent, instance)``.  ``edges_between`` is
called ~10^6 times per instance, so it is aggregated instead: its calls and
seconds are counted, and its time is charged to the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = (
    "balance",
    "connect",
    "density",
    "embed",
    "graphs",
    "hampower",
    "hpartition",
    "pipeline",
    "regularity",
)

# (defining module, function): the layer that owns it is the module name.
FUNCTIONS = (
    ("regularity", "heuristic_degree_form_partition"),
    ("regularity", "is_eps_regular"),
    ("regularity", "refine_to_superregular"),
    ("graphs", "validate_witness"),
    ("density", "is_locally_dense_sampled"),
    ("density", "find_clique"),
    ("hampower", "find_hamilton_power"),
    ("hampower", "build_absorber"),
    ("hampower", "build_absorbing_path"),
    ("hampower", "select_reservoir"),
    ("hampower", "cover_with_paths"),
    ("hampower", "absorb"),
    ("connect", "find_bridging_clique"),
    ("embed", "brute_force_embed"),
    ("embed", "embed_with_targets"),
    ("embed", "blowup_embed"),
    ("embed", "verify_embedding"),
    ("hpartition", "build_framework"),
    ("hpartition", "special_assignment"),
    ("hpartition", "basic_assignment"),
    ("balance", "lemma_g"),
    ("pipeline", "run_main_pipeline"),
)
METHODS = (("graphs", "DenseGraph", "induced"),)
AGGREGATED = (("graphs", "DenseGraph", "edges_between"),)

def _module(name: str):
    return importlib.import_module(f"spanembed.{name}")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.open_names: list[str] = []
        self.instance: str | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.leaf_time: dict[int, float] = defaultdict(float)  # span -> aggregated time inside it
        self.saved: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------------

    def targets(self) -> list[tuple[object, str, object, str]]:
        """(owner, attribute, original, span name) for every binding to patch."""
        out = []
        for mod, fn in FUNCTIONS:
            original = getattr(_module(mod), fn)
            for owner_name in ("spanembed",) + tuple(f"spanembed.{m}" for m in MODULES):
                owner = importlib.import_module(owner_name)
                if getattr(owner, fn, None) is original:
                    out.append((owner, fn, original, f"{mod}.{fn}"))
        for mod, cls, meth in METHODS + AGGREGATED:
            owner = getattr(_module(mod), cls)
            out.append((owner, meth, owner.__dict__[meth], f"{mod}.{cls}.{meth}"))
        return out

    def install(self) -> None:
        if self.saved:
            raise RuntimeError("tracer already installed")
        aggregated = {f"{m}.{c}.{f}" for m, c, f in AGGREGATED}
        for owner, attr, original, name in self.targets():
            wrap = self._aggregate if name in aggregated else self._span
            self.saved.append((owner, attr, original))
            setattr(owner, attr, wrap(name, original))

    def remove(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self
        is_ham = name == "hampower.find_hamilton_power"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost_ham = is_ham and name not in tracer.open_names
            if is_ham:
                args, kwargs, audit = _with_audit(fn, args, kwargs)
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(sid)
            tracer.open_names.append(name)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.open_names.pop()
                tracer.spans[sid] = (name, start, end, parent, tracer.instance)
                if outermost_ham:
                    tracer.counts["hampower.find_hamilton_power.attempts"] += audit.attempts
                    tracer.counts["hampower.find_hamilton_power.successes"] += ok
            tracer._count(name, result)
            return result

        return wrapper

    def _aggregate(self, name: str, fn):
        stack, leaf_time, counts = self.stack, self.leaf_time, self.counts
        calls_key, s_key = f"{name}.calls", f"{name}.s"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            start = clock()
            result = fn(*args)
            dt = clock() - start
            counts[calls_key] += 1
            counts[s_key] += dt
            leaf_time[stack[-1] if stack else -1] += dt
            return result

        return wrapper

    def _count(self, name: str, result) -> None:
        if name == "regularity.is_eps_regular" and not result.regular:
            self.counts["regularity.is_eps_regular.irregular"] += 1
        elif name in ("embed.brute_force_embed", "embed.embed_with_targets"):
            self.counts[f"{name}.nodes"] += result.nodes

    # -- reading -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of LAYER_METRICS except the trace.* ones."""
        spans = self.spans
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        covered: dict[int, float] = defaultdict(float)
        self_s = 0.0
        for name, start, end, parent, _ in spans:
            covered[parent] += end - start
        for sid, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            if not self._has_ancestor(sid, name):
                seconds[name] += end - start
            if name == "pipeline.run_main_pipeline":
                self_s += end - start - covered[sid] - self.leaf_time[sid]
        out: dict[str, float] = {}
        for metric, _ in LAYER_METRICS:
            base, _, what = metric.rpartition(".")
            if metric in self.counts:
                out[metric] = self.counts[metric]
            elif what == "s":
                out[metric] = seconds[base]
            elif what == "calls":
                out[metric] = calls[base]
            else:
                out[metric] = 0
        attempts = self.counts["hampower.find_hamilton_power.attempts"]
        successes = self.counts["hampower.find_hamilton_power.successes"]
        out["hampower.attempt_yield"] = successes / attempts if attempts else 0.0
        out["pipeline.run_main_pipeline.self_s"] = self_s
        return out

    def _has_ancestor(self, sid: int, name: str) -> bool:
        parent = self.spans[sid][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def spans_json(self) -> list[dict]:
        return [
            {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "instance": inst}
            for sid, (name, start, end, parent, inst) in enumerate(self.spans)
        ]


def _with_audit(fn, args: tuple, kwargs: dict):
    """Give find_hamilton_power a HamAudit when its caller passed none."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    if bound.arguments.get("audit") is None:
        bound.arguments["audit"] = _module("hampower").HamAudit()
    return bound.args, bound.kwargs, bound.arguments["audit"]


# Per-layer metrics of the traced run, with units, in BENCHMARK.json order.
LAYER_METRICS = (
    ("regularity.heuristic_degree_form_partition.s", "s"),
    ("regularity.is_eps_regular.calls", "count"),
    ("regularity.is_eps_regular.s", "s"),
    ("regularity.is_eps_regular.irregular", "count"),
    ("regularity.refine_to_superregular.s", "s"),
    ("graphs.DenseGraph.edges_between.calls", "count"),
    ("graphs.DenseGraph.edges_between.s", "s"),
    ("graphs.DenseGraph.induced.calls", "count"),
    ("graphs.DenseGraph.induced.s", "s"),
    ("graphs.validate_witness.s", "s"),
    ("density.is_locally_dense_sampled.s", "s"),
    ("density.find_clique.calls", "count"),
    ("density.find_clique.s", "s"),
    ("hampower.find_hamilton_power.s", "s"),
    ("hampower.find_hamilton_power.attempts", "count"),
    ("hampower.attempt_yield", "ratio"),
    ("hampower.build_absorber.s", "s"),
    ("hampower.build_absorbing_path.s", "s"),
    ("hampower.select_reservoir.s", "s"),
    ("hampower.cover_with_paths.s", "s"),
    ("hampower.absorb.s", "s"),
    ("connect.find_bridging_clique.calls", "count"),
    ("connect.find_bridging_clique.s", "s"),
    ("embed.brute_force_embed.s", "s"),
    ("embed.brute_force_embed.nodes", "count"),
    ("embed.embed_with_targets.s", "s"),
    ("embed.embed_with_targets.nodes", "count"),
    ("embed.blowup_embed.s", "s"),
    ("embed.verify_embedding.s", "s"),
    ("hpartition.build_framework.s", "s"),
    ("hpartition.special_assignment.s", "s"),
    ("hpartition.basic_assignment.s", "s"),
    ("balance.lemma_g.s", "s"),
    ("pipeline.run_main_pipeline.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
