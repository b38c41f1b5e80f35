"""Span recording around the package's public functions, from outside.

``install`` rebinds, in the ``gpdalg.cli`` namespace only, each public
function the CLI calls to a wrapper that records a span: name, start,
end, parent span and report id, plus counts read from the return value.
Calls the package makes internally are not seen; their time is part of
the caller's span.  Spans stay in memory until ``dump``.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


def _oracle_attrs(rad):
    attrs = {"method": rad.method.replace(" ", "_"),
             "verdicts.oracle_runs": 1,
             "verdicts.oracle_dimension": rad.dimension}
    if rad.radical_dimension is not None:
        attrs["verdicts.radical_dimension"] = rad.radical_dimension
    return attrs


def _boundary_attrs(gd):
    count = getattr(gd, "boundary_count", None)
    return {"leavitt.boundary_paths": count()} if count else {}


# name in gpdalg.cli -> (span name, counts read from the return value)
LAYERS = {
    "parse_groupoid": ("groupoid.parse", lambda g: {
        "groupoid.arrows": g.arrow_count, "groupoid.compositions": len(g.comp)}),
    "validate": ("groupoid.validate", None),
    "structured_from_finite": ("groupoid.structure", None),
    "decompose": ("algebra.decompose", None),
    "verify_isomorphism": ("algebra.verify_isomorphism", lambda r: {"algebra.checks": r.total}),
    "verdicts": ("verdicts.verdicts", None),
    "radical_oracle": ("verdicts.oracle", _oracle_attrs),
    "parse_graph": ("leavitt.parse", None),
    "leavitt_verdicts": ("leavitt.verdicts", None),
    "condition_ne": ("leavitt.condition_ne", None),
    "enumerate_cycles": ("leavitt.enumerate_cycles", None),
    "graph_groupoid": ("leavitt.graph_groupoid", _boundary_attrs),
    "as_finite_groupoid": ("leavitt.as_finite_groupoid", None),
    "verify_leavitt_relations": ("leavitt.verify_relations",
                                 lambda r: {"leavitt.relation_checks": r.total}),
    "parse_isg": ("isg.parse", None),
    "isg_verdicts": ("isg.verdicts", None),
    "semigroup_algebra_iso": ("isg.base_change",
                              lambda iso: {"isg.pair_checks": iso.report.total}),
    "render_report_machine": ("report.render", None),
    "render_report_text": ("report.render", None),
}

ROOT = "cli.report"


class Tracer:
    """In-memory span store.  A span is [name, start, end, parent, report, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.report = 0

    @contextmanager
    def span(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.report, {}]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, attrs):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if attrs is not None:
                rec[5] = attrs(result)
            return result
        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install(cli, tracer: Tracer):
    """Rebind the layer functions in the gpdalg.cli module; returns a
    function that restores the originals."""
    originals = {name: getattr(cli, name) for name in LAYERS}
    for name, (span_name, attrs) in LAYERS.items():
        setattr(cli, name, tracer.wrap(span_name, originals[name], attrs))

    def restore():
        for name, fn in originals.items():
            setattr(cli, name, fn)
    return restore


def metric_name(rec) -> str:
    """Per-layer metric a span's self time counts towards."""
    name, attrs = rec[0], rec[5]
    if name == "verdicts.oracle":
        return f"verdicts.oracle_s.{attrs['method']}"
    return f"{name}_s"


def layer_totals(spans):
    """Self time per layer metric and summed counts over the given spans.
    Self time is a span's duration minus the durations of its children;
    spans nest strictly because one report runs on one thread."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] is not None:
            child_time[rec[3]] += rec[2] - rec[1]
    times, counts = {}, {}
    for i, rec in enumerate(spans):
        if rec[0] == ROOT:
            continue
        key = metric_name(rec)
        times[key] = times.get(key, 0.0) + (rec[2] - rec[1]) - child_time[i]
        for k, v in rec[5].items():
            if k != "method":
                counts[k] = counts.get(k, 0) + v
    return times, counts
