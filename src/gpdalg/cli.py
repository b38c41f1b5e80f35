"""Command line front end.

    gpdalg groupoid FILE [--ring R] [--verify] [--format text|machine]
    gpdalg graph    FILE [--ring R] [--verify] [--format text|machine]
    gpdalg isg      FILE [--ring R] [--verify] [--format text|machine]

Reads one input file, prints one report to stdout, touches nothing
else: no network, no environment variables, byte-identical output on
repeated runs.  Exit status 0 on success, 1 for any rejected input
(parse errors, axiom violations, unknown rings, bad usage), 2 when an
internal consistency check fails or any other exception escapes,
which is a bug in this package; no traceback is printed.

--verify re-derives every structural claim: the full isomorphism check
for groupoids, the defining relations for graph algebras, the pairwise
base-change check for inverse semigroups, and where the certified
radical oracle supports the ring and the dimension fits its budget,
an independent semisimplicity computation that must agree with the
reported verdict.
"""
from __future__ import annotations

import argparse
import functools
import sys

from .algebra import decompose, verify_isomorphism
from .errors import (
    InternalCheckError,
    LaurentOverflowError,
    OracleBudgetError,
    ParseError,
)
# condition_ne, enumerate_cycles, structured_from_finite: not called here; bench/spans.LAYERS rebinds them
from .groupoid import parse_groupoid, structured_from_finite, validate
from .isg import parse_isg, semigroup_algebra_iso, isg_verdicts
from .leavitt import (
    ExitWitness,
    as_finite_groupoid,
    block_shape,
    condition_ne,
    enumerate_cycles,
    graph_groupoid,
    leavitt_verdicts,
    parse_graph,
    verify_leavitt_relations,
    witness_names,
)
from .report import (
    ORACLE_AGREE,
    ORACLE_SKIPPED,
    ORACLE_UNSUPPORTED,
    AnalysisReport,
    render_report_machine,
    render_report_text,
)
from .rings import parse_ring_descriptor, render_ring_descriptor
from .verdicts import oracle_budget, radical_oracle, verdicts


class _Parser(argparse.ArgumentParser):
    # usage problems are ordinary bad input: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _run_oracle(d: int, groupoid, ring, expected_semisimple: bool):
    """Independent semisimplicity check on the d-dimensional algebra of
    the finite groupoid groupoid() builds, called only if the ring and
    budget let the oracle run; returns (status, detail, witness string
    or None).  Raises InternalCheckError if the oracle contradicts the
    verdict engine."""
    budget = oracle_budget(ring)
    if budget is None:
        return (
            ORACLE_UNSUPPORTED,
            f"oracle handles Q and GF(p), not {render_ring_descriptor(ring)}",
            None,
        )
    if d > budget:
        return (
            ORACLE_SKIPPED,
            f"dimension {d} beyond the oracle budget {budget}",
            None,
        )
    rad = radical_oracle(groupoid(), ring)
    if rad.semisimple != expected_semisimple:
        raise InternalCheckError(
            f"radical oracle says semisimple={rad.semisimple} but the verdict "
            f"engine says {expected_semisimple}"
        )
    detail = f"method {rad.method}"
    if rad.radical_dimension is not None:
        detail += f", radical dimension {rad.radical_dimension}"
    witness = str(rad.witness) if rad.witness is not None else None
    return ORACLE_AGREE, detail, witness


def _report_groupoid(text: str, ring, do_verify: bool):
    g = parse_groupoid(text)
    violations = validate(g)
    if violations:
        for v in violations[:3]:
            print(f"error: {v.message}", file=sys.stderr)
        if len(violations) > 3:
            print(f"error: {len(violations) - 3} further violations", file=sys.stderr)
        return None
    d = decompose(g, ring)
    verdict = verdicts(d.shape)
    header = (
        ("objects", str(len(g.objects))),
        ("arrows", str(g.arrow_count)),
    )
    verification = ORACLE_SKIPPED
    status, detail, witness = ORACLE_SKIPPED, "", None
    if do_verify:
        rep = verify_isomorphism(d)
        if not rep.ok:
            raise InternalCheckError(
                f"isomorphism verification failed: {rep.failures[0]}"
            )
        verification = rep
        status, detail, witness = _run_oracle(
            g.arrow_count, lambda: g, ring, verdict.semisimple
        )
    return AnalysisReport(
        "groupoid", header, render_ring_descriptor(ring), verdict,
        verification, status, detail, witness,
    )


def _report_graph(text: str, ring, do_verify: bool):
    g = parse_graph(text)
    gd = graph_groupoid(g)
    finite = not isinstance(gd, ExitWitness)
    verdict = leavitt_verdicts(g, ring)
    header = (
        ("vertices", str(len(g.vertices))),
        ("edges", str(g.edge_count)),
        ("boundary paths", str(gd.boundary_count()) if finite else "infinite"),
    )
    verification = ORACLE_SKIPPED
    status, detail, witness = ORACLE_SKIPPED, "", None
    if do_verify:
        if not finite:
            verification = status = ORACLE_UNSUPPORTED
            detail = "boundary-path space is infinite"
            witness = f"{witness_names(g, gd)[2]}, n >= 0"
        else:
            try:
                rep = verify_leavitt_relations(g, ring)
            except OracleBudgetError as e:
                detail = str(e)
            else:
                if not rep.ok:
                    raise InternalCheckError(
                        f"relation verification failed: {rep.failures[0]}"
                    )
                verification = rep
                if gd.has_cycle():
                    status = ORACLE_UNSUPPORTED
                    detail = "algebra is infinite dimensional over the lasso orbits"
                else:
                    status, detail, witness = _run_oracle(
                        block_shape(gd, ring).dimension, lambda: as_finite_groupoid(g),
                        ring, verdict.semisimple,
                    )
    return AnalysisReport(
        "graph", header, render_ring_descriptor(ring), verdict,
        verification, status, detail, witness,
    )


def _report_isg(text: str, ring, do_verify: bool):
    s = parse_isg(text)
    verdict = isg_verdicts(s, ring)
    header = (
        ("elements", str(s.size)),
        ("idempotents", str(len(s.idempotents()))),
    )
    verification = ORACLE_SKIPPED
    status, detail, witness = ORACLE_SKIPPED, "", None
    if do_verify:
        try:
            iso = semigroup_algebra_iso(s, ring)
        except OracleBudgetError as e:
            detail = str(e)
        else:
            if not iso.report.ok:
                raise InternalCheckError(
                    f"base-change verification failed: {iso.report.failures[0]}"
                )
            verification = iso.report
            status, detail, witness = _run_oracle(
                iso.groupoid.arrow_count, lambda: iso.groupoid, ring, verdict.semisimple
            )
    return AnalysisReport(
        "isg", header, render_ring_descriptor(ring), verdict,
        verification, status, detail, witness,
    )


_COMMANDS = {
    "groupoid": _report_groupoid,
    "graph": _report_graph,
    "isg": _report_isg,
}


@functools.cache  # built once per process; parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gpdalg",
        description="structure of groupoid algebras at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("groupoid", "analyze a finite groupoid file"),
        ("graph", "analyze the Leavitt path algebra of a directed graph"),
        ("isg", "analyze a finite inverse semigroup algebra"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input file")
        p.add_argument("--ring", default="Q", help="coefficient ring descriptor (default Q)")
        p.add_argument("--verify", action="store_true",
                       help="re-derive all structural claims and run the oracle")
        p.add_argument("--format", choices=("text", "machine"), default="text",
                       help="output format (default text)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ring = parse_ring_descriptor(args.ring)
        with open(args.file, encoding="utf-8") as fh:
            report = _COMMANDS[args.command](fh.read(), ring, args.verify)
        if report is None:
            return 1
        render = render_report_machine if args.format == "machine" else render_report_text
        text = render(report)
    except (ParseError, ValueError, LaurentOverflowError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InternalCheckError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # any other escape is a bug in this package too
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
