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

An argv of exactly the usage line's form (the subcommand first, then
FILE, --verify, "--ring R" and "--format F" as separate words in any
order, no value starting with '-', the last of a repeated option
winning) is read directly.  Any other argv, such as -h, an abbreviated
option, --opt=value, '--' or a usage error, goes to argparse, which
reads it as it always has; a normal report never imports argparse.
"""
from __future__ import annotations

import functools
import sys
from importlib import import_module

from .errors import InternalCheckError, OracleBudgetError, ParseError
from .report import (
    ORACLE_AGREE,
    ORACLE_SKIPPED,
    ORACLE_UNSUPPORTED,
    AnalysisReport,
    render_report_machine,
    render_report_text,
)
from .rings import parse_ring_descriptor, render_ring_descriptor
from .verdicts import verdicts

# module -> the names the reports call from it, bound in this namespace
# by _load when a report first needs them or the name is first read
# from outside, so a report imports only the modules its path runs
_LAZY = {
    "groupoid": ("parse_groupoid", "validate",
                 "structured_from_finite"),  # bench/spans only, until it reads --stats
    "algebra": ("decompose", "verify_isomorphism"),
    "oracle": ("oracle_refusal", "radical_oracle"),
    "leavitt": (
        "ExitWitness", "as_finite_groupoid", "block_shape", "graph_groupoid",
        "leavitt_verdicts", "parse_graph", "verify_leavitt_relations", "witness_names",
        "condition_ne", "enumerate_cycles",  # bench/spans only, until it reads --stats
    ),
    "isg": ("isg_verdicts", "parse_isg", "semigroup_algebra_iso"),
}


@functools.cache  # one import per process; a later report pays a lookup
def _load(module: str) -> None:
    """Bind the names _LAZY lists for module here, keeping any name
    already bound: a wrapper set on this module before the first report
    (as bench/spans.install and the tests do) stays in place."""
    found = import_module(f".{module}", __package__)
    for name in _LAZY[module]:
        globals().setdefault(name, getattr(found, name))


def __getattr__(name):
    # PEP 562: reached only for a lazy name not bound yet
    for module, names in _LAZY.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _run_oracle(d: int, groupoid, ring, expected_semisimple: bool):
    """Independent semisimplicity check on the d-dimensional algebra of
    the finite groupoid groupoid() builds, which is built only when
    oracle_refusal lets the oracle run; a refusal reads skipped over
    the budget, unsupported otherwise.  Returns (status, detail, witness
    string or None).  Raises InternalCheckError if the oracle
    contradicts the verdict engine."""
    _load("oracle")
    refusal = oracle_refusal(ring, d)
    if refusal is not None:
        status = ORACLE_SKIPPED if isinstance(refusal, OracleBudgetError) else ORACLE_UNSUPPORTED
        return status, str(refusal), None
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


def _checked(what: str, rep):
    """rep, when all its checks passed; a failed check is a bug here."""
    if not rep.ok:
        raise InternalCheckError(f"{what} verification failed: {rep.failures[0]}")
    return rep


def _report(kind: str, header, ring, verdict, verify):
    """The AnalysisReport of one input.  verify is falsy without
    --verify; otherwise verify() returns the verification and the
    oracle's (status, detail, witness).  A verification over its budget
    raises OracleBudgetError, which skips both and names the budget."""
    verification, oracle = ORACLE_SKIPPED, (ORACLE_SKIPPED, "", None)
    if verify:
        try:
            verification, oracle = verify()
        except OracleBudgetError as e:
            oracle = (ORACLE_SKIPPED, str(e), None)
    return AnalysisReport(kind, header, render_ring_descriptor(ring), verdict, verification, *oracle)


def _report_groupoid(text: str, ring, do_verify: bool):
    _load("groupoid")
    _load("algebra")
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

    def verify():
        rep = _checked("isomorphism", verify_isomorphism(d))
        return rep, _run_oracle(g.arrow_count, lambda: g, ring, verdict.semisimple)

    header = (("objects", str(len(g.objects))), ("arrows", str(g.arrow_count)))
    return _report("groupoid", header, ring, verdict, do_verify and verify)


def _report_graph(text: str, ring, do_verify: bool):
    _load("leavitt")
    g = parse_graph(text)
    gd = graph_groupoid(g)
    finite = not isinstance(gd, ExitWitness)
    verdict = leavitt_verdicts(g, ring)

    def verify():
        if not finite:
            witness = f"{witness_names(g, gd)[2]}, n >= 0"
            return ORACLE_UNSUPPORTED, (ORACLE_UNSUPPORTED, "boundary-path space is infinite", witness)
        rep = _checked("relation", verify_leavitt_relations(g, ring))
        if gd.has_cycle():
            return rep, (ORACLE_UNSUPPORTED, "algebra is infinite dimensional over the lasso orbits", None)
        return rep, _run_oracle(block_shape(gd, ring).dimension, lambda: as_finite_groupoid(g),
                                ring, verdict.semisimple)

    header = (
        ("vertices", str(len(g.vertices))),
        ("edges", str(g.edge_count)),
        ("boundary paths", str(gd.boundary_count()) if finite else "infinite"),
    )
    return _report("graph", header, ring, verdict, do_verify and verify)


def _report_isg(text: str, ring, do_verify: bool):
    _load("isg")
    s = parse_isg(text)
    verdict = isg_verdicts(s, ring)

    def verify():
        iso = semigroup_algebra_iso(s, ring)
        rep = _checked("base-change", iso.report)
        return rep, _run_oracle(iso.groupoid.arrow_count, lambda: iso.groupoid, ring, verdict.semisimple)

    header = (("elements", str(s.size)), ("idempotents", str(len(s.idempotents()))))
    return _report("isg", header, ring, verdict, do_verify and verify)


_COMMANDS = {
    "groupoid": _report_groupoid,
    "graph": _report_graph,
    "isg": _report_isg,
}


@functools.cache  # built once per process; parse_args keeps no state between calls
def build_parser():
    """The argparse parser of the usage line; it reads every argv that
    _read_argv does not."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # usage problems are ordinary bad input: exit 1, not argparse's 2
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"error: {message}\n")

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


def _read_argv(argv):
    """(command, file, ring, verify, format) as parse_args reads argv,
    when argv has the usage line's form word by word; None otherwise."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    file, verify, values = None, False, {"--ring": "Q", "--format": "text"}
    words = iter(argv[1:])
    for word in words:
        if word == "--verify":
            verify = True
        elif word in values:
            value = next(words, "-")
            if value.startswith("-") or (word == "--format" and value not in ("text", "machine")):
                return None
            values[word] = value
        elif file is None and not word.startswith("-"):
            file = word
        else:
            return None
    if file is None:
        return None
    return argv[0], file, values["--ring"], verify, values["--format"]


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        a = build_parser().parse_args(argv)
        args = a.command, a.file, a.ring, a.verify, a.format
    command, file, ring, verify, fmt = args
    try:
        ring = parse_ring_descriptor(ring)
        with open(file, encoding="utf-8-sig") as fh:
            report = _COMMANDS[command](fh.read(), ring, verify)
        if report is None:
            return 1
        render = render_report_machine if fmt == "machine" else render_report_text
        text = render(report)
    except (ParseError, ValueError, OSError) as e:
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
