"""Stored reports: every good fixture, in both formats, with and without
--verify, must print exactly the stdout recorded in golden.json, exit 0
and write nothing to stderr.  A few --ring GF(p) --verify reports pin
each route of the char-p radical oracle as well.

The stored copy was written from the package before the report pipeline
was restructured, so any change to a report's bytes shows up here.  To
see which keys a change moves, run

    PYTHONPATH=src python tests/test_golden.py

which lists every moved, new or missing key and exits 1 if there is
any; it writes nothing.  To record a deliberate change, run

    PYTHONPATH=src python tests/test_golden.py --write

and review the diff of tests/golden.json.  The tests run neither.

The parity corpus pins exit code, stdout and stderr of every fixture,
good or corrupted, over seven rings, with and without --verify, in both
formats, and of every graph in tests/corpus.graph_corpus() and every
inverse semigroup in tests/corpus.isg_corpus() over the same rings
under --verify in machine format, so an output move on any ring shows
up as a named key.  It pins as well every groupoid of
tests/corpus.groupoid_corpus() and disconnected_ladder() over GF(2),
GF(3), GF(5) and GF(7) under --verify in machine format, so a moved
radical witness shows up as a named key too.
"""
import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from corpus import PARITY_RINGS, disconnected_ladder, graph_corpus, groupoid_corpus, isg_corpus

import gpdalg.cli
from gpdalg import render_graph, render_groupoid, render_isg

HERE = pathlib.Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden.json"

GOOD_FIXTURES = [
    ("groupoid", "pair2.gpd"),
    ("groupoid", "z3.gpd"),
    ("groupoid", "pair2_z2.gpd"),
    ("graph", "a3.quiv"),
    ("graph", "loop_spoke.quiv"),
    ("graph", "rose2.quiv"),
    ("isg", "i2.isg"),
    ("isg", "semilattice2.isg"),
]

INVOCATIONS = [
    (command, name, fmt, verify)
    for command, name in GOOD_FIXTURES
    for fmt in ("text", "machine")
    for verify in (False, True)
]


# (command, fixture, ring): every report runs with --verify, so each
# reaches the radical oracle over GF(p)
ORACLE_ROUTES = [
    ("groupoid", "pair2_z2.gpd", "GF(2)"),  # element sweep, with a witness
    ("groupoid", "pair2_z2.gpd", "GF(3)"),  # filtration, radical dimension 0
    ("groupoid", "pair2_z3.gpd", "GF(3)"),  # filtration, radical dimension 8
]

ORACLE_INVOCATIONS = [
    (command, name, ring, fmt)
    for command, name, ring in ORACLE_ROUTES
    for fmt in ("text", "machine")
]


COMMAND_OF = {".gpd": "groupoid", ".quiv": "graph", ".isg": "isg"}

# (command, fixture, ring, fmt, verify): every fixture, good or
# corrupted, but for the ORACLE_INVOCATIONS, which pin their own keys
PARITY_INVOCATIONS = [
    (COMMAND_OF[path.suffix], path.name, ring, fmt, verify)
    for path in sorted(FIXTURES.iterdir())
    for ring in PARITY_RINGS
    for fmt in ("text", "machine")
    for verify in (False, True)
    if not (verify and (COMMAND_OF[path.suffix], path.name, ring) in ORACLE_ROUTES)
]

ORACLE_RINGS = ("GF(2)", "GF(3)", "GF(5)", "GF(7)")

# (command, file name, text, rings) of every corpus input, each run
# under --verify in machine format: the graph and isg corpora over the
# parity rings, and the groupoid corpus and the disconnected ladder over the
# prime fields.  The corpus_ prefix keeps the names apart from the
# fixtures, so each stored key has one test.
CORPUS_INPUTS = (
    [("graph", f"corpus_{name}.quiv", render_graph(g), PARITY_RINGS) for name, g, _ in graph_corpus()]
    + [("isg", f"corpus_{name}.isg", render_isg(s), PARITY_RINGS) for name, s in isg_corpus()]
    + [("groupoid", f"corpus_{name}.gpd", render_groupoid(g), ORACLE_RINGS) for name, g in groupoid_corpus()]
    + [("groupoid", f"corpus_{name}.gpd", render_groupoid(g), ORACLE_RINGS) for name, g in disconnected_ladder()]
)


def _key(command, name, fmt, verify, ring=None):
    ring_flag = f" --ring {ring}" if ring else ""
    return f"{command} {name}{ring_flag} --format {fmt}" + (" --verify" if verify else "")


def _run(command, name, fmt, verify, ring=None, folder=FIXTURES):
    argv = [command, str(folder / name), "--format", fmt]
    if ring:
        argv += ["--ring", ring]
    if verify:
        argv.append("--verify")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gpdalg.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_golden_file_covers_every_invocation():
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
    keys = [_key(*inv) for inv in INVOCATIONS]
    keys += [_key(command, name, fmt, True, ring) for command, name, ring, fmt in ORACLE_INVOCATIONS]
    keys += [_key(command, name, fmt, verify, ring) for command, name, ring, fmt, verify in PARITY_INVOCATIONS]
    keys += [_key(command, name, "machine", True, ring) for command, name, _, rings in CORPUS_INPUTS for ring in rings]
    assert sorted(stored) == sorted(keys)


@pytest.mark.parametrize("command, name, fmt, verify", INVOCATIONS)
def test_report_matches_the_stored_copy(command, name, fmt, verify):
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))[_key(command, name, fmt, verify)]
    code, out, err = _run(command, name, fmt, verify)
    assert code == stored["exit"] == 0
    assert out == stored["stdout"]
    assert err == ""


@pytest.mark.parametrize("command, name, ring, fmt", ORACLE_INVOCATIONS)
def test_oracle_route_matches_the_stored_copy(command, name, ring, fmt):
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))[_key(command, name, fmt, True, ring)]
    code, out, err = _run(command, name, fmt, True, ring)
    assert code == stored["exit"] == 0
    assert out == stored["stdout"]
    assert err == ""


def _parity_runs(folder):
    """(key, (exit, stdout, stderr)) of every parity invocation; the
    corpus inputs are written to folder first."""
    for command, name, ring, fmt, verify in PARITY_INVOCATIONS:
        yield _key(command, name, fmt, verify, ring), _run(command, name, fmt, verify, ring)
    for command, name, text, rings in CORPUS_INPUTS:
        (folder / name).write_text(text, encoding="utf-8")
        for ring in rings:
            yield _key(command, name, "machine", True, ring), _run(command, name, "machine", True, ring, folder)


def test_parity_corpus_matches_the_stored_copy(tmp_path):
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
    moved = [
        key for key, got in _parity_runs(tmp_path)
        if got != (stored[key]["exit"], stored[key]["stdout"], stored[key]["stderr"])
    ]
    assert moved == []


def _record() -> dict:
    """Every stored invocation, run now: key -> exit, stdout and stderr."""
    record = {}
    for inv in INVOCATIONS:
        code, out, err = _run(*inv)
        assert not err, (inv, err)
        record[_key(*inv)] = {"exit": code, "stdout": out, "stderr": err}
    for command, name, ring, fmt in ORACLE_INVOCATIONS:
        code, out, err = _run(command, name, fmt, True, ring)
        assert not err, (command, name, ring, fmt, err)
        record[_key(command, name, fmt, True, ring)] = {"exit": code, "stdout": out, "stderr": err}
    with tempfile.TemporaryDirectory() as folder:
        for key, (code, out, err) in _parity_runs(pathlib.Path(folder)):
            record[key] = {"exit": code, "stdout": out, "stderr": err}
    return record


if __name__ == "__main__":
    record = _record()
    if "--write" in sys.argv[1:]:
        GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        sys.exit(0)
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
    changes = sorted(
        [("moved", key) for key in record.keys() & stored.keys() if record[key] != stored[key]]
        + [("new", key) for key in record.keys() - stored.keys()]
        + [("missing", key) for key in stored.keys() - record.keys()],
        key=lambda change: change[1])
    for kind, key in changes:
        print(f"{kind}: {key}")
    print(f"{len(changes)} of {len(record.keys() | stored.keys())} keys differ from {GOLDEN.name}")
    sys.exit(1 if changes else 0)
