"""The graph and inverse semigroup readers, on the shared line grammar,
against their earlier stand-alone copies in support.

Every input is a rendered corpus graph or semigroup, relabeled and
shuffled, with one mutation; on each, the reader must return an equal
object or raise the same error with the same message and line.  The
one difference is kept on purpose: the earlier isg reader read 'row'
only when a space followed it, and called any other 'row' line an
unknown directive.  Now 'row' is a word, as 'edge' and 'arrow' are: a
tab after it reads as a space, and a bare 'row' needs a ':'."""
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corpus import glued_span_line, graph_corpus
from support import reference_parse_graph, reference_parse_isg

from gpdalg import (
    Graph,
    InverseSemigroup,
    ParseError,
    parse_graph,
    parse_groupoid,
    parse_isg,
    render_graph,
    render_isg,
)
from gpdalg.constructions import cyclic_table, symmetric_table

FIXTURES = Path(__file__).resolve().parent / "fixtures"

MUTATIONS = (
    "none", "drop_token", "extra_token", "garble_token", "undeclared_name",
    "duplicate_line", "glued_separator", "comment", "tabs", "crlf", "empty",
)
KEYWORDS = {"vertices:", "edge", ":", "->", "elements:", "row"}


def _semigroups():
    out = [("chain3", InverseSemigroup.from_table(
        ["c0", "c1", "c2"], [[min(i, j) for j in range(3)] for i in range(3)]))]
    for name, table in (("Z3", cyclic_table(3)), ("S3", symmetric_table(3))):
        out.append((name, InverseSemigroup.from_table(
            [f"g{i}" for i in range(table.size)], table.table)))
    for fname in ("i2.isg", "semilattice2.isg"):
        out.append((fname, parse_isg((FIXTURES / fname).read_text())))
    return out


GRAPHS = [(name, g) for name, g, _ in graph_corpus()]
SEMIGROUPS = _semigroups()


def graph_lines(g: Graph, rng: random.Random) -> list:
    """g rendered under fresh names, the edge lines in a seeded order."""
    vnames = [f"{rng.choice('uvw')}{i}" for i in range(len(g.vertices))]
    enames = [f"{rng.choice('ef')}{i}" for i in range(g.edge_count)]
    rng.shuffle(vnames)
    relabeled = Graph(tuple(vnames), tuple(enames), g.src, g.dst)
    head, *edges = render_graph(relabeled).splitlines()
    rng.shuffle(edges)
    return [head] + edges


def isg_lines(s: InverseSemigroup, rng: random.Random) -> list:
    """s rendered under fresh names, the rows in a seeded order."""
    names = [f"{rng.choice('abs')}{i}" for i in range(s.size)]
    rng.shuffle(names)
    relabeled = InverseSemigroup(tuple(names), s.table, s.star)
    head, *rows = render_isg(relabeled).splitlines()
    rng.shuffle(rows)
    return [head] + rows


def _names(lines):
    return [tok for ln in lines for tok in ln.replace(":", " ").split()
            if tok not in KEYWORDS] or ["x"]


def mutate(lines: list, kind: str, rng: random.Random) -> str:
    """One mutation of the kind named, at a seeded line, as input text."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    parts = lines[i].split()
    sep = "\n"
    if kind == "drop_token":
        del parts[rng.randrange(len(parts))]
        lines[i] = " ".join(parts)
    elif kind == "extra_token":
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(_names(lines) + [":", "->"]))
        lines[i] = " ".join(parts)
    elif kind == "garble_token":
        j = rng.randrange(len(parts))
        parts[j] = rng.choice(["", "->", ":", "a:b", "x->y", "vertices:", "elements:",
                               "edge", "row", "#"])
        lines[i] = " ".join(parts)
    elif kind == "undeclared_name":
        declared = set(_names(lines))
        names = [j for j, tok in enumerate(parts) if tok.rstrip(":") in declared]
        j = rng.choice(names) if names else 0
        parts[j] = "undeclared" + (":" if parts[j].endswith(":") else "")
        lines[i] = " ".join(parts)
    elif kind == "duplicate_line":
        lines.insert(rng.randrange(i, len(lines)) + 1, rng.choice(lines))
    elif kind == "glued_separator":
        spans = [k for k, ln in enumerate(lines) if ln.startswith("edge ")]
        if spans:
            k = rng.choice(spans)
            lines[k] = glued_span_line(lines[k].split(), _names(lines), rng)
    elif kind == "comment":
        lines[i] = rng.choice([
            lines[i] + "  # a comment",
            "# " + lines[i],
            lines[i].replace(" ", " #", 1),
        ])
        lines.insert(rng.randrange(len(lines) + 1), "   # a comment line")
    elif kind == "tabs":
        lines[i] = "\t" + lines[i].replace(" ", "\t") + " \t"
        lines.insert(rng.randrange(len(lines) + 1), "\t \t")
    elif kind == "crlf":
        sep = "\r\n"
    elif kind == "empty":
        return rng.choice(["", "\n", "# nothing\n", "  \n\t\n"])
    return sep.join(lines) + sep


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line)
    except ValueError as exc:  # the semigroup table check
        return ("ValueError", str(exc))


# a line that starts with 'row' and a tab
_ROW_TAB = re.compile(r"^([ \t]*row)\t", re.M)


def expected_isg(text):
    """The earlier reader's outcome, but for what it did with a 'row'
    not followed by a space: a tab there reads as a space, and a bare
    'row' (once its comment is cut) needs a ':' like a bare 'edge'."""
    want = _outcome(reference_parse_isg, _ROW_TAB.sub(r"\1 ", text))
    if isinstance(want, tuple) and want[1].endswith("unknown directive 'row'"):
        want = ("ParseError", f"line {want[2]}: row declaration needs ':'", want[2])
    return want


def assert_same_parse(parse, reference, text):
    want = expected_isg(text) if reference is reference_parse_isg else _outcome(reference, text)
    assert _outcome(parse, text) == want, text


def malformed_corpus(entries, render, seed: int = 0, count: int = 3) -> list:
    """Deterministic inputs: for every entry and every mutation kind,
    count seeded texts."""
    rng = random.Random(seed)
    return [mutate(render(obj, rng), kind, rng)
            for _, obj in entries for kind in MUTATIONS for _ in range(count)]


@pytest.mark.parametrize("parse, reference, entries, render", [
    (parse_graph, reference_parse_graph, GRAPHS, graph_lines),
    (parse_isg, reference_parse_isg, SEMIGROUPS, isg_lines),
], ids=["graph", "isg"])
def test_every_mutation_kind_reads_as_the_reference(parse, reference, entries, render):
    texts = malformed_corpus(entries, render)
    assert len(texts) == len(entries) * len(MUTATIONS) * 3
    for text in texts:
        assert_same_parse(parse, reference, text)
    outcomes = [_outcome(parse, t) for t in texts]
    errors = sum(isinstance(o, tuple) for o in outcomes)
    assert 0 < errors < len(texts)
    if parse is parse_isg:  # both sides of the difference are exercised
        assert any(_ROW_TAB.search(t) and not isinstance(o, tuple) for t, o in zip(texts, outcomes))
        assert any(isinstance(o, tuple) and o[1].endswith("row declaration needs ':'")
                   and _outcome(reference, t)[1].endswith("unknown directive 'row'")
                   for t, o in zip(texts, outcomes))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(GRAPHS), st.sampled_from(MUTATIONS), st.integers(0, 2 ** 32 - 1))
def test_graph_reader_matches_the_reference_on_mutated_text(entry, kind, seed):
    rng = random.Random(seed)
    assert_same_parse(parse_graph, reference_parse_graph, mutate(graph_lines(entry[1], rng), kind, rng))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(SEMIGROUPS), st.sampled_from(MUTATIONS), st.integers(0, 2 ** 32 - 1))
def test_isg_reader_matches_the_reference_on_mutated_text(entry, kind, seed):
    rng = random.Random(seed)
    assert_same_parse(parse_isg, reference_parse_isg, mutate(isg_lines(entry[1], rng), kind, rng))


def test_a_tab_after_row_now_reads_as_a_space():
    text = "elements: a b\nrow\ta: a b\nrow b:\tb b\n"
    assert _outcome(reference_parse_isg, text) == (
        "ParseError", "line 2: unknown directive 'row'", 2)
    assert parse_isg(text) == parse_isg(text.replace("row\t", "row "))
    assert expected_isg(text) == parse_isg(text)


def test_a_bare_keyword_needs_a_colon_in_every_format():
    # the earlier isg reader called a bare 'row' an unknown directive;
    # the shared reader treats it as it treats a bare 'edge' or 'arrow'
    for text in ("elements: a\nrow\n", "elements: a\nrow # s0: s0\n"):
        assert _outcome(reference_parse_isg, text)[1] == "line 2: unknown directive 'row'"
    for parse, text, keyword in (
        (parse_isg, "elements: a\nrow # s0: s0\n", "row"),
        (parse_graph, "vertices: a\nedge\n", "edge"),
        (parse_groupoid, "objects: a\narrow\n", "arrow"),
    ):
        assert _outcome(parse, text) == ("ParseError", f"line 2: {keyword} declaration needs ':'", 2)
