"""The one-pass groupoid parser against the two-pass reference.

Every input is a rendered corpus groupoid, relabeled and shuffled, with
one mutation (most touch a single line); on each, parse_groupoid must
return a groupoid equal to the reference parser's, with a row table
that holds exactly its comp, or raise a ParseError with the same
message and line.  The shuffled texts mix the compose lines with the
others, so the line loop reads them; the render-order texts put them
last, where parse_groupoid reads them as one block, and the edge cases
below pin that block on every way a line can be irregular."""
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from corpus import glued_span_line, groupoid_corpus
from support import reference_parse_groupoid

import gpdalg.groupoid
from gpdalg import FiniteGroupoid, ParseError, parse_groupoid, render_groupoid
from gpdalg.errors import lines as grammar_lines

_SMALL = [(name, g) for name, g in groupoid_corpus() if g.arrow_count <= 24]

MUTATIONS = (
    "none", "drop_token", "extra_token", "garble_token", "undeclared_name",
    "duplicate_line", "glued_separator", "drop_line", "non_composable", "comment", "tabs", "crlf",
    "objects_variant", "empty",
)


def shuffled_text(g: FiniteGroupoid, rng: random.Random) -> list:
    """The lines of g rendered under fresh names, with the arrow
    declarations and the identity, inverse and compose lines each in a
    seeded order."""
    otag, atag = rng.choice("abxyz"), rng.choice("fghk")
    onames = [f"{otag}{i}" for i in range(len(g.objects))]
    anames = [f"{atag}{i}" for i in range(g.arrow_count)]
    rng.shuffle(onames)
    rng.shuffle(anames)
    relabeled = FiniteGroupoid.make(onames, anames, g.dom, g.cod, g.identity_of, g.comp, g.inv)
    lines = render_groupoid(relabeled).splitlines()
    head = lines[:1]
    decls = [ln for ln in lines if ln.startswith("arrow ")]
    rest = [ln for ln in lines[1:] if not ln.startswith("arrow ")]
    rng.shuffle(decls)
    rng.shuffle(rest)
    return head + decls + rest


def render_order_text(g: FiniteGroupoid, rng: random.Random) -> list:
    """The lines of shuffled_text with the compose lines last, in a
    seeded order among themselves: the order render_groupoid writes."""
    lines = shuffled_text(g, rng)
    compose = [ln for ln in lines if ln.startswith("compose ")]
    return [ln for ln in lines if not ln.startswith("compose ")] + compose


def _names(lines):
    out = []
    for ln in lines:
        for tok in ln.split():
            if tok not in ("objects:", "arrow", ":", "->", "=", "identity", "compose", "inverse"):
                out.append(tok)
    return out or ["x"]


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
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(_names(lines) + ["=", ":", "->"]))
        lines[i] = " ".join(parts)
    elif kind == "garble_token":
        j = rng.randrange(len(parts))
        parts[j] = rng.choice(["", "==", "->", ":", "a:b", "x->y", "objects:", "compose", "#"])
        lines[i] = " ".join(parts)
    elif kind == "undeclared_name":
        declared = set(_names(lines))
        names = [j for j, tok in enumerate(parts) if tok in declared]
        parts[rng.choice(names) if names else 0] = "undeclared"
        lines[i] = " ".join(parts)
    elif kind == "duplicate_line":
        repeatable = [ln for ln in lines if ln.split()[0] in ("compose", "identity", "inverse")]
        lines.insert(rng.randrange(i, len(lines)) + 1, rng.choice(repeatable or lines))
    elif kind == "drop_line":
        del lines[i]
    elif kind == "non_composable":
        arrows = [ln.split() for ln in lines if ln.startswith("arrow ")]
        pairs = [(f[1], h[1]) for f in arrows for h in arrows if f[3] != h[5]]
        if pairs:
            f, h = rng.choice(pairs)
            lines.insert(rng.randrange(i, len(lines)) + 1, f"compose {f} {h} = {f}")
    elif kind == "glued_separator":
        spans = [k for k, ln in enumerate(lines) if ln.startswith("arrow ")]
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
    elif kind == "objects_variant":
        variant = rng.choice([
            lines[0].replace("objects: ", "objects:"),
            lines[0] + " " + lines[0].split()[1],
            "objects:",
            "objects: extra",
            "  " + lines[0] + "  ",
        ])
        if rng.random() < 0.5:
            lines[0] = variant
        else:
            lines.insert(rng.randrange(len(lines) + 1), variant)
    elif kind == "empty":
        return rng.choice(["", "\n", "# nothing\n", "  \n\t\n"])
    return sep.join(lines) + sep


def malformed_corpus(seed: int = 0, count: int = 3, order=shuffled_text) -> list:
    """Deterministic parser inputs: for every small corpus groupoid and
    every mutation kind, count seeded texts with their lines in the
    order order gives."""
    rng = random.Random(seed)
    out = []
    for _, g in _SMALL:
        for kind in MUTATIONS:
            for _ in range(count):
                out.append(mutate(order(g, rng), kind, rng))
    return out


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line)


def assert_same_parse(text):
    got, want = _outcome(parse_groupoid, text), _outcome(reference_parse_groupoid, text)
    assert got == want, text
    if isinstance(want, FiniteGroupoid):
        # the table the parser hands over holds exactly comp
        rows = [{} for _ in want.arrows]
        for (f, h), k in want.comp:
            rows[f][h] = k
        assert got.rows == tuple(rows), text


def test_every_mutation_kind_parses_as_the_reference():
    texts = malformed_corpus()
    assert len(texts) == len(_SMALL) * len(MUTATIONS) * 3
    for text in texts:
        assert_same_parse(text)
    errors = sum(isinstance(_outcome(parse_groupoid, t), tuple) for t in texts)
    assert 0 < errors < len(texts)


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(
    st.sampled_from(_SMALL),
    st.sampled_from(MUTATIONS),
    st.integers(0, 2 ** 32 - 1),
)
def test_parser_matches_the_reference_on_mutated_corpus_text(entry, kind, seed):
    rng = random.Random(seed)
    assert_same_parse(mutate(shuffled_text(entry[1], rng), kind, rng))


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(
    st.sampled_from(_SMALL),
    st.sampled_from(MUTATIONS),
    st.integers(0, 2 ** 32 - 1),
)
def test_parser_matches_the_reference_on_mutated_render_order_text(entry, kind, seed):
    rng = random.Random(seed)
    assert_same_parse(mutate(render_order_text(entry[1], rng), kind, rng))


# ---------------------------------------------------------------------------
# the compose block: which texts take it, and its edge cases


@pytest.fixture
def loop_compose_lines(monkeypatch):
    """The line numbers of the compose lines parse_groupoid's line loop
    reads, recorded by a wrapper on the lines() it iterates."""
    seen = []

    def counting(text):
        for item in grammar_lines(text):
            if item[1][0] == "compose":
                seen.append(item[0])
            yield item

    monkeypatch.setattr(gpdalg.groupoid, "lines", counting)
    return seen


def test_every_mutation_kind_in_render_order_parses_as_the_reference(loop_compose_lines):
    texts = malformed_corpus(order=render_order_text)
    assert len(texts) == len(_SMALL) * len(MUTATIONS) * 3
    by_block = 0
    for text in texts:
        read = len(loop_compose_lines)
        assert_same_parse(text)
        if len(loop_compose_lines) == read and "\ncompose " in text:
            by_block += 1
    # every unmutated text and many mutated ones (a mutation that
    # misses the compose lines) take the block
    assert by_block > len(_SMALL) * 3


def test_every_rendered_corpus_groupoid_reads_its_compose_lines_as_a_block(loop_compose_lines):
    for name, g in groupoid_corpus():
        text = render_groupoid(g)
        assert parse_groupoid(text) == g, name
        assert_same_parse(text)
        assert loop_compose_lines == [], name


def test_a_file_with_inverse_lines_after_its_compose_lines_reads_line_by_line(loop_compose_lines):
    text = (pathlib.Path(__file__).parent / "fixtures" / "pair2.gpd").read_text()
    assert_same_parse(text)
    composes = [ln for ln, line in enumerate(text.splitlines(), 1) if line.startswith("compose ")]
    assert len(composes) == 8
    # the block refuses the text, and the line loop reads each compose line once
    assert loop_compose_lines == composes


_HEAD = [
    "objects: x y",
    "arrow f : x -> y",
    "arrow g : y -> x",
    "arrow ix : x -> x",
    "arrow iy : y -> y",
    "identity x = ix",
    "identity y = iy",
    "inverse f = g",
    "inverse g = f",
    "inverse ix = ix",
    "inverse iy = iy",
]
_BLOCK = [
    "compose f g = iy",
    "compose g f = ix",
    "compose ix ix = ix",
    "compose iy iy = iy",
    "compose f ix = f",
    "compose ix g = g",
    "compose iy f = f",
    "compose g iy = g",
]
# pair2 with f named "compose" and g named "="
_KEYWORD_NAMES = {"f": "compose", "g": "="}


def _keyword_named(lines):
    return [" ".join(_KEYWORD_NAMES.get(w, w) for w in ln.split(" ")) for ln in lines]


def _text(head=_HEAD, block=_BLOCK, tail=(), sep="\n", end="\n"):
    return sep.join([*head, *block, *tail]) + end


def _edit(i, line):
    return [line if k == i else ln for k, ln in enumerate(_BLOCK)]


# (id, text, whether the block reads it)
BLOCK_CASES = [
    ("canonical", _text(), True),
    ("double-space", _text(block=_edit(3, "compose iy  iy = iy")), False),
    ("trailing-space", _text(block=_edit(5, "compose ix g = g ")), False),
    ("leading-space", _text(block=_edit(6, " compose iy f = f")), False),
    ("tab", _text(block=_edit(2, "compose\tix ix = ix")), False),
    ("crlf", _text(sep="\r\n", end="\r\n"), False),
    ("crlf-last-line", _text(end="\r\n"), False),
    ("x1c-ending", _text(block=_edit(4, "compose f ix = f\x1c")), False),
    ("x1c-between-lines", _text(block=[_BLOCK[0] + "\x1c" + _BLOCK[1], *_BLOCK[2:]]), False),
    ("no-final-newline", _text(end=""), False),
    # five words with "=" fourth, and the word compose after the last
    # newline: the keyword column counts n compose words either way
    ("other-keyword-then-bare-compose",
     _text(block=_edit(4, "inverse f ix = f"), end="\ncompose"), False),
    ("blank-line", _text(block=[*_BLOCK[:4], "", *_BLOCK[4:]]), False),
    ("comment-line", _text(block=[*_BLOCK[:4], "# more", *_BLOCK[4:]]), False),
    ("comment-glued-to-name", _text(block=_edit(7, "compose g iy = g#note")), False),
    ("comment-in-head", _text(head=[*_HEAD[:5], "# identities", *_HEAD[5:]]), True),
    ("arrow-after-block", _text(tail=["arrow h : x -> y"]), False),
    ("inverse-lines-after-block", _text(head=_HEAD[:7], tail=_HEAD[7:]), False),
    ("duplicate-inverse-after-block", _text(tail=["inverse f = g"]), False),
    ("compose-at-line-1", _text(head=[_BLOCK[0], *_HEAD]), None),
    ("no-objects-line", _text(head=_HEAD[1:]), None),
    ("no-declarations", _text(head=["# compose lines only"]), False),
    ("keyword-arrow-names", _text(head=_keyword_named(_HEAD), block=_keyword_named(_BLOCK)), True),
    # "compose iy compose =" then "compose compose ix ix = ix": a four-word
    # and a six-word line, which at a stride of five words read as
    # "compose iy compose = compose" and "compose ix ix = ix"
    ("four-then-six-words", _text(
        head=_keyword_named(_HEAD),
        block=["compose iy compose =", "compose compose ix ix = ix",
               *_keyword_named(b for b in _BLOCK if b not in ("compose iy f = f", "compose ix ix = ix"))],
    ), False),
    # eleven words: read at a stride of six from the start of the block,
    # two lines "compose iy f = f" and "compose g iy = g" with the
    # keyword and newline columns off by a line
    ("two-lines-in-one", _text(block=[*_BLOCK[:6], "compose iy f = f and then g iy is g"]), False),
    ("duplicate-pair", _text(block=[*_BLOCK, _BLOCK[2]]), False),
    ("duplicate-of-a-head-pair", _text(head=[*_HEAD, " " + _BLOCK[0]]), False),
    ("indented-head-pair", _text(head=[*_HEAD, " " + _BLOCK[0]], block=_BLOCK[1:]), True),
    ("non-composable-pair", _text(block=[*_BLOCK[:5], "compose f f = f", *_BLOCK[5:]]), False),
    ("undeclared-name", _text(block=_edit(1, "compose g f = h")), False),
    ("one-line-block", "objects: x\narrow e : x -> x\nidentity x = e\ninverse e = e\ncompose e e = e\n", True),
    ("one-line-block-undeclared", "objects: x\narrow e : x -> x\ncompose e e = d\n", False),
    ("head-error", _text(head=[*_HEAD[:3], "arrow ix x -> x", *_HEAD[4:]]), None),
    ("missing-pair", _text(block=_BLOCK[1:]), True),
]


@pytest.mark.parametrize("text, by_block", [case[1:] for case in BLOCK_CASES],
                         ids=[case[0] for case in BLOCK_CASES])
@pytest.mark.parametrize("chunk", [None, 0, 40], ids=["chunk-default", "chunk-line", "chunk-40"])
def test_the_compose_block_parses_as_the_reference(text, by_block, chunk, loop_compose_lines,
                                                   monkeypatch):
    """The same groupoid and rows, or the same message and line, as the
    reference, whether the block reads the lines from the first one
    that starts "compose " on (by_block) or the line loop does (None:
    the lines before them hold the error); in one chunk, a line to a
    chunk, or a few lines to a chunk."""
    if chunk is not None:
        monkeypatch.setattr(gpdalg.groupoid, "_CHUNK_CHARS", chunk)
    try:
        parse_groupoid(text)
    except ParseError:
        pass
    block_line = text[:text.find("\ncompose ") + 1].count("\n") + 1
    loop_read = any(ln >= block_line for ln in loop_compose_lines)
    assert_same_parse(text)
    if by_block is not None:
        assert loop_read != by_block


@pytest.mark.parametrize("chunk", [0, 40, 4096])
def test_a_block_over_many_chunks_parses_as_the_reference(chunk, monkeypatch):
    """Rendered groupoids of more than 4,096 characters, whole or with a
    bad line at the end of the block (a duplicate of its first line, a
    non-composable pair, an extra word), in chunks of one line, a few
    lines and the default size."""
    monkeypatch.setattr(gpdalg.groupoid, "_CHUNK_CHARS", chunk)
    large = [g for _, g in groupoid_corpus() if len(render_groupoid(g)) > 4096]
    assert len(large) >= 3
    for g in large:
        text = render_groupoid(g)
        first = text[text.index("\ncompose ") + 1:].split("\n", 1)[0]
        f, h = next((f, h) for f in range(g.arrow_count) for h in range(g.arrow_count)
                    if g.dom[f] != g.cod[h])
        f, h = g.arrows[f], g.arrows[h]
        for mutated in (text, text + first + "\n", text + f"compose {f} {h} = {f}\n",
                        text[:-1] + " x\n"):
            assert_same_parse(mutated)
