"""The one-pass groupoid parser against the two-pass reference.

Every input is a rendered corpus groupoid, relabeled and shuffled, with
one mutation (most touch a single line); on each, parse_groupoid must
return a groupoid equal to the reference parser's, with a row table
that holds exactly its comp, or raise a ParseError with the same
message and line.  The shuffled texts mix the compose lines with the
others, so the line loop reads them; the render-order texts are
render_groupoid's own, which parse_groupoid reads whole, and the edge
cases below pin that reader on every way a line can be irregular."""
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from corpus import glued_span_line, graph_corpus, groupoid_corpus, isg_corpus
from support import reference_parse_groupoid

import gpdalg.groupoid
from gpdalg import FiniteGroupoid, ParseError, parse_groupoid, render_groupoid
from gpdalg import constructions as C
from gpdalg.errors import lines as grammar_lines
from gpdalg.groupoid import _table
from gpdalg.isg import underlying_groupoid
from gpdalg.leavitt import as_finite_groupoid

_SMALL = [(name, g) for name, g in groupoid_corpus() if g.arrow_count <= 24]

MUTATIONS = (
    "none", "drop_token", "extra_token", "garble_token", "undeclared_name",
    "duplicate_line", "glued_separator", "drop_line", "non_composable", "comment", "tabs", "crlf",
    "objects_variant", "empty",
)


def _relabeled(g: FiniteGroupoid, rng: random.Random) -> FiniteGroupoid:
    """g under fresh names in a seeded order."""
    otag, atag = rng.choice("abxyz"), rng.choice("fghk")
    onames = [f"{otag}{i}" for i in range(len(g.objects))]
    anames = [f"{atag}{i}" for i in range(g.arrow_count)]
    rng.shuffle(onames)
    rng.shuffle(anames)
    return FiniteGroupoid.make(onames, anames, g.dom, g.cod, g.identity_of, g.comp, g.inv)


def shuffled_text(g: FiniteGroupoid, rng: random.Random) -> list:
    """The lines of g rendered under fresh names, with the arrow
    declarations and the identity, inverse and compose lines each in a
    seeded order."""
    lines = render_groupoid(_relabeled(g, rng)).splitlines()
    head = lines[:1]
    decls = [ln for ln in lines if ln.startswith("arrow ")]
    rest = [ln for ln in lines[1:] if not ln.startswith("arrow ")]
    rng.shuffle(decls)
    rng.shuffle(rest)
    return head + decls + rest


def render_order_text(g: FiniteGroupoid, rng: random.Random) -> list:
    """The lines render_groupoid writes for g under fresh names."""
    return render_groupoid(_relabeled(g, rng)).splitlines()


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
# the whole-form reader: which texts it takes, and its edge cases


@pytest.fixture
def loop_entries(monkeypatch):
    """The texts parse_groupoid's line loop is entered on, recorded by a
    wrapper on the lines() it iterates."""
    seen = []

    def counting(text):
        seen.append(text)
        return grammar_lines(text)

    monkeypatch.setattr(gpdalg.groupoid, "lines", counting)
    return seen


def test_every_mutation_kind_in_render_order_parses_as_the_reference(loop_entries):
    texts = malformed_corpus(order=render_order_text)
    assert len(texts) == len(_SMALL) * len(MUTATIONS) * 3
    whole = 0
    for text in texts:
        entered = len(loop_entries)
        assert_same_parse(text)
        if len(loop_entries) == entered:
            whole += 1
    # every unmutated text and the mutations that leave a text as it
    # was (no non-composable pair in a group) are read whole
    assert whole > len(_SMALL) * 3


def _rendered_groupoids():
    """(name, groupoid) for every corpus groupoid, each constructions
    builder at two sizes, the boundary-path groupoids of the acyclic
    corpus graphs and the groupoids of the corpus inverse semigroups."""
    out = list(groupoid_corpus())
    for n in (1, 6):
        out.append((f"pair{n}", C.pair_groupoid([f"x{i}" for i in range(n)])))
    for n in (1, 7):
        out.append((f"Z{n}", C.group_groupoid(C.cyclic_table(n), f"pt{n}")))
    for n in (2, 4):
        out.append((f"S{n}", C.group_groupoid(C.symmetric_table(n))))
    out.append(("V4", C.group_groupoid(C.klein_table(), "o")))
    out.append(("pair2xZ5", C.product_with_group(C.pair_groupoid("ab"), C.cyclic_table(5))))
    out.append(("pair4xS3", C.product_with_group(C.pair_groupoid("abcd"), C.symmetric_table(3))))
    out.append(("Z2_u_pair2", C.disjoint_union(C.group_groupoid(C.cyclic_table(2)),
                                               C.pair_groupoid("ab"))))
    out.append(("S3_u_pair5", C.disjoint_union(C.group_groupoid(C.symmetric_table(3)),
                                               C.pair_groupoid("abcde"), "P", "Q")))
    out.append(("act_swap2", C.action_groupoid([(1, 0)], 2)))
    out.append(("act_D5", C.action_groupoid([(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)], 5)))
    for name, graph, _ in graph_corpus():
        try:
            out.append((f"graph_{name}", as_finite_groupoid(graph)))
        except ValueError:  # a cycle
            pass
    for name, s in isg_corpus():
        out.append((f"isg_{name}", underlying_groupoid(s)))
    return out


_CHUNKS = pytest.mark.parametrize("chunk", [None, 0, 40], ids=["chunk-default", "chunk-line", "chunk-40"])


@_CHUNKS
def test_render_groupoid_is_read_back_whole(chunk, loop_entries, monkeypatch):
    """parse_groupoid(render_groupoid(g)) is g, rows included, and the
    line loop is never entered: render_groupoid's form is the
    whole-form reader's contract."""
    if chunk is not None:
        monkeypatch.setattr(gpdalg.groupoid, "_CHUNK_CHARS", chunk)
    cases = _rendered_groupoids()
    assert {name.split("_")[0] for name, _ in cases} >= {"graph", "isg"}
    for name, g in cases:
        text = render_groupoid(g)
        got = parse_groupoid(text)
        assert got == g and got.rows == g.rows, name
        assert loop_entries == [], name
        assert_same_parse(text)


def test_a_file_with_inverse_lines_after_its_compose_lines_reads_line_by_line(loop_entries):
    text = (pathlib.Path(__file__).parent / "fixtures" / "pair2.gpd").read_text()
    # the whole-form reader refuses the text, and the line loop reads
    # it once, whole
    parse_groupoid(text)
    assert loop_entries == [text]
    assert_same_parse(text)


# pair2 as render_groupoid writes it
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
    "compose f ix = f",
    "compose g f = ix",
    "compose g iy = g",
    "compose ix g = g",
    "compose ix ix = ix",
    "compose iy f = f",
    "compose iy iy = iy",
]
# pair2 with f named "compose" and g named "="
_KEYWORD_NAMES = {"f": "compose", "g": "="}


def _keyword_named(lines):
    return _renamed(lines, _KEYWORD_NAMES)


def _renamed(lines, names):
    return [" ".join(names.get(w, w) for w in ln.split(" ")) for ln in lines]


def _text(head=_HEAD, block=_BLOCK, tail=(), sep="\n", end="\n"):
    return sep.join([*head, *block, *tail]) + end


def _edit(line, new, lines=_BLOCK):
    """lines with line replaced by new."""
    assert line in lines
    return [new if ln == line else ln for ln in lines]


def _head_edit(line, new):
    return _text(head=_edit(line, new, _HEAD))


def _named(names):
    """pair2 with names renamed, everywhere."""
    return _text(head=_renamed(_HEAD, names), block=_renamed(_BLOCK, names))


# (id, text, True when the whole-form reader reads it; else the line
# loop does and raises before its first compose line (None) or not
# (False)).  The compose lines, edited:
COMPOSE_CASES = [
    ("canonical", _text(), True),
    ("double-space", _text(block=_edit("compose iy iy = iy", "compose iy  iy = iy")), False),
    ("trailing-space", _text(block=_edit("compose ix g = g", "compose ix g = g ")), False),
    ("leading-space", _text(block=_edit("compose iy f = f", " compose iy f = f")), False),
    ("tab", _text(block=_edit("compose ix ix = ix", "compose\tix ix = ix")), False),
    ("crlf", _text(sep="\r\n", end="\r\n"), False),
    ("crlf-last-line", _text(end="\r\n"), False),
    ("x1c-ending", _text(block=_edit("compose f ix = f", "compose f ix = f\x1c")), False),
    ("x1c-between-lines", _text(block=[_BLOCK[0] + "\x1c" + _BLOCK[1], *_BLOCK[2:]]), False),
    ("no-final-newline", _text(end=""), False),
    # five words with "=" fourth, and the word compose after the last
    # newline: the keyword column counts n compose words either way
    ("other-keyword-then-bare-compose",
     _text(block=_edit("compose f ix = f", "inverse f ix = f"), end="\ncompose"), False),
    ("blank-line", _text(block=[*_BLOCK[:4], "", *_BLOCK[4:]]), False),
    ("comment-line", _text(block=[*_BLOCK[:4], "# more", *_BLOCK[4:]]), False),
    ("comment-glued-to-name", _text(block=_edit("compose g iy = g", "compose g iy = g#note")), False),
    ("comment-in-head", _text(head=[*_HEAD[:5], "# identities", *_HEAD[5:]]), False),
    ("arrow-after-block", _text(tail=["arrow h : x -> y"]), False),
    ("inverse-lines-after-block", _text(head=_HEAD[:7], tail=_HEAD[7:]), False),
    ("duplicate-inverse-after-block", _text(tail=["inverse f = g"]), False),
    ("compose-at-line-1", _text(head=[_BLOCK[0], *_HEAD]), False),
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
    # two lines "compose iy f = f" and "compose iy iy = iy" with the
    # keyword and newline columns off by a line
    ("two-lines-in-one", _text(block=[*_BLOCK[:6], "compose iy f = f and then iy iy is iy"]), False),
    ("duplicate-pair", _text(block=[*_BLOCK, _BLOCK[2]]), False),
    ("duplicate-of-a-head-pair", _text(head=[*_HEAD, " " + _BLOCK[0]]), False),
    ("indented-head-pair", _text(head=[*_HEAD, " " + _BLOCK[0]], block=_BLOCK[1:]), False),
    ("non-composable-pair", _text(block=[*_BLOCK[:5], "compose f f = f", *_BLOCK[5:]]), False),
    ("undeclared-name", _text(block=_edit("compose g f = ix", "compose g f = h")), False),
    ("one-line-block", "objects: x\narrow e : x -> x\nidentity x = e\ninverse e = e\ncompose e e = e\n", True),
    ("one-line-block-undeclared", "objects: x\narrow e : x -> x\ncompose e e = d\n", False),
    ("head-error", _text(head=[*_HEAD[:3], "arrow ix x -> x", *_HEAD[4:]]), None),
    ("missing-pair", _text(block=_BLOCK[1:]), False),
    ("missing-last-pair", _text(block=_BLOCK[:-1]), False),
    # a total table in another order: the F and G columns differ from
    # the ones the arrow lines predict
    ("compose-lines-reordered", _text(block=[_BLOCK[i] for i in (0, 2, 5, 7, 1, 4, 6, 3)]), False),
    ("adjacent-compose-lines-swapped", _text(block=[*_BLOCK[:2], _BLOCK[3], _BLOCK[2], *_BLOCK[4:]]), False),
]

# the lines before the compose lines
HEAD_CASES = [
    ("colon-in-arrow-name", _named({"f": "f:1"}), None),
    ("colon-in-object-name", _named({"x": "x:1"}), False),
    ("arrow-in-arrow-name", _named({"f": "f->1"}), False),
    ("arrow-in-source-name", _named({"x": "x->1"}), None),
    ("arrow-in-target-name", _named({"y": "y->1"}), None),
    ("equals-in-names", _named({"f": "=f", "x": "x="}), True),
    ("object-named-compose", _named({"x": "compose", "y": "inverse"}), True),
    ("hash-in-arrow-name", _named({"iy": "i#y"}), None),
    ("tab-in-arrow-name", _named({"f": "f\t1"}), None),
    ("x1c-in-arrow-name", _named({"f": "f\x1c1"}), None),
    ("nbsp-in-object-name", _named({"x": "x\xa01"}), None),
    ("u2028-in-arrow-name", _named({"ix": "i\u2028x"}), None),
    ("object-declared-twice", _head_edit("objects: x y", "objects: x y x"), None),
    ("object-declared-twice-with-its-identity",
     _text(head=["objects: x y x", *_HEAD[1:7], "identity x = ix", *_HEAD[7:]]), None),
    ("arrow-declared-twice-everywhere", _named({"iy": "ix"}), None),
    ("empty-object-name", _named({"x": ""}), None),
    ("empty-arrow-name", _named({"f": ""}), None),
    ("other-list-directive", _head_edit("objects: x y", "things: x y"), None),
    ("arrow-declared-twice", _head_edit("arrow iy : y -> y", "arrow f : y -> y"), None),
    ("undeclared-span-end", _head_edit("arrow g : y -> x", "arrow g : y -> z"), None),
    ("undeclared-identity-object", _head_edit("identity y = iy", "identity z = iy"), None),
    ("undeclared-inverse-target", _head_edit("inverse ix = ix", "inverse ix = h"), None),
    ("identity-declared-twice", _head_edit("identity y = iy", "identity x = ix"), None),
    ("inverse-declared-twice", _head_edit("inverse g = f", "inverse f = g"), None),
    ("identity-not-a-loop", _head_edit("identity y = iy", "identity y = f"), True),
    ("inverses-before-identities", _text(head=[*_HEAD[:5], *_HEAD[7:], *_HEAD[5:7]]), False),
    ("identities-before-arrows", _text(head=[_HEAD[0], *_HEAD[5:7], *_HEAD[1:5], *_HEAD[7:]]), None),
    ("arrows-after-inverses", _text(head=[_HEAD[0], *_HEAD[5:], *_HEAD[1:5]]), None),
    ("objects-line-last", _text(head=[*_HEAD[1:], _HEAD[0]]), None),
    ("no-identities", _text(head=[*_HEAD[:5], *_HEAD[7:]]), False),
    ("no-inverses", _text(head=_HEAD[:7]), False),
    ("one-identity-missing", _text(head=[*_HEAD[:6], *_HEAD[7:]]), False),
    ("one-inverse-missing", _text(head=_HEAD[:-1]), False),
    ("inverses-out-of-order", _text(head=[*_HEAD[:7], _HEAD[8], _HEAD[7], *_HEAD[9:]]), False),
    ("crlf-head", _text(head=[ln + "\r" for ln in _HEAD]), False),
    ("cr-in-objects-line", _head_edit("objects: x y", "objects: x\ry"), None),
    ("double-space-in-objects-line", _head_edit("objects: x y", "objects: x  y"), False),
    ("no-space-after-objects", _head_edit("objects: x y", "objects:x y"), False),
    ("empty-objects-line", _text(head=["objects:", *_HEAD[1:]]), None),
    ("empty-objects-line-only", "objects:\ncompose e e = e\n", False),
    ("double-space-in-arrow-line", _head_edit("arrow f : x -> y", "arrow f  : x -> y"), False),
    ("blank-line-in-head", _text(head=[*_HEAD[:5], "", *_HEAD[5:]]), False),
    ("one-line-block-no-final-newline",
     "objects: x\narrow e : x -> x\nidentity x = e\ninverse e = e\ncompose e e = e", False),
    # every section check passes with no arrow line
    ("identities-but-no-arrows", "objects: x\nidentity x = e\ncompose e e = e\n", None),
    ("two-identities-but-no-arrows",
     "objects: x y\nidentity x = e\nidentity y = d\ncompose e e = e\n", None),
]


def _assert_route(text, whole, chunk, loop_entries, monkeypatch):
    """The same groupoid and rows, or the same message and line, as the
    reference, whether the whole-form reader reads the text (whole) or
    the line loop does, raising before the compose lines (None) or not
    (False); in one chunk, a line to a chunk, or a few lines to a
    chunk."""
    if chunk is not None:
        monkeypatch.setattr(gpdalg.groupoid, "_CHUNK_CHARS", chunk)
    try:
        got = parse_groupoid(text)
    except ParseError as exc:
        got = exc
    assert (loop_entries == []) == bool(whole)
    if not whole:
        first = next((ln for ln, words, _ in grammar_lines(text) if words[0] == "compose"), None)
        raised_early = isinstance(got, ParseError) and (first is None or got.line < first)
        assert raised_early == (whole is None)
    assert_same_parse(text)


@pytest.mark.parametrize("text, whole", [case[1:] for case in COMPOSE_CASES],
                         ids=[case[0] for case in COMPOSE_CASES])
@_CHUNKS
def test_the_compose_block_parses_as_the_reference(text, whole, chunk, loop_entries, monkeypatch):
    _assert_route(text, whole, chunk, loop_entries, monkeypatch)


@pytest.mark.parametrize("text, whole", [case[1:] for case in HEAD_CASES],
                         ids=[case[0] for case in HEAD_CASES])
@_CHUNKS
def test_the_head_sections_parse_as_the_reference(text, whole, chunk, loop_entries, monkeypatch):
    _assert_route(text, whole, chunk, loop_entries, monkeypatch)


def test_a_word_table_has_whole_lines():
    assert _table("a 1 \n b 2 \n ".split(" ")[:-1], None, None, "\n") == [["a", "b"], ["1", "2"]]
    for words in ("a 1 \n b 2", "a 1 \n b \n", "a 1 \n b 2 x"):
        with pytest.raises(ValueError):
            _table(words.split(" "), None, None, "\n")


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
