"""The one-pass groupoid parser against the two-pass reference.

Every input is a rendered corpus groupoid, relabeled and shuffled, with
one mutation (most touch a single line); on each, parse_groupoid must
return a groupoid equal to the reference parser's, with a row table
that holds exactly its comp, or raise a ParseError with the same
message and line."""
import random

from hypothesis import given, settings, strategies as st

from corpus import glued_span_line, groupoid_corpus
from support import reference_parse_groupoid

from gpdalg import FiniteGroupoid, ParseError, parse_groupoid, render_groupoid

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


def malformed_corpus(seed: int = 0, count: int = 3) -> list:
    """Deterministic parser inputs: for every small corpus groupoid and
    every mutation kind, count seeded texts."""
    rng = random.Random(seed)
    out = []
    for _, g in _SMALL:
        for kind in MUTATIONS:
            for _ in range(count):
                out.append(mutate(shuffled_text(g, rng), kind, rng))
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
