"""Shared exception types, and the line grammar the three file formats
share.

Parsing problems and input-level validation failures are ordinary bad
input (CLI exit code 1).  InternalCheckError marks a verification that
can only fail if the library itself is wrong (CLI exit code 2).

The .gpd, .quiv and .isg readers share one line grammar: '#' starts a
comment, blank lines are skipped (lines), "PLURAL: name ..." declares
names (Names.read_list), and "KIND NAME : SRC -> DST" declares a span
(read_span).  A name is any run of characters other than whitespace
and '#'; on a declaration line it ends at the first ':' and must be
one word, and a span's source ends at the first '->'.  The
ParseErrors for those lines, for unknown directives and for names
declared twice, not declared or missing are raised here only.
"""
from __future__ import annotations

from itertools import count
from operator import itemgetter


class ParseError(ValueError):
    """Bad input text.  line is 1-based when known, column likewise."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}: {message}"
        elif column is not None:
            message = f"position {column}: {message}"
        super().__init__(message)


class OracleBudgetError(RuntimeError):
    """Input exceeds the budget of a bounded check: the arrow count the
    radical oracle takes, or the size limit of a pairwise verification."""


class InternalCheckError(AssertionError):
    """A structural claim that should hold by theorem failed.  Always a
    bug in this package, never a property of the input."""


def lines(text: str):
    """(line number, words, line) for each line of text that holds a
    word once its '#' comment is cut; line is that cut text.  Built
    from iterators that run in C: a parser's loop is the only Python
    step per line."""
    cut = text.splitlines()
    if "#" in text:
        cut = [raw.split("#", 1)[0] for raw in cut]
    return filter(itemgetter(1), zip(count(1), map(str.split, cut), cut))


class Names:
    """The names of one kind declared so far: index maps each to its
    position in declaration order.  plural is the word of their list
    directive."""

    __slots__ = ("kind", "plural", "index")

    def __init__(self, kind: str, plural: str | None = None):
        self.kind = kind
        self.plural = plural
        self.index: dict = {}

    def declare(self, name: str, ln: int) -> None:
        if name in self.index:
            raise ParseError(f"{self.kind} '{name}' declared twice", line=ln)
        self.index[name] = len(self.index)

    def need(self, name: str, ln: int) -> int:
        found = self.index.get(name)
        if found is None:
            raise ParseError(f"{self.kind} '{name}' not declared", line=ln)
        return found

    def read_list(self, words: list, line: str, ln: int) -> None:
        """Declare each name of the line "PLURAL: name ...".  Each
        format tries this directive last, so any other line is an
        unknown directive."""
        line = line.lstrip()
        if not line.startswith(self.plural + ":"):
            raise ParseError(f"unknown directive '{words[0]}'", line=ln)
        for name in line[len(self.plural) + 1:].split():
            self.declare(name, ln)

    def require(self) -> tuple:
        """The names in declaration order; there must be one."""
        if not self.index:
            raise ParseError(f"no {self.plural} declared", line=1)
        return tuple(self.index)


def split_declaration(line: str, keyword: str, ln: int) -> tuple:
    """(NAME, REST), stripped, of the line "KEYWORD NAME : REST"; NAME
    is one word."""
    rest = line.lstrip()[len(keyword):]
    if ":" not in rest:
        raise ParseError(f"{keyword} declaration needs ':'", line=ln)
    name, rest = rest.split(":", 1)
    name = name.strip()
    if len(name.split()) > 1:
        raise ParseError(f"{keyword} name '{name}' contains whitespace", line=ln)
    return name, rest.strip()


def read_span(words: list, line: str, ln: int, names: Names, ends: Names) -> tuple:
    """Declare NAME of the line "KIND NAME : SRC -> DST" in names (KIND
    is names.kind and words[0]; words is line.split()) and return the
    indices of SRC and DST in ends."""
    if (len(words) == 6 and words[2] == ":" and words[4] == "->"
            and ":" not in words[1] and "->" not in words[3]):
        # the first ':' and the first '->' are the separator words, so
        # the string path below would split the line the same way
        names.declare(words[1], ln)
        return ends.need(words[3], ln), ends.need(words[5], ln)
    name, span = split_declaration(line, names.kind, ln)
    if "->" not in span:
        raise ParseError(f"{names.kind} declaration needs '->'", line=ln)
    src, dst = (s.strip() for s in span.split("->", 1))
    if not name or not src or not dst:
        raise ParseError(f"malformed {names.kind} declaration", line=ln)
    names.declare(name, ln)
    return ends.need(src, ln), ends.need(dst, ln)
