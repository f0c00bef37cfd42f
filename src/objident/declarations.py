"""Line-oriented parser for C-like function declaration files.

Grammar (one construct per line; ``#`` starts a comment, blank lines are
skipped):

    directive  := "%types" ident+
    proto      := type ident "(" params? ")" annotation?
    type       := "void" | "int" | "struct" ident "*"?
    params     := param ("," param)*
    param      := type ident
    annotation := "!" "uses:" ident ("," ident)*

``struct X`` and ``struct X *`` both map to the bare type name X.  The
``%types`` directive fixes the subject-type order; without it, struct names
are collected in first-appearance order.  The ``! uses:`` annotation states
which subject types' fields the function touches, a fact a prototype alone
cannot express.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .features import ComponentRecord

# One token per match; whitespace is skipped by the search.  A line whose
# tokens do not spell out all of its other characters has one that starts
# no token, which the search with a catch-all group added finds.
_TOKEN_RE = re.compile(r"%types\b|[A-Za-z_][A-Za-z0-9_]*|[*(),!:]")

# Words of the grammar that cannot name a struct, subject type, function
# or parameter.
_KEYWORDS = ("void", "int", "struct")


def _is_name(text: str) -> bool:
    return text.isidentifier() and text not in _KEYWORDS


def _tokenize(line: str, line_no: int) -> list[str]:
    tokens = _TOKEN_RE.findall(line)
    if "".join(tokens) != "".join(line.split()):
        bad = next(match for match in re.finditer(_TOKEN_RE.pattern + r"|(\S)", line)
                   if match.group(1))
        raise ParseError(f"unexpected character {bad.group(1)!r}",
                         line=line_no, column=bad.start() + 1)
    return tokens


def _column(line: str, index: int) -> int:
    """The 1-based column of token ``index`` of a line ``_tokenize``
    accepted, or just past the line's end if there is no such token."""
    starts = [match.start() + 1 for match in _TOKEN_RE.finditer(line)]
    return starts[index] if index < len(starts) else len(line) + 1


def _expected(what: str, tokens: list[str], index: int, line: str,
              line_no: int) -> ParseError:
    """The error for a line whose token ``index`` is not ``what``."""
    found = repr(tokens[index]) if tokens[index] else "end of line"
    return ParseError(f"expected {what}, found {found}",
                      line=line_no, column=_column(line, index))


def _parse_type(tokens: list[str], i: int, line: str, line_no: int) -> tuple[str, int]:
    """The type that starts at token ``i``, and the index of the token after it."""
    name = tokens[i]
    if name in ("void", "int"):
        return name, i + 1
    if name != "struct":
        if not name.isidentifier():
            raise _expected("a type ('void', 'int', or 'struct <name>')",
                            tokens, i, line, line_no)
        raise ParseError(
            f"unknown type {name!r} (expected 'void', 'int', or 'struct <name>')",
            line=line_no, column=_column(line, i))
    if not _is_name(tokens[i + 1]):
        raise _expected("struct name", tokens, i + 1, line, line_no)
    return tokens[i + 1], i + 3 if tokens[i + 2] == "*" else i + 2


def _parse_proto(tokens: list[str], line: str,
                 line_no: int) -> tuple[ComponentRecord, list[int]]:
    """The line's record, plus the indexes of its ``! uses:`` name tokens.

    One pass over the tokens, ``i`` being the index of the next one.  An
    empty token stands for the end of the line: it fails every test that
    would move an index past it."""
    tokens = [*tokens, ""]
    returns, i = _parse_type(tokens, 0, line, line_no)
    if not _is_name(tokens[i]):
        raise _expected("function name", tokens, i, line, line_no)
    name = tokens[i]
    if tokens[i + 1] != "(":
        raise _expected("'('", tokens, i + 1, line, line_no)
    i += 2
    args: list[str] = []
    more = tokens[i] != ")"
    while more:
        arg, i = _parse_type(tokens, i, line, line_no)
        if not _is_name(tokens[i]):
            raise _expected("parameter name", tokens, i, line, line_no)
        args.append(arg)
        more = tokens[i + 1] == ","
        i += 2 if more else 1
    if tokens[i] != ")":
        raise _expected("')'", tokens, i, line, line_no)
    i += 1
    uses: list[int] = []
    if tokens[i] == "!":
        if tokens[i + 1] != "uses":
            raise _expected("'uses'", tokens, i + 1, line, line_no)
        if tokens[i + 2] != ":":
            raise _expected("':'", tokens, i + 2, line, line_no)
        i += 3
        more = True
        while more:
            if not tokens[i].isidentifier():
                raise _expected("subject type name", tokens, i, line, line_no)
            uses.append(i)
            more = tokens[i + 1] == ","
            i += 2 if more else 1
    if tokens[i]:
        raise _expected("end of line", tokens, i, line, line_no)
    return ComponentRecord(
        name=name,
        returns=None if returns == "void" else returns,
        args=tuple(args),
        uses_fields=frozenset(map(tokens.__getitem__, uses)),
    ), uses


def parse_declarations(text: str) -> tuple[tuple[str, ...], tuple[ComponentRecord, ...]]:
    """Parse a declaration file into subject types plus component records.

    Returns the declared (or inferred) subject-type order and one record per
    prototype line, in file order.  Lines end at ``\\n``, ``\\r\\n`` or
    ``\\r``.  Errors carry the offending line and column; a ``! uses:`` name
    outside the subject types is one of them.
    """
    records: list[ComponentRecord] = []
    record_lines: dict[str, int] = {}
    uses_names: list[tuple[int, str, list[str], int]] = []  # line no., line, tokens, index
    directive_types: list[str] | None = None
    appearances: dict[str | None, None] = {}  # first appearance, returns first

    lines = re.split(r"\r\n?|\n", text)
    if not lines[-1]:
        lines.pop()  # a final line end starts no new line
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        tokens = _tokenize(line, line_no)
        if not tokens:
            continue
        if tokens[0] == "%types":
            if directive_types is not None:
                raise ParseError("duplicate %types directive",
                                 line=line_no, column=_column(line, 0))
            names = []
            for index, name in enumerate(tokens[1:], 1):
                if not _is_name(name):
                    raise ParseError(f"expected type name, found {name!r}",
                                     line=line_no, column=_column(line, index))
                if name in names:
                    raise ParseError(f"duplicate subject type {name!r}",
                                     line=line_no, column=_column(line, index))
                names.append(name)
            if not names:
                raise ParseError("%types needs at least one type name",
                                 line=line_no, column=_column(line, 0))
            directive_types = names
            continue
        record, uses = _parse_proto(tokens, line, line_no)
        uses_names.extend((line_no, line, tokens, index) for index in uses)
        if record.name in record_lines:
            raise ParseError(
                f"duplicate function name {record.name!r} "
                f"(first declared on line {record_lines[record.name]})",
                line=line_no)
        record_lines[record.name] = line_no
        appearances.update(dict.fromkeys((record.returns, *record.args)))
        records.append(record)

    # A components document needs a subject type and a component, so a
    # file without them is refused here rather than converted.
    if not records:
        raise ParseError("expected a function prototype, found end of input",
                         line=len(lines) + 1)
    if directive_types is not None:
        subjects = tuple(directive_types)
    else:
        subjects = tuple(n for n in appearances if n not in (None, "void", "int"))
    if not subjects:
        raise ParseError("no subject type: no %types directive and no struct type",
                         line=min(record_lines.values()))
    declared = set(subjects)
    for line_no, line, tokens, index in uses_names:
        if tokens[index] not in declared:
            raise ParseError(f"unknown subject type {tokens[index]!r} in '! uses:'",
                             line=line_no, column=_column(line, index))
    return subjects, tuple(records)
