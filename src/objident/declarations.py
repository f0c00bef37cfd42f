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

# One token per match; whitespace is skipped by the search, and any other
# character lands in the catch-all group.
_TOKEN_RE = re.compile(r"%types\b|[A-Za-z_][A-Za-z0-9_]*|[*(),!:]|(\S)")

# Words of the grammar that cannot name a struct or subject type.
_KEYWORDS = ("void", "int", "struct")

_Token = tuple[str, int]  # text, 1-based column


def _tokenize(line: str, line_no: int) -> list[_Token]:
    tokens = []
    for match in _TOKEN_RE.finditer(line):
        if match.group(1):
            raise ParseError(f"unexpected character {match.group(1)!r}",
                             line=line_no, column=match.start() + 1)
        tokens.append((match.group(), match.start() + 1))
    return tokens


def _parse_proto(tokens: list[_Token], line_no: int,
                 line_len: int) -> tuple[ComponentRecord, list[_Token]]:
    """The line's record, plus its ``! uses:`` name tokens."""
    rest = tokens[::-1]  # the next token is last

    def take(expected: str, accept) -> _Token:
        if rest and accept(rest[-1][0]):
            return rest.pop()
        found, column = ((repr(rest[-1][0]), rest[-1][1]) if rest
                         else ("end of line", line_len + 1))
        raise ParseError(f"expected {expected}, found {found}",
                         line=line_no, column=column)

    def skip(punct: str) -> bool:
        if rest and rest[-1][0] == punct:
            rest.pop()
            return True
        return False

    def parse_type() -> str:
        name, column = take("a type ('void', 'int', or 'struct <name>')", str.isidentifier)
        if name in ("void", "int"):
            return name
        if name != "struct":
            raise ParseError(
                f"unknown type {name!r} (expected 'void', 'int', or 'struct <name>')",
                line=line_no, column=column)
        struct_name = take("struct name",
                           lambda text: text.isidentifier() and text not in _KEYWORDS)[0]
        skip("*")
        return struct_name

    returns = parse_type()
    name = take("function name", str.isidentifier)[0]
    take("'('", "(".__eq__)
    args: list[str] = []
    if not (rest and rest[-1][0] == ")"):
        args.append(parse_type())
        take("parameter name", str.isidentifier)
        while skip(","):
            args.append(parse_type())
            take("parameter name", str.isidentifier)
    take("')'", ")".__eq__)
    uses: list[_Token] = []
    if skip("!"):
        take("'uses'", "uses".__eq__)
        take("':'", ":".__eq__)
        uses.append(take("subject type name", str.isidentifier))
        while skip(","):
            uses.append(take("subject type name", str.isidentifier))
    if rest:
        take("end of line", lambda text: False)
    return ComponentRecord(
        name=name,
        returns=None if returns == "void" else returns,
        args=tuple(args),
        uses_fields=frozenset(text for text, _ in uses),
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
    uses_names: list[tuple[int, _Token]] = []
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
        if tokens[0][0] == "%types":
            if directive_types is not None:
                raise ParseError("duplicate %types directive",
                                 line=line_no, column=tokens[0][1])
            names = []
            for name, column in tokens[1:]:
                if not name.isidentifier() or name in _KEYWORDS:
                    raise ParseError(f"expected type name, found {name!r}",
                                     line=line_no, column=column)
                if name in names:
                    raise ParseError(f"duplicate subject type {name!r}",
                                     line=line_no, column=column)
                names.append(name)
            if not names:
                raise ParseError("%types needs at least one type name",
                                 line=line_no, column=tokens[0][1])
            directive_types = names
            continue
        record, uses = _parse_proto(tokens, line_no, len(line))
        uses_names.extend((line_no, token) for token in uses)
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
    for line_no, (name, column) in uses_names:
        if name not in declared:
            raise ParseError(f"unknown subject type {name!r} in '! uses:'",
                             line=line_no, column=column)
    return subjects, tuple(records)
