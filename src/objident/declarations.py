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
from dataclasses import dataclass

from .errors import ParseError
from .features import ComponentRecord

_TOKEN_RE = re.compile(
    r"(?P<space>\s+)"
    r"|(?P<directive>%types\b)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[*(),!:])"
)


@dataclass(frozen=True)
class _Token:
    kind: str   # "directive" | "ident" | "punct"
    text: str
    column: int  # 1-based


def _tokenize(line: str, line_no: int) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(line):
        match = _TOKEN_RE.match(line, pos)
        if match is None:
            raise ParseError(f"unexpected character {line[pos]!r}",
                             line=line_no, column=pos + 1)
        if match.lastgroup != "space":
            tokens.append(_Token(match.lastgroup, match.group(), pos + 1))
        pos = match.end()
    return tokens


class _LineParser:
    """Recursive-descent parser over one line's token list."""

    def __init__(self, tokens: list[_Token], line_no: int, line_len: int):
        self.tokens = tokens
        self.line_no = line_no
        self.line_len = line_len
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def fail(self, expected: str):
        token = self.peek()
        if token is None:
            raise ParseError(f"expected {expected}, found end of line",
                             line=self.line_no, column=self.line_len + 1)
        raise ParseError(f"expected {expected}, found {token.text!r}",
                         line=self.line_no, column=token.column)

    def take_ident(self, expected: str = "identifier") -> str:
        token = self.peek()
        if token is None or token.kind != "ident":
            self.fail(expected)
        self.pos += 1
        return token.text

    def take_punct(self, char: str) -> None:
        token = self.peek()
        if token is None or token.kind != "punct" or token.text != char:
            self.fail(f"{char!r}")
        self.pos += 1

    def at_punct(self, char: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == "punct" and token.text == char

    def parse_type(self) -> str:
        name = self.take_ident("a type ('void', 'int', or 'struct <name>')")
        if name in ("void", "int"):
            return name
        if name != "struct":
            token = self.tokens[self.pos - 1]
            raise ParseError(
                f"unknown type {name!r} (expected 'void', 'int', or 'struct <name>')",
                line=self.line_no, column=token.column)
        struct_name = self.take_ident("struct name")
        if self.at_punct("*"):
            self.pos += 1
        return struct_name

    def parse_proto(self) -> tuple[ComponentRecord, list[_Token]]:
        """The line's record, plus its ``! uses:`` name tokens."""
        returns = self.parse_type()
        name = self.take_ident("function name")
        self.take_punct("(")
        args: list[str] = []
        if not self.at_punct(")"):
            while True:
                args.append(self.parse_type())
                self.take_ident("parameter name")
                if self.at_punct(","):
                    self.pos += 1
                    continue
                break
        self.take_punct(")")
        uses: list[_Token] = []
        if self.at_punct("!"):
            self.pos += 1
            keyword = self.take_ident("'uses'")
            if keyword != "uses":
                token = self.tokens[self.pos - 1]
                raise ParseError(f"expected 'uses', found {keyword!r}",
                                 line=self.line_no, column=token.column)
            self.take_punct(":")
            self.take_ident("subject type name")
            uses.append(self.tokens[self.pos - 1])
            while self.at_punct(","):
                self.pos += 1
                self.take_ident("subject type name")
                uses.append(self.tokens[self.pos - 1])
        if self.peek() is not None:
            self.fail("end of line")
        return ComponentRecord(
            name=name,
            returns=None if returns == "void" else returns,
            args=tuple(args),
            uses_fields=frozenset(t.text for t in uses),
        ), uses


def parse_declarations(text: str) -> tuple[tuple[str, ...], tuple[ComponentRecord, ...]]:
    """Parse a declaration file into subject types plus component records.

    Returns the declared (or inferred) subject-type order and one record per
    prototype line, in file order.  Errors carry the offending line and
    column; a ``! uses:`` name outside the subject types is one of them.
    """
    records: list[ComponentRecord] = []
    record_lines: dict[str, int] = {}
    uses_names: list[tuple[int, _Token]] = []
    directive_types: list[str] | None = None
    appearances: list[str] = []

    def note_structs(record: ComponentRecord) -> None:
        # First-appearance order: return type first, then parameters.
        for name in (record.returns, *record.args):
            if name not in (None, "void", "int") and name not in appearances:
                appearances.append(name)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = _tokenize(line, line_no)
        if not tokens:
            continue
        if tokens[0].kind == "directive":
            if directive_types is not None:
                raise ParseError("duplicate %types directive",
                                 line=line_no, column=tokens[0].column)
            names = []
            for token in tokens[1:]:
                if token.kind != "ident":
                    raise ParseError(f"expected type name, found {token.text!r}",
                                     line=line_no, column=token.column)
                if token.text in names:
                    raise ParseError(f"duplicate subject type {token.text!r}",
                                     line=line_no, column=token.column)
                names.append(token.text)
            if not names:
                raise ParseError("%types needs at least one type name",
                                 line=line_no, column=tokens[0].column)
            directive_types = names
            continue
        record, uses = _LineParser(tokens, line_no, len(line)).parse_proto()
        uses_names.extend((line_no, token) for token in uses)
        if record.name in record_lines:
            raise ParseError(
                f"duplicate function name {record.name!r} "
                f"(first declared on line {record_lines[record.name]})",
                line=line_no)
        record_lines[record.name] = line_no
        note_structs(record)
        records.append(record)

    subjects = tuple(directive_types) if directive_types is not None else tuple(appearances)
    declared = set(subjects)
    for line_no, token in uses_names:
        if token.text not in declared:
            raise ParseError(f"unknown subject type {token.text!r} in '! uses:'",
                             line=line_no, column=token.column)
    return subjects, tuple(records)
