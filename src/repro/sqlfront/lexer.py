"""Tokenizer for the Appendix A SQL fragment.

Produces identifiers, keywords (case-insensitive), ``:parameter`` markers,
numeric and string literals, and punctuation/operators.  Pseudo-conditions
like ``IF <selection of customer by name> THEN`` are supported by the
parser consuming raw tokens up to ``THEN``, so ``<`` and ``>`` simply lex
as comparison operators.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.errors import SqlError

KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "INTO", "UPDATE", "SET", "RETURNING",
        "INSERT", "VALUES", "DELETE", "IF", "THEN", "ELSE", "END",
        "REPEAT", "COMMIT", "AND", "OR", "NOT",
    }
)

#: One alternative per token class, tried in this order at each position;
#: the group names other than ``skip`` and ``word`` are :class:`TokenKind`
#: values.  Words (and parameter names) match any word character that is
#: not a decimal digit first; :func:`tokenize` then rejects those that do
#: not start with a letter or ``_``.  Operators are listed longest first so
#: ``<=`` wins over ``<``; ``--`` comments run to the end of the line.
_TOKEN_RE = re.compile(
    r"""
      (?P<skip>[ \t\r\n]+|--[^\n]*)
    | :(?P<param>[^\W\d]\w*)
    | (?P<word>[^\W\d]\w*)
    | (?P<number>\d[\d.]*)
    | (?P<string>'[^']*'|"[^"]*")
    | (?P<op><=|>=|<>|!=|[=<>+\-*/(),;.])
    """,
    re.VERBOSE,
)


class TokenKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    PARAM = "param"
    NUMBER = "number"
    STRING = "string"
    OP = "op"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    value: str
    line: int
    column: int

    def is_keyword(self, *names: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.value in names

    def is_op(self, *symbols: str) -> bool:
        return self.kind is TokenKind.OP and self.value in symbols

    def __str__(self) -> str:
        return f"{self.value!r}"


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SqlError` on unexpected characters."""
    tokens: list[Token] = []
    line = 1
    line_start = 0  # index of the current line's first character
    index = 0
    while index < len(text):
        match = _TOKEN_RE.match(text, index)
        column = index - line_start + 1
        if match is None:
            char = text[index]
            if char in "'\"":
                raise SqlError("unterminated string literal", line, column)
            raise SqlError(f"unexpected character {char!r}", line, column)
        kind, value = match.lastgroup, match.group(match.lastgroup)
        if kind in ("word", "param") and not (value[0].isalpha() or value[0] == "_"):
            # e.g. ``½x``, or ``:²`` (reported at the colon)
            raise SqlError(f"unexpected character {text[index]!r}", line, column)
        if kind == "word":
            upper = value.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenKind.KEYWORD, upper, line, column))
            else:
                tokens.append(Token(TokenKind.IDENT, value, line, column))
        elif kind != "skip":
            if kind == "string":
                value = value[1:-1]  # drop the quotes
            tokens.append(Token(TokenKind(kind), value, line, column))
        index = match.end()
        newlines = text.count("\n", match.start(), index)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", match.start(), index) + 1
    tokens.append(Token(TokenKind.EOF, "", line, index - line_start + 1))
    return tokens
