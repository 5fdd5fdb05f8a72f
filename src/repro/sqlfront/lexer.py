"""Tokenizer for the Appendix A SQL fragment.

Produces identifiers, keywords (case-insensitive), ``:parameter`` markers,
numeric and string literals, and punctuation/operators.  Pseudo-conditions
like ``IF <selection of customer by name> THEN`` are supported by the
parser consuming raw tokens up to ``THEN``, so ``<`` and ``>`` simply lex
as comparison operators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import SqlError

KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "INTO", "UPDATE", "SET", "RETURNING",
        "INSERT", "VALUES", "DELETE", "IF", "THEN", "ELSE", "END",
        "REPEAT", "COMMIT", "AND", "OR", "NOT",
    }
)

#: Multi-character operators, longest first so ``<=`` wins over ``<``.
_OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/", "(", ")", ",", ";", ".")


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


def _is_ident_start(char: str) -> bool:
    return char.isalpha() or char == "_"


def _is_ident_char(char: str) -> bool:
    return char.isalnum() or char == "_"


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SqlError` on unexpected characters."""
    tokens: list[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(text)

    def advance(count: int) -> None:
        nonlocal index, line, column
        for _ in range(count):
            if index < length and text[index] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            index += 1

    while index < length:
        char = text[index]
        if char in " \t\r\n":
            advance(1)
            continue
        if text.startswith("--", index):
            while index < length and text[index] != "\n":
                advance(1)
            continue
        start_line, start_column = line, column
        if char == ":" and index + 1 < length and _is_ident_start(text[index + 1]):
            end = index + 1
            while end < length and _is_ident_char(text[end]):
                end += 1
            tokens.append(Token(TokenKind.PARAM, text[index + 1: end], start_line, start_column))
            advance(end - index)
            continue
        if _is_ident_start(char):
            end = index
            while end < length and _is_ident_char(text[end]):
                end += 1
            word = text[index:end]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenKind.KEYWORD, upper, start_line, start_column))
            else:
                tokens.append(Token(TokenKind.IDENT, word, start_line, start_column))
            advance(end - index)
            continue
        if char.isdigit():
            end = index
            while end < length and (text[end].isdigit() or text[end] == "."):
                end += 1
            tokens.append(Token(TokenKind.NUMBER, text[index:end], start_line, start_column))
            advance(end - index)
            continue
        if char in "'\"":
            quote = char
            end = index + 1
            while end < length and text[end] != quote:
                end += 1
            if end >= length:
                raise SqlError("unterminated string literal", start_line, start_column)
            tokens.append(Token(TokenKind.STRING, text[index + 1: end], start_line, start_column))
            advance(end - index + 1)
            continue
        for symbol in _OPERATORS:
            if text.startswith(symbol, index):
                tokens.append(Token(TokenKind.OP, symbol, start_line, start_column))
                advance(len(symbol))
                break
        else:
            raise SqlError(f"unexpected character {char!r}", start_line, start_column)
    tokens.append(Token(TokenKind.EOF, "", line, column))
    return tokens
