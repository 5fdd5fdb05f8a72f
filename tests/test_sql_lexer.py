"""Tests for the SQL lexer."""

import pytest

from repro.errors import SqlError
from repro.sqlfront.lexer import TokenKind, tokenize


def kinds(text):
    return [(t.kind, t.value) for t in tokenize(text)[:-1]]  # drop EOF


class TestTokens:
    def test_keywords_case_insensitive(self):
        assert kinds("select SELECT Select") == [
            (TokenKind.KEYWORD, "SELECT")] * 3

    def test_identifiers_keep_case(self):
        assert kinds("Balance") == [(TokenKind.IDENT, "Balance")]

    def test_params(self):
        assert kinds(":x :long_name") == [
            (TokenKind.PARAM, "x"), (TokenKind.PARAM, "long_name"),
        ]

    def test_numbers(self):
        assert kinds("42 3.14") == [
            (TokenKind.NUMBER, "42"), (TokenKind.NUMBER, "3.14"),
        ]

    def test_strings_both_quotes(self):
        assert kinds("'abc' \"d\"") == [
            (TokenKind.STRING, "abc"), (TokenKind.STRING, "d"),
        ]

    def test_operators_longest_match(self):
        assert [v for _, v in kinds("<= >= <> != < > =")] == [
            "<=", ">=", "<>", "!=", "<", ">", "=",
        ]

    def test_punctuation(self):
        assert [v for _, v in kinds("( ) , ; .")] == ["(", ")", ",", ";", "."]

    def test_comments_skipped(self):
        assert kinds("a -- comment here\nb") == [
            (TokenKind.IDENT, "a"), (TokenKind.IDENT, "b"),
        ]

    def test_line_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_positions_after_multiline_tokens(self):
        tokens = tokenize("'a\nbc' x -- note\n\ty")
        assert [(t.value, t.line, t.column) for t in tokens] == [
            ("a\nbc", 1, 1), ("x", 2, 5), ("y", 3, 2), ("", 3, 3),
        ]

    def test_eof_token(self):
        assert tokenize("")[-1].kind is TokenKind.EOF

    def test_unterminated_string_rejected(self):
        with pytest.raises(SqlError):
            tokenize("'oops")

    def test_unexpected_character_rejected(self):
        with pytest.raises(SqlError, match="unexpected"):
            tokenize("@")

    def test_error_carries_location(self):
        with pytest.raises(SqlError) as info:
            tokenize("ab\n @")
        assert info.value.line == 2

    def test_words_start_with_a_letter_or_underscore(self):
        # Numeric characters may continue a word but not start one.
        assert kinds("x½ _Ⅷ") == [(TokenKind.IDENT, "x½"), (TokenKind.IDENT, "_Ⅷ")]
        for text, column in (("½x", 1), ("a Ⅷ", 3), ("1 ²", 3), (":½x", 1)):
            with pytest.raises(SqlError, match="unexpected character") as info:
                tokenize(text)
            assert info.value.column == column
