"""Character-by-character reference for ``respkit.dsl._scan``.

This is the scanner respkit used before the master regex: one loop over
every character that yields one ``Token`` each, except that a backslash
before a line break now reports ``end of line`` rather than ``end of
file``.  Tests compare the regex scanner against it, token by token and
error by error, on arbitrary text.
"""

from __future__ import annotations

from typing import NamedTuple

from respkit.dsl import (
    AGENT_REF,
    COMMA,
    EOF,
    IDENT,
    INFO_REF,
    LBRACE,
    PHYS_REF,
    RBRACE,
    STRING,
    SourceSpan,
    parse_problem,
)
from respkit.model import Problem


class Token(NamedTuple):
    kind: str
    value: str
    span: SourceSpan

    def describe(self) -> str:
        if self.kind in (EOF, LBRACE, RBRACE, COMMA):
            return self.kind
        return f"{self.kind} {self.value!r}" if self.value else self.kind


_REF_KINDS = {"<": (AGENT_REF, ">"), "[": (PHYS_REF, "]"), "|": (INFO_REF, "|")}


def scan(text: str, filename: str) -> tuple[list[Token], list[Problem]]:
    """Tokenize, recovering from bad characters and unterminated literals.

    Scan errors skip to the end of the offending line (or character run) so
    later declarations still get tokenized and parsed.
    """
    tokens: list[Token] = []
    errors: list[Problem] = []
    line, col, i = 1, 1, 0
    n = len(text)

    def span() -> SourceSpan:
        return SourceSpan(filename, line, col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start = span()
        if ch == "{":
            tokens.append(Token(LBRACE, "{", start))
            i += 1
            col += 1
            continue
        if ch == "}":
            tokens.append(Token(RBRACE, "}", start))
            i += 1
            col += 1
            continue
        if ch == ",":
            tokens.append(Token(COMMA, ",", start))
            i += 1
            col += 1
            continue
        if ch == '"':
            i += 1
            col += 1
            buf: list[str] = []
            closed = False
            while i < n and text[i] != "\n":
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    closed = True
                    break
                if c == "\\":
                    if i + 1 >= n or text[i + 1] not in ('"', "\\"):
                        errors.append(parse_problem(
                            SourceSpan(filename, line, col),
                            "escape '\\\"' or '\\\\'",
                            EOF if i + 1 >= n
                            else "end of line" if text[i + 1] == "\n"
                            else f"'\\{text[i + 1]}'",
                        ))
                        buf.append(c)
                        i += 1
                        col += 1
                        continue
                    buf.append(text[i + 1])
                    i += 2
                    col += 2
                    continue
                buf.append(c)
                i += 1
                col += 1
            if closed:
                tokens.append(Token(STRING, "".join(buf), start))
            else:
                errors.append(parse_problem(start, "closing '\"'", "end of line"))
            continue
        if ch in _REF_KINDS:
            kind, closer = _REF_KINDS[ch]
            i += 1
            col += 1
            buf = []
            closed = False
            while i < n and text[i] != "\n":
                c = text[i]
                if c == closer:
                    i += 1
                    col += 1
                    closed = True
                    break
                buf.append(c)
                i += 1
                col += 1
            if not closed:
                errors.append(parse_problem(start, f"closing '{closer}'", "end of line"))
                continue
            name = "".join(buf).strip()
            if not name:
                errors.append(parse_problem(
                    start, f"a name inside '{ch}{closer}'", "nothing"))
                continue
            tokens.append(Token(kind, name, start))
            continue
        if ch.isalpha() or ch == "_":
            buf = [ch]
            i += 1
            col += 1
            while i < n and (text[i].isalnum() or text[i] in "_-"):
                buf.append(text[i])
                i += 1
                col += 1
            tokens.append(Token(IDENT, "".join(buf), start))
            continue
        run = [ch]
        i += 1
        col += 1
        while i < n and text[i] not in ' \t\r\n#{},"<[|':
            run.append(text[i])
            i += 1
            col += 1
        errors.append(parse_problem(start, "a valid token", repr("".join(run))))
    tokens.append(Token(EOF, "", SourceSpan(filename, line, col)))
    return tokens, errors
