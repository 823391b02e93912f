"""Regular expression AST and parser over edge-label alphabets (Def. 7).

The paper's regexes are built from edge labels with concatenation (``∘``),
alternation (``+`` in the paper, ``|`` here), Kleene star ``*``, one-or-more
``+`` (postfix), and optional ``?``. Labels are identifiers
(``[A-Za-z_][A-Za-z0-9_]*``), so multi-character labels like ``replyOf`` are
single alphabet symbols.

Textual syntax accepted by :func:`parse`:

* concatenation: juxtaposition separated by whitespace or ``.``
  (e.g. ``"a b* c*"`` or ``"a . b* . c*"``)
* alternation: infix ``|`` (lowest precedence)
* postfix ``*`` (zero or more), ``+`` (one or more), ``?`` (optional)
* grouping: ``( ... )``

Example — the paper's Q1 ``(follows ∘ mentions)+`` is
``parse("(follows mentions)+")``.
"""
from __future__ import annotations

import re as _re
from dataclasses import dataclass


class Regex:
    """Base class for regex AST nodes; nodes are immutable and hashable."""


@dataclass(frozen=True)
class Epsilon(Regex):
    """The empty string ε."""

    def __str__(self) -> str:
        return "ε"


@dataclass(frozen=True)
class Sym(Regex):
    """A single alphabet symbol (edge label)."""

    label: str

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class Concat(Regex):
    left: Regex
    right: Regex

    def __str__(self) -> str:
        return f"({self.left} {self.right})"


@dataclass(frozen=True)
class Alt(Regex):
    left: Regex
    right: Regex

    def __str__(self) -> str:
        return f"({self.left}|{self.right})"


@dataclass(frozen=True)
class Star(Regex):
    inner: Regex

    def __str__(self) -> str:
        return f"{self.inner}*"


@dataclass(frozen=True)
class Plus(Regex):
    inner: Regex

    def __str__(self) -> str:
        return f"{self.inner}+"


@dataclass(frozen=True)
class Opt(Regex):
    inner: Regex

    def __str__(self) -> str:
        return f"{self.inner}?"


def concat_all(*parts: Regex) -> Regex:
    """Right-fold concatenation of one or more expressions."""
    if not parts:
        return Epsilon()
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Concat(p, out)
    return out


_TOKEN = _re.compile(r"\s*(?:(?P<label>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[()|*+?.])|(?P<eps>ε))")


class ParseError(ValueError):
    pass


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character at {pos}: {rest[:10]!r}")
        tokens.append(m.group("label") or m.group("op") or "ε")
        pos = m.end()
    return tokens


def parse(text: str) -> Regex:
    """Parse the textual syntax described in the module docstring."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty regular expression")
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def advance() -> str:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_alt() -> Regex:
        node = parse_concat()
        while peek() == "|":
            advance()
            node = Alt(node, parse_concat())
        return node

    def parse_concat() -> Regex:
        parts = [parse_postfix()]
        while True:
            tok = peek()
            if tok == ".":
                advance()
                continue
            if tok is None or tok in ")|":
                break
            parts.append(parse_postfix())
        return concat_all(*parts)

    def parse_postfix() -> Regex:
        node = parse_atom()
        while peek() in ("*", "+", "?"):
            op = advance()
            node = {"*": Star, "+": Plus, "?": Opt}[op](node)
        return node

    def parse_atom() -> Regex:
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        if tok == "(":
            advance()
            node = parse_alt()
            if peek() != ")":
                raise ParseError("unbalanced parenthesis")
            advance()
            return node
        if tok == "ε":
            advance()
            return Epsilon()
        if tok in ")|*+?.":
            raise ParseError(f"unexpected token {tok!r}")
        return Sym(advance())

    node = parse_alt()
    if pos != len(tokens):
        raise ParseError(f"trailing tokens: {tokens[pos:]}")
    return node


def to_python_re(node: Regex, symbol_map: dict[str, str]) -> str:
    """Translate to a Python ``re`` pattern over single characters.

    ``symbol_map`` maps each edge label to a distinct single character; used
    by tests to cross-check automaton membership against ``re.fullmatch``.
    """
    if isinstance(node, Epsilon):
        return ""
    if isinstance(node, Sym):
        return _re.escape(symbol_map[node.label])
    if isinstance(node, Concat):
        return to_python_re(node.left, symbol_map) + to_python_re(node.right, symbol_map)
    if isinstance(node, Alt):
        return f"(?:{to_python_re(node.left, symbol_map)}|{to_python_re(node.right, symbol_map)})"
    if isinstance(node, Star):
        return f"(?:{to_python_re(node.inner, symbol_map)})*"
    if isinstance(node, Plus):
        return f"(?:{to_python_re(node.inner, symbol_map)})+"
    if isinstance(node, Opt):
        return f"(?:{to_python_re(node.inner, symbol_map)})?"
    raise TypeError(f"unknown node {node!r}")
