"""Regex AST and parser tests."""
import pytest

from repro.core.regex import (
    Alt,
    Concat,
    Epsilon,
    Opt,
    ParseError,
    Plus,
    Star,
    Sym,
    concat_all,
    parse,
    to_python_re,
)


class TestParse:
    def test_single_label(self):
        assert parse("a") == Sym("a")

    def test_multichar_label(self):
        assert parse("replyOf") == Sym("replyOf")

    def test_concat_whitespace(self):
        assert parse("a b") == Concat(Sym("a"), Sym("b"))

    def test_concat_dot(self):
        assert parse("a . b") == Concat(Sym("a"), Sym("b"))

    def test_concat_three(self):
        assert parse("a b c") == Concat(Sym("a"), Concat(Sym("b"), Sym("c")))

    def test_alternation(self):
        assert parse("a|b") == Alt(Sym("a"), Sym("b"))

    def test_alternation_binds_looser_than_concat(self):
        assert parse("a b|c") == Alt(Concat(Sym("a"), Sym("b")), Sym("c"))

    def test_star(self):
        assert parse("a*") == Star(Sym("a"))

    def test_plus(self):
        assert parse("a+") == Plus(Sym("a"))

    def test_opt(self):
        assert parse("a?") == Opt(Sym("a"))

    def test_group_star(self):
        assert parse("(a b)*") == Star(Concat(Sym("a"), Sym("b")))

    def test_paper_q1_example(self):
        # (follows ∘ mentions)+ from Figure 1(c).
        assert parse("(follows mentions)+") == Plus(
            Concat(Sym("follows"), Sym("mentions"))
        )

    def test_nested_postfix(self):
        assert parse("a*?") == Opt(Star(Sym("a")))

    def test_epsilon(self):
        assert parse("ε") == Epsilon()

    def test_alt_of_concats(self):
        got = parse("(a b)|(c d)")
        assert got == Alt(Concat(Sym("a"), Sym("b")), Concat(Sym("c"), Sym("d")))

    @pytest.mark.parametrize("bad", ["", "(", ")", "a |", "*a", "(a", "a)", "|a", "a &"])
    def test_errors(self, bad):
        with pytest.raises(ParseError):
            parse(bad)


class TestHelpers:
    def test_concat_all_empty(self):
        assert concat_all() == Epsilon()

    def test_concat_all_single(self):
        assert concat_all(Sym("a")) == Sym("a")

    def test_to_python_re(self):
        import re

        pat = to_python_re(parse("(a|b)* c"), {"a": "a", "b": "b", "c": "c"})
        assert re.fullmatch(pat, "ababc")
        assert re.fullmatch(pat, "c")
        assert not re.fullmatch(pat, "ab")

    def test_str_roundtrip_parseable(self):
        # str() output is itself parseable and denotes the same AST.
        for text in ["a", "a b* c*", "(a|b)+ c?", "(follows mentions)+"]:
            node = parse(text)
            assert parse(str(node).replace("ε", "ε")) == node
