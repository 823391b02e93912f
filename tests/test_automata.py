"""NFA/DFA construction, minimization, and membership cross-checks."""
import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dfa import compile_regex, minimize, nfa_to_dfa
from repro.core.nfa import thompson
from repro.core.queries import TEMPLATES, make_query, workload
from repro.core.regex import parse, to_python_re
from repro.streams.gmark import gmark_workload

SYMS = {"a": "a", "b": "b", "c": "c"}

EXPRESSIONS = [
    "a",
    "a b",
    "a|b",
    "a*",
    "a+",
    "a?",
    "(a b)+",
    "a b* c*",
    "(a|b|c)*",
    "a b* c",
    "a* b*",
    "a b c*",
    "a? b*",
    "(a|b|c)+",
    "(a|b|c) b*",
    "a b c",
    "(a b)* (c|a)+",
    "((a|b) c)* a?",
]


def all_words(max_len: int, labels=("a", "b", "c")):
    for n in range(max_len + 1):
        yield from itertools.product(labels, repeat=n)


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_nfa_matches_python_re(text):
    node = parse(text)
    nfa = thompson(node)
    pat = re.compile(to_python_re(node, SYMS))
    for word in all_words(5):
        expected = pat.fullmatch("".join(word)) is not None
        assert nfa.accepts(word) == expected, f"{text} on {word}"


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_dfa_matches_nfa(text):
    node = parse(text)
    nfa = thompson(node)
    dfa = nfa_to_dfa(nfa)
    for word in all_words(5):
        assert dfa.accepts(word) == nfa.accepts(word), f"{text} on {word}"


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_minimized_dfa_equivalent(text):
    node = parse(text)
    dfa = nfa_to_dfa(thompson(node))
    mdfa = minimize(dfa)
    assert mdfa.n_states <= dfa.n_states
    for word in all_words(6):
        assert mdfa.accepts(word) == dfa.accepts(word), f"{text} on {word}"


@pytest.mark.parametrize(
    "text,expected_states",
    [
        ("a*", 1),
        ("a+", 2),
        ("(a|b|c)*", 1),
        ("(a|b|c)+", 2),
        ("a b c", 4),
        ("(follows mentions)+", 3),  # Figure 1(c): states 0,1,2
    ],
)
def test_minimal_sizes(text, expected_states):
    assert compile_regex(parse(text)).n_states == expected_states


def test_paper_q1_automaton_shape():
    """Figure 1(c): 0 -follows-> 1 -mentions-> 2(final) -follows-> 1."""
    dfa = compile_regex(parse("(follows mentions)+"))
    assert dfa.start == 0
    assert dfa.finals == frozenset({2}) or len(dfa.finals) == 1
    f = next(iter(dfa.finals))
    mid = dfa.delta(0, "follows")
    assert mid is not None and mid != 0
    assert dfa.delta(mid, "mentions") == f
    assert dfa.delta(f, "follows") == mid
    assert dfa.delta(0, "mentions") is None
    assert not dfa.accepts_empty


def test_accepts_empty_flag():
    assert compile_regex(parse("a*")).accepts_empty
    assert compile_regex(parse("a?")).accepts_empty
    assert not compile_regex(parse("a+")).accepts_empty
    assert not compile_regex(parse("a b*")).accepts_empty


def test_compiled_workload_dfas_are_minimal_and_canonical():
    """Every Table 2 and gMark DFA is trim, no two of its states have equal
    suffix languages, and its states are numbered in BFS order from the
    start over the sorted labels; Table 2's k matches ``results/table2.txt``."""
    queries = [q for ds in ("so", "ldbc", "yago") for q in workload(ds)] + gmark_workload()
    for q in queries:
        dfa = q.dfa
        labels = sorted(dfa.alphabet)
        order = [dfa.start]
        for s in order:
            for label in labels:
                t = dfa.delta(s, label)
                if t is not None and t not in order:
                    order.append(t)
        assert order == list(range(dfa.n_states)), q.text
        coreachable = set(dfa.finals)
        while True:
            more = {s for (s, _), t in dfa.trans.items() if t in coreachable} - coreachable
            if not more:
                break
            coreachable |= more
        assert coreachable == set(range(dfa.n_states)), q.text
        for s, t in itertools.combinations(range(dfa.n_states), 2):
            assert not (dfa.contains(s, t) and dfa.contains(t, s)), (q.text, s, t)
    table = Path(__file__).resolve().parents[1] / "results" / "table2.txt"
    rows = {line.split()[0]: line.split()[-3:] for line in table.read_text().splitlines()
            if line.startswith("Q")}
    for col, ds in enumerate(("so", "ldbc", "yago")):
        ks = {q.name: str(q.k) for q in workload(ds)}
        assert {name: row[col] for name, row in rows.items() if row[col] != "-"} == ks


@st.composite
def random_regex_text(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(st.sampled_from(["a", "b", "c"]))
    kind = draw(st.sampled_from(["concat", "alt", "star", "plus", "opt"]))
    if kind == "concat":
        return f"({draw(random_regex_text(depth + 1))} {draw(random_regex_text(depth + 1))})"
    if kind == "alt":
        return f"({draw(random_regex_text(depth + 1))}|{draw(random_regex_text(depth + 1))})"
    return f"({draw(random_regex_text(depth + 1))}){ {'star': '*', 'plus': '+', 'opt': '?'}[kind] }"


@settings(max_examples=60, deadline=None)
@given(text=random_regex_text(), word=st.lists(st.sampled_from(["a", "b", "c"]), max_size=6))
def test_property_pipeline_matches_re(text, word):
    node = parse(text)
    dfa = compile_regex(node)
    pat = re.compile(to_python_re(node, SYMS))
    assert dfa.accepts(tuple(word)) == (pat.fullmatch("".join(word)) is not None)


class TestContainment:
    def test_fm_plus_conflict_pair(self):
        """For (f m)+, [1] ⊉ [2]: from 2 the empty word accepts, from 1 not."""
        dfa = compile_regex(parse("(f m)+"))
        f = next(iter(dfa.finals))
        mid = dfa.delta(0, "f")
        assert not dfa.contains(mid, f)
        assert dfa.contains(f, f) and dfa.contains(mid, mid)

    def test_star_single_state_trivially_contained(self):
        dfa = compile_regex(parse("a*"))
        assert dfa.n_states == 1
        assert dfa.contains(0, 0)
        assert dfa.has_containment_property

    @pytest.mark.parametrize("name", ["Q1", "Q4"])
    def test_star_queries_have_property(self, name):
        """a* / (a|b|c)* collapse to a single looping final state: [0] ⊇ [0]."""
        q = make_query(name, {"a": "a", "a1": "a", "a2": "b", "a3": "c"})
        assert q.dfa.has_containment_property

    @pytest.mark.parametrize("name", ["Q9", "Q11"])
    def test_chain_queries_lack_property(self, name):
        """Suffix languages strictly shrink along (a|b|c)+ and a∘b∘c, so
        Definition 15 fails — these queries are still tractable (bounded
        automata / finite languages), which Table 4 reflects, but
        conflict-freedom for them is graph-dependent."""
        q = make_query(name, {"a": "a", "a1": "a", "a2": "b", "a3": "c"})
        assert not q.dfa.has_containment_property

    def test_fm_plus_lacks_property(self):
        assert not compile_regex(parse("(f m)+")).has_containment_property

    def test_containment_semantics_bruteforce(self):
        """(s,t) ∈ containment iff every word ≤6 accepted from t accepts from s."""
        dfa = compile_regex(parse("a b* c"))

        def accept_from(s, word):
            cur = s
            for lbl in word:
                cur = dfa.delta(cur, lbl)
                if cur is None:
                    return False
            return cur in dfa.finals

        for s in range(dfa.n_states):
            for t in range(dfa.n_states):
                brute = all(
                    accept_from(s, w)
                    for w in all_words(6)
                    if accept_from(t, w)
                )
                assert dfa.contains(s, t) == brute, (s, t)


class TestQueries:
    def test_all_templates_compile_all_datasets(self):
        for ds in ("so", "ldbc", "yago"):
            for q in workload(ds):
                assert q.k >= 1
                assert q.dfa.start == 0

    def test_workload_names(self):
        assert [q.name for q in workload("so")] == [f"Q{i}" for i in range(1, 12)]
        ldbc_names = [q.name for q in workload("ldbc")]
        assert "Q4" not in ldbc_names and "Q9" not in ldbc_names and "Q10" not in ldbc_names

    def test_templates_count_matches_table2(self):
        assert len(TEMPLATES) == 11

    def test_query_size_metric(self):
        q = make_query("Q3", {"a": "a", "b": "b", "c": "c"})
        # a b* c* → 3 labels + 2 stars = 5
        assert q.size == 5

    def test_q11_nonrecursive(self):
        q = make_query("Q11", {"a1": "x", "a2": "y", "a3": "z"})
        assert q.k == 4
        assert q.dfa.accepts(("x", "y", "z"))
        assert not q.dfa.accepts(("x", "y"))

    def test_start_labels_view(self):
        q = make_query("Q7", {"a": "a", "b": "b", "c": "c"})
        assert set(q.dfa.start_labels) == {"a"}

    def test_transition_rows_sorted_tuples(self):
        q = make_query("Q2", {"a": "a", "b": "b"})
        rows = q.dfa.transition_rows()
        assert rows == sorted(rows)
        assert all(len(r) == 3 for r in rows)
