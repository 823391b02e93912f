"""The real-world RPQ workload of the paper (Table 2) and label bindings (Table 3).

Table 2 lists the 11 most common RPQ templates mined from Wikidata query logs
[19]; Q1–Q10 are recursive, Q11 is the most common non-recursive query. The
variable-arity queries (Q4, Q9, Q10, Q11) use k = 3 labels, as the paper does
(the Stackoverflow graph only has three labels).

Table 3 binds the template label variables to concrete edge labels per
dataset. The extracted paper text visibly swaps the SO and LDBC rows (SO is
described in §5.1.2 as having exactly three interaction labels, which are the
LDBC-ish ``a2q, c2a, c2q``); we use the corrected assignment, as documented in
DESIGN.md.
"""
from __future__ import annotations

from dataclasses import dataclass

from .dfa import DFA, compile_regex
from .regex import parse


@dataclass(frozen=True)
class Query:
    """A named, instantiated RPQ: a template bound to concrete labels."""

    name: str  # e.g. "Q3"
    text: str  # parseable syntax, e.g. "a b* c*"
    dfa: DFA

    @property
    def k(self) -> int:
        """Automaton size (number of DFA states), the paper's k."""
        return self.dfa.n_states

    @property
    def size(self) -> int:
        """|Q_R|: number of labels + number of * and + occurrences."""
        n_ops = sum(self.text.count(c) for c in "*+")
        return len(_label_occurrences(self.text)) + n_ops


def _label_occurrences(text: str) -> list[str]:
    import re as _re

    return _re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)


# Table 2 templates. ``{a}``-style placeholders are filled per dataset; the
# variable-arity alternations take labels a1..a3 (k = 3).
TEMPLATES: dict[str, str] = {
    "Q1": "{a}*",
    "Q2": "{a} {b}*",
    "Q3": "{a} {b}* {c}*",
    "Q4": "({a1}|{a2}|{a3})*",
    "Q5": "{a} {b}* {c}",
    "Q6": "{a}* {b}*",
    "Q7": "{a} {b} {c}*",
    "Q8": "{a}? {b}*",
    "Q9": "({a1}|{a2}|{a3})+",
    "Q10": "({a1}|{a2}|{a3}) {b}*",
    "Q11": "{a1} {a2} {a3}",
}

QUERY_NAMES = tuple(TEMPLATES)

# Table 3 (corrected, see module docstring): labels per dataset. Yago-like
# graphs have ~100 labels; the queries use a handful of "topical" ones.
LABEL_BINDINGS: dict[str, dict[str, str]] = {
    "so": {
        "a": "a2q", "b": "c2a", "c": "c2q",
        "a1": "a2q", "a2": "c2a", "a3": "c2q",
    },
    "ldbc": {
        "a": "knows", "b": "replyOf", "c": "likes",
        "a1": "knows", "a2": "replyOf", "a3": "hasCreator",
    },
    "yago": {
        "a": "happenedIn", "b": "hasCapital", "c": "participatedIn",
        "a1": "happenedIn", "a2": "hasCapital", "a3": "participatedIn",
    },
}

# Queries that cannot be meaningfully formulated on the LDBC update stream
# (§5.1.2: its only recursive relations are knows and replyOf).
LDBC_EXCLUDED = frozenset({"Q4", "Q9", "Q10"})


def make_query(name: str, bindings: dict[str, str]) -> Query:
    """Instantiate template ``name`` with the given label bindings."""
    return query_from_text(TEMPLATES[name].format(**bindings), name)


def workload(dataset: str) -> list[Query]:
    """The Table 2 workload instantiated for ``dataset`` ∈ {so, ldbc, yago}.

    For LDBC the paper drops the queries that cannot be formulated on its
    schema; we mirror that.
    """
    bindings = LABEL_BINDINGS[dataset]
    names = [
        n for n in QUERY_NAMES
        if not (dataset == "ldbc" and n in LDBC_EXCLUDED)
    ]
    return [make_query(n, bindings) for n in names]


def query_from_text(text: str, name: str = "Q") -> Query:
    """Compile an ad-hoc RPQ from its textual form (used by gMark workloads)."""
    return Query(name=name, text=text, dfa=compile_regex(parse(text)))
