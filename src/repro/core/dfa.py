"""DFA construction, minimization, and suffix-language containment.

Pipeline (paper §2): regex → Thompson ε-NFA → DFA (subset construction) →
minimal DFA. The paper minimizes with Hopcroft's algorithm [41]; here one
subset-construction loop does all the determinizing, and the minimal DFA
comes from Brzozowski's double reversal: determinizing the reversal of the
reversal's determinization yields the unique minimal DFA (J. A. Brzozowski,
1962). The DFA is *partial*: the empty subset is dropped, so missing
transitions mean the word is rejected, which matches the streaming engines
that simply do not extend a traversal on an unmatched label. Subsets are
numbered in BFS order over the sorted labels, so equal languages get
identical encodings.

For the simple-path algorithm (§4) we additionally compute, at query
registration time:

* the **suffix-language containment matrix** ``contains`` where
  ``(s, t) ∈ contains`` iff ``[s] ⊇ [t]`` (Definition 14) — decided via a
  product-automaton search for a distinguishing word;
* whether the automaton has the **suffix-language containment property**
  (Definition 15), which implies conflict-freedom on *any* graph and hence a
  tractable RSPQ (the paper's "restricted" class; of the Table 2 queries,
  Q1, Q4, Q6 and Q8 have it).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .nfa import NFA, thompson
from .regex import Regex


@dataclass(frozen=True)
class DFA:
    """Partial deterministic finite automaton with canonical state numbering.

    States are ``0..n_states-1`` with ``start == 0``. ``trans`` maps
    ``(state, label)`` to the successor state; absent keys are rejecting.
    """

    n_states: int
    start: int
    finals: frozenset[int]
    trans: dict[tuple[int, str], int]

    @property
    def accepts_empty(self) -> bool:
        """ε ∈ L(R); streaming engines ignore empty paths."""
        return self.start in self.finals

    @cached_property
    def alphabet(self) -> frozenset[str]:
        return frozenset(label for (_, label) in self.trans)

    def delta(self, state: int, label: str) -> int | None:
        """The transition function δ; ``None`` when undefined (reject)."""
        return self.trans.get((state, label))

    def accepts(self, word: list[str] | tuple[str, ...]) -> bool:
        """Membership of a (possibly empty) word in L(R)."""
        if not word:
            return self.accepts_empty
        s: int | None = self.start
        for label in word:
            s = self.trans.get((s, label))
            if s is None:
                return False
        return s in self.finals

    @cached_property
    def by_label(self) -> dict[str, dict[int, int]]:
        """label → {s: δ(s, label)}: ``trans`` grouped by label."""
        out: dict[str, dict[int, int]] = {}
        for (s, label), t in self.trans.items():
            out.setdefault(label, {})[s] = t
        return out

    @cached_property
    def start_labels(self) -> dict[str, int]:
        """label → δ(start, label); the labels that can begin a path."""
        return {
            label: step[self.start]
            for label, step in self.by_label.items()
            if self.start in step
        }

    def transition_rows(self) -> list[tuple[int, str, int]]:
        """``(src_state, label, dst_state)`` rows for DataFrame construction."""
        return sorted((s, label, t) for (s, label), t in self.trans.items())

    # ------------------------------------------------------------------
    # Suffix languages (Definitions 14-16)
    # ------------------------------------------------------------------

    @cached_property
    def containment(self) -> frozenset[tuple[int, int]]:
        """All pairs ``(s, t)`` with ``[s] ⊇ [t]``.

        ``[s] ⊇ [t]`` fails iff some word w is accepted from t but not from s.
        We search the pair automaton from ``(s, t)`` where the s-side may fall
        into the implicit dead state (``None``).
        """
        labels = sorted(self.alphabet)
        pairs: set[tuple[int, int]] = set()
        for s in range(self.n_states):
            for t in range(self.n_states):
                if self._contains(s, t, labels):
                    pairs.add((s, t))
        return frozenset(pairs)

    def _contains(self, s: int, t: int, labels: list[str]) -> bool:
        seen = {(s, t)}
        stack: list[tuple[int | None, int]] = [(s, t)]
        while stack:
            a, b = stack.pop()
            if b in self.finals and (a is None or a not in self.finals):
                return False
            for label in labels:
                b2 = self.trans.get((b, label))
                if b2 is None:
                    continue  # word dies on the t-side: cannot witness failure
                a2 = None if a is None else self.trans.get((a, label))
                if (a2, b2) not in seen:
                    seen.add((a2, b2))
                    stack.append((a2, b2))
        return True

    def contains(self, s: int, t: int) -> bool:
        """``[s] ⊇ [t]`` — conflict test used by Algorithm RSPQ."""
        return (s, t) in self.containment

    @cached_property
    def has_containment_property(self) -> bool:
        """Definition 15: every transition ``s → t`` has ``[s] ⊇ [t]``.

        A compiled DFA is trim (every state lies on a path from the start to
        a final state), so every transition is checked. Containment composes
        along transitions, so checking immediate successors is sufficient.
        Automata with this property are conflict-free on every graph (paper
        §4/§5.5, "restricted" queries).
        """
        return all(self.contains(s, t) for (s, _), t in self.trans.items())


def _determinize(
    start: frozenset[int],
    step: Callable[[frozenset[int], str], frozenset[int]],
    labels: list[str],
    is_final: Callable[[frozenset[int]], bool],
) -> DFA:
    """Subset construction from the subset ``start``.

    ``step(subset, label)`` is the successor subset. Subsets are numbered in
    BFS order over the sorted ``labels`` and only non-empty ones are kept,
    so the result is partial, reachable and canonically numbered.
    """
    ids = {start: 0}
    order = [start]
    trans: dict[tuple[int, str], int] = {}
    for i, cur in enumerate(order):  # order grows as subsets are discovered
        for label in labels:
            nxt = step(cur, label)
            if not nxt:
                continue
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            trans[(i, label)] = ids[nxt]
    return DFA(
        n_states=len(order),
        start=0,
        finals=frozenset(i for i, subset in enumerate(order) if is_final(subset)),
        trans=trans,
    )


def nfa_to_dfa(nfa: NFA) -> DFA:
    """Subset construction over the Thompson NFA."""
    labels = sorted(
        {label for outs in nfa.transitions.values() for label, _ in outs if label is not None}
    )
    start = nfa.eps_closure(frozenset({nfa.start}))
    return _determinize(start, nfa.step, labels, lambda subset: nfa.accept in subset)


def _reverse(dfa: DFA) -> DFA:
    """A DFA for the reversed language: subset construction run backward
    from ``dfa.finals`` over predecessors, accepting where it holds the start."""
    preds: dict[tuple[int, str], set[int]] = {}
    for (s, label), t in dfa.trans.items():
        preds.setdefault((t, label), set()).add(s)

    def step(subset: frozenset[int], label: str) -> frozenset[int]:
        return frozenset(p for t in subset for p in preds.get((t, label), ()))

    return _determinize(dfa.finals, step, sorted(dfa.alphabet), lambda subset: dfa.start in subset)


def minimize(dfa: DFA) -> DFA:
    """The minimal partial DFA for ``L(dfa)``, by double reversal.

    Determinizing the reversal of a reachable DFA gives the minimal
    DFA of the reversed language (Brzozowski); doing it twice gives the
    minimal DFA of ``L(dfa)``, trim and numbered in BFS order.
    """
    return _reverse(_reverse(dfa))


def compile_regex(node: Regex) -> DFA:
    """Full pipeline: Thompson NFA → subset DFA → minimal DFA."""
    return minimize(nfa_to_dfa(thompson(node)))
