"""DFA construction, Hopcroft minimization, and suffix-language containment.

Pipeline (paper §2): regex → Thompson ε-NFA → DFA (subset construction) →
minimal DFA (Hopcroft's algorithm [41]). The DFA is *partial*: missing
transitions mean the word is rejected, which matches the streaming engines
that simply do not extend a traversal on an unmatched label.

For the simple-path algorithm (§4) we additionally compute, at query
registration time:

* the **suffix-language containment matrix** ``contains`` where
  ``(s, t) ∈ contains`` iff ``[s] ⊇ [t]`` (Definition 14) — decided via a
  product-automaton search for a distinguishing word;
* whether the automaton has the **suffix-language containment property**
  (Definition 15), which implies conflict-freedom on *any* graph and hence a
  tractable RSPQ (the paper's "restricted" class covering Q1, Q4, Q9, Q11).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    accepts_empty: bool  # ε ∈ L(R); streaming engines ignore empty paths

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
    def out_transitions(self) -> dict[int, list[tuple[str, int]]]:
        """state → [(label, successor)] adjacency view of ``trans``."""
        out: dict[int, list[tuple[str, int]]] = {s: [] for s in range(self.n_states)}
        for (s, label), t in self.trans.items():
            out[s].append((label, t))
        return out

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
    def useful_states(self) -> frozenset[int]:
        """States on some path from the start to a final state."""
        fwd = {self.start}
        stack = [self.start]
        while stack:
            s = stack.pop()
            for _, t in self.out_transitions[s]:
                if t not in fwd:
                    fwd.add(t)
                    stack.append(t)
        rev: dict[int, set[int]] = {s: set() for s in range(self.n_states)}
        for (s, _), t in self.trans.items():
            rev[t].add(s)
        bwd = set(self.finals)
        stack = list(self.finals)
        while stack:
            s = stack.pop()
            for p in rev[s]:
                if p not in bwd:
                    bwd.add(p)
                    stack.append(p)
        return frozenset(fwd & bwd)

    @cached_property
    def has_containment_property(self) -> bool:
        """Definition 15: every useful transition ``s → t`` has ``[s] ⊇ [t]``.

        Containment composes along transitions, so checking immediate
        successors is sufficient. Automata with this property are
        conflict-free on every graph (paper §4/§5.5, "restricted" queries).
        """
        useful = self.useful_states
        return all(
            self.contains(s, t)
            for (s, _), t in self.trans.items()
            if s in useful and t in useful
        )


def nfa_to_dfa(nfa: NFA) -> DFA:
    """Subset construction; the result is trimmed to reachable subsets."""
    labels = sorted(
        {label for outs in nfa.transitions.values() for label, _ in outs if label is not None}
    )
    start_set = nfa.eps_closure(frozenset({nfa.start}))
    ids: dict[frozenset[int], int] = {start_set: 0}
    order = [start_set]
    trans: dict[tuple[int, str], int] = {}
    i = 0
    while i < len(order):
        cur = order[i]
        for label in labels:
            nxt = nfa.step(cur, label)
            if not nxt:
                continue
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            trans[(ids[cur], label)] = ids[nxt]
        i += 1
    finals = frozenset(ids[s] for s in order if nfa.accept in s)
    return DFA(
        n_states=len(order),
        start=0,
        finals=finals,
        trans=trans,
        accepts_empty=nfa.accept in start_set,
    )


def minimize(dfa: DFA) -> DFA:
    """Partition refinement to the coarsest stable partition (minimal DFA).

    The paper uses Hopcroft's algorithm [41]; for the query-sized automata
    here (k ≤ ~25 states) we run the equivalent Moore-style refinement to a
    fixpoint, which yields the same minimal automaton with simpler
    bookkeeping. A virtual dead state absorbs missing transitions during
    refinement and is dropped (with its class) from the result, keeping the
    output partial. States unreachable from the start were already trimmed by
    subset construction.
    """
    labels = sorted(dfa.alphabet)
    dead = dfa.n_states  # virtual sink
    n = dfa.n_states + 1

    def step(s: int, label: str) -> int:
        if s == dead:
            return dead
        return dfa.trans.get((s, label), dead)

    # block_of[s] is s's equivalence-class id; refine until stable.
    block_of = [1 if s in dfa.finals else 0 for s in range(n)]
    while True:
        signatures: dict[tuple, int] = {}
        new_block_of = [0] * n
        for s in range(n):
            sig = (block_of[s],) + tuple(block_of[step(s, label)] for label in labels)
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_block_of[s] = signatures[sig]
        if new_block_of == block_of:
            break
        block_of = new_block_of

    n_blocks = max(block_of) + 1
    partition: list[set[int]] = [set() for _ in range(n_blocks)]
    for s in range(n):
        partition[block_of[s]].add(s)
    dead_block = block_of[dead]

    # Renumber blocks canonically by BFS from the start block so equal
    # automata get identical encodings.
    start_block = block_of[dfa.start]
    renum: dict[int, int] = {start_block: 0}
    order = [start_block]
    reps: dict[int, int] = {}
    for idx, blk in enumerate(partition):
        live = [s for s in blk if s != dead]
        if live:
            reps[idx] = live[0]
    i = 0
    while i < len(order):
        blk_id = order[i]
        rep = reps[blk_id]
        for label in labels:
            t = step(rep, label)
            tb = block_of[t]
            if tb == dead_block:
                continue
            if tb not in renum:
                renum[tb] = len(renum)
                order.append(tb)
        i += 1

    trans: dict[tuple[int, str], int] = {}
    for blk_id, new_id in renum.items():
        rep = reps[blk_id]
        for label in labels:
            t = step(rep, label)
            tb = block_of[t]
            if tb != dead_block and tb in renum:
                trans[(new_id, label)] = renum[tb]
    finals_min = frozenset(
        renum[block_of[s]] for s in dfa.finals if block_of[s] in renum
    )
    return DFA(
        n_states=len(renum),
        start=0,
        finals=finals_min,
        trans=trans,
        accepts_empty=dfa.accepts_empty,
    )


def compile_regex(node: Regex) -> DFA:
    """Full pipeline: Thompson NFA → subset DFA → minimal DFA."""
    return minimize(nfa_to_dfa(thompson(node)))
