"""Finite abstractions of an automaton over location-region pairs.

An abstract edge connects two location-region pairs over a letter.  In
the existential automaton the edge exists when some valuation of the
source region can take some matching concrete step into the target
region; in the universal automaton every valuation of the source region
must admit such a step.  The existential automaton accepts exactly the
untimed language of the underlying automaton; the universal one accepts
a subset of it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache, cached_property
from math import factorial
from typing import Iterable, Optional

from .core import CmaxTooSmall, PreconditionViolated, TooManyStates, require_natural
from .automaton import Ecta
from .edbm import subtract_all
from .analysis import bounded_words, initial_zone, post_edge, pre_edge
from .regions import CLASSIC, Region, decompose, region_to_zone, walk

EXISTS = "exists"
FORALL = "forall"

#: A state of the abstraction: a location paired with a region.
RaState = tuple[str, Region]


@dataclass(frozen=True)
class RegionAutomaton:
    """A finite automaton over location-region pairs.

    ``states`` lists every reachable state in discovery order;
    ``accepting`` holds the reachable states whose location accepts and
    whose region has every prophecy clock undefined.
    """

    automaton: Ecta
    cmax: int
    variant: str
    quantifier: str
    states: tuple[RaState, ...]
    initials: tuple[RaState, ...]
    edges: tuple[tuple[RaState, str, RaState], ...]
    accepting: tuple[RaState, ...]

    @cached_property
    def _adjacency(self) -> dict[tuple[RaState, str], tuple[RaState, ...]]:
        """The targets of each state's edges by letter; built once, and no
        field, so equality, hashing and the outputs ignore it."""
        adj: dict[tuple[RaState, str], list[RaState]] = {}
        for s1, letter, s2 in self.edges:
            adj.setdefault((s1, letter), []).append(s2)
        return {key: tuple(val) for key, val in adj.items()}


def regions_bound(clock_count: int, constant: int) -> int:
    """An upper bound on the number of regions over the given clocks."""
    return (
        factorial(clock_count)
        * 2**clock_count
        * (2 * constant + 2) ** clock_count
    )


def state_count_bound(A: Ecta, cmax: int) -> int:
    """An upper bound on the reachable states of any built abstraction."""
    return len(A.locations) * regions_bound(2 * len(A.alphabet.letters), cmax + 1)


def build(
    A: Ecta,
    cmax: int,
    quantifier: str = EXISTS,
    variant: str = CLASSIC,
    max_states: Optional[int] = None,
) -> RegionAutomaton:
    """Construct the reachable part of the abstraction.

    ``cmax`` must dominate every constant in the guards.  The build is
    deterministic: breadth first from the initial regions, letters in
    alphabet order, edges in declaration order.  With ``max_states``, a
    natural number, it raises TooManyStates as soon as it holds more
    states than that; the initial regions are drawn one at a time.
    """
    if quantifier not in (EXISTS, FORALL):
        raise PreconditionViolated(f"quantifier must be {EXISTS!r} or {FORALL!r}")
    require_natural("cmax", cmax)
    if max_states is not None:
        require_natural("max_states", max_states)
    if cmax < A.max_constant():
        raise CmaxTooSmall(
            f"cmax={cmax} is below the largest guard constant {A.max_constant()}"
        )
    alphabet = A.alphabet
    # zone -> regions, region -> zone and (edge, region) -> pre-zones,
    # kept for this build only
    regions_of = cache(lambda zone: decompose(zone, cmax, variant))
    zone_of = cache(region_to_zone)
    pres_of = cache(lambda e, r2: tuple(pre_edge(alphabet, e, zone_of(r2))))
    states: dict[RaState, None] = {}  # in discovery order
    edges: list[tuple[RaState, str, RaState]] = []
    queue: deque[RaState] = deque()

    def add(s: RaState) -> None:
        if s not in states:
            states[s] = None
            queue.append(s)
            if max_states is not None and len(states) > max_states:
                raise TooManyStates(f"more than {max_states} region states", len(states))

    # the initial regions, drawn one at a time so the budget holds from the first
    for r in walk(initial_zone(alphabet), cmax, variant):
        add((A.initial, r))
    initials = tuple(states)
    while queue:
        s1 = queue.popleft()
        q1, r1 = s1
        z1 = zone_of(r1)
        for letter in alphabet.letters:
            letter_edges = A.edges_from(q1, letter)
            candidates = dict.fromkeys(
                (e.target, r2)
                for e in letter_edges
                for z in post_edge(alphabet, e, z1)
                for r2 in regions_of(z)
            )
            for s2 in candidates:
                if quantifier == FORALL:
                    q2, r2 = s2
                    pres = [
                        p
                        for e in letter_edges
                        if e.target == q2
                        for p in pres_of(e, r2)
                    ]
                    # one covering pre-zone decides it without a difference
                    if not any(p.includes(z1) for p in pres) and subtract_all(z1, pres):
                        continue
                edges.append((s1, letter, s2))
                add(s2)
    accepting = tuple(
        s for s in states if s[0] in A.accepting and s[1].is_final()
    )
    return RegionAutomaton(
        automaton=A,
        cmax=cmax,
        variant=variant,
        quantifier=quantifier,
        states=tuple(states),
        initials=initials,
        edges=tuple(edges),
        accepting=accepting,
    )


def ra_accepts(R: RegionAutomaton, word: Iterable[str]) -> bool:
    """Untimed word membership, by the usual subset construction.  Raises
    UnknownLetter for a letter outside the alphabet, wherever it stands."""
    word = tuple(word)
    for letter in word:
        R.automaton.alphabet.require_letter(letter)
    adj = R._adjacency
    current = set(R.initials)
    for letter in word:
        current = {
            s2 for s1 in current for s2 in adj.get((s1, letter), ())
        }
        if not current:
            return False
    accepting = set(R.accepting)
    return any(s in accepting for s in current)


def language_empty(R: RegionAutomaton) -> bool:
    """True iff no accepting state is reachable from an initial state.

    :func:`build` adds a state only as an initial state or as the target
    of an edge from a state it already holds, so every state is
    reachable, and ``accepting`` is a subset of ``states``: the language
    is empty exactly when ``accepting`` is.
    """
    return not R.accepting


def ra_bounded_language(R: RegionAutomaton, k: int) -> set[tuple[str, ...]]:
    """All accepted untimed words of length at most ``k``, by
    :func:`analysis.bounded_words` over the region states.  Raises
    PreconditionViolated when ``k`` is not a natural number."""
    require_natural("k", k)
    adj = R._adjacency
    step = lambda s, letter: adj.get((s, letter), ())
    return bounded_words(
        R.initials, step, set(R.accepting).__contains__, R.automaton.alphabet.letters, k
    )


def _state_ids(R: RegionAutomaton) -> dict[RaState, int]:
    return {s: i for i, s in enumerate(R.states)}


def to_dot(R: RegionAutomaton) -> str:
    """Graphviz rendering with one node per location-region pair."""
    ids = _state_ids(R)
    accepting = set(R.accepting)
    lines = [
        "digraph region_automaton {",
        "  rankdir=LR;",
        '  node [shape=circle, fontsize=10];',
    ]
    for s, i in ids.items():
        q, r = s
        label = f"{q} | {r}".replace('"', '\\"')
        shape = "doublecircle" if s in accepting else "circle"
        lines.append(f'  s{i} [label="{label}", shape={shape}];')
    for j, s in enumerate(R.initials):
        lines.append(f"  init{j} [shape=point, width=0.05];")
        lines.append(f"  init{j} -> s{ids[s]};")
    for s1, letter, s2 in R.edges:
        lines.append(f'  s{ids[s1]} -> s{ids[s2]} [label="{letter}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(R: RegionAutomaton) -> dict:
    """A serializable summary with stable state identifiers."""
    ids = _state_ids(R)
    initials = set(R.initials)
    accepting = set(R.accepting)
    return {
        "cmax": R.cmax,
        "variant": R.variant,
        "quantifier": R.quantifier,
        "state_count": len(R.states),
        "edge_count": len(R.edges),
        "state_bound": state_count_bound(R.automaton, R.cmax),
        "states": [
            {
                "id": ids[s],
                "location": s[0],
                "region": str(s[1]),
                "initial": s in initials,
                "accepting": s in accepting,
            }
            for s in R.states
        ],
        "edges": [
            {"from": ids[s1], "letter": letter, "to": ids[s2]}
            for s1, letter, s2 in R.edges
        ],
    }
