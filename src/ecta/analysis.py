"""Zone-based reachability for event-clock automata.

Both directions run the same worklist: dequeue a symbolic state, test
acceptance, skip it when a visited zone at the same location already
contains it, otherwise expand it through every edge.  Exact successor
and predecessor zones can keep tightening forever, so the searches are
semi-algorithms; a fuel bound turns nontermination into an explicit
``unknown`` verdict.

A step pins a clock by :meth:`edbm.Edbm.pin`, meets the guard through
the :class:`edbm.Cells` cases of :func:`edbm.guard_zones`, and keeps the
visited zones of each location in an :class:`edbm.ZoneCover`, a tree of
blocks of them that the containment test enters only where a block's
cellwise maximum lies above the new zone; ``edbm.py`` describes all three.
The guard-free half of a step, the elapse and the pin with its release,
depends on the zone and the letter only, and the edges that leave a
state or reach a location come one after another with the same zone, so
both halves are kept for the last zone they were computed for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .core import (
    And,
    Atom,
    Alphabet,
    Clock,
    Guard,
    Not,
    Or,
    PreconditionViolated,
    TrueGuard,
    UnknownClock,
    Unsupported,
    require_natural,
)
from .edbm import (
    Edbm,
    ZoneCover,
    distinct_zones,
    guard_zones,
    zone_from_constraints,
)
from .automaton import Ecta, Edge

NON_EMPTY = "non_empty"
EMPTY = "empty"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SymbolicState:
    """A location paired with a zone of valuations."""

    location: str
    zone: Edbm

    def __str__(self) -> str:
        return f"({self.location}, {self.zone.brief()})"


@dataclass(frozen=True)
class AnalysisResult:
    """Outcome of a reachability search.

    ``verdict`` is ``non_empty``, ``empty``, or ``unknown``;
    ``steps_used`` counts dequeued symbolic states; ``witness`` is the
    dequeue chain from a search root to the state that hit the goal,
    when one was found.
    """

    verdict: str
    steps_used: int
    witness: Optional[tuple[SymbolicState, ...]] = None


def initial_zone(alphabet: Alphabet) -> Edbm:
    """All valuations with every history clock undefined."""
    return zone_from_constraints(
        alphabet, undefined=[x for x in alphabet.clocks if x.is_history]
    )


def final_zone(alphabet: Alphabet) -> Edbm:
    """All valuations with every prophecy clock undefined."""
    return zone_from_constraints(
        alphabet, undefined=[x for x in alphabet.clocks if x.is_prophecy]
    )


@lru_cache(maxsize=1)
def _elapsed(zone: Edbm) -> tuple[Edbm, ...]:
    """``zone.future()``, kept for the last zone."""
    return zone.future()


@lru_cache(maxsize=1)
def _freed(zone: Edbm, clock: Clock) -> Optional[Edbm]:
    """``zone`` with ``clock`` pinned to 0 and then released, or None when
    the pin is empty; kept for the last zone and clock."""
    staged = zone.pin(clock)
    return None if staged.is_empty() else staged.release(clock)


def _fire(
    alphabet: Alphabet, e: Edge, zone: Edbm, pinned: Clock, reset: Clock
) -> list[Edbm]:
    """The discrete part of a step through ``e``, one zone per distinct
    meet with the guard: ``pinned`` must be 0 and is released, the
    guard meets the zone, and ``reset`` is set to 0.  Forward pins the
    prophecy clock and resets the history clock; backward swaps.  Raises
    PreconditionViolated when ``zone`` is over another alphabet."""
    if zone.alphabet is not alphabet and zone.alphabet != alphabet:
        raise PreconditionViolated("zone over another alphabet")
    freed = _freed(zone, pinned)
    return [] if freed is None else [z.reset(reset) for z in guard_zones(freed, e.guard)]


def post_edge(alphabet: Alphabet, e: Edge, zone: Edbm) -> list[Edbm]:
    """Zones reachable at ``e.target`` by firing ``e`` from ``zone``.

    Time elapses until the letter's prophecy clock is 0, the prophecy
    clock is released and constrained by the guard together with the
    other clocks, and the letter's history clock resets to 0.  The step
    iterates over the pieces of the time successors, and the guard
    contributes one zone per disjunct, hence the list.
    """
    p, h = Clock.prophecy(e.letter), Clock.history(e.letter)
    fired = (_fire(alphabet, e, piece, p, h) for piece in _elapsed(zone))
    return distinct_zones(z for zones in fired for z in zones)


def pre_edge(alphabet: Alphabet, e: Edge, zone: Edbm) -> list[Edbm]:
    """Zones at ``e.source`` from which firing ``e`` can reach ``zone``.

    The mirror image of post_edge: undo the history reset, apply the
    guard, undo the prophecy release by pinning the prophecy clock to 0,
    and let time flow backwards.  Each disjunct of the guard contributes
    the pieces of its time predecessors.
    """
    p, h = Clock.prophecy(e.letter), Clock.history(e.letter)
    return distinct_zones(q for z in _fire(alphabet, e, zone, h, p) for q in z.past())


def _unwind(node: tuple) -> tuple[SymbolicState, ...]:
    chain: list[SymbolicState] = []
    while node is not None:
        chain.append(node[0])
        node = node[1]
    return tuple(reversed(chain))


def _search(
    A: Ecta,
    starts: list[SymbolicState],
    goal: Edbm,
    fuel: int,
    forward: bool,
    literal_accept: bool,
) -> AnalysisResult:
    require_natural("fuel", fuel)
    queue: deque[tuple] = deque((s, None) for s in starts)
    visited = {q: ZoneCover() for q in A.locations}
    # the visited nodes at goal locations, for a drained literal search
    at_goal: list[tuple] = []
    steps = 0
    while queue:
        node = queue.popleft()
        steps += 1
        if steps > fuel:
            return AnalysisResult(UNKNOWN, fuel)
        state: SymbolicState = node[0]
        q, Z = state.location, state.zone
        at_goal_location = q in A.accepting if forward else q == A.initial
        if at_goal_location:
            hit = goal.includes(Z) if literal_accept else not Z.intersect(goal).is_empty()
            if hit:
                return AnalysisResult(NON_EMPTY, steps, _unwind(node))
        if not visited[q].add(Z):
            continue
        if at_goal_location:
            at_goal.append(node)
        if forward:
            for e in A.edges_from(q):
                for z in post_edge(A.alphabet, e, Z):
                    queue.append((SymbolicState(e.target, z), node))
        else:
            for e in A.edges_to(q):
                for z in pre_edge(A.alphabet, e, Z):
                    queue.append((SymbolicState(e.source, z), node))
    if literal_accept:
        # The images are exact, so once the worklist is dry every
        # reachable state lies in a visited zone; one that only meets
        # the goal still proves the language nonempty.
        for node in at_goal:
            if not node[0].zone.intersect(goal).is_empty():
                return AnalysisResult(NON_EMPTY, steps, _unwind(node))
    return AnalysisResult(EMPTY, steps)


def forw_exact(
    A: Ecta, fuel: int = 10000, literal_accept: bool = False
) -> AnalysisResult:
    """Forward reachability from the initial location and zone.

    Reports ``non_empty`` when an accepting location is reached with a
    zone meeting the all-prophecy-undefined zone (with
    ``literal_accept``, contained in it; once the worklist is exhausted,
    meeting it suffices), ``empty`` when the worklist is exhausted
    without that, and ``unknown`` when more than ``fuel`` symbolic
    states were dequeued.  Raises PreconditionViolated when ``fuel`` is
    not a natural number.
    """
    start = SymbolicState(A.initial, initial_zone(A.alphabet))
    return _search(
        A, [start], final_zone(A.alphabet), fuel, True, literal_accept
    )


def back_exact(
    A: Ecta, fuel: int = 10000, literal_accept: bool = False
) -> AnalysisResult:
    """Backward reachability from the accepting locations and final zone."""
    Zf = final_zone(A.alphabet)
    starts = [SymbolicState(q, Zf) for q in A.locations if q in A.accepting]
    return _search(
        A, starts, initial_zone(A.alphabet), fuel, False, literal_accept
    )


def _swap_clock_kinds(g: Guard) -> Guard:
    if isinstance(g, TrueGuard):
        return g
    if isinstance(g, Atom):
        return Atom(g.clock.opposite(), g.op, g.bound)
    if isinstance(g, Not):
        return Not(_swap_clock_kinds(g.inner))
    if isinstance(g, And):
        return And(_swap_clock_kinds(g.left), _swap_clock_kinds(g.right))
    if isinstance(g, Or):
        return Or(_swap_clock_kinds(g.left), _swap_clock_kinds(g.right))
    raise TypeError(f"not a guard: {g!r}")


def mirror(A: Ecta) -> Ecta:
    """The time reversal of an automaton.

    Edges flip direction, history and prophecy clocks trade places in
    every guard, and the single accepting location becomes initial.  A
    word is accepted by the result iff its reversal (with timestamps
    read backwards from their maximum) is accepted by ``A``.
    """
    if len(A.accepting) != 1:
        raise Unsupported(
            f"mirror needs exactly one accepting location, got {len(A.accepting)}"
        )
    (final,) = A.accepting
    edges = tuple(
        Edge(e.target, e.letter, _swap_clock_kinds(e.guard), e.source)
        for e in A.edges
    )
    return Ecta(
        alphabet=A.alphabet,
        locations=A.locations,
        initial=final,
        accepting=frozenset({A.initial}),
        edges=edges,
    )


def bounded_words(starts, step, accepting, letters, k: int) -> set[tuple[str, ...]]:
    """The words of length at most ``k`` whose states, reached from ``starts``
    by ``step(s, letter)``, include one that ``accepting`` takes: the subset
    construction on the fly, one frozenset of states per word, depth first."""
    words: set[tuple[str, ...]] = set()
    frontier = [((), frozenset(starts))]
    while frontier:
        word, current = frontier.pop()
        if any(accepting(s) for s in current):
            words.add(word)
        if current and len(word) < k:
            for letter in letters:
                nxt = frozenset(t for s in current for t in step(s, letter))
                frontier.append((word + (letter,), nxt))
    return words


def bounded_untimed_language(
    A: Ecta, k: int, start: Optional[SymbolicState] = None
) -> set[tuple[str, ...]]:
    """Untimed words of length at most ``k`` realizable from ``start``.

    ``start`` defaults to the initial location with the initial zone.  A
    word is included when some zone run over it, stepped by :func:`post_edge`
    in :func:`bounded_words`, ends in an accepting location with a zone
    meeting the final zone.  Raises PreconditionViolated when ``k`` is not a
    natural number or ``start`` is at a location not in ``A``, and
    UnknownClock when its zone is over another alphabet.
    """
    require_natural("k", k)
    if start is None:
        start = SymbolicState(A.initial, initial_zone(A.alphabet))
    if start.location not in A.locations:
        raise PreconditionViolated(f"unknown location {start.location!r}")
    if start.zone.alphabet != A.alphabet:
        raise UnknownClock("start zone over another alphabet")
    Zf = final_zone(A.alphabet)
    return bounded_words(
        [start],
        lambda s, letter: [
            SymbolicState(e.target, z)
            for e in A.edges_from(s.location, letter)
            for z in post_edge(A.alphabet, e, s.zone)
        ],
        lambda s: s.location in A.accepting and not s.zone.intersect(Zf).is_empty(),
        A.alphabet.letters,
        k,
    )
