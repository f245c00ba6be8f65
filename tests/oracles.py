"""Representation-independent semantics for zone operations.

These functions restate what each operation means for individual
valuations, without looking at how the operations are implemented.  The
existential quantifiers over elapsed time and released values are
eliminated into exact rational intervals, so every answer here is exact.
Tests compare the matrix operations against these definitions.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ecta.analysis import (
    EMPTY, NON_EMPTY, UNKNOWN, AnalysisResult, SymbolicState,
    final_zone, initial_zone, post_edge, pre_edge,
)
from ecta.core import Alphabet, And, Atom, Clock, Not, Or, TrueGuard, Valuation
from ecta.edbm import (
    ANY, BOT, INF, Edbm, atom_cells, difference_cells, distinct_zones, guard_zones,
    undefined_cells,
)
from ecta.regions import (
    CLASSIC, REFINED, Region, class_cells, diagonal_cells, region_of, region_to_zone,
)

#: An interval endpoint: (value, open).  ``None`` means unbounded.
Endpoint = Optional[tuple[Fraction, bool]]


def bound_le(b1: tuple, b2: tuple) -> bool:
    """The cell order on decoded ``(value, strict)`` bounds: smaller means
    tighter.  ``?`` is the top; ``bot`` is comparable only with itself
    and ``?``, so "undefined" and "real" meet in the empty zone; numbers,
    ``<inf`` included, compare by value, then ``<`` below ``<=``."""
    if b2[0] is ANY or b1 == b2:
        return True
    if b1[0] is ANY or b1[0] is BOT or b2[0] is BOT:
        return False
    return b1[0] < b2[0] or (b1[0] == b2[0] and b1[1] >= b2[1])


def bound_min(b1: tuple, b2: tuple) -> Optional[tuple]:
    """Greatest lower bound of two decoded cells, or None when incomparable."""
    return b1 if bound_le(b1, b2) else b2 if bound_le(b2, b1) else None


def _bound(t) -> tuple:
    """A ``(value, strict)`` bound, or the one a ``bot``, ``?``, ``<inf``,
    ``<c`` or ``<=c`` token stands for."""
    if not isinstance(t, str):
        return t
    markers = {"bot": (BOT, False), "?": (ANY, False), "<inf": (INF, True)}
    if t in markers:
        return markers[t]
    strict = not t.startswith("<=")
    return (int(t[1:] if strict else t[2:]), strict)


@dataclass(frozen=True)
class Rows:
    """A matrix as entered, not closed: an alphabet and ``(value, strict)``
    rows, which :func:`in_zone` reads as it reads a zone's ``cells``."""

    alphabet: Alphabet
    cells: tuple

    @staticmethod
    def from_tokens(alphabet: Alphabet, rows) -> "Rows":
        """Rows of ``bot``, ``?``, ``<inf``, ``<c`` and ``<=c`` tokens."""
        return Rows(alphabet, tuple(tuple(map(_bound, row)) for row in rows))


def normal_form(alphabet: Alphabet, rows) -> tuple:
    """The cells of the normal form of the zone that ``rows`` denote, rows
    of tokens or of ``(value, strict)`` bounds, by the full normalization
    on decoded cells, written without the raw bounds of ``edbm.py``.

    A diagonal cell below ``<=0`` empties the zone.  A clock is undefined
    when a border cell holds ``bot`` and real when a number or ``<inf``
    off the diagonal names it; both at once empty the zone.  An undefined
    clock gets ``bot`` on both borders, and one neither undefined nor real
    an all-``?`` row and column.  Between 0 and the real clocks ``?``
    reads as ``<inf``, the diagonal as ``<=0``, and each real clock gets
    its sign bound (a history value is at least 0, a signed prophecy value
    at most 0); then an all-pairs shortest-path closure, and a diagonal
    cell below ``<=0`` empties the zone.  The empty zone has ``(-1, <)``
    at ``(0, 0)`` and ``?`` elsewhere."""
    work = [[_bound(t) for t in row] for row in rows]
    size, zero, inf = len(work), (0, False), (INF, True)
    empty = tuple(
        tuple((-1, True) if i == j == 0 else (ANY, False) for j in range(size))
        for i in range(size)
    )

    def below_zero(b: tuple) -> bool:
        return b[0] is BOT or (b[0] is not ANY and not bound_le(zero, b))

    def add(a: tuple, b: tuple) -> tuple:
        return inf if INF in (a[0], b[0]) else (a[0] + b[0], a[1] or b[1])

    if any(below_zero(work[i][i]) for i in range(size)):
        return empty
    real = {0} | {
        c for i in range(size) for j in range(size)
        if i != j and work[i][j][0] not in (ANY, BOT) for c in (i, j)
    }
    for i in range(1, size):
        if BOT in (work[i][0][0], work[0][i][0]):
            if i in real:
                return empty
            work[i][0] = work[0][i] = (BOT, False)
        if i not in real:
            work[i][i] = (ANY, False)
    order = sorted(real)
    for i in order:
        work[i] = [inf if j in real and b[0] is ANY else b for j, b in enumerate(work[i])]
        work[i][i] = zero
    for i in order[1:]:
        r, c = (0, i) if i <= len(alphabet.letters) else (i, 0)
        work[r][c] = bound_min(work[r][c], zero)
    for k in order:
        for i in order:
            for j in order:
                path = add(work[i][k], work[k][j])
                if not bound_le(work[i][j], path):
                    work[i][j] = path
    if any(below_zero(work[i][i]) for i in order):
        return empty
    return tuple(map(tuple, work))


def region_zone_by_cells(r: Region) -> Edbm:
    """A region's zone as the merge of all its cells into the zone of all
    valuations: the class of each clock, the fractional order and the
    recorded differences.  The reference for ``regions.region_to_zone``,
    which writes the classic part in normal form by construction.

    A clock of rank ``2k + 1`` lies at distance ``hi - sv`` from the next
    integer ``hi`` of its signed value, ``k + 1`` for a history clock and
    ``-k`` for a prophecy clock, so two such distances compare by a bound
    on ``sv(y) - sv(x)``."""
    ab, classes = r.alphabet, r.classes

    def hi(i: int) -> int:
        return classes[i] // 2 + 1 if ab.clocks[i].is_history else -(classes[i] // 2)

    def by_distance(x: int, y: int, op: str) -> list[tuple]:
        return difference_cells(y + 1, x + 1, op, hi(y) - hi(x))

    cells = [c for i, rank in enumerate(classes) for c in class_cells(ab, i, rank, r.cmax)]
    for group in r.fracs:
        for a, b in zip(group, group[1:]):
            cells += by_distance(a, b, "=")
    for below, above in zip(r.fracs, r.fracs[1:]):
        cells += by_distance(below[-1], above[0], "<")
    for i, j, rank in r.diagonals:
        cells += diagonal_cells(i, j, rank, r.cmax)
    return Edbm.unconstrained(ab).with_cells(cells)


def _rank_by_fractions(q: Fraction, cap: int) -> int:
    return max(-2 * cap - 1, min(2 * cap + 1, math.floor(q) + math.ceil(q)))


def region_of_by_fractions(v: Valuation, cmax: int, variant: str = CLASSIC) -> Region:
    """The region of ``v`` in ``Fraction`` arithmetic, through
    ``Valuation.frac`` and ``Valuation.signed``: each clock's rank from its
    floor and ceiling, the clocks of odd rank below ``2 * cmax`` grouped by
    ``frac``, and in the refined variant the rank of each signed difference
    of two defined clocks, one above ``cmax``.  The reference for
    ``regions.region_of``, which reads numerators and denominators."""
    clocks, top = v.alphabet.clocks, 2 * cmax + 1
    classes = tuple(None if val is None else _rank_by_fractions(val, cmax) for val in v.values)
    by_frac: dict[Fraction, list[int]] = {}
    for i, rank in enumerate(classes):
        if rank is not None and rank % 2 and rank < 2 * cmax:
            by_frac.setdefault(v.frac(clocks[i]), []).append(i)
    fracs = tuple(tuple(by_frac[f]) for f in sorted(by_frac))
    defined = [i for i, rank in enumerate(classes) if rank is not None]
    diagonals = tuple(
        (i, j, _rank_by_fractions(v.signed(clocks[i]) - v.signed(clocks[j]), 2 * cmax))
        for a, i in enumerate(defined) for j in defined[a + 1:]
        if variant == REFINED and top in (classes[i], classes[j])
    )
    return Region(v.alphabet, variant, cmax, classes, fracs, diagonals)


def _signed(zone: Edbm, v: Valuation) -> tuple[Optional[Fraction], ...]:
    return (Fraction(0),) + v.plmin()


def in_zone(zone: Edbm, v: Valuation, skip: Optional[int] = None) -> bool:
    """Membership of a valuation, straight from the cell meanings.

    A ``bot`` border cell demands the clock be undefined; a numeric cell
    (infinity included) demands both endpoints be defined, and when
    finite bounds their signed difference; ``?`` demands nothing.
    Diagonal cells only compare the constant zero against their bound.
    With ``skip`` set, cells touching that index are ignored.
    """
    if v.alphabet != zone.alphabet:
        return False
    sv, cells = _signed(zone, v), zone.cells
    n = len(sv)
    for i in range(n):
        for j in range(n):
            m, s = cells[i][j]
            if m is ANY:
                continue
            if i == j:
                if m is BOT or m < 0 or (m == 0 and s):
                    return False
                continue
            if skip is not None and (i == skip or j == skip):
                continue
            if m is BOT:
                if (sv[i] if j == 0 else sv[j]) is not None:
                    return False
                continue
            if sv[i] is None or sv[j] is None:
                return False
            if m == INF:
                continue
            diff = sv[i] - sv[j]
            if not (diff < m if s else diff <= m):
                return False
    return True


class _Interval:
    """A rational interval built from accumulated one-sided bounds."""

    def __init__(self) -> None:
        self.lo: Endpoint = None
        self.hi: Endpoint = None
        self.broken = False

    def at_least(self, value: Fraction, open_: bool) -> None:
        if self.lo is None or value > self.lo[0] or (
            value == self.lo[0] and open_ and not self.lo[1]
        ):
            self.lo = (value, open_)

    def at_most(self, value: Fraction, open_: bool) -> None:
        if self.hi is None or value < self.hi[0] or (
            value == self.hi[0] and open_ and not self.hi[1]
        ):
            self.hi = (value, open_)

    def nonempty(self) -> bool:
        if self.broken:
            return False
        if self.lo is None or self.hi is None:
            return True
        (a, ao), (b, bo) = self.lo, self.hi
        if a < b:
            return True
        return a == b and not ao and not bo


def _border_ok(zone: Edbm, v: Valuation) -> bool:
    """The elapse-invariant part of membership: everything but borders.

    Checks bot demands, realness demands from numeric borders, pair
    cells, and diagonal emptiness, but not the numeric border values
    themselves (those shift with time).
    """
    sv, cells = _signed(zone, v), zone.cells
    n = len(sv)
    for i in range(n):
        for j in range(n):
            m, s = cells[i][j]
            if m is ANY:
                continue
            if i == j:
                if m is BOT or m < 0 or (m == 0 and s):
                    return False
                continue
            if m is BOT:
                if (sv[i] if j == 0 else sv[j]) is not None:
                    return False
                continue
            if sv[i] is None or sv[j] is None:
                return False
            if m == INF or i == 0 or j == 0:
                continue
            diff = sv[i] - sv[j]
            if not (diff < m if s else diff <= m):
                return False
    return True


def in_future(zone: Edbm, v: Valuation) -> bool:
    """Is ``v`` reachable from some member of the zone by letting time pass?

    Equivalently: does rewinding ``v`` by some t >= 0 land in the zone?
    Rewinding keeps histories nonnegative, so t is capped by the least
    defined history; each numeric border cell contributes a linear bound
    on t; everything else does not move with time.
    """
    if not _border_ok(zone, v):
        return False
    box = _Interval()
    box.at_least(Fraction(0), False)
    for x in v.alphabet.clocks:
        val = v.value(x)
        if x.is_history and val is not None:
            box.at_most(val, False)
    cells = zone.cells
    for i in range(1, len(cells)):
        x = v.alphabet.clocks[i - 1]
        val = v.value(x)
        m, s = cells[i][0]
        if m is not ANY and m is not BOT and m != INF:
            # signed(x) - t' ... rewound upper bound becomes a lower bound on t
            if x.is_history:
                box.at_least(val - m, s)
            else:
                box.at_least(-m - val, s)
        m, s = cells[0][i]
        if m is not ANY and m is not BOT and m != INF:
            if x.is_history:
                box.at_most(m + val, s)
            else:
                box.at_most(m - val, s)
    return box.nonempty()


def in_past(zone: Edbm, v: Valuation) -> bool:
    """Can ``v`` reach some member of the zone by letting time pass?

    Advancing ``v`` by t keeps prophecies nonnegative, so t is capped by
    the least defined prophecy; border cells again bound t linearly.
    """
    if not _border_ok(zone, v):
        return False
    box = _Interval()
    box.at_least(Fraction(0), False)
    for x in v.alphabet.clocks:
        val = v.value(x)
        if x.is_prophecy and val is not None:
            box.at_most(val, False)
    cells = zone.cells
    for i in range(1, len(cells)):
        x = v.alphabet.clocks[i - 1]
        val = v.value(x)
        m, s = cells[i][0]
        if m is not ANY and m is not BOT and m != INF:
            if x.is_history:
                box.at_most(m - val, s)
            else:
                box.at_most(m + val, s)
        m, s = cells[0][i]
        if m is not ANY and m is not BOT and m != INF:
            if x.is_history:
                box.at_least(-m - val, s)
            else:
                box.at_least(val - m, s)
    return box.nonempty()


def in_release(zone: Edbm, clock: Clock, v: Valuation) -> bool:
    """Can some value (or bot) for ``clock`` put ``v`` inside the zone?"""
    k = zone.alphabet.index_of(clock) + 1
    if in_zone(zone, v.set(clock, None)):
        return True
    if not in_zone(zone, v, skip=k):
        return False
    sv = _signed(zone, v)
    box = _Interval()
    if clock.is_history:
        box.at_least(Fraction(0), False)
    else:
        box.at_most(Fraction(0), False)
    cells = zone.cells
    for j in range(len(cells)):
        if j == k:
            continue
        m, s = cells[k][j]
        if m is BOT:
            return False
        if m is not ANY and m != INF:
            if sv[j] is None:
                return False
            box.at_most(m + sv[j], s)
        m, s = cells[j][k]
        if m is BOT:
            return False
        if m is not ANY and m != INF:
            if sv[j] is None:
                return False
            box.at_least(sv[j] - m, s)
    return box.nonempty()


def in_intersection(z1: Edbm, z2: Edbm, v: Valuation) -> bool:
    return in_zone(z1, v) and in_zone(z2, v)


def grid_points(
    alphabet, rng, count: int, denominator: int = 4, top: int = 5
) -> list[Valuation]:
    """Random valuations off a uniform rational grid, bot included."""
    points = []
    steps = top * denominator
    for _ in range(count):
        vals = []
        for _x in alphabet.clocks:
            if rng.random() < 0.25:
                vals.append(None)
            else:
                vals.append(Fraction(rng.randint(0, steps), denominator))
        points.append(Valuation(alphabet, tuple(vals)))
    return points


def nudged_points(
    zone: Edbm, rng, count: int, denominator: int = 4, top: int = 5
) -> list[Valuation]:
    """Grid points near the zone, seeded from its sample point.

    A uniformly random grid point rarely hits a tightly constrained
    zone, so tests also walk outward from a known member, snapping each
    coordinate to the grid and sometimes dropping it to bot.
    """
    from ecta.core import EmptyZone

    try:
        seed = zone.sample()
    except EmptyZone:
        return []
    points = []
    for _ in range(count):
        vals = []
        for x in zone.alphabet.clocks:
            val = seed.value(x)
            if val is None:
                vals.append(
                    None
                    if rng.random() < 0.7
                    else Fraction(rng.randint(0, top * denominator), denominator)
                )
                continue
            if rng.random() < 0.1:
                vals.append(None)
                continue
            snapped = round(val * denominator) + rng.randint(-2, 2)
            snapped = max(0, min(top * denominator, snapped))
            vals.append(Fraction(snapped, denominator))
        points.append(Valuation(zone.alphabet, tuple(vals)))
    return points


def random_zone(alphabet, rng, max_const: int = 3) -> Edbm:
    """A random normalized matrix assembled from random cell bounds."""
    n = len(alphabet.clocks)
    zone = Edbm.unconstrained(alphabet)
    updates = []
    for idx in range(1, n + 1):
        roll = rng.random()
        if roll < 0.2:
            updates.append((idx, 0, (BOT, False)))
            updates.append((0, idx, (BOT, False)))
        elif roll < 0.3:
            lo, hi = (
                ((0, False), (INF, True))
                if alphabet.clocks[idx - 1].is_prophecy
                else ((INF, True), (0, False))
            )
            updates.append((idx, 0, lo))
            updates.append((0, idx, hi))
    for _ in range(rng.randint(0, 6)):
        i = rng.randint(0, n)
        j = rng.randint(0, n)
        if i == j:
            continue
        bound = (rng.randint(-max_const, max_const), rng.random() < 0.5)
        updates.append((i, j, bound))
    return zone.with_cells(updates)


def full_zone(alphabet, rng, max_const: int = 3) -> Edbm:
    """A random zone in which no clock is left completely free.

    Every clock is pinned as undefined or as real, so the time
    operations are exact on these zones.
    """
    n = len(alphabet.clocks)
    updates = []
    for idx in range(1, n + 1):
        if rng.random() < 0.25:
            updates.append((idx, 0, (BOT, False)))
            updates.append((0, idx, (BOT, False)))
        elif alphabet.clocks[idx - 1].is_prophecy:
            updates.append((idx, 0, (0, False)))
            updates.append((0, idx, (INF, True)))
        else:
            updates.append((idx, 0, (INF, True)))
            updates.append((0, idx, (0, False)))
    for _ in range(rng.randint(0, 5)):
        i = rng.randint(0, n)
        j = rng.randint(0, n)
        if i == j:
            continue
        updates.append((i, j, (rng.randint(-max_const, max_const), rng.random() < 0.5)))
    return Edbm.unconstrained(alphabet).with_cells(updates)


def random_guard(alphabet, rng, max_const: int = 2, depth: int = 2):
    """A random guard tree over the alphabet's clocks."""
    from ecta.core import And, Atom, Not, Or, TRUE

    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.1:
            return TRUE
        return Atom(
            rng.choice(alphabet.clocks),
            rng.choice(["<", "=", ">"]),
            rng.randint(0, max_const),
        )
    roll = rng.random()
    if roll < 0.25:
        return Not(random_guard(alphabet, rng, max_const, depth - 1))
    ctor = And if roll < 0.65 else Or
    return ctor(
        random_guard(alphabet, rng, max_const, depth - 1),
        random_guard(alphabet, rng, max_const, depth - 1),
    )


def guard_dnf(g, alphabet) -> list[list[tuple]]:
    """A guard in disjunctive normal form, one cell list per disjunct.

    The reference for the zones a guard meets and for their order: a
    negated comparison expands into the reversed comparison plus the
    undefined case, since a comparison is false on an undefined clock.
    A disjunct may contradict itself; its cells then empty any zone.
    The size is exponential in the number of negated atoms.
    """

    def expand(g, negated: bool) -> list[list[tuple]]:
        if isinstance(g, TrueGuard):
            return [] if negated else [[]]
        if isinstance(g, Not):
            return expand(g.inner, not negated)
        if isinstance(g, (And, Or)):
            left = expand(g.left, negated)
            right = expand(g.right, negated)
            if isinstance(g, And) != negated:
                return [a + b for a in left for b in right]
            return left + right
        if isinstance(g, Atom):
            i = alphabet.index_of(g.clock) + 1
            if not negated:
                return [atom_cells(alphabet, i, g.op, g.bound)]
            reverse = {"<": [">="], ">": ["<="], "=": ["<", ">"]}[g.op]
            out = [atom_cells(alphabet, i, op, g.bound) for op in reverse]
            return out + [undefined_cells(i)]
        raise TypeError(f"not a guard: {g!r}")

    return expand(g, False)


def guard_zones_per_call(zone: Edbm, g) -> list:
    """``edbm.guard_zones`` as it walked the guard tree on every call,
    building and checking each atom's cells again through ``with_cells``:
    the reference for the compiled walk, its zones and their order."""
    ab = zone.alphabet

    def walk(z: Edbm, g, negated: bool) -> list:
        if isinstance(g, TrueGuard):
            return [] if negated else [z]
        if isinstance(g, Not):
            return walk(z, g.inner, not negated)
        if isinstance(g, Atom):
            i = ab.index_of(g.clock) + 1
            ops = {"<": [">="], ">": ["<="], "=": ["<", ">"]}[g.op] if negated else [g.op]
            cases = [atom_cells(ab, i, op, g.bound) for op in ops]
            if negated:
                cases.append(undefined_cells(i))
            met = (z.with_cells(c) for c in cases)
        elif not isinstance(g, (And, Or)):
            raise TypeError(f"not a guard: {g!r}")
        elif isinstance(g, And) != negated:
            met = (w for y in walk(z, g.left, negated) for w in walk(y, g.right, negated))
        else:
            met = walk(z, g.left, negated) + walk(z, g.right, negated)
        return distinct_zones(met)

    zones = [] if zone.is_empty() else walk(zone, g, False)
    for clock in g.clocks():
        ab.index_of(clock)  # raises UnknownClock also for an atom left unwalked
    return zones


def random_valuation(alphabet, rng, cmax=2):
    """A random valuation mixing undefined, capped and above-cap clocks."""
    entries = {}
    for clock in alphabet.clocks:
        roll = rng.random()
        if roll < 0.25:
            entries[clock] = None
        elif roll < 0.45:
            entries[clock] = Fraction(cmax) + Fraction(rng.randint(1, 24), 8)
        else:
            entries[clock] = Fraction(rng.randint(0, cmax)) + Fraction(
                rng.randint(0, 7), 8
            )
    return Valuation.of(alphabet, entries)


def rational_valuation(alphabet, rng, cmax=2):
    """A random valuation whose defined values are ``n / d``, ``d`` drawn
    from 1 to 12, up to ``2 * cmax + 3``: so at, below and above ``cmax``,
    with signed differences on both sides of ``±2 * cmax``."""
    values = []
    for _ in alphabet.clocks:
        d = rng.randint(1, 12)
        values.append(None if rng.random() < 0.2 else Fraction(rng.randint(0, (2 * cmax + 3) * d), d))
    return Valuation(alphabet, tuple(values))


def region_mate(v, rng, cmax):
    """A fresh valuation in the same classic region as ``v``.

    Keeps the undefinedness pattern and the integer parts of capped
    clocks, redraws the boundary distances while preserving their order
    and equalities, and redraws above-cap values freely.  The boundary
    distance of a clock is the delay until it crosses an integer, so a
    history clock with distance ``f`` sits at ``ceil - f`` and a
    prophecy clock at ``floor + f``.
    """
    import math

    clocks = v.alphabet.clocks
    old = sorted(
        {
            v.frac(x)
            for x, val in zip(clocks, v.values)
            if val is not None and val <= cmax and v.frac(x) != 0
        }
    )
    pool = sorted(rng.sample(range(1, 32), len(old)))
    fresh = {f: Fraction(k, 32) for f, k in zip(old, pool)}
    entries = {}
    for x, val in zip(clocks, v.values):
        if val is None:
            entries[x] = None
        elif val > cmax:
            entries[x] = Fraction(cmax) + Fraction(rng.randint(1, 64), 16)
        elif v.frac(x) == 0:
            entries[x] = val
        elif x.is_history:
            entries[x] = Fraction(math.ceil(val)) - fresh[v.frac(x)]
        else:
            entries[x] = Fraction(math.floor(val)) + fresh[v.frac(x)]
    return Valuation.of(v.alphabet, entries)


def random_automaton(alphabet, rng, locations=3, max_const=2, edges=(2, 4)):
    """A small random automaton over the given alphabet, with between
    ``edges[0]`` and ``edges[1]`` edges.

    Location count and guard constants stay small so the region
    abstraction and the bounded language enumeration finish quickly.
    """
    from ecta.automaton import Ecta, Edge

    locs = tuple(f"q{i}" for i in range(locations))
    edges = tuple(
        Edge(
            rng.choice(locs),
            rng.choice(alphabet.letters),
            random_guard(alphabet, rng, max_const, rng.randint(0, 2)),
            rng.choice(locs),
        )
        for _ in range(rng.randint(*edges))
    )
    accepting = frozenset(rng.sample(locs, rng.randint(1, len(locs))))
    return Ecta(alphabet, locs, locs[0], accepting, edges)


def decompose_by_sampling(zone: Edbm, cmax: int, variant: str = CLASSIC):
    """All regions meeting the zone, by sample-and-subtract.

    The reference for ``regions.decompose``: repeatedly samples a point
    of the remaining set, carves out its region, and continues on the
    difference.  Terminates because regions partition the valuations and
    only finitely many meet any zone.
    """
    found = []
    seen = set()
    pieces = [] if zone.is_empty() else [zone]
    while pieces:
        piece = pieces.pop()
        r = region_of(piece.sample(), cmax, variant)
        if r not in seen:
            seen.add(r)
            found.append(r)
        pieces.extend(piece.subtract(region_to_zone(r)))
    return tuple(found)


def step_by_parts(e, zone: Edbm, forward: bool) -> list:
    """``post_edge`` (``forward``) or ``pre_edge`` through ``e``, composed
    from the zone operations afresh on every call, nothing kept from one
    call to the next: the reference for the step's memo of its guard-free
    half, its zones and their order."""
    prophecy, history = Clock.prophecy(e.letter), Clock.history(e.letter)
    pinned, reset = (prophecy, history) if forward else (history, prophecy)
    out = []
    for piece in zone.future() if forward else [zone]:
        staged = piece.pin(pinned)
        if staged.is_empty():
            continue
        for z in guard_zones(staged.release(pinned), e.guard):
            out.extend([z.reset(reset)] if forward else z.reset(reset).past())
    return distinct_zones(out)


def reference_search(A, fuel: int, forward: bool, literal_accept: bool):
    """``forw_exact`` / ``back_exact`` with the visited zones of each
    location kept in a plain list and scanned by ``Edbm.includes``: the
    reference for the search's covers of visited zones."""
    if forward:
        starts = [SymbolicState(A.initial, initial_zone(A.alphabet))]
        goal = final_zone(A.alphabet)
    else:
        starts = [SymbolicState(q, final_zone(A.alphabet)) for q in A.locations if q in A.accepting]
        goal = initial_zone(A.alphabet)

    def unwind(node):
        chain = []
        while node is not None:
            chain.append(node[0])
            node = node[1]
        return tuple(reversed(chain))

    queue = deque((s, None) for s in starts)
    visited = {q: [] for q in A.locations}
    at_goal, steps = [], 0
    while queue:
        node = queue.popleft()
        steps += 1
        if steps > fuel:
            return AnalysisResult(UNKNOWN, fuel)
        q, Z = node[0].location, node[0].zone
        at_goal_location = q in A.accepting if forward else q == A.initial
        if at_goal_location:
            if goal.includes(Z) if literal_accept else not Z.intersect(goal).is_empty():
                return AnalysisResult(NON_EMPTY, steps, unwind(node))
        if any(seen.includes(Z) for seen in visited[q]):
            continue
        visited[q].append(Z)
        if at_goal_location:
            at_goal.append(node)
        if forward:
            for e in A.edges_from(q):
                queue.extend((SymbolicState(e.target, z), node) for z in post_edge(A.alphabet, e, Z))
        else:
            for e in A.edges_to(q):
                queue.extend((SymbolicState(e.source, z), node) for z in pre_edge(A.alphabet, e, Z))
    if literal_accept:
        for node in at_goal:
            if not node[0].zone.intersect(goal).is_empty():
                return AnalysisResult(NON_EMPTY, steps, unwind(node))
    return AnalysisResult(EMPTY, steps)
