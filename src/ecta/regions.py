"""Finite-index equivalences on valuations and their canonical regions.

Two variants are provided.  The classic equivalence compares, per clock,
undefinedness, the integer interval holding the value (capped at the
abstraction constant ``cmax``), and the relative order of fractional
parts among clocks at most ``cmax``.  The refined variant additionally
compares, for clock pairs where at least one value exceeds ``cmax``, the
integer interval holding the difference of signed values, capped at
``2 * cmax``; these differences do not change as time elapses, so the
refinement survives where absolute values have been abstracted away.

A region is the canonical encoding of one equivalence class.  Every
region is a convex set of valuations and converts to a single zone; a
zone decomposes into the finite set of regions it meets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

from .core import (
    Alphabet,
    ClockMismatch,
    NotEquivalent,
    PreconditionViolated,
    Rational,
    Valuation,
    as_fraction,
    require_natural,
)
from .edbm import Cells, Edbm, atom_cells, difference_cells, undefined_cells

CLASSIC = "classic"
REFINED = "refined"


def _check_variant(variant: str) -> None:
    if variant not in (CLASSIC, REFINED):
        raise PreconditionViolated(
            f"variant must be {CLASSIC!r} or {REFINED!r}, got {variant!r}"
        )


@dataclass(frozen=True)
class Region:
    """One equivalence class of valuations, canonically encoded.

    ``classes`` holds one entry per clock in canonical clock order:
    ``("bot",)``, ``("at", k)`` for the exact integer value ``k``,
    ``("in", k)`` for the open interval ``(k, k + 1)`` below ``cmax``,
    or ``("above",)`` for values beyond ``cmax``.

    ``fracs`` orders the clocks of ``in`` classes by increasing
    fractional distance to their next integer: a tuple of groups of
    clock indices, equal within a group, strictly increasing across
    groups.  Clocks of ``at`` classes have distance zero and precede all
    groups implicitly.

    ``diagonals`` (refined variant only) describes, for each pair of
    defined clocks with at least one ``above`` class, the signed-value
    difference ``sv(x_i) - sv(x_j)`` for ``i < j``: ``("at", f)``,
    ``("in", f)``, or ``("far", s)`` with sign ``s`` when its magnitude
    exceeds ``2 * cmax``.
    """

    alphabet: Alphabet
    variant: str
    cmax: int
    classes: tuple
    fracs: tuple
    diagonals: tuple

    def is_initial(self) -> bool:
        return all(
            cls == ("bot",)
            for x, cls in zip(self.alphabet.clocks, self.classes)
            if x.is_history
        )

    def is_final(self) -> bool:
        return all(
            cls == ("bot",)
            for x, cls in zip(self.alphabet.clocks, self.classes)
            if x.is_prophecy
        )

    def __str__(self) -> str:
        clocks = self.alphabet.clocks
        text = ", ".join(
            _class_text(str(x), cls, self.cmax) for x, cls in zip(clocks, self.classes)
        )
        if self.fracs:
            text += "; frac " + " < ".join(
                "=".join(str(clocks[i]) for i in group) for group in self.fracs
            )
        if self.diagonals:
            text += "; " + ", ".join(
                _class_text(f"sv({clocks[i]})-sv({clocks[j]})", desc, 2 * self.cmax)
                for i, j, desc in self.diagonals
            )
        return text


def _unit_class(q: Fraction) -> tuple:
    """``("at", q)`` for an integer ``q``, else ``("in", floor(q))``."""
    return ("at", int(q)) if q.denominator == 1 else ("in", math.floor(q))


def _unit_classes(low: int, high: int) -> list[tuple]:
    """The classes from ``("at", low)`` to ``("at", high)``, in order."""
    return [c for k in range(low, high) for c in (("at", k), ("in", k))] + [("at", high)]


def _class_cells(cells, cls: tuple, cap: int) -> list[tuple]:
    """The cells ``cells(op, c)`` gives for a value in class ``cls``,
    where ``above`` and ``far`` lie past ``cap``."""
    if cls[0] == "at":
        return cells("=", cls[1])
    if cls[0] == "in":
        return cells(">", cls[1]) + cells("<", cls[1] + 1)
    if cls[0] == "above" or cls[1] > 0:
        return cells(">", cap)
    return cells("<", -cap)


def _class_text(name: str, cls: tuple, cap: int) -> str:
    """``name`` in class ``cls``, where ``above`` and ``far`` lie past ``cap``."""
    if cls[0] == "bot":
        return f"{name}=bot"
    if cls[0] == "at":
        return f"{name}={cls[1]}"
    if cls[0] == "in":
        return f"{name} in ({cls[1]},{cls[1] + 1})"
    if cls[0] == "above" or cls[1] > 0:
        return f"{name}>{cap}"
    return f"{name}<-{cap}"


def _diagonal_pairs(classes: tuple) -> tuple[tuple[int, int], ...]:
    """The clock pairs ``i < j`` whose signed difference a refined region
    records: both defined, at least one ``above``."""
    defined = [i for i, cls in enumerate(classes) if cls[0] != "bot"]
    return tuple(
        (i, j)
        for a, i in enumerate(defined)
        for j in defined[a + 1:]
        if "above" in (classes[i][0], classes[j][0])
    )


def region_of(v: Valuation, cmax: int, variant: str = CLASSIC) -> Region:
    """The canonical region containing a valuation."""
    require_natural("cmax", cmax)
    _check_variant(variant)
    clocks = v.alphabet.clocks
    classes = tuple(
        ("bot",) if val is None else ("above",) if val > cmax else _unit_class(val)
        for val in v.values
    )
    by_frac: dict[Fraction, list[int]] = {}
    for i, (x, cls) in enumerate(zip(clocks, classes)):
        if cls[0] == "in":
            by_frac.setdefault(v.frac(x), []).append(i)
    fracs = tuple(tuple(by_frac[f]) for f in sorted(by_frac))
    diagonals: list[tuple] = []
    if variant == REFINED:
        for i, j in _diagonal_pairs(classes):
            diff = v.signed(clocks[i]) - v.signed(clocks[j])
            far = ("far", 1 if diff > 0 else -1)
            diagonals.append((i, j, far if abs(diff) > 2 * cmax else _unit_class(diff)))
    return Region(v.alphabet, variant, cmax, classes, fracs, tuple(diagonals))


def equivalent(v1: Valuation, v2: Valuation, cmax: int, variant: str = CLASSIC) -> bool:
    """Clause-by-clause equivalence test, independent of region_of.

    Checks undefinedness agreement, per-clock interval agreement capped
    at ``cmax``, fractional-order agreement among clocks at most
    ``cmax``, and in the refined variant the capped interval of each
    signed-value difference over pairs reaching above ``cmax``.
    """
    require_natural("cmax", cmax)
    _check_variant(variant)
    if v1.alphabet != v2.alphabet:
        raise ClockMismatch("equivalence across different alphabets")
    clocks = v1.alphabet.clocks
    for a, b in zip(v1.values, v2.values):
        if (a is None) != (b is None):
            return False
        if a is None:
            continue
        if a > cmax and b > cmax:
            continue
        if math.ceil(a) != math.ceil(b) or math.floor(a) != math.floor(b):
            return False
    low = [
        i
        for i, val in enumerate(v1.values)
        if val is not None and val <= cmax
    ]
    for i in low:
        for j in low:
            le1 = v1.frac(clocks[i]) <= v1.frac(clocks[j])
            le2 = v2.frac(clocks[i]) <= v2.frac(clocks[j])
            if le1 != le2:
                return False
    if variant == REFINED:
        cap = 2 * cmax
        for i in range(len(clocks)):
            if v1.values[i] is None:
                continue
            for j in range(i + 1, len(clocks)):
                if v1.values[j] is None:
                    continue
                if v1.values[i] <= cmax and v1.values[j] <= cmax:
                    continue
                d1 = v1.signed(clocks[i]) - v1.signed(clocks[j])
                d2 = v2.signed(clocks[i]) - v2.signed(clocks[j])
                if abs(d1) > cap and abs(d2) > cap and (d1 > 0) == (d2 > 0):
                    continue
                if math.ceil(d1) != math.ceil(d2) or math.floor(d1) != math.floor(d2):
                    return False
    return True


def class_cells(alphabet: Alphabet, i: int, cls: tuple, cmax: int) -> list[tuple]:
    """Matrix cells that put clock ``x_i`` (canonical index, as a
    ``Region`` stores it) in class ``cls``."""
    if cls[0] == "bot":
        return undefined_cells(i + 1)
    return _class_cells(partial(atom_cells, alphabet, i + 1), cls, cmax)


def _frac_cells(alphabet: Alphabet, classes: tuple, ix: int, iy: int, op: str) -> list[tuple]:
    """Cells for: the fractional distance of clock ``ix`` to its next
    integer compares by ``op`` (``<`` or ``=``) with that of ``iy``.

    Both clocks have ``in`` classes in ``classes``.  A clock of class
    ``("in", k)`` lies at distance ``base - sv`` from its next integer,
    where ``base`` is ``k + 1`` for a history clock and ``-k`` for a
    prophecy clock, so the comparison bounds ``sv(y) - sv(x)``.
    """

    def base(i: int) -> int:
        k = classes[i][1]
        return k + 1 if alphabet.clocks[i].is_history else -k

    return difference_cells(iy + 1, ix + 1, op, base(iy) - base(ix))


def diagonal_cells(i: int, j: int, desc: tuple, cmax: int) -> list[tuple]:
    """Matrix cells that put ``sv(x_i) - sv(x_j)`` in the diagonal class
    ``desc``."""
    return _class_cells(partial(difference_cells, i + 1, j + 1), desc, 2 * cmax)


def region_to_zone(r: Region) -> Edbm:
    """The region as a single zone; regions are convex.

    Inverse in the sense that sampling the zone and applying region_of
    returns the region, and the zone contains exactly the region's
    valuations.
    """
    ab, classes = r.alphabet, r.classes
    updates: list[tuple] = []
    for i, cls in enumerate(classes):
        updates += class_cells(ab, i, cls, r.cmax)
    for group in r.fracs:
        for a, b in zip(group, group[1:]):
            updates += _frac_cells(ab, classes, a, b, "=")
    for below, above in zip(r.fracs, r.fracs[1:]):
        updates += _frac_cells(ab, classes, below[-1], above[0], "<")
    for i, j, desc in r.diagonals:
        updates += diagonal_cells(i, j, desc, r.cmax)
    return Edbm.unconstrained(ab).with_cells(updates)


def _in_range(classes: list, first: int, low, high) -> list:
    """The run of ``classes``, where entry ``k`` has rank ``first + k`` and
    the ends every rank beyond, that ranks ``low`` to ``high`` meet."""
    a = 0 if low is None else min(max(low - first, 0), len(classes) - 1)
    b = None if high is None else max(high - first, 0) + 1
    return classes[a:b]


def _clocks_met(zone: Edbm, i: int, offers: list) -> list:
    """The ``offers`` for ``bot``, ``at 0`` .. ``above`` that ``x_i`` meets."""
    pair = (i + 1, 0) if zone.alphabet.clocks[i].is_history else (0, i + 1)
    undefined, span = zone.ranks(*pair)
    return (offers[:1] if undefined else []) + (_in_range(offers[1:], 0, *span) if span else [])


def decompose(zone: Edbm, cmax: int, variant: str = CLASSIC) -> tuple[Region, ...]:
    """All regions meeting the zone, each once, in a deterministic order.

    A depth-first walk refines the zone (a normal form, as every
    ``Edbm`` is) one region component at a time, and each branch adds
    that component's cells to the zone:

    1. the class of each clock in canonical order: ``bot``, each ``at``
       and ``in`` class up to ``cmax``, and ``above``;
    2. the fractional order: each ``in`` clock, in canonical order,
       joins one of the ``g`` groups built so far or opens a new group
       in one of the ``g + 1`` gaps between them;
    3. in the refined variant, the class of each signed difference the
       region records: ``far`` below, each ``at`` and ``in`` class up
       to ``2 * cmax``, and ``far`` above.

    The cells of every clock class, and of every difference class of a
    recorded pair, are built and checked once per call, as
    :class:`~ecta.edbm.Cells`.  Steps 1 and 3 offer exactly
    the classes in the range that :meth:`Edbm.ranks` reads off the normal
    form.  The classes offered at one step are disjoint, so distinct
    leaves are distinct regions; every region meeting the zone survives
    each step on its path, since its points do.  A leaf zone lies inside
    one region, which ``region_of`` names from a sample.  The walk
    terminates because every step offers finitely many choices and there
    are finitely many steps: one per clock, per ``in`` clock and per
    recorded difference.
    """
    require_natural("cmax", cmax)
    _check_variant(variant)
    ab = zone.alphabet
    clock_classes = (("bot",), *_unit_classes(0, cmax), ("above",))
    diagonal_classes = (("far", -1), *_unit_classes(-2 * cmax, 2 * cmax), ("far", 1))
    clock_offers = [
        [(cls, Cells(ab, class_cells(ab, i, cls, cmax))) for cls in clock_classes]
        for i in range(len(ab.clocks))
    ]
    diagonal_offers = cache(lambda p: [Cells(ab, diagonal_cells(*p, d, cmax)) for d in diagonal_classes])
    found: list[Region] = []

    def by_clock(W: Edbm, classes: tuple) -> None:
        if len(classes) < len(ab.clocks):
            for cls, cells in _clocks_met(W, len(classes), clock_offers[len(classes)]):
                by_clock(W.with_cells(cells), classes + (cls,))
            return
        pending = tuple(i for i, cls in enumerate(classes) if cls[0] == "in")
        by_order(W, classes, (), pending)

    def by_order(W: Edbm, classes: tuple, groups: tuple, pending: tuple) -> None:
        if W.is_empty():
            return
        if not pending:
            by_diagonal(W, _diagonal_pairs(classes) if variant == REFINED else ())
            return
        x, rest = pending[0], pending[1:]
        for t in range(len(groups) + 1):
            # a new group in gap t, strictly between its neighbours
            cells = []
            if t > 0:
                cells += _frac_cells(ab, classes, groups[t - 1][0], x, "<")
            if t < len(groups):
                cells += _frac_cells(ab, classes, x, groups[t][0], "<")
            opened = groups[:t] + ((x,),) + groups[t:]
            by_order(W.with_cells(cells), classes, opened, rest)
            if t < len(groups):
                # or a place in group t, level with its first clock
                level = _frac_cells(ab, classes, x, groups[t][0], "=")
                joined = groups[:t] + (groups[t] + (x,),) + groups[t + 1:]
                by_order(W.with_cells(level), classes, joined, rest)

    def by_diagonal(W: Edbm, pairs: tuple) -> None:
        if not pairs:
            found.append(region_of(W.sample(), cmax, variant))
            return
        pair, rest = pairs[0], pairs[1:]
        _, span = W.ranks(pair[0] + 1, pair[1] + 1)  # of two real clocks
        for cells in _in_range(diagonal_offers(pair), -4 * cmax - 1, *span):
            by_diagonal(W.with_cells(cells), rest)

    if not zone.is_empty():
        by_clock(zone, ())
    return tuple(found)


def _boundary_arrivals(u: Valuation, cmax: int, rem: Fraction) -> list[Fraction]:
    """Delays in ``(0, rem]`` at which some clock reaches a region border."""
    out = []
    for x, val in zip(u.alphabet.clocks, u.values):
        if val is None:
            continue
        if val > cmax:
            if x.is_prophecy and val - cmax <= rem:
                out.append(val - cmax)
            continue
        f = u.frac(x)
        h = f if f > 0 else Fraction(1)
        if x.is_history and val + h > cmax:
            continue
        if x.is_prophecy and val - h < 0:
            continue
        if h <= rem:
            out.append(h)
    return sorted(out)


def weak_successor_witness(
    v1: Valuation, v2: Valuation, t1: Rational, cmax: int
) -> tuple[Fraction, Valuation]:
    """Match a time elapse across the classic equivalence.

    Given equivalent ``v1`` and ``v2`` and a delay ``t1`` with
    ``v1 + t1`` defined, returns ``(t2, v')`` such that ``v'`` is a weak
    time successor of ``v2`` after ``t2`` and ``v'`` is equivalent to
    ``v1 + t1``.  Works segment by segment: each segment moves ``v1``'s
    side to an adjacent region and mirrors the move on ``v2``'s side,
    re-seeding prophecy clocks above ``cmax`` (the weak successor's
    freedom) so they land in the right class.
    """
    require_natural("cmax", cmax)
    t1 = as_fraction(t1)
    if t1 < 0 or not v1.can_elapse(t1):
        raise PreconditionViolated(f"elapse of {t1} undefined from {v1}")
    if not equivalent(v1, v2, cmax, CLASSIC):
        raise NotEquivalent(f"{v1} and {v2} are not equivalent at cmax={cmax}")
    clocks = v1.alphabet.clocks
    u1, u2 = v1, v2
    total = Fraction(0)
    rem = t1
    while rem > 0 and not equivalent(u1.elapse(rem), u1, cmax, CLASSIC):
        arrivals = _boundary_arrivals(u1, cmax, rem)
        on_boundary = any(
            val is not None and val <= cmax and u1.frac(x) == 0
            for x, val in zip(clocks, u1.values)
        )
        if on_boundary:
            d = rem if not arrivals else arrivals[0] / 2
        else:
            d = arrivals[0]
        target = u1.elapse(d)
        anchors = [
            x
            for x, val in zip(clocks, u1.values)
            if val is not None and val <= cmax and u1.frac(x) == d
        ]
        if not on_boundary and anchors:
            t2seg = u2.frac(anchors[0])
        else:
            nonzero = [
                u2.frac(x)
                for x, val in zip(clocks, u2.values)
                if val is not None and val <= cmax and u2.frac(x) > 0
            ]
            t2seg = min(nonzero) / 2 if nonzero else Fraction(1, 10)
        reseeded = u2
        for i, x in enumerate(clocks):
            val = u2.values[i]
            if val is None or x.is_history or val <= cmax:
                continue
            goal = target.values[i]
            if goal > cmax:
                reseeded = reseeded.set(x, cmax + t2seg + 1)
            else:
                reseeded = reseeded.set(x, goal + t2seg)
        u1 = target
        u2 = reseeded.elapse(t2seg)
        total += t2seg
        rem -= d
    return total, u2
