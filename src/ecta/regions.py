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
from functools import lru_cache, partial
from typing import Optional

from .core import (
    Alphabet,
    ClockMismatch,
    NotEquivalent,
    PreconditionViolated,
    Rational,
    Valuation,
    as_fraction,
)
from .edbm import Edbm, atom_cells, difference_cells, undefined_cells

CLASSIC = "classic"
REFINED = "refined"


def _check_variant(variant: str) -> None:
    if variant not in (CLASSIC, REFINED):
        raise ValueError(f"variant must be {CLASSIC!r} or {REFINED!r}, got {variant!r}")


def _check_cmax(cmax: int) -> None:
    if not isinstance(cmax, int) or cmax < 0:
        raise ValueError(f"cmax must be a natural number, got {cmax!r}")


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
        parts = []
        for x, cls in zip(clocks, self.classes):
            if cls[0] == "bot":
                parts.append(f"{x}=bot")
            elif cls[0] == "at":
                parts.append(f"{x}={cls[1]}")
            elif cls[0] == "in":
                parts.append(f"{x} in ({cls[1]},{cls[1] + 1})")
            else:
                parts.append(f"{x}>{self.cmax}")
        text = ", ".join(parts)
        if self.fracs:
            text += "; frac " + " < ".join(
                "=".join(str(clocks[i]) for i in group) for group in self.fracs
            )
        if self.diagonals:
            items = []
            for i, j, desc in self.diagonals:
                name = f"sv({clocks[i]})-sv({clocks[j]})"
                if desc[0] == "far":
                    bound = 2 * self.cmax
                    items.append(f"{name}{'>' if desc[1] > 0 else '<-'}{bound}")
                elif desc[0] == "at":
                    items.append(f"{name}={desc[1]}")
                else:
                    items.append(f"{name} in ({desc[1]},{desc[1] + 1})")
            text += "; " + ", ".join(items)
        return text


def _clock_class(val: Optional[Fraction], cmax: int) -> tuple:
    if val is None:
        return ("bot",)
    if val > cmax:
        return ("above",)
    if val.denominator == 1:
        return ("at", int(val))
    return ("in", math.floor(val))


def region_of(v: Valuation, cmax: int, variant: str = CLASSIC) -> Region:
    """The canonical region containing a valuation."""
    _check_cmax(cmax)
    _check_variant(variant)
    clocks = v.alphabet.clocks
    classes = tuple(_clock_class(val, cmax) for val in v.values)
    by_frac: dict[Fraction, list[int]] = {}
    for i, (x, val) in enumerate(zip(clocks, v.values)):
        if val is not None and val <= cmax:
            f = v.frac(x)
            if f != 0:
                by_frac.setdefault(f, []).append(i)
    fracs = tuple(tuple(by_frac[f]) for f in sorted(by_frac))
    diagonals: list[tuple] = []
    if variant == REFINED:
        for i in range(len(clocks)):
            vi = v.values[i]
            if vi is None:
                continue
            for j in range(i + 1, len(clocks)):
                vj = v.values[j]
                if vj is None or (vi <= cmax and vj <= cmax):
                    continue
                diff = v.signed(clocks[i]) - v.signed(clocks[j])
                if diff > 2 * cmax:
                    diagonals.append((i, j, ("far", 1)))
                elif diff < -2 * cmax:
                    diagonals.append((i, j, ("far", -1)))
                elif diff.denominator == 1:
                    diagonals.append((i, j, ("at", int(diff))))
                else:
                    diagonals.append((i, j, ("in", math.floor(diff))))
    return Region(v.alphabet, variant, cmax, classes, fracs, tuple(diagonals))


def equivalent(v1: Valuation, v2: Valuation, cmax: int, variant: str = CLASSIC) -> bool:
    """Clause-by-clause equivalence test, independent of region_of.

    Checks undefinedness agreement, per-clock interval agreement capped
    at ``cmax``, fractional-order agreement among clocks at most
    ``cmax``, and in the refined variant the capped interval of each
    signed-value difference over pairs reaching above ``cmax``.
    """
    _check_cmax(cmax)
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


@lru_cache(maxsize=None)
def region_to_zone(r: Region) -> Edbm:
    """The region as a single zone; regions are convex.

    Inverse in the sense that sampling the zone and applying region_of
    returns the region, and the zone contains exactly the region's
    valuations.
    """
    ab = r.alphabet
    clocks = ab.clocks
    cmax = r.cmax

    def interval(cells, desc: tuple) -> list[tuple]:
        """``("at", k)`` is ``= k``; ``("in", k)`` is ``> k`` and ``< k + 1``."""
        k = desc[1]
        if desc[0] == "at":
            return cells("=", k)
        return cells(">", k) + cells("<", k + 1)

    updates: list[tuple] = []
    for mi, cls in enumerate(r.classes, 1):
        value = partial(atom_cells, ab, mi)
        if cls[0] == "bot":
            updates += undefined_cells(mi)
        elif cls[0] == "above":
            updates += value(">", cmax)
        else:
            updates += interval(value, cls)

    def order_cell(ix: int, iy: int, strict: bool) -> tuple:
        """Cell for: fractional distance of x not above that of y."""
        x, y = clocks[ix], clocks[iy]
        kx = r.classes[ix][1]
        ky = r.classes[iy][1]
        if x.is_history and y.is_history:
            value = ky - kx
        elif x.is_prophecy and y.is_prophecy:
            value = kx - ky
        elif x.is_history:
            value = -(kx + ky + 1)
        else:
            value = kx + ky + 1
        return (iy + 1, ix + 1, (value, strict))

    previous: Optional[int] = None
    for group in r.fracs:
        for a, b in zip(group, group[1:]):
            updates.append(order_cell(a, b, False))
            updates.append(order_cell(b, a, False))
        if previous is not None:
            updates.append(order_cell(previous, group[0], True))
        previous = group[-1]

    for i, j, desc in r.diagonals:
        difference = partial(difference_cells, i + 1, j + 1)
        if desc[0] != "far":
            updates += interval(difference, desc)
        elif desc[1] > 0:
            updates += difference(">", 2 * cmax)
        else:
            updates += difference("<", -2 * cmax)

    return Edbm.unconstrained(ab).with_cells(updates)


@lru_cache(maxsize=None)
def decompose(zone: Edbm, cmax: int, variant: str = CLASSIC) -> tuple[Region, ...]:
    """All regions meeting the zone, in a deterministic order.

    Repeatedly samples a point of the remaining set, carves out its
    region, and continues on the difference.  Terminates because regions
    partition the valuations and only finitely many meet any zone.
    """
    _check_cmax(cmax)
    _check_variant(variant)
    found: list[Region] = []
    seen: set[Region] = set()
    pieces = [] if zone.is_empty() else [zone]
    while pieces:
        piece = pieces.pop()
        r = region_of(piece.sample(), cmax, variant)
        if r not in seen:
            seen.add(r)
            found.append(r)
        pieces.extend(piece.subtract(region_to_zone(r)))
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
    _check_cmax(cmax)
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
