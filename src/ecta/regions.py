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
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import chain
from typing import Callable, Iterable, Iterator

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
from .edbm import LIMIT, Cells, Edbm, atom_cells, difference_cells, undefined_cells

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

    A unit class is a rank, as :meth:`Edbm.ranks` gives it: ``2k`` for
    the integer ``k``, ``2k + 1`` for ``(k, k + 1)``, and with a cap
    ``c``, ``±(2c + 1)`` for every value beyond ``±c``.  ``classes``
    holds, per clock in canonical order, None when it is undefined, else
    the rank of its value with cap ``cmax``.

    ``fracs`` orders the clocks of odd ranks below ``2 * cmax`` by
    increasing fractional distance to their next integer: a tuple of
    groups of clock indices, equal within a group, strictly increasing
    across groups.  Clocks of even ranks have distance zero and precede
    all groups implicitly.

    ``diagonals`` (refined variant only) holds ``(i, j, rank)`` for each
    pair ``i < j`` of defined clocks with at least one above ``cmax``:
    the rank of ``sv(x_i) - sv(x_j)`` with cap ``2 * cmax``.
    """

    alphabet: Alphabet
    variant: str
    cmax: int
    classes: tuple
    fracs: tuple
    diagonals: tuple

    def is_initial(self) -> bool:
        return all(r is None for x, r in zip(self.alphabet.clocks, self.classes) if x.is_history)

    def is_final(self) -> bool:
        return all(r is None for x, r in zip(self.alphabet.clocks, self.classes) if x.is_prophecy)

    def __str__(self) -> str:
        clocks = self.alphabet.clocks
        text = ", ".join(_class_text(str(x), r, self.cmax) for x, r in zip(clocks, self.classes))
        if self.fracs:
            text += "; frac " + " < ".join(
                "=".join(str(clocks[i]) for i in group) for group in self.fracs
            )
        if self.diagonals:
            text += "; " + ", ".join(
                _class_text(f"sv({clocks[i]})-sv({clocks[j]})", rank, 2 * self.cmax)
                for i, j, rank in self.diagonals
            )
        return text


def _rank(n: int, d: int, cap: int) -> int:
    """The rank of ``n / d``, ``d > 0``, where ``±(2 * cap + 1)`` stands for
    every value beyond ``±cap``."""
    return max(-2 * cap - 1, min(2 * cap + 1, n // d - (-n // d)))


def _class_cells(cells, rank: int, cap: int) -> list[tuple]:
    """The cells ``cells(op, c)`` gives for a value of rank ``rank``
    with cap ``cap``."""
    if rank > 2 * cap:
        return cells(">", cap)
    if rank < -2 * cap:
        return cells("<", -cap)
    if rank % 2:
        return cells(">", rank // 2) + cells("<", rank // 2 + 1)
    return cells("=", rank // 2)


def _class_text(name: str, rank, cap: int) -> str:
    """``name`` in the class of rank ``rank`` (None: undefined) with cap ``cap``."""
    if rank is None:
        return f"{name}=bot"
    if rank > 2 * cap:
        return f"{name}>{cap}"
    if rank < -2 * cap:
        return f"{name}<-{cap}"
    if rank % 2:
        return f"{name} in ({rank // 2},{rank // 2 + 1})"
    return f"{name}={rank // 2}"


def _fractional(classes: tuple, cmax: int) -> tuple[int, ...]:
    """The clocks whose rank lies strictly between two integers up to ``cmax``."""
    return tuple(i for i, r in enumerate(classes) if r is not None and r % 2 and r < 2 * cmax)


def _diagonal_pairs(classes: tuple, cmax: int) -> tuple[tuple[int, int], ...]:
    """The clock pairs ``i < j`` whose signed difference a refined region
    records: both defined, at least one above ``cmax``."""
    defined = [i for i, rank in enumerate(classes) if rank is not None]
    above = 2 * cmax + 1
    return tuple((i, j) for a, i in enumerate(defined) for j in defined[a + 1:]
                 if above in (classes[i], classes[j]))


def region_of(v: Valuation, cmax: int, variant: str = CLASSIC) -> Region:
    """The canonical region containing a valuation, read off the numerator
    and denominator of each value in integer arithmetic."""
    require_natural("cmax", cmax)
    _check_variant(variant)
    history, top = len(v.alphabet.letters), 2 * cmax + 1
    # each value as (numerator, denominator), whose rank is floor + ceiling
    sv = [val if val is None else val.as_integer_ratio() for val in v.values]
    classes = tuple([None if q is None else min(top, q[0] // q[1] - (-q[0] // q[1])) for q in sv])
    for i in range(history, len(sv)):  # then each signed value
        if sv[i] is not None:
            sv[i] = (-sv[i][0], sv[i][1])
    # the fractional clocks by the distance of sv to its next integer, in 1 / unit
    fractional = _fractional(classes, cmax)
    unit = math.lcm(*[sv[i][1] for i in fractional])
    by_distance: dict[int, list[int]] = {}
    for i in fractional:
        n, d = sv[i]
        by_distance.setdefault(-n % d * (unit // d), []).append(i)
    fracs = tuple([tuple(by_distance[k]) for k in sorted(by_distance)])
    diagonals = tuple([
        (i, j, _rank(sv[i][0] * sv[j][1] - sv[j][0] * sv[i][1], sv[i][1] * sv[j][1], 2 * cmax))
        for i, j in (_diagonal_pairs(classes, cmax) if variant == REFINED else ())
    ])
    return Region(v.alphabet, variant, cmax, classes, fracs, diagonals)


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


def class_cells(alphabet: Alphabet, i: int, rank, cmax: int) -> list[tuple]:
    """Matrix cells that put clock ``x_i`` (canonical index, as a
    ``Region`` stores it) in the class of rank ``rank`` (None: undefined)."""
    if rank is None:
        return undefined_cells(i + 1)
    return _class_cells(partial(atom_cells, alphabet, i + 1), rank, cmax)


def diagonal_cells(i: int, j: int, rank: int, cmax: int) -> list[tuple]:
    """Matrix cells that put ``sv(x_i) - sv(x_j)`` in the class of rank
    ``rank`` with cap ``2 * cmax``."""
    return _class_cells(partial(difference_cells, i + 1, j + 1), rank, 2 * cmax)


def region_to_zone(r: Region) -> Edbm:
    """The region as a single zone; regions are convex.  The zone holds
    exactly the region's valuations, so region_of names a sample of it.

    :meth:`Edbm.from_ranks` writes the classic region in normal form, and
    the differences a refined region records close into it as any merge
    does, incrementally."""
    zone = Edbm.from_ranks(r.alphabet, r.classes, r.fracs, r.cmax)
    cells = [c for i, j, d in r.diagonals for c in diagonal_cells(i, j, d, r.cmax)]
    return zone.with_cells(cells) if cells else zone


def _met(zone: Edbm, i: int, j, cmax: int) -> Iterable:
    """The classes that ``x_i`` meets in ``zone``, None (undefined) and then
    ranks, or with ``j`` the ranks of ``sv(x_i) - sv(x_j)``: the span of
    :meth:`Edbm.ranks`, clamped at the cap, offered one at a time."""
    if j is None:
        pair = (i + 1, 0) if zone.alphabet.clocks[i].is_history else (0, i + 1)
        first, last = 0, 2 * cmax + 1
    else:
        pair, first, last = (i + 1, j + 1), -4 * cmax - 1, 4 * cmax + 1
    undefined, span = zone.ranks(*pair)
    if span is None:
        return [None] * undefined
    low, high = (end if r is None else min(max(r, first), last)
                 for r, end in zip(span, (first, last)))
    return chain([None] * undefined, range(low, high + 1))


def decompose(zone: Edbm, cmax: int, variant: str = CLASSIC) -> tuple[Region, ...]:
    """All regions meeting the zone, each once, in a deterministic order:
    the leaves of :func:`walk`.

    A depth-first walk refines the zone (a normal form, as every
    ``Edbm`` is) one region component at a time, and each branch adds
    that component's cells to the zone:

    1. the class of each clock in canonical order: undefined, then each
       rank up to ``2 * cmax + 1``;
    2. the rank of each signed difference ``sv(x_a) - sv(x_b)`` the
       region fixes, from ``-(4 * cmax + 1)`` up: for each clock ``x_b`` of
       odd rank below ``2 * cmax`` in canonical order, each such ``x_a``
       before it, then in the refined variant each difference the region
       records.

    Among clocks at most ``cmax`` the ranks of step 2 are the fractional
    order.  A fractional clock lies at distance ``d`` in ``(0, 1)`` below
    its next integer ``hi``, so the rank of ``sv(x_a) - sv(x_b)`` is
    ``2 * (hi_a - hi_b)`` plus the sign of ``d_b - d_a``: ascending ranks
    put ``x_b`` below, level with, then above ``x_a``, and the leaves
    follow the order of each ``x_b``'s place among the clocks before it.

    Each step offers exactly the ranks in the range that
    :meth:`Edbm.ranks` reads off the normal form, clamped at the cap, so
    every offer meets the zone and no branch ends empty; the closure
    refutes an order that is not transitive.  The cells of each offer are
    built as :class:`~ecta.edbm.Cells` on first use, once per alphabet and
    ``cmax``, and shared by the walks that follow.  The classes offered at
    one step are disjoint, so distinct leaves are distinct regions; every
    region meeting the zone survives each step on its path, since its
    points do.  A leaf zone lies inside one region, which ``region_of``
    names from the zone's :meth:`Edbm.sample`, both in integer arithmetic.
    The walk terminates because every step offers finitely many choices
    and there are finitely many steps: one per clock and one per
    difference.
    """
    return tuple(walk(zone, cmax, variant))


@lru_cache(maxsize=1)
def _vocabulary(ab: Alphabet, cmax: int) -> Callable[..., Cells]:
    """The cells a walk offers, built on first use and kept for the last
    alphabet and ``cmax``: ``offer(i, j, rank)`` for the class ``rank`` of
    ``x_i``, or with ``j`` of ``sv(x_i) - sv(x_j)``.  It holds at most one
    entry per clock class and per difference class, whether the
    difference fixes the fractional order or is recorded."""
    return cache(lambda i, j, rank: Cells(
        ab, class_cells(ab, i, rank, cmax) if j is None else diagonal_cells(i, j, rank, cmax)))


def walk(zone: Edbm, cmax: int, variant: str = CLASSIC) -> Iterator[Region]:
    """The walk of :func:`decompose`, which yields each leaf region as it
    reaches it, named by ``region_of(W.sample(), cmax, variant)``.  Raises
    PreconditionViolated when the cap ``2 * cmax`` of a difference is not
    below :data:`~ecta.edbm.LIMIT`, the bound on a cell's constant."""
    require_natural("cmax", cmax)
    if 2 * cmax >= LIMIT:
        raise PreconditionViolated(f"cmax={cmax} is too large: 2 * cmax must be below 2**62")
    _check_variant(variant)
    ab = zone.alphabet
    offer = _vocabulary(ab, cmax)

    def by_clock(W: Edbm, classes: tuple) -> Iterator[Region]:
        i = len(classes)
        if i == len(ab.clocks):
            fractional = _fractional(classes, cmax)
            pairs = tuple((a, b) for k, b in enumerate(fractional) for a in fractional[:k])
            yield from by_difference(W, pairs + (
                _diagonal_pairs(classes, cmax) if variant == REFINED else ()))
            return
        for rank in _met(W, i, None, cmax):
            yield from by_clock(W.with_cells(offer(i, None, rank)), classes + (rank,))

    def by_difference(W: Edbm, pairs: tuple) -> Iterator[Region]:
        if not pairs:
            yield region_of(W.sample(), cmax, variant)
            return
        (i, j), rest = pairs[0], pairs[1:]
        for rank in _met(W, i, j, cmax):  # of two real clocks
            yield from by_difference(W.with_cells(offer(i, j, rank)), rest)

    if not zone.is_empty():
        yield from by_clock(zone, ())


def weak_successor_witness(
    v1: Valuation, v2: Valuation, t1: Rational, cmax: int
) -> tuple[Fraction, Valuation]:
    """Match a time elapse across the classic equivalence.

    Given equivalent ``v1`` and ``v2`` and a delay ``t1`` with
    ``v1 + t1`` defined, returns ``(t2, v')`` such that ``v'`` is a weak
    time successor of ``v2`` after ``t2`` and ``v'`` is equivalent to
    ``v1 + t1``.

    A defined clock at most ``cmax`` reaches an integer after its
    :meth:`~ecta.core.Valuation.frac`, then once per time unit.  The
    distinct nonzero fracs of these clocks, between the cuts 0 and 1, are
    as many in ``v1`` as in ``v2`` and in the same order, as the two are
    equivalent.  The delay map ``phi`` sends each cut of ``v1`` to the cut
    of the same rank in ``v2``, is linear in between, and satisfies
    ``phi(t + 1) = phi(t) + 1``; being increasing, it keeps how ``a - b``
    compares with each integer.  Read as instants (``-v(x)`` when a
    history clock was reset, ``v(x)`` when a prophecy clock fires),
    ``v1``'s clocks at most ``cmax`` go to ``v2``'s under ``phi``, so
    ``t2 = phi(t1)`` carries them across the same integers in the same
    order as ``t1`` does.  A prophecy clock above ``cmax`` is re-seeded to
    fire at ``phi(v1(p)) > phi(cmax) = cmax``, as a weak successor may.
    """
    require_natural("cmax", cmax)
    t1 = as_fraction(t1)
    if t1 < 0 or not v1.can_elapse(t1):
        raise PreconditionViolated(f"elapse of {t1} undefined from {v1}")
    if not equivalent(v1, v2, cmax, CLASSIC):
        raise NotEquivalent(f"{v1} and {v2} are not equivalent at cmax={cmax}")
    clocks = v1.alphabet.clocks
    c1, c2 = (sorted({v.frac(x) for x, val in zip(clocks, v.values)
                      if val is not None and val <= cmax} | {0, 1}) for v in (v1, v2))

    def phi(t: Fraction) -> Fraction:
        n = math.floor(t)
        i = bisect_right(c1, t - n) - 1
        return n + c2[i] + (t - n - c1[i]) * (c2[i + 1] - c2[i]) / (c1[i + 1] - c1[i])

    t2 = phi(t1)
    return t2, Valuation(v1.alphabet, tuple(
        None if a is None else b + t2 if x.is_history else phi(a) - t2
        for x, a, b in zip(clocks, v1.values, v2.values)))
