"""Difference bound matrices over event clocks, with two extra markers.

A matrix over the clocks ``x_1 .. x_n`` of an alphabet has ``n + 1`` rows
and columns; index 0 stands for the constant 0.  Cell ``(i, j)`` bounds
the signed difference ``sv(x_i) - sv(x_j)``, where ``sv`` is the signed
reading of a valuation (history clocks as is, prophecy clocks negated,
``sv(x_0) = 0``).  Signed differences do not change as time elapses,
which is what makes these matrices closed under the operations below.

Besides ordinary bounds ``(c, <)`` and ``(c, <=)`` with integer ``c``,
and the trivial bound ``(inf, <)``, a cell may hold two markers:

* ``bot`` (only in row 0 or column 0): the clock on that border must be
  undefined.  An ordinary bound is false on an undefined clock, so any
  numeric cell forces both of its clocks to be real.
* ``?``: no constraint at all; the clock may be anything, undefined
  included.

Diagonal cells never constrain a valuation; they only witness global
emptiness after closure.  The canonical empty matrix has ``(-1, <)`` at
``(0, 0)`` and ``?`` everywhere else.

A matrix is stored as a flat, row-major tuple of UPPAAL's raw bounds
(Bengtsson and Yi, LNCS 3098, 2004, section 4): ``(c, <)`` is ``2c`` and
``(c, <=)`` is ``2c + 1``, so integer order is the bound order, and three
sentinels sit above them, ``<inf`` below ``bot`` below ``?``.  A bitmask
holds the undefined clocks.  :attr:`Edbm.cells` decodes the tuple into
``(value, strict)`` rows, the form in which cells enter.

Such cells enter by one door, :meth:`Edbm.with_cells`, which checks each
and encodes it once; ``Edbm(alphabet, rows)``, behind
:meth:`Edbm.from_tokens`, merges its rows into the zone of all valuations
through it, so every instance is a normal form.  Cells that meet many
zones, as a region walk's offers and a guard's cases do, are checked
once, in a :class:`Cells` value, which the door takes as is.
Constraints meet a zone by one merge pass over raw cells, behind
:meth:`Edbm.with_cells`, :meth:`Edbm.intersect`, :meth:`Edbm.subtract`
and the elapse; it skips the closure when the cells are implied or
contradicted.  Else :meth:`Edbm._close`, the one statement of the rules
for ``bot``, ``?`` and sign bounds, closes the k written cells into the
normal form in O(k n^2), or by :meth:`Edbm.normalize`, the plain
shortest-path closure, on the zone of all valuations.
The elapse, :meth:`Edbm.release`, :meth:`Edbm.reset`, a step's pin,
:meth:`Edbm.pin`, and a classic region, :meth:`Edbm.from_ranks`, keep or
write the normal form by construction.  Only this module reads bounds and
markers; other modules use :func:`difference_cells`, :func:`atom_cells`,
:func:`undefined_cells`, :func:`guard_zones`, :meth:`Edbm.ranks` and
:meth:`Edbm.from_ranks`, and a search keeps its visited zones in a
:class:`ZoneCover`, a tree of blocks, each entered only if its cellwise
maximum lies above the new zone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
from typing import Iterable, Sequence

from .core import (
    Alphabet,
    Atom,
    Clock,
    EmptyZone,
    Guard,
    Not,
    Or,
    And,
    PreconditionViolated,
    TrueGuard,
    UnknownClock,
    Valuation,
    parse_integer,
    require_natural,
)


class _Marker:
    """A singleton cell marker; compares and hashes by identity, and
    ``pickle`` and ``copy`` return the singleton by its module-level name."""

    __slots__ = ("name", "symbol")

    def __init__(self, name: str, symbol: str):
        self.name, self.symbol = name, symbol

    def __repr__(self) -> str:
        return self.symbol

    def __reduce__(self) -> str:
        return self.name


BOT = _Marker("BOT", "bot")
ANY = _Marker("ANY", "?")
INF = float("inf")

#: A bound is ``(value, strict)``; ``strict=True`` means ``<``.
Bound = tuple
B_BOT: Bound = (BOT, False)
B_ANY: Bound = (ANY, False)
B_INF: Bound = (INF, True)
B_ZERO: Bound = (0, False)


# Raw bounds.  Values lie strictly between -LIMIT and LIMIT, so the sum
# of two finite raw bounds stays below the sentinels.
LIMIT = 1 << 62
_R_INF, _R_BOT, _R_ANY = 1 << 64, (1 << 64) + 1, (1 << 64) + 2
_R_ZERO, _R_EMPTY = 1, -2  # <=0, and the <-1 at (0, 0) of the empty zone


def _decode(r: int) -> Bound:
    return (B_INF, B_BOT, B_ANY)[r - _R_INF] if r >= _R_INF else (r >> 1, not r & 1)


def _raw_le(r1: int, r2: int) -> bool:
    """The cell order on raw bounds: smaller means tighter.  ``?`` is the
    top, and ``bot``, though above the numbers, is comparable only with
    itself and ``?``, so "undefined" and "real" meet in the empty zone."""
    return r1 <= r2 and (r2 != _R_BOT or r1 == _R_BOT)


def _refutes(r: int, present: int, opposite: int) -> bool:
    """Whether a raw cell ``r`` that the ``present`` cell does not imply
    meets no valuation of a normalized zone: it is incomparable with the
    present cell (``bot`` against a number), or finite with a sum below
    ``<=0`` with the finite ``opposite`` cell."""
    if r < _R_INF and opposite < _R_INF and r + opposite - ((r | opposite) & 1) < _R_ZERO:
        return True
    return not _raw_le(r, present)


def _below_zero(r: int) -> bool:
    """A diagonal cell no valuation meets: ``bot``, or below ``<=0``."""
    return r < _R_ZERO or r == _R_BOT


def _chunks(flat: Sequence, size: int) -> list:
    return [flat[k:k + size] for k in range(0, len(flat), size)]


def _raw_cell(size: int, cell: tuple) -> tuple:
    """The ``(i, j, raw)`` form of an ``(i, j, (value, strict))`` cell of
    a ``size`` x ``size`` matrix.  Raises PreconditionViolated unless both
    indices are plain ``int`` values in range, the strictness is a
    ``bool``, ``bot`` is nonstrict and on a border, ``?`` nonstrict,
    ``inf`` strict, and any other value a plain ``int`` strictly between
    ``-2**62`` and ``2**62``, which keeps sums below the sentinels."""
    if isinstance(cell, tuple) and len(cell) == 3:
        i, j, bound = cell
        if (type(i) is int and type(j) is int and 0 <= i < size and 0 <= j < size
                and isinstance(bound, tuple) and len(bound) == 2 and type(bound[1]) is bool):
            m, s = bound
            if type(m) is int:
                if -LIMIT < m < LIMIT:
                    return i, j, 2 * m + (not s)
            elif m is BOT:
                if not s and (i == 0 or j == 0):
                    return i, j, _R_BOT
            elif m is ANY:
                if not s:
                    return i, j, _R_ANY
            elif m == INF and s:
                return i, j, _R_INF
    raise PreconditionViolated(f"bad cell {cell!r}")


def _token(r: int) -> str:
    if r >= _R_INF:
        return ("<inf", "bot", "?")[r - _R_INF]
    return f"{'<=' if r & 1 else '<'}{r >> 1}"


def _parse_token(text: str) -> Bound:
    if text == "bot":
        return B_BOT
    if text == "?":
        return B_ANY
    if text == "<inf":
        return B_INF
    if isinstance(text, str) and text.startswith("<"):
        strict = not text.startswith("<=")
        try:
            return (parse_integer(text[1 if strict else 2:]), strict)
        except PreconditionViolated:
            pass
    raise PreconditionViolated(f"bad bound token {text!r}")


class Edbm:
    """An event-clock zone as a difference bound matrix.

    Instances are immutable: no operation writes to one once built, and
    every instance is a normal form, so two are equal, and hash alike,
    iff they denote the same zone.  The elapse, :meth:`release`,
    :meth:`reset`, :meth:`pin` and :meth:`from_ranks` need no closure;
    a merge of cells reaches the normal form through :meth:`_close`.

    ``raw`` holds the raw bounds, and bit ``i`` of ``undefined`` is set
    when ``x_i`` has ``bot`` on a border.  ``Edbm(alphabet, rows)`` takes
    ``(n + 1) x (n + 1)`` rows of ``(value, strict)`` bounds and stores
    the normal form of the zone they denote, their merge into the zone of
    all valuations; it raises PreconditionViolated on the wrong size or
    on a cell that :meth:`with_cells` would refuse.
    """

    __slots__ = ("alphabet", "raw", "undefined")

    def __init__(self, alphabet: Alphabet, rows: Sequence[Sequence[Bound]]):
        size = len(alphabet.clocks) + 1
        if len(rows) != size or any(len(row) != size for row in rows):
            raise PreconditionViolated(f"expected a {size}x{size} matrix")
        cells = ((i, j, b) for i, row in enumerate(rows) for j, b in enumerate(row))
        zone = Edbm.unconstrained(alphabet).with_cells(cells)
        self.alphabet, self.raw, self.undefined = alphabet, zone.raw, zone.undefined

    @staticmethod
    def _of(alphabet: Alphabet, raw: tuple, undefined: int) -> "Edbm":
        z = object.__new__(Edbm)
        z.alphabet, z.raw, z.undefined = alphabet, raw, undefined
        return z

    @property
    def cells(self) -> tuple:
        """Row tuples of ``(value, strict)`` bounds, with ``INF``, ``BOT``
        and ``ANY``: the view of ``raw``, decoded on every read."""
        return tuple(_chunks(tuple(map(_decode, self.raw)), len(self.alphabet.clocks) + 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Edbm):
            return NotImplemented
        return self.raw == other.raw and self.alphabet == other.alphabet

    def __hash__(self) -> int:
        return hash(self.raw)

    def __repr__(self) -> str:
        return f"Edbm.from_tokens({self.alphabet!r}, {self.to_tokens()!r})"

    # -- construction -------------------------------------------------

    @staticmethod
    @cache
    def unconstrained(alphabet: Alphabet) -> "Edbm":
        """The zone of all valuations, built once per alphabet."""
        size = len(alphabet.clocks) + 1
        return Edbm._of(alphabet, (_R_ZERO,) + (_R_ANY,) * (size * size - 1), 0)

    @staticmethod
    @cache
    def empty(alphabet: Alphabet) -> "Edbm":
        """The canonical empty zone, built once per alphabet."""
        top = Edbm.unconstrained(alphabet).raw
        return Edbm._of(alphabet, (_R_EMPTY,) + top[1:], 0)

    @staticmethod
    def from_ranks(alphabet: Alphabet, classes: Sequence, fracs: Sequence, cap: int) -> "Edbm":
        """The classic region of ``classes`` and ``fracs`` with cap ``cap``,
        in normal form by construction in O(n^2): the inverse of
        :meth:`ranks`.  ``classes`` holds per clock None (undefined) or a
        rank up to ``2 * cap + 1``, which is every value above ``cap``;
        ``fracs`` groups the clocks of the other odd ranks by increasing
        distance ``d`` of ``sv`` to its next integer ``hi``.  Raises
        PreconditionViolated on any other input.

        Every cell is tight, as the region is a product of half-lines above
        ``cap`` and a simplex, with 0 at ``d = 0`` (Alur and Dill, TCS 126,
        1994).  There ``sv(x_i) - sv(x_j) = Δ - (d_i - d_j)``, ``Δ = hi_i -
        hi_j``, and ``d`` is 0 on an integer, else ranges over ``(0, 1)`` in
        the order of ``fracs``: the sup is ``<=Δ`` on one level, ``<Δ + 1``
        or ``<Δ`` when ``x_i`` is nearer or farther.  A half-line is
        independent of the other clocks: its cells sum border cells."""
        require_natural("cap", cap)
        size, history, top = len(alphabet.clocks) + 1, len(alphabet.letters), 2 * cap + 1
        odd = [i for i, r in enumerate(classes) if type(r) is int and r % 2 and r < top]
        groups = [group for group in fracs if isinstance(group, tuple) and group]
        members = [i for group in groups for i in group]
        if (len(classes) != size - 1 or len(groups) != len(fracs) or len(members) != len(odd)
                or set(members) != set(odd)
                or not all(r is None or type(r) is int and 0 <= r <= top for r in classes)):
            raise PreconditionViolated(f"no region has ranks {classes!r} and fracs {fracs!r}")
        level = {i + 1: t for t, group in enumerate(fracs, 1) for i in group}
        work, undefined, highs = [_R_ZERO] + [_R_ANY] * (size * size - 1), 0, []
        lows = [(0, 0, 0)]  # the simplex, 0 first: each clock, 2 * hi and its level
        for i, r in enumerate(classes, 1):
            if r is None:
                work[i * size] = work[i] = _R_BOT
                undefined |= 1 << i
            elif r < top:
                lows.append((i, r + (r & 1) if i <= history else (r & 1) - r, level.get(i, 0)))
            else:
                highs.append(i)
                work[i * size], work[i] = (_R_INF, 1 - r) if i <= history else (1 - r, _R_INF)
                work[i * (size + 1)] = _R_ZERO
        for i, a, li in lows:
            for j, b, lj in lows:
                work[i * size + j] = a - b + 1 + (li < lj) - (li > lj)
        pairs = [(i, j) for i in highs for j in range(1, size) if j != i and not undefined >> j & 1]
        for u, v in pairs + [(j, i) for i, j in pairs]:
            a, b = work[u * size], work[v]
            work[u * size + v] = a + b - ((a | b) & 1) if max(a, b) < _R_INF else _R_INF
        return Edbm._of(alphabet, tuple(work), undefined)

    def is_empty(self) -> bool:
        # a nonempty normal form has <=0 at (0, 0), the empty one <-1
        return self.raw[0] == _R_EMPTY

    def ranks(self, i: int, j: int) -> tuple:
        """Whether ``sv(x_i) - sv(x_j)`` may be undefined (``bot`` or ``?`` on a
        border), and, unless it is never real, the least and greatest rank that
        a normal form gives it, None for no bound: rank ``2v`` is the integer
        ``v`` and ``2k + 1`` the interval ``(k, k + 1)``.  Exact between real
        clocks and 0 (Bengtsson and Yi, LNCS 3098, 2004, section 4)."""
        raw, size = self.raw, len(self.alphabet.clocks) + 1
        borders = [raw[c * size] for c in (i, j) if c]
        up, down = raw[i * size + j], raw[j * size + i]
        span = (1 - down if down < _R_INF else None, up - 1 if up < _R_INF else None)
        return any(b > _R_INF for b in borders), None if _R_BOT in borders else span

    # -- membership ---------------------------------------------------

    def contains(self, v: Valuation) -> bool:
        """Exact membership of a valuation; raises UnknownClock when it
        is over another alphabet."""
        if v.alphabet != self.alphabet:
            raise UnknownClock("membership across different alphabets")
        sv = (Fraction(0),) + v.plmin()
        for k, r in enumerate(self.raw):
            i, j = divmod(k, len(sv))
            if i == j:  # a diagonal cell only constrains the constant 0
                ok = not _below_zero(r)
            elif r >= _R_BOT:  # ``bot`` sits on a border, so x_(i + j) is its clock
                ok = r == _R_ANY or sv[i + j] is None
            else:
                d = None if sv[i] is None or sv[j] is None else sv[i] - sv[j]
                ok = d is not None and (r == _R_INF or (d <= r >> 1 if r & 1 else d < r >> 1))
            if not ok:
                return False
        return True

    # -- normalization ------------------------------------------------

    def normalize(self) -> "Edbm":
        """The all-pairs shortest-path closure over 0 and the real clocks,
        those with ``<=0`` on the diagonal, then the diagonal test: a cell
        below ``<=0`` there means the empty zone.  It assumes that the
        rules of :meth:`_close` hold: numbers or ``<inf`` between real
        clocks, each with its sign bound, and ``bot`` on both borders of
        an undefined clock.  So it is the identity on every instance, and
        :meth:`_close` calls it on the zone of all valuations."""
        ab, work = self.alphabet, _chunks(list(self.raw), len(self.alphabet.clocks) + 1)
        order = [0] + [i for i in range(1, len(work)) if work[i][i] == _R_ZERO]
        # the sum of raw bounds a and b is a + b, less 1 unless one is strict
        for k in order:
            row_k = work[k]
            for i in order:
                row = work[i]
                ik = row[k]
                if ik != _R_INF:
                    for j in order:
                        kj = row_k[j]
                        if kj != _R_INF and (cand := ik + kj - ((ik | kj) & 1)) < row[j]:
                            row[j] = cand
        if any(_below_zero(work[i][i]) for i in order):
            return Edbm.empty(ab)
        return Edbm._of(ab, tuple(chain.from_iterable(work)), self.undefined)

    # -- zone operations ----------------------------------------------

    def future(self) -> "tuple[Edbm, ...]":
        """Time successors, exactly, as a tuple of pairwise disjoint,
        nonempty, normalized pieces; ``()`` for the empty zone.

        A history clock loses its upper bound; a prophecy clock's upper
        bound relaxes to 0, its largest signed value.  Lower bounds and
        pairwise cells do not change as time elapses.

        A history clock with an all-``?`` row may be undefined or any
        real.  After time ``t`` its real values are at least ``t``, which
        ties it to the moved bounds of the other clocks, but only in the
        real case, and one matrix cannot say "if defined".  So each such
        clock is split into its undefined case and its real case before
        the elapse, and the result is the union of the pieces' elapses:
        one piece when no history row is free.
        """
        return self._elapse(upper=True)

    def past(self) -> "tuple[Edbm, ...]":
        """Time predecessors, exactly, as a tuple of pairwise disjoint,
        nonempty, normalized pieces; ``()`` for the empty zone.

        Mirror image of :meth:`future`: signed values lose their lower
        bounds, and each prophecy clock with an all-``?`` row is split
        into its undefined and its real case first.
        """
        return self._elapse(upper=False)

    def _elapse(self, upper: bool) -> "tuple[Edbm, ...]":
        """Split the free rows of the clocks whose values grow as time
        moves (history forward, prophecy backward), then relax each
        piece.  Neither case of a free clock is empty, and elapse keeps
        every clock's definedness, so the pieces are nonempty and
        pairwise disjoint."""
        ab = self.alphabet
        if self.is_empty():
            return ()
        k = len(ab.letters)
        pieces = [self]
        for i in range(1, k + 1) if upper else range(k + 1, 2 * k + 1):
            if self.raw[i * (2 * k + 1)] == _R_ANY:
                pieces = [p._merge(c) for p in pieces for c in _definedness(ab, i)]
        return tuple(p._relax_border(upper) for p in pieces)

    def _relax_border(self, upper: bool) -> "Edbm":
        """Loosen every numeric bound on signed values from above (column
        0) or from below (row 0) to the sign bound, then re-tighten that
        border in one O(n^2) pass: signed differences do not change as
        time elapses, so the other cells stay closed, and a shortest path
        to the border ends with one step onto it.  Row 0 is done as
        column 0 of the transposed matrix: cell ``(i, j)`` of the view is
        at ``i * rs + j * cs``."""
        history = len(self.alphabet.letters)
        size = 2 * history + 1
        rs, cs = (size, 1) if upper else (1, size)
        work = list(self.raw)
        real = [i for i in range(1, size) if work[i * rs] <= _R_INF]
        for i in real:
            # <=0 bounds a prophecy clock from above, a history clock from below
            work[i * rs] = _R_ZERO if (i > history) == upper else _R_INF
        for i in real:
            best = work[i * rs]
            for j in real:
                a, b = work[i * rs + j * cs], work[j * rs]
                if a != _R_INF and b != _R_INF:
                    best = min(best, a + b - ((a | b) & 1))
            work[i * rs] = best
        return Edbm._of(self.alphabet, tuple(work), self.undefined)

    def intersect(self, other: "Edbm") -> "Edbm":
        """Cellwise greatest lower bound, by the merge of
        :meth:`with_cells`; incomparable cells mean empty."""
        if self.alphabet != other.alphabet:
            raise UnknownClock("intersection across different alphabets")
        size = len(self.alphabet.clocks) + 1
        return self._merge((*divmod(k, size), r) for k, r in enumerate(other.raw) if r != _R_ANY)

    def release(self, clock: Clock) -> "Edbm":
        """Forget everything about one clock: its row and column,
        diagonal included, become ``?``, so it may take any value,
        undefined included.  The other cells are already closed through
        the clock, so the result needs no closure."""
        i = self.alphabet.index_of(clock) + 1
        return self if self.is_empty() else self._rewrite(i, to_zero=False)

    def reset(self, clock: Clock) -> "Edbm":
        """Set one clock to 0: its row and column copy row 0 and column 0
        (Bengtsson and Yi, LNCS 3098, 2004, section 4), with ``?`` toward
        undefined clocks, and the result needs no closure either."""
        i = self.alphabet.index_of(clock) + 1
        return self if self.is_empty() else self._rewrite(i, to_zero=True)

    def pin(self, clock: Clock) -> "Edbm":
        """The zone met with ``clock = 0``, in normal form, by one pass.
        An empty or already pinned zone is itself, ``bot`` or a cell below
        ``<=0`` on the border of ``x_i`` empties it, and a free ``x_i`` is
        reset.  Else the edges ``x_i -> x_0`` and ``x_0 -> x_i`` of weight
        ``<=0`` join a closed matrix, so a new shortest path passes ``x_i =
        x_0`` once: into ``x_0`` or ``x_i``, then out of either, and one
        that enters and leaves by the same node is old.  A cell ``(u, v)``
        between real clocks becomes ``min(D[u][v], min(D[u][0], D[u][i]) +
        min(D[0][v], D[i][v]))``, and rows and columns 0 and ``i`` end
        equal, as after :meth:`reset`.  No new cycle is negative, as
        ``D[u][0] + D[i][u] >= D[i][0] >= <=0`` and the mirror hold in a
        closed matrix.  Cells toward undefined and free clocks stay."""
        i = self.alphabet.index_of(clock) + 1
        ab, raw, size = self.alphabet, self.raw, len(self.alphabet.clocks) + 1
        out, into = raw[i * size], raw[i]
        if raw[0] != _R_ZERO or out == into == _R_ZERO:  # empty, or already pinned
            return self
        if out == _R_ANY:
            return self._rewrite(i, to_zero=True)
        if out == _R_BOT or min(out, into) < _R_ZERO:
            return Edbm.empty(ab)
        order = [u for u in range(size) if raw[u * (size + 1)] == _R_ZERO]
        tails = [(v, b) for v in order if (b := min(raw[v], raw[i * size + v])) < _R_INF]
        work = list(raw)
        for u in order:
            a = min(raw[u * size], raw[u * size + i])
            if a < _R_INF:
                for v, b in tails:
                    if (cand := a + b - ((a | b) & 1)) < work[u * size + v]:
                        work[u * size + v] = cand
        return Edbm._of(ab, tuple(work), self.undefined)

    def _rewrite(self, i: int, to_zero: bool) -> "Edbm":
        """Row and column ``i`` of a nonempty zone as the border or as all
        ``?``."""
        raw, size = self.raw, len(self.alphabet.clocks) + 1
        work = list(raw)
        for j in range(size):
            real = to_zero and raw[j * size] != _R_BOT
            work[j * size + i] = raw[j * size] if real else _R_ANY
            work[i * size + j] = raw[j] if real else _R_ANY
        work[i * size + i] = _R_ZERO if to_zero else _R_ANY
        return Edbm._of(self.alphabet, tuple(work), self.undefined & ~(1 << i))

    def includes(self, other: "Edbm") -> bool:
        """True iff every valuation of ``other`` belongs to ``self``.

        On normal forms inclusion is the cellwise bound order, which is
        integer order on raw bounds except that ``bot`` is above numeric
        bounds, not apart; the mask test covers that, as a normal form has
        ``bot`` on both borders of a clock.
        """
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise UnknownClock("inclusion across different alphabets")
        if other.is_empty():
            return True
        # an empty ``self`` fails at cell (0, 0): <-1 against <=0 in ``other``
        return (self.undefined & ~other.undefined) == 0 and all(
            map(operator.le, other.raw, self.raw)
        )

    def subtract(self, other: "Edbm") -> list["Edbm"]:
        """The set difference ``self minus other`` as disjoint zones.

        Each demand of ``other`` is refuted in turn while the earlier
        ones are asserted, so the returned zones are pairwise disjoint
        and cover the difference exactly.  In a normal form the border
        cell ``(k, 0)`` says what ``other`` needs of clock ``k``: ``bot``
        that it be undefined, a number that it be real, ``?`` nothing.
        Once definedness agrees, only the finite cells between real
        clocks are left, and each is refuted by its flipped bound.
        """
        if self.alphabet != other.alphabet:
            raise UnknownClock("subtraction across different alphabets")
        if self.is_empty() or other.is_empty():
            return [] if self.is_empty() else [self]
        ab, size = self.alphabet, len(self.alphabet.clocks) + 1
        steps = []  # (refuted, asserted) raw cell lists
        for k in range(1, size):
            r = other.raw[k * size]
            if r != _R_ANY:
                undefined, real = _definedness(ab, k)
                steps.append((real, undefined) if r == _R_BOT else (undefined, real))
        for k, r in enumerate(other.raw):
            i, j = divmod(k, size)
            if i != j and r < _R_INF:  # 1 - r is the flipped bound
                steps.append(([(j, i, 1 - r)], [(i, j, r)]))
        pieces, base = [], self
        for refuted, asserted in steps:
            pieces.append(base._merge(refuted))
            base = base._merge(asserted)
            if base.is_empty():
                break
        return [p for p in pieces if not p.is_empty()]

    def with_cells(self, updates: "Cells | Iterable[tuple]") -> "Edbm":
        """Tighten the given ``(row, column, (value, strict))`` cells
        (greatest lower bound) and normalize.  Every cell is checked and
        encoded before any is merged, and a malformed one, or a
        :class:`Cells` over another alphabet, raises PreconditionViolated."""
        if isinstance(updates, Cells):
            if updates.alphabet is not self.alphabet and updates.alphabet != self.alphabet:
                raise PreconditionViolated("cells over another alphabet")
            return self._merge(updates.raw)
        size = len(self.alphabet.clocks) + 1
        return self._merge([_raw_cell(size, update) for update in updates])

    def _merge(self, cells: Iterable[tuple]) -> "Edbm":
        """:meth:`with_cells` on well-formed ``(row, column, raw)`` cells,
        in one pass that refutes before it copies.  As ``self`` is a normal
        form (Bengtsson and Yi, LNCS 3098, 2004, section 4), a cell
        already implied is skipped, and one that :func:`_refutes` against
        the opposite cell of ``self`` yields the shared empty zone.  Only
        a written cell runs :meth:`_close`."""
        ab, raw, size = self.alphabet, self.raw, len(self.alphabet.clocks) + 1
        written: dict[int, int] = {}
        for i, j, r in cells:
            k = i * size + j
            present = written.get(k, raw[k])
            if _raw_le(present, r):
                continue
            if _refutes(r, present, raw[j * size + i]):
                return Edbm.empty(ab)
            written[k] = r
        return self._close(written) if written else self

    def _close(self, written: dict) -> "Edbm":
        """The normal form of ``self`` with the admitted ``written`` raw
        cells, by flat index, under the rules that make a DBM closure an
        EDBM closure: ``bot`` makes its clock undefined, a diagonal cell
        below ``<=0`` empties the zone, a clock first named by a numeric
        cell joins through its sign bound alone, with ``<inf`` for ``?``
        (the one new path through it, 0 to it and back, is not negative),
        and a clock both undefined and real empties the zone.  Then the
        zone of all valuations, where all cells arrive at once (as the
        rows of ``Edbm(...)`` do, which close faster so), takes the
        numeric cells and :meth:`normalize`; on any other, each numeric
        cell not yet implied is refuted or tightens every ``(u, v)``
        through it."""
        ab, raw, undefined = self.alphabet, self.raw, self.undefined
        if raw[0] != _R_ZERO:  # the empty zone, which no cell changes
            return self
        size = len(ab.clocks) + 1
        order = [i for i, d in enumerate(raw[::size + 1]) if d == _R_ZERO]
        full = len(order) == 1 and not undefined  # the zone of all valuations
        work = list(raw)  # cell (i, j) at i * size + j
        history, joined, numeric = len(ab.letters), [], []
        for k, r in written.items():
            i, j = divmod(k, size)
            if r == _R_BOT:  # on a border, so x_(i + j) is its clock
                work[(i + j) * size] = work[i + j] = _R_BOT
                undefined |= 1 << (i + j)
            elif i != j:
                joined += [c for c in (i, j) if c not in order and c not in joined]
                numeric.append((i, j, r))
            elif r < _R_ZERO:
                return Edbm.empty(ab)
        if any(undefined >> c & 1 for c in joined):  # a clock both undefined and real
            return Edbm.empty(ab)
        for c in joined:
            # history: column c copies column 0, and row c is <inf; prophecy: the mirror
            for v in order:
                out, into = (work[v], _R_INF) if c > history else (_R_INF, work[v * size])
                work[c * size + v], work[v * size + c] = out, into
            work[c * (size + 1)] = _R_ZERO
            order.append(c)
        if full:
            for i, j, r in numeric:
                work[i * size + j] = min(work[i * size + j], r)
            return Edbm._of(ab, tuple(work), undefined).normalize()
        for i, j, r in numeric:  # a <inf cell is implied once its clocks joined
            if work[i * size + j] <= r:
                continue
            if _refutes(r, work[i * size + j], work[j * size + i]):
                return Edbm.empty(ab)
            # the tail j -> v of every new path; row j itself does not shrink
            tails = [(v, b) for v in order if (b := work[j * size + v]) < _R_INF]
            for u in order:
                a = work[u * size + i]
                if a < _R_INF:
                    a += r - ((a | r) & 1)
                    for v, b in tails:
                        if (cand := a + b - ((a | b) & 1)) < work[u * size + v]:
                            work[u * size + v] = cand
        return Edbm._of(ab, tuple(work), undefined)

    # -- sampling -----------------------------------------------------

    def sample(self) -> Valuation:
        """A concrete valuation inside the zone.

        Clocks whose rows are ``bot`` or all-``?`` come out undefined;
        constrained clocks get exact dyadic values chosen row by row
        inside their remaining intervals: a closed end if there is one,
        else one step inside the one bound, else the midpoint.  Each of
        the ``n`` clocks takes at most one midpoint, so every value is a
        whole number of ``2**-n`` units, and the choice runs on that
        integer grid.  Raises
        EmptyZone on the empty matrix.  Deterministic.
        """
        if self.is_empty():
            raise EmptyZone("cannot sample from the empty zone")
        raw, history = self.raw, len(self.alphabet.letters)
        size = 2 * history + 1
        unit = 1 << (size - 1)
        step = 2 * unit  # one unit, in keys
        assigned = [(0, 0)]  # each clock so far and twice its signed value, in units
        values = [None] * (size - 1)
        for i in range(1, size):
            if raw[i * size] > _R_INF:
                continue
            # the tightest bounds on x_i from the clocks assigned so far, as
            # keys 2 * value + flag: the greatest below, flagged if strict,
            # and the least above, flagged if nonstrict
            lo = hi = None
            for j, d in assigned:
                r = raw[j * size + i]
                if r < _R_INF:
                    b = d - (r >> 1) * step + 1 - (r & 1)
                    if lo is None or b > lo:
                        lo = b
                r = raw[i * size + j]
                if r < _R_INF:
                    b = d + (r >> 1) * step + (r & 1)
                    if hi is None or b < hi:
                        hi = b
            if hi is None:
                v = 0 if lo is None else (lo >> 1) + unit if lo & 1 else lo >> 1
            elif lo is None:
                v = hi >> 1 if hi & 1 else (hi >> 1) - unit
            elif lo >= hi:
                raise EmptyZone("empty interval in a nonempty zone")
            elif lo & 1 and not hi & 1:
                v = ((lo >> 1) + (hi >> 1)) // 2
            else:
                v = hi >> 1 if lo & 1 else lo >> 1
            assigned.append((i, 2 * v))
            values[i - 1] = Fraction(v if i <= history else -v, unit)
        return Valuation._of(self.alphabet, tuple(values))

    # -- display ------------------------------------------------------

    def to_tokens(self) -> list[list[str]]:
        """Row-major debug tokens: ``bot``, ``?``, ``<inf``, ``<c``, ``<=c``."""
        return _chunks([_token(r) for r in self.raw], len(self.alphabet.clocks) + 1)

    @staticmethod
    def from_tokens(alphabet: Alphabet, rows: Sequence[Sequence[str]]) -> "Edbm":
        """The zone of :meth:`to_tokens` rows, in normal form, through
        ``Edbm(alphabet, rows)``; raises PreconditionViolated on a row
        that is not a list or tuple, a bad token or cell, or the wrong
        size."""
        if not all(isinstance(row, (list, tuple)) for row in rows):
            raise PreconditionViolated("each row must be a list or tuple of tokens")
        return Edbm(alphabet, [[_parse_token(t) for t in row] for row in rows])

    def brief(self) -> str:
        if self.is_empty():
            return "empty"
        return " | ".join(" ".join(row) for row in self.to_tokens())


# -- constraint helpers ----------------------------------------------


@dataclass(frozen=True)
class Cells:
    """Cells over one alphabet, checked and encoded once when built, as
    :meth:`Edbm.with_cells` checks a list (PreconditionViolated), into the
    ``(row, column, raw)`` of ``raw``, which that door merges as they are."""

    alphabet: Alphabet
    raw: tuple

    def __init__(self, alphabet: Alphabet, updates: Iterable[tuple]):
        size = len(alphabet.clocks) + 1
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "raw", tuple(_raw_cell(size, u) for u in updates))


#: op -> strictness of the upper and the lower bound that ``d op c``
#: puts on a quantity ``d``, None where it puts none.
_BOUNDS = {"<": (True, None), "<=": (False, None), "=": (False, False),
           ">=": (None, False), ">": (None, True)}


def difference_cells(i: int, j: int, op: str, c: int) -> list[tuple]:
    """Matrix cells for ``sv(x_i) - sv(x_j) op c``.

    ``op`` ranges over ``<``, ``<=``, ``=``, ``>=``, ``>``.
    """
    if op not in _BOUNDS:
        raise PreconditionViolated(f"bad comparison operator {op!r}")
    upper, lower = _BOUNDS[op]
    cells = []
    if upper is not None:
        cells.append((i, j, (c, upper)))
    if lower is not None:
        cells.append((j, i, (-c, lower)))
    return cells


def atom_cells(alphabet: Alphabet, i: int, op: str, c: int) -> list[tuple]:
    """Matrix cells for comparing the value of clock ``x_i`` with ``c``.

    A history clock's value is ``sv(x_i) - sv(x_0)``; a prophecy clock's
    is ``sv(x_0) - sv(x_i)``, so for it the two border cells swap.
    """
    return difference_cells(*((0, i) if i > len(alphabet.letters) else (i, 0)), op, c)


def undefined_cells(i: int) -> list[tuple]:
    """Matrix cells that make clock ``x_i`` undefined."""
    return [(i, 0, B_BOT), (0, i, B_BOT)]


def _definedness(alphabet: Alphabet, i: int) -> tuple[list, list]:
    """Raw cells that make ``x_i`` undefined, and real (its value >= 0)."""
    real = (0, i, _R_ZERO) if i <= len(alphabet.letters) else (i, 0, _R_ZERO)
    return [(i, 0, _R_BOT), (0, i, _R_BOT)], [real]


def zone_from_constraints(
    alphabet: Alphabet,
    atoms: Iterable[tuple] = (),
    undefined: Iterable[Clock] = (),
) -> Edbm:
    """A zone from comparisons ``(clock, op, c)`` plus undefined clocks.

    Clocks in ``undefined`` are forced to bot; unmentioned clocks stay
    free.
    """
    updates: list[tuple] = []
    for clock, op, c in atoms:
        updates.extend(atom_cells(alphabet, alphabet.index_of(clock) + 1, op, c))
    for clock in undefined:
        updates.extend(undefined_cells(alphabet.index_of(clock) + 1))
    return Edbm.unconstrained(alphabet).with_cells(updates)


def guard_zones(zone: Edbm, g: Guard) -> list[Edbm]:
    """The distinct nonempty meets of ``zone`` with the disjuncts of the
    guard ``g``, in order, by one walk that never builds the disjuncts:
    a conjunction walks its right side on each zone its left side gives,
    and a negated atom splits into its reversed comparisons plus the
    undefined case, since a comparison is false on an undefined clock.
    It walks a tree of :class:`Cells` compiled once per alphabet and kept
    with the guard; any clock of ``g`` outside it raises UnknownClock."""
    if not isinstance(g, Guard):
        raise TypeError(f"not a guard: {g!r}")
    compiled = g._compiled
    try:
        tree = compiled[zone.alphabet]
    except KeyError:
        tree = compiled[zone.alphabet] = _compile(g, zone.alphabet, False)
    return [] if zone.is_empty() else _meet(zone, tree)


def _compile(g: Guard, ab: Alphabet, negated: bool):
    """The walk of ``g``, negations pushed to the atoms: None for the true
    guard, ``(None, cases)`` for a leaf whose :class:`Cells` cases each
    meet the zone, and ``(conjunction, left, right)`` for a node."""
    if isinstance(g, TrueGuard):
        return (None, ()) if negated else None
    if isinstance(g, Not):
        return _compile(g.inner, ab, not negated)
    if isinstance(g, Atom):
        i = ab.index_of(g.clock) + 1
        ops = {"<": [">="], ">": ["<="], "=": ["<", ">"]}[g.op] if negated else [g.op]
        cases = [atom_cells(ab, i, op, g.bound) for op in ops]
        if negated:
            cases.append(undefined_cells(i))
        return None, tuple(Cells(ab, c) for c in cases)
    if not isinstance(g, (And, Or)):
        raise TypeError(f"not a guard: {g!r}")
    return isinstance(g, And) != negated, _compile(g.left, ab, negated), _compile(g.right, ab, negated)


def _meet(z: Edbm, tree) -> list[Edbm]:
    """The distinct nonempty zones of a compiled walk from ``z``."""
    if tree is None:
        return [z]
    if tree[0] is None:
        met = (z._merge(cells.raw) for cells in tree[1])
    elif tree[0]:
        met = (w for y in _meet(z, tree[1]) for w in _meet(y, tree[2]))
    else:
        met = _meet(z, tree[1]) + _meet(z, tree[2])
    return distinct_zones(met)


def guard_to_zones(g: Guard, alphabet: Alphabet) -> list[Edbm]:
    """A guard as :func:`guard_zones` on the zone of all valuations."""
    return guard_zones(Edbm.unconstrained(alphabet), g)


def distinct_zones(zones: Iterable[Edbm]) -> list[Edbm]:
    """The nonempty zones among ``zones``, each once, in first-seen order."""
    return list(dict.fromkeys(z for z in zones if not z.is_empty()))


# -- visited zones ---------------------------------------------------

# The entries of a closed block of a cover, at least 2, as a block of one
# would close a new level at once, and so on without end.  Replaying the
# search benchmark's covers in-process, blocks of 4 took about 20% longer
# than 8 on its corpus and 15% less on its diverging searches, and blocks
# of 16 about 30% longer there.
_BLOCK = 8


class ZoneCover:
    """The zones a search keeps at one location: :meth:`add` keeps a zone
    unless a kept one includes it, deciding as :meth:`Edbm.includes` does.

    The kept zones are the leaves of a tree.  Level 0 holds them, and
    each ``_BLOCK`` entries of level ``k`` close into a block that level
    ``k + 1`` holds with its top, the cellwise maximum of the raw tuples
    of its zones or tops; fewer than ``_BLOCK`` entries of each level stay
    open.  :meth:`add` tests the open entries of every level, enters a
    block only if each raw cell of the new zone is at most its top's, and
    tests each kept zone it reaches by ``includes``.  The filter is exact:
    on a nonempty zone ``includes`` is the cellwise order on raw cells and
    a mask test, so a kept zone that includes the new one has every raw
    cell at least as large, and so has every top above it.
    """

    __slots__ = ("zones", "_levels")

    def __init__(self) -> None:
        self.zones: list[Edbm] = []
        # the open entries of each level: kept zones, then (top, block) pairs
        self._levels: list[list] = [[]]

    def add(self, zone: Edbm) -> bool:
        """Keep ``zone`` and say True, or say False if a kept zone includes
        it; raises UnknownClock when it is over another alphabet than a
        kept zone."""
        levels = self._levels
        if self.zones:
            ab = self.zones[0].alphabet
            if zone.alphabet is not ab and zone.alphabet != ab:
                raise UnknownClock("inclusion across different alphabets")
            if zone.is_empty():
                return False
            raw, todo = zone.raw, list(enumerate(levels))  # (depth, entries)
            while todo:
                depth, entries = todo.pop()
                if depth:
                    todo += [(depth - 1, block) for top, block in entries if all(map(operator.le, raw, top))]
                elif any(kept.includes(zone) for kept in entries):
                    return False
        self.zones.append(zone)
        levels[0].append(zone)
        depth = 0
        while len(levels[depth]) == _BLOCK:
            block = levels[depth]
            tops = [kept.raw for kept in block] if depth == 0 else [top for top, _ in block]
            levels[depth] = []
            depth += 1
            if depth == len(levels):
                levels.append([])
            levels[depth].append((tuple(map(max, *tops)), block))
        return True


def subtract_all(zone: Edbm, removed: Iterable[Edbm]) -> list[Edbm]:
    """Subtract a union of zones, keeping the pieces disjoint; each zone
    removed must be over the alphabet of ``zone``, even with no piece left."""
    pieces = [zone] if not zone.is_empty() else []
    for other in removed:
        if other.alphabet != zone.alphabet:
            raise UnknownClock("subtraction across different alphabets")
        pieces = [frag for piece in pieces for frag in piece.subtract(other)]
    return pieces
