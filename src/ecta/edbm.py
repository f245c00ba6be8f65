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

Constraints enter a zone only through :meth:`Edbm.with_cells`, which
skips the closure when the new cells are implied or contradicted, and
it is the only operation that runs the closure.  :meth:`Edbm.future`,
:meth:`Edbm.past`, :meth:`Edbm.release` and :meth:`Edbm.reset` keep the
normal form by construction.  Only this module reads bounds and markers;
other modules use :func:`difference_cells`, :func:`atom_cells`,
:func:`undefined_cells` and :func:`guard_zones`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Optional, Sequence

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
)


class _Marker:
    """A singleton cell marker; compares and hashes by identity."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


BOT = _Marker("bot")
ANY = _Marker("?")
INF = float("inf")

#: A bound is ``(value, strict)``; ``strict=True`` means ``<``.
Bound = tuple
B_BOT: Bound = (BOT, False)
B_ANY: Bound = (ANY, False)
B_INF: Bound = (INF, True)
B_ZERO: Bound = (0, False)


def bound_le(b1: Bound, b2: Bound) -> bool:
    """The cell order: smaller means tighter.

    ``?`` is the top element.  ``bot`` is comparable only with itself
    and ``?``; in particular ``bot`` and numeric bounds are incomparable,
    which makes the intersection of "undefined" with "real" empty.
    """
    m1, s1 = b1
    m2, s2 = b2
    if m2 is ANY:
        return True
    if m1 is ANY:
        return False
    if m1 is BOT or m2 is BOT:
        return m1 is BOT and m2 is BOT
    if m1 < m2:
        return True
    return m1 == m2 and (s1 == s2 or not s2)


def bound_min(b1: Bound, b2: Bound) -> Optional[Bound]:
    """Greatest lower bound of two cells, or None when incomparable."""
    if bound_le(b1, b2):
        return b1
    if bound_le(b2, b1):
        return b2
    return None


def _bound_add(b1: Bound, b2: Bound) -> Bound:
    """Sum of two numeric bounds (used only inside closure)."""
    return (b1[0] + b2[0], b1[1] or b2[1])


def _bound_lt(b1: Bound, b2: Bound) -> bool:
    """Strict order on numeric bounds."""
    return b1[0] < b2[0] or (b1[0] == b2[0] and b1[1] and not b2[1])


def _numeric(b: Bound) -> bool:
    return b[0] is not BOT and b[0] is not ANY


def _finite(b: Bound) -> bool:
    return _numeric(b) and b[0] != INF


def _below_zero(b: Bound) -> bool:
    """A diagonal cell no valuation meets: ``bot``, or below ``<=0``."""
    return b[0] is BOT or (b[0] is not ANY and _bound_lt(b, B_ZERO))


def _check_cell(size: int, cell: tuple) -> None:
    """Raise PreconditionViolated unless ``cell`` is a well-formed ``(i, j,
    bound)`` cell of a ``size`` x ``size`` matrix: a triple with plain
    ``int`` indices in range, a ``(value, strict)`` pair with a ``bool``
    strictness, ``bot`` nonstrict and on a border, ``?`` nonstrict,
    ``inf`` strict, and any other value a plain ``int``."""
    ok = isinstance(cell, tuple) and len(cell) == 3
    if ok:
        i, j, bound = cell
        ok = type(i) is int and type(j) is int and 0 <= i < size and 0 <= j < size
        ok = ok and isinstance(bound, tuple) and len(bound) == 2 and type(bound[1]) is bool
    if ok:
        m, s = bound
        if m is BOT:
            ok = not s and (i == 0 or j == 0)
        elif m is ANY:
            ok = not s
        else:
            ok = s if m == INF else type(m) is int
    if not ok:
        raise PreconditionViolated(f"bad cell {cell!r}")


def _token(b: Bound) -> str:
    m, s = b
    if m is BOT:
        return "bot"
    if m is ANY:
        return "?"
    if m == INF:
        return "<inf"
    return f"<{m}" if s else f"<={m}"


def _parse_token(text: str) -> Bound:
    if text == "bot":
        return B_BOT
    if text == "?":
        return B_ANY
    if text == "<inf":
        return B_INF
    try:
        if text.startswith("<="):
            return (int(text[2:]), False)
        if text.startswith("<"):
            return (int(text[1:]), True)
    except (AttributeError, ValueError):  # not a string, or no integer
        pass
    raise PreconditionViolated(f"bad bound token {text!r}")


@dataclass(frozen=True)
class Edbm:
    """An event-clock zone as a difference bound matrix.

    Instances are immutable.  The operations assume normalized inputs,
    which lets the elapse, :meth:`release` and :meth:`reset` skip the
    closure, and return normalized outputs unless noted otherwise.

    ``Edbm(alphabet, cells)`` is the internal constructor: it trusts
    ``cells`` to be an ``(n + 1) x (n + 1)`` tuple of row tuples of
    well-formed bounds and checks nothing.  Cells from outside enter
    through :meth:`from_tokens` or :meth:`with_cells`, which validate
    them.
    """

    alphabet: Alphabet
    cells: tuple

    # -- construction -------------------------------------------------

    @staticmethod
    @cache
    def unconstrained(alphabet: Alphabet) -> "Edbm":
        """The zone of all valuations, built once per alphabet."""
        row = (B_ANY,) * (len(alphabet.clocks) + 1)
        return Edbm(alphabet, ((B_ZERO,) + row[1:],) + (row,) * (len(row) - 1))

    @staticmethod
    @cache
    def empty(alphabet: Alphabet) -> "Edbm":
        """The canonical empty zone, built once per alphabet."""
        top = Edbm.unconstrained(alphabet).cells
        return Edbm(alphabet, (((-1, True),) + top[0][1:],) + top[1:])

    def is_empty(self) -> bool:
        # a nonempty normal form has <=0 at (0, 0), the empty one <-1
        return self.cells[0][0] == (-1, True)

    # -- membership ---------------------------------------------------

    def contains(self, v: Valuation) -> bool:
        """Exact membership of a valuation."""
        if v.alphabet != self.alphabet:
            return False
        sv = (Fraction(0),) + v.plmin()
        n1 = len(sv)
        for i in range(n1):
            for j in range(n1):
                m, s = self.cells[i][j]
                if m is ANY:
                    continue
                if i == j:
                    # a diagonal cell only constrains the constant 0
                    if _below_zero((m, s)):
                        return False
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

    # -- normalization ------------------------------------------------

    def normalize(self) -> "Edbm":
        """Canonical form: detect emptiness, then tighten.

        A clock is undefined when a border cell holds ``bot`` and
        constrained when a numeric cell off the diagonal names it, never
        both: such a matrix is empty, as is one with a diagonal cell below
        ``<=0``.  Undefined clocks get ``bot`` on both borders, constrained
        ones ``<inf`` for ``?``, sign bounds and an all-pairs shortest-path
        closure, and untouched ones keep all-``?`` rows.  The result is the
        identity on normal forms, and two matrices denote the same zone iff
        they normalize to equal cells.
        """
        work = [list(row) for row in self.cells]

        constrained = {0}
        for i, row in enumerate(work):
            for j, b in enumerate(row):
                if i == j:
                    if _below_zero(b):
                        return Edbm.empty(self.alphabet)
                elif _numeric(b):
                    constrained.add(i)
                    constrained.add(j)

        for i in range(1, len(work)):
            if work[i][0][0] is BOT or work[0][i][0] is BOT:
                if i in constrained:
                    return Edbm.empty(self.alphabet)
                work[i][0] = work[0][i] = B_BOT
            if i not in constrained:
                work[i][i] = B_ANY

        # Between real clocks ``?`` means no bound.  Signed history
        # values are at least 0 and signed prophecy values at most 0;
        # that sign bound goes into the border cell even over an explicit
        # looser one, and the closure below derives it for every pair.
        order = sorted(constrained)
        history = len(self.alphabet.letters)
        for i in order:
            row = work[i]
            for j in order:
                if row[j][0] is ANY:
                    row[j] = B_INF
            row[i] = B_ZERO
        for i in order[1:]:
            r, c = (0, i) if i <= history else (i, 0)
            if _bound_lt(B_ZERO, work[r][c]):
                work[r][c] = B_ZERO

        for k in order:
            for i in order:
                row = work[i]
                ik = row[k]
                if ik[0] == INF:
                    continue
                for j in order:
                    cand = _bound_add(ik, work[k][j])
                    if cand[0] != INF and _bound_lt(cand, row[j]):
                        row[j] = cand
        if any(_below_zero(work[i][i]) for i in order):
            return Edbm.empty(self.alphabet)
        return Edbm(self.alphabet, tuple(tuple(row) for row in work))

    # -- zone operations ----------------------------------------------

    def future(self) -> "EdbmUnion":
        """Time successors, exactly, as an :class:`EdbmUnion`.

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

    def past(self) -> "EdbmUnion":
        """Time predecessors, exactly, as an :class:`EdbmUnion`.

        Mirror image of :meth:`future`: signed values lose their lower
        bounds, and each prophecy clock with an all-``?`` row is split
        into its undefined and its real case first.
        """
        return self._elapse(upper=False)

    def _elapse(self, upper: bool) -> "EdbmUnion":
        """Split the free rows of the clocks whose values grow as time
        moves (history forward, prophecy backward), then relax each
        piece.  Neither case of a free clock is empty, and elapse keeps
        every clock's definedness, so the pieces are nonempty and
        pairwise disjoint."""
        ab = self.alphabet
        if self.is_empty():
            return EdbmUnion(ab, ())
        k = len(ab.letters)
        pieces = [self]
        for i in range(1, k + 1) if upper else range(k + 1, 2 * k + 1):
            if self.cells[i][0][0] is ANY:
                cases = (undefined_cells(i), atom_cells(ab, i, ">=", 0))
                pieces = [p.with_cells(c) for p in pieces for c in cases]
        return EdbmUnion(ab, tuple(p._relax_border(upper) for p in pieces))

    def _relax_border(self, upper: bool) -> "Edbm":
        """Loosen every numeric bound on signed values from above (column
        0) or from below (row 0) to the sign bound, then re-tighten that
        border in one O(n^2) pass: signed differences do not change as
        time elapses, so the other cells stay closed, and a shortest path
        to the border ends with one step onto it.  Row 0 is done as
        column 0 of the transposed matrix."""
        history = len(self.alphabet.letters)
        work = [list(row) for row in (self.cells if upper else zip(*self.cells))]
        real = [i for i in range(1, len(work)) if _numeric(work[i][0])]
        for i in real:
            # <=0 bounds a prophecy clock from above, a history clock from below
            work[i][0] = B_ZERO if (i > history) == upper else B_INF
        for i in real:
            row = work[i]
            for j in real:
                cand = _bound_add(row[j], work[j][0])
                if _bound_lt(cand, row[0]):
                    row[0] = cand
        return Edbm(self.alphabet, tuple(map(tuple, work if upper else zip(*work))))

    def intersect(self, other: "Edbm") -> "Edbm":
        """Cellwise greatest lower bound, through :meth:`with_cells`;
        incomparable cells mean empty."""
        if self.alphabet != other.alphabet:
            raise UnknownClock("intersection across different alphabets")
        return self.with_cells(
            (i, j, b)
            for i, row in enumerate(other.cells)
            for j, b in enumerate(row)
            if b[0] is not ANY
        )

    def release(self, clock: Clock) -> "Edbm":
        """Forget everything about one clock: its row and column,
        diagonal included, become ``?``, so it may take any value,
        undefined included.  The other cells are already closed through
        the clock, so the result needs no closure."""
        return self._rewrite(clock, to_zero=False)

    def reset(self, clock: Clock) -> "Edbm":
        """Set one clock to 0: its row and column copy row 0 and column 0
        (Bengtsson and Yi, LNCS 3098, 2004, section 4), with ``?`` toward
        undefined clocks, and the result needs no closure either."""
        return self._rewrite(clock, to_zero=True)

    def _rewrite(self, clock: Clock, to_zero: bool) -> "Edbm":
        """One clock's row and column as the border or as all ``?``."""
        if self.is_empty():
            return self
        i = self.alphabet.index_of(clock) + 1
        cells = self.cells
        work = [list(row) for row in cells]
        for j, row in enumerate(work):
            real = to_zero and cells[j][0][0] is not BOT
            row[i], work[i][j] = (cells[j][0], cells[0][j]) if real else (B_ANY, B_ANY)
        work[i][i] = B_ZERO if to_zero else B_ANY
        return Edbm(self.alphabet, tuple(map(tuple, work)))

    def includes(self, other: "Edbm") -> bool:
        """True iff every valuation of ``other`` belongs to ``self``.

        Both matrices must be normalized; inclusion is then the cellwise
        bound order.
        """
        if self.alphabet != other.alphabet:
            raise UnknownClock("inclusion across different alphabets")
        if other.is_empty():
            return True
        # an empty ``self`` fails at cell (0, 0): <-1 against <=0 in ``other``
        return all(
            bound_le(b2, b1)
            for row1, row2 in zip(self.cells, other.cells)
            for b1, b2 in zip(row1, row2)
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
        ab = self.alphabet
        steps = []  # (refuted, asserted) cell lists
        for k in range(1, len(other.cells)):
            m = other.cells[k][0][0]
            if m is not ANY:
                # a clock is real iff its value is at least 0
                cases = (atom_cells(ab, k, ">=", 0), undefined_cells(k))
                steps.append(cases if m is BOT else cases[::-1])
        for i, row in enumerate(other.cells):
            for j, (m, s) in enumerate(row):
                if i != j and _finite((m, s)):
                    steps.append(([(j, i, (-m, not s))], [(i, j, (m, s))]))
        pieces: list[Edbm] = []
        base = self
        for refuted, asserted in steps:
            pieces.append(base.with_cells(refuted))
            base = base.with_cells(asserted)
            if base.is_empty():
                break
        return [p for p in pieces if not p.is_empty()]

    def with_cells(self, updates: Iterable[tuple]) -> "Edbm":
        """Tighten the given cells (greatest lower bound) and normalize.

        The one way constraints enter a zone.  ``updates`` holds ``(row,
        column, bound)`` triples; every cell is checked first and raises
        PreconditionViolated when malformed.  On a normalized ``self``
        two cases need no closure (Bengtsson and Yi, LNCS 3098, 2004,
        section 4): a finite bound whose sum with the finite opposite cell
        is below ``<=0`` yields the shared empty zone, and cells that
        ``self`` already implies yield ``self``.  Otherwise the cells are
        merged; a bound incomparable with the present cell (``bot``
        against a real bound) yields the empty zone, and the merge is
        normalized.
        """
        updates = list(updates)
        cells = self.cells
        for update in updates:
            _check_cell(len(cells), update)
        for i, j, bound in updates:
            opposite = cells[j][i]
            if _finite(bound) and _finite(opposite):
                if _bound_lt(_bound_add(bound, opposite), B_ZERO):
                    return Edbm.empty(self.alphabet)
        if all(bound_le(cells[i][j], b) for i, j, b in updates):
            return self
        work = [list(row) for row in cells]
        for i, j, bound in updates:
            cur = bound_min(work[i][j], bound)
            if cur is None:
                return Edbm.empty(self.alphabet)
            work[i][j] = cur
        return Edbm(self.alphabet, tuple(map(tuple, work))).normalize()

    # -- sampling -----------------------------------------------------

    def sample(self) -> Valuation:
        """A concrete valuation inside the zone.

        Clocks whose rows are ``bot`` or all-``?`` come out undefined;
        constrained clocks get exact rational values chosen row by row
        inside their remaining intervals.  Raises EmptyZone on the empty
        matrix.  Deterministic.
        """
        if self.is_empty():
            raise EmptyZone("cannot sample from the empty zone")
        size = len(self.cells)
        history = len(self.alphabet.letters)
        assigned: dict[int, Fraction] = {0: Fraction(0)}
        for i in range(1, size):
            if not _numeric(self.cells[i][0]):
                continue
            lo: Optional[tuple[Fraction, bool]] = None
            hi: Optional[tuple[Fraction, bool]] = None
            for j, dj in assigned.items():
                up = self.cells[i][j]
                if _finite(up):
                    cand = (dj + up[0], up[1])
                    if hi is None or cand[0] < hi[0] or (cand[0] == hi[0] and cand[1]):
                        hi = cand
                down = self.cells[j][i]
                if _finite(down):
                    cand = (dj - down[0], down[1])
                    if lo is None or cand[0] > lo[0] or (cand[0] == lo[0] and cand[1]):
                        lo = cand
            assigned[i] = self._pick(lo, hi)
        values = tuple(
            None if i not in assigned else assigned[i] if i <= history else -assigned[i]
            for i in range(1, size)
        )
        return Valuation(self.alphabet, values)

    @staticmethod
    def _pick(
        lo: Optional[tuple[Fraction, bool]], hi: Optional[tuple[Fraction, bool]]
    ) -> Fraction:
        if lo is None and hi is None:
            return Fraction(0)
        if lo is None:
            return hi[0] if not hi[1] else hi[0] - 1
        if hi is None:
            return lo[0] if not lo[1] else lo[0] + 1
        if lo[0] == hi[0]:
            if lo[1] or hi[1]:
                raise EmptyZone("empty interval in a nonempty zone")
            return lo[0]
        if lo[0] > hi[0]:
            raise EmptyZone("crossed interval in a nonempty zone")
        if not lo[1]:
            return lo[0]
        if not hi[1]:
            return hi[0]
        return (lo[0] + hi[0]) / 2

    # -- display ------------------------------------------------------

    def to_tokens(self) -> list[list[str]]:
        """Row-major debug tokens: ``bot``, ``?``, ``<inf``, ``<c``, ``<=c``."""
        return [[_token(b) for b in row] for row in self.cells]

    @staticmethod
    def from_tokens(alphabet: Alphabet, rows: Sequence[Sequence[str]]) -> "Edbm":
        """The matrix of :meth:`to_tokens` rows, not normalized; raises
        PreconditionViolated on a bad token or cell or on the wrong size."""
        size = len(alphabet.clocks) + 1
        if len(rows) != size or any(len(row) != size for row in rows):
            raise PreconditionViolated(f"expected a {size}x{size} matrix")
        cells = tuple(tuple(_parse_token(t) for t in row) for row in rows)
        for i, row in enumerate(cells):
            for j, bound in enumerate(row):
                _check_cell(size, (i, j, bound))
        return Edbm(alphabet, cells)

    def brief(self) -> str:
        if self.is_empty():
            return "empty"
        return " | ".join(" ".join(row) for row in self.to_tokens())


@dataclass(frozen=True, eq=False)
class EdbmUnion:
    """A finite union of pairwise disjoint, nonempty, normalized zones.

    The exact result of :meth:`Edbm.future` and :meth:`Edbm.past`, and
    of the same methods on a union.  Each piece fixes which of the
    clocks split so far are defined, and elapse keeps definedness, so
    the pieces stay disjoint.  Iterating yields the pieces; the empty
    union has none.  Two unions are equal when they hold the same
    pieces, in any order.
    """

    alphabet: Alphabet
    pieces: tuple

    def __iter__(self):
        return iter(self.pieces)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdbmUnion):
            return NotImplemented
        return self.alphabet == other.alphabet and set(self.pieces) == set(other.pieces)

    def contains(self, v: Valuation) -> bool:
        return any(p.contains(v) for p in self.pieces)

    def is_empty(self) -> bool:
        return not self.pieces

    def future(self) -> "EdbmUnion":
        return self._each(Edbm.future)

    def past(self) -> "EdbmUnion":
        return self._each(Edbm.past)

    def _each(self, elapse) -> "EdbmUnion":
        return EdbmUnion(
            self.alphabet, tuple(q for p in self.pieces for q in elapse(p))
        )


# -- constraint helpers ----------------------------------------------


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
    if i > len(alphabet.letters):
        return difference_cells(0, i, op, c)
    return difference_cells(i, 0, op, c)


def undefined_cells(i: int) -> list[tuple]:
    """Matrix cells that make clock ``x_i`` undefined."""
    return [(i, 0, B_BOT), (0, i, B_BOT)]


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
    undefined case, since a comparison is false on an undefined clock."""
    ab = zone.alphabet

    def walk(z: Edbm, g: Guard, negated: bool) -> list[Edbm]:
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


def guard_to_zones(g: Guard, alphabet: Alphabet) -> list[Edbm]:
    """A guard as :func:`guard_zones` on the zone of all valuations."""
    return guard_zones(Edbm.unconstrained(alphabet), g)


def distinct_zones(zones: Iterable[Edbm]) -> list[Edbm]:
    """The nonempty zones among ``zones``, each once, in first-seen order."""
    return list(dict.fromkeys(z for z in zones if not z.is_empty()))


def subtract_all(zone: Edbm, removed: Iterable[Edbm]) -> list[Edbm]:
    """Subtract a union of zones, keeping the pieces disjoint."""
    pieces = [zone] if not zone.is_empty() else []
    for other in removed:
        pieces = [frag for piece in pieces for frag in piece.subtract(other)]
    return pieces
