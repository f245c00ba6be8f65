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
:meth:`Edbm.past` and :meth:`Edbm.release` keep the normal form by
construction.  Only this module reads bounds and markers; other modules
build cells with :func:`difference_cells`, :func:`atom_cells`,
:func:`undefined_cells` and :func:`guard_cells`.
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


def _check_cell(i: int, j: int, bound: Bound) -> None:
    """Raise PreconditionViolated unless ``bound`` is well formed for cell
    ``(i, j)``: ``bot`` nonstrict and on a border, ``?`` nonstrict,
    ``inf`` strict, anything else an integer."""
    m, s = bound
    if m is BOT:
        ok = not s and (i == 0 or j == 0)
    elif m is ANY:
        ok = not s
    else:
        ok = s if m == INF else isinstance(m, int)
    if not ok:
        raise PreconditionViolated(f"bad bound {bound!r} at {(i, j)}")


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
    which lets :meth:`future`, :meth:`past` and :meth:`release` skip the
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
                    if m is BOT or m < 0 or (m == 0 and s):
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

        Undefined clocks get ``bot`` on both borders and ``?`` elsewhere;
        constrained real clocks get defaulted borders and an all-pairs
        shortest-path closure; untouched clocks keep all-``?`` rows.  The
        result is the identity on already-normalized matrices, and two
        matrices denote the same zone iff they normalize to equal cells.
        """
        size = len(self.cells)
        work = [list(row) for row in self.cells]

        for i in range(size):
            m, s = work[i][i]
            if m is BOT or (m is not ANY and (m < 0 or (m == 0 and s))):
                return Edbm.empty(self.alphabet)

        bot_rows: set[int] = set()
        for i in range(1, size):
            lower = work[i][0]
            upper = work[0][i]
            if lower[0] is BOT or upper[0] is BOT:
                other = upper if lower[0] is BOT else lower
                if _numeric(other):
                    return Edbm.empty(self.alphabet)
                for j in range(1, size):
                    if j != i and (work[i][j][0] is not ANY or work[j][i][0] is not ANY):
                        return Edbm.empty(self.alphabet)
                bot_rows.add(i)
        for i in bot_rows:
            work[i][0] = B_BOT
            work[0][i] = B_BOT
            work[i][i] = B_ANY

        constrained = {0}
        for i in range(size):
            for j in range(size):
                if i != j and _numeric(work[i][j]):
                    constrained.add(i)
                    constrained.add(j)
        order = sorted(constrained)

        # Between real clocks ``?`` means no bound.  Signed history
        # values are at least 0 and signed prophecy values at most 0;
        # that sign bound goes into the border cell even over an explicit
        # looser one, and the closure below derives it for every pair.
        history = len(self.alphabet.letters)
        for i in order:
            row = work[i]
            for j in order:
                if i != j and row[j][0] is ANY:
                    row[j] = B_INF
        for i in order[1:]:
            r, c = (0, i) if i <= history else (i, 0)
            if _bound_lt(B_ZERO, work[r][c]):
                work[r][c] = B_ZERO

        for i in order:
            work[i][i] = B_ZERO
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
        for i in order:
            m, s = work[i][i]
            if m < 0 or (m == 0 and s):
                return Edbm.empty(self.alphabet)

        for i in range(1, size):
            if i not in constrained and i not in bot_rows:
                work[i][i] = B_ANY

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
        """Forget everything about one clock.

        The clock's whole row and column, diagonal included, become
        ``?``; the result allows any value for it, undefined included.
        The result needs no closure: the other clocks' cells are already
        closed through the released clock, and a free clock's normal
        form is an all-``?`` row and column.
        """
        if self.is_empty():
            return self
        i = self.alphabet.index_of(clock) + 1
        work = [list(row) for row in self.cells]
        for j in range(len(work)):
            work[i][j] = B_ANY
            work[j][i] = B_ANY
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
        if self.is_empty():
            return False
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
        column, bound)`` triples; every bound is checked first and raises
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
        for i, j, bound in updates:
            _check_cell(i, j, bound)
        cells = self.cells
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
                _check_cell(i, j, bound)
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


def guard_cells(g: Guard, alphabet: Alphabet) -> list[list[tuple]]:
    """A guard in disjunctive normal form, one cell list per disjunct.

    A negated comparison expands into the reversed comparison plus the
    undefined case, since a comparison is false on an undefined clock.
    A disjunct may contradict itself; its cells then empty any zone.
    """

    def expand(g: Guard, negated: bool) -> list[list[tuple]]:
        if isinstance(g, TrueGuard):
            return [] if negated else [[]]
        if isinstance(g, Not):
            return expand(g.inner, not negated)
        if isinstance(g, (And, Or)):
            conjunctive = isinstance(g, And) != negated
            left = expand(g.left, negated)
            right = expand(g.right, negated)
            if conjunctive:
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


def guard_to_zones(g: Guard, alphabet: Alphabet) -> list[Edbm]:
    """A guard as the distinct nonempty zones of its :func:`guard_cells`."""
    top = Edbm.unconstrained(alphabet)
    return distinct_zones(top.with_cells(c) for c in guard_cells(g, alphabet))


def distinct_zones(zones: Iterable[Edbm]) -> list[Edbm]:
    """The nonempty zones among ``zones``, each once, in first-seen order."""
    return list(dict.fromkeys(z for z in zones if not z.is_empty()))


def subtract_all(zone: Edbm, removed: Iterable[Edbm]) -> list[Edbm]:
    """Subtract a union of zones, keeping the pieces disjoint."""
    pieces = [zone] if not zone.is_empty() else []
    for other in removed:
        pieces = [frag for piece in pieces for frag in piece.subtract(other)]
    return pieces
