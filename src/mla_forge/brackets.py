"""Bracket structures: a second binary operation on a group satisfying the
commutator-style identities.

A bracket on G is a table star[x][y] subject to (writing ^u v = u v u^-1):

  A1  x*x = 1
  A2  x*(y z) = (x*y) ^y(x*z)
  A3  (x y)*z = ^x(y*z) (x*z)
  A4  ((x*y) * ^y z) ((y*z) * ^z x) ((z*x) * ^x y) = 1
  A5  ^z(x*y) = ^z x * ^z y

The all-identity table and the commutator table always qualify. Every valid
bracket also satisfies the derived identities x*1 = 1*x = 1 and
y*x = (x*y)^-1, which the search relies on.

Each axiom also has a reduced range. The ranges of A1, A2, A3 and A5 are
exact whatever the other axioms do: a table passes the reduced scan exactly
when it passes the full one. A4's range assumes the other axioms, so
``_is_mla`` scans it first and the others after (its docstring). S =
find_generators(G) generates G, and every element of a finite group is a
product of generators (S is empty only for the trivial group, whose one
table passes every axiom):

  A2  z over S. For fixed x, A2 says f(y) = x*y is a crossed homomorphism,
      f(yz) = f(y) ^y f(z). At y = 1 and z in S it gives f(1) = 1, so z = 1
      passes. If z1 and z2 pass for every y, so does z1 z2:
      f(y z1 z2) = f(y z1) ^(y z1) f(z2) = f(y) ^y f(z1) ^(y z1) f(z2)
      = f(y) ^y (f(z1) ^z1 f(z2)) = f(y) ^y f(z1 z2).
  A3  x over S, the same argument in the left argument: for fixed z,
      g(x) = x*z satisfies g(xy) = ^x g(y) g(x). At x in S and y = 1 it
      gives g(1) = 1, so x = 1 passes, and if x1 and x2 pass, so does x1 x2:
      g(x1 x2 y) = ^x1 g(x2 y) g(x1) = ^(x1 x2) g(y) ^x1 g(x2) g(x1)
      = ^(x1 x2) g(y) g(x1 x2).
  A5  z over the non-central elements of S. A5 at z says conjugation by z
      maps the table to itself; a central z, 1 among them, conjugates
      trivially and passes, and if z1 and z2 pass, so does z1 z2, since
      conjugation by z1 z2 is conjugation by z2 followed by conjugation by
      z1. On an abelian group A5 costs nothing.
  A4  With P(x, y, z) = (x*y) * ^y z and J(x, y, z) = P(x,y,z) P(y,z,x)
      P(z,x,y), A4 says J = 1 everywhere. ABC = 1 exactly when BCA = 1, so
      J(x, y, z) = 1 exactly when J(y, z, x) = 1.
      - On an abelian group, given A1, A2 and A3: the generator triples
        (s_i, s_j, s_k), i < j < k. Writing G additively, A2 and A3 make the
        bracket biadditive and A1 alternating, so y*x = -(x*y), and
        J(x, y, z) = (x*y)*z + (y*z)*x + (z*x)*y is trilinear;
        J(x, x, z) = 0*z + (x*z)*x - (x*z)*x = 0, and J is invariant under
        rotation, so it is alternating. Every element is a sum of generators,
        so J(x, y, z) is a sum of values J(s_a, s_b, s_c), each 0 (two equal
        entries) or +- the value at one of these triples (none when |S| < 3).
      - Otherwise, given A5: the triples with x least in its conjugacy class,
        x <= y, x <= z, and y least in its orbit under conjugation by the
        centralizer of x (FiniteGroup.conjugation_pair_minima). A5 gives
        ^g(x*y) = ^g x * ^g y, hence P(^g x, ^g y, ^g z) = ^g P(x, y, z) and
        J(^g x, ^g y, ^g z) = ^g J(x, y, z), which is 1 exactly when
        J(x, y, z) is. From any triple, rotate its least entry to the front,
        conjugate that entry to the least of its class, and conjugate by its
        centralizer to make y least. Each step keeps whether J = 1, and each
        step that moves the triple lowers (first, second) lexicographically,
        so repeating them ends in this range.

The ranges are data: ``_full_ranges`` and ``_reduced_ranges`` build them
for a group, and each scan loops over the arguments it is given. A caller
that decides many tables builds them once, and one that knows smaller free
arguments that decide the axioms on its tables hands those to
``_reduced_ranges`` (``search._affine_points``).

A table that passes A1-A3 and A5 costs about 3 |S| n^2 steps for those and,
for A4, a few |S|^3 on an abelian group, else one step per triple of the
conjugation range, a fraction of n^3/3 that falls with the number of
conjugacy classes and the size of centralizers (on the order-16 to 32
products of the benchmark, 13-54% of the triples with x <= y and x <= z).
``_is_mla`` is the one pass/fail decision. The star-table search decides
its leaves with it, and a leaf that fails A4 alone, as most do, costs n
steps for A1 and the A4 triples up to its first witness.
``search.enumerate_tuples`` decides its induced tables on H x| K
with ``_is_mla`` too, on free arguments whose H-coordinates are all 1 but
at most one generator of H (proof there): A2, A3 and A5 cost about
|S| |K|^2 (1 + 2 |S_H|) steps, and A4 (1 + 3 |S_H|) per triple of K with
its least entry first, or the generator triples on an abelian product. On
Z4 x D4 that is 576 steps for A2 and for A3 instead of 3 072, and 816 A4
triples instead of 6 070; on Z8 x| D4 (order 64), the same 576 and 816
instead of 12 288 and 23 834. The reduced scans decide pass or fail only;
witnesses always come from the full scans, which run only on a table
``_is_mla`` fails, and then only for A4 and the axioms whose reduced scans
fail (``_violations``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from typing import AbstractSet, Any, Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import BoundExceededError, ValidationError
from .groups import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    Subgroup,
    automorphism_generators,
    endomorphism_count,
    find_generators,
    homomorphisms,
    int_row,
    int_table,
    subgroup_generated,
)

DEFAULT_VIOLATION_CAP = 16
AXIOM_NAMES = ("A1", "A2", "A3", "A4", "A5")

_Table = tuple[tuple[int, ...], ...]
_Pairs = Sequence[tuple[int, Sequence[int]]]  # (x, ys): the pairs (x, y) for y in ys
_Triples = Sequence[tuple[int, _Pairs]]  # (x, pairs): the triples (x, y, z) for (y, z) in pairs
_Ranges = dict[str, Any]  # each axiom's scan arguments (_full_ranges, _reduced_ranges)


@dataclass(frozen=True)
class LieBracket:
    """A candidate or verified bracket table on a group."""

    group: FiniteGroup
    star: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, group: FiniteGroup, star: Sequence[Sequence[int]]) -> "LieBracket":
        n = group.order
        return cls(group, int_table(star, "star", (n, n), n))

    def is_trivial(self) -> bool:
        e = self.group.identity
        return all(v == e for row in self.star for v in row)


@dataclass(frozen=True)
class MlaViolation:
    """One failed bracket axiom with its witness and both evaluated sides."""

    axiom: str
    witness: tuple[int, ...]
    left: int
    right: int


def verify_mla(
    group: FiniteGroup,
    star: Union[LieBracket, Sequence[Sequence[int]]],
    max_violations: int = DEFAULT_VIOLATION_CAP,
) -> list[MlaViolation]:
    """Exhaustively check A1-A5; an empty list means a verified bracket.

    ``_is_mla`` decides. A table it passes runs no full scan; for one it
    fails, the violations are those of the full scans from A1: axioms in
    order A1..A5 and witnesses within an axiom in lexicographic order,
    collected until ``max_violations``, an int >= 1. The full scan of an
    axiom whose reduced scan passes is skipped (``_violations``).
    """
    check_violation_cap(max_violations)
    n = group.order
    table = int_table(star.star if isinstance(star, LieBracket) else star, "star", (n, n), n)
    reduced = _reduced_ranges(group)
    if _is_mla(group, table, reduced):
        return []
    full = _full_ranges(group)
    scans = (_violations(group, table, a, reduced, full) for a in AXIOM_NAMES)
    return list(islice(chain.from_iterable(scans), max_violations))


def _violations(
    group: FiniteGroup, table: _Table, axiom: str, reduced: _Ranges, full: _Ranges
) -> Iterator[MlaViolation]:
    """The violations of one axiom on its full range, in lexicographic
    order. The reduced ranges of A1, A2, A3 and A5 are exact whatever the
    other axioms do (module docstring), so a table that passes one of these
    there has no violation of it, and its full scan is skipped. A4's reduced
    range assumes the other axioms, so A4 always scans in full."""
    if axiom != "A4" and axiom_holds(group, table, axiom, reduced[axiom]):
        return iter(())
    return AXIOM_SCANS[axiom](group, table, full[axiom])


def _is_mla(group: FiniteGroup, table: _Table, ranges: Optional[_Ranges] = None) -> bool:
    """Whether a table of group elements passes A1-A5 (no ``int_table``
    check): the one pass/fail decision on bracket tables. ``ranges`` come
    from ``_reduced_ranges``, by default for the group alone, and are
    scanned in this order:

      1. A1 on the diagonal.
      2. A4 on its reduced range, which assumes the other axioms; a
         violation there is a real A4 witness, so the table fails.
      3. A2, A3 and A5 on their reduced ranges, exact whatever the other
         axioms do; if all three hold, A4's range was exact, and A1-A5 hold.
    """
    if ranges is None:
        ranges = _reduced_ranges(group)
    return all(axiom_holds(group, table, a, ranges[a]) for a in ("A1", "A4", "A2", "A3", "A5"))


def axiom_holds(group: FiniteGroup, table: _Table, axiom: str, rng: Any) -> bool:
    """Whether a table of group elements has no violation of one axiom on
    the range ``rng``: that axiom's entry of ``_full_ranges`` or
    ``_reduced_ranges``."""
    return next(AXIOM_SCANS[axiom](group, table, rng), None) is None


def check_violation_cap(max_violations: int) -> None:
    """Reject a violation cap that is not an int >= 1; a bool is no int here."""
    if not isinstance(max_violations, int) or isinstance(max_violations, bool) or max_violations < 1:
        raise ValidationError(f"max_violations must be an integer >= 1, got {max_violations!r}")


def _full_ranges(group: FiniteGroup) -> _Ranges:
    """Every witness of each axiom, as the scans take their arguments."""
    every = range(group.order)
    pairs = [(x, every) for x in every]
    triples = [(x, pairs) for x in every]
    return {"A1": every, "A2": (pairs, every), "A3": (every, pairs), "A4": triples, "A5": (pairs, every)}


def _reduced_ranges(
    group: FiniteGroup, pairs: Optional[_Pairs] = None, triples: Optional[_Triples] = None
) -> _Ranges:
    """The reduced range of each axiom (module docstring). ``pairs``
    replaces the free pairs of A2, A3 and A5 and ``triples`` A4's triples on
    a non-abelian group; the caller vouches that they decide the axioms on
    its tables (``search._affine_points``)."""
    n, conj = group.order, group.conj_table
    s = find_generators(group)
    if pairs is None:
        pairs = [(x, range(n)) for x in range(n)]
    if group.is_abelian:
        triples = [(s[i], [(s[j], s[j + 1 :]) for j in range(i + 1, len(s))]) for i in range(len(s))]
    elif triples is None:
        triples = [
            (x, [(y, range(x, n)) for y in ys[bisect_left(ys, x) :]]) for x, ys in group.conjugation_pair_minima
        ]
    non_central = [z for z in s if conj[z] != conj[group.identity]]
    return {"A1": range(n), "A2": (pairs, s), "A3": (s, pairs), "A4": triples, "A5": (pairs, non_central)}


# One generator per axiom, each producing that axiom's violations lazily on
# a star table of the group's shape, over the arguments in ``rng``: A1 takes
# xs, A2 and A5 (pairs, zs), A3 (xs, pairs) and A4 triples, where pairs are
# (x, ys) for A2 and A5, (y, zs) for A3, and triples (x, pairs of (y, zs)).
# On the full ranges the witnesses come in lexicographic order.


def _scan_a1(group: FiniteGroup, table: _Table, rng: Sequence[int]) -> Iterator[MlaViolation]:
    e = group.identity
    for x in rng:
        if table[x][x] != e:
            yield MlaViolation("A1", (x,), table[x][x], e)


def _scan_a2(group: FiniteGroup, table: _Table, rng: tuple[_Pairs, Sequence[int]]) -> Iterator[MlaViolation]:
    mul, conj = group.cayley, group.conj_table
    pairs, zs = rng
    for x, ys in pairs:
        sx = table[x]
        for y in ys:
            sxy = sx[y]
            cy = conj[y]
            my = mul[y]
            for z in zs:
                lhs = sx[my[z]]
                rhs = mul[sxy][cy[sx[z]]]
                if lhs != rhs:
                    yield MlaViolation("A2", (x, y, z), lhs, rhs)


def _scan_a3(group: FiniteGroup, table: _Table, rng: tuple[Sequence[int], _Pairs]) -> Iterator[MlaViolation]:
    mul, conj = group.cayley, group.conj_table
    xs, pairs = rng
    for x in xs:
        cx = conj[x]
        mx = mul[x]
        sx = table[x]
        for y, zs in pairs:
            sy = table[y]
            smxy = table[mx[y]]
            for z in zs:
                lhs = smxy[z]
                rhs = mul[cx[sy[z]]][sx[z]]
                if lhs != rhs:
                    yield MlaViolation("A3", (x, y, z), lhs, rhs)


def _scan_a4(group: FiniteGroup, table: _Table, rng: _Triples) -> Iterator[MlaViolation]:
    n, mul, conj, e = group.order, group.cayley, group.conj_table, group.identity
    for x, pairs in rng:
        cx = conj[x]
        sx = table[x]
        zx = [conj[z][x] for z in range(n)]  # ^z x
        szx = [table[z][x] for z in range(n)]  # z*x
        for y, zs in pairs:
            sy = table[y]
            cy = conj[y]
            s_sxy = table[sx[y]]
            cxy = cx[y]
            for z in zs:
                val = mul[mul[s_sxy[cy[z]]][table[sy[z]][zx[z]]]][table[szx[z]][cxy]]
                if val != e:
                    yield MlaViolation("A4", (x, y, z), val, e)


def _scan_a5(group: FiniteGroup, table: _Table, rng: tuple[_Pairs, Sequence[int]]) -> Iterator[MlaViolation]:
    conj = group.conj_table
    pairs, zs = rng
    if not zs:
        return
    for x, ys in pairs:
        sx = table[x]
        for y in ys:
            sxy = sx[y]
            for z in zs:
                cz = conj[z]
                lhs = cz[sxy]
                rhs = table[cz[x]][cz[y]]
                if lhs != rhs:
                    yield MlaViolation("A5", (x, y, z), lhs, rhs)


AXIOM_SCANS: dict[str, Callable[..., Iterator[MlaViolation]]] = {
    "A1": _scan_a1,
    "A2": _scan_a2,
    "A3": _scan_a3,
    "A4": _scan_a4,
    "A5": _scan_a5,
}


def trivial_bracket(group: FiniteGroup) -> LieBracket:
    e = group.identity
    row = (e,) * group.order
    return LieBracket(group, (row,) * group.order)


def commutator_bracket(group: FiniteGroup) -> LieBracket:
    star = tuple(
        tuple(group.comm(x, y) for y in range(group.order)) for x in range(group.order)
    )
    return LieBracket(group, star)


def reverse_bracket(bracket: LieBracket) -> LieBracket:
    """Arguments swapped: star'[x][y] = star[y][x].

    On a verified bracket this equals the pointwise inverse, since
    y*x = (x*y)^-1 holds in every valid structure.
    """
    n = bracket.group.order
    star = tuple(tuple(bracket.star[y][x] for y in range(n)) for x in range(n))
    return LieBracket(bracket.group, star)


def derived_subalgebra(bracket: LieBracket) -> Subgroup:
    """Subgroup generated by all bracket values."""
    values = {v for row in bracket.star for v in row}
    return subgroup_generated(bracket.group, values)


def is_ideal(bracket: LieBracket, sub: Union[Subgroup, Iterable[int]]) -> bool:
    """True iff sub is normal and closed under bracketing with all of G.

    A list that is not a subgroup of G, or a Subgroup of another group,
    raises ValidationError.
    """
    group = bracket.group
    if isinstance(sub, Subgroup) and sub.parent.cayley != group.cayley:
        raise ValidationError("subgroup is not a subgroup of the bracket's group")
    subgroup = sub if isinstance(sub, Subgroup) else Subgroup(group, tuple(sorted(set(int_row(sub, "subset")))))
    mem = subgroup._member_set
    return subgroup.is_normal and all(_keeps_ideal(mem, x, row) for x, row in enumerate(bracket.star))


def _keeps_ideal(ideal: AbstractSet[int], x: int, row: Sequence[int]) -> bool:
    """Whether row x of a star table keeps the rule of ``is_ideal`` for a
    normal subgroup: x or y in the ideal puts x*y in it."""
    return all(row[y] in ideal for y in (range(len(row)) if x in ideal else ideal))


def pushforward_table(
    images: tuple[int, ...], star: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """Relabel a star table along a bijective image table:
    star'[images[x]][images[y]] = images[star[x][y]]."""
    pre = [0] * len(images)
    for i, v in enumerate(images):
        pre[v] = i
    rows = [star[p] for p in pre]
    return tuple(tuple(images[row[p]] for p in pre) for row in rows)


def bracket_orbit(
    bracket: LieBracket, autos: Optional[Sequence[tuple[int, ...]]] = None
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The tables equivalent to ``bracket``, each yielded once: its orbit
    under the automorphisms of its group and argument reversal.

    Two brackets on a group are the same structure exactly when one's table
    is in the other's orbit. ``autos`` is any generating set of Aut as image
    tables (the full ``automorphisms`` list qualifies); by default the
    strong generators of the group's stabiliser chain,
    ``automorphism_generators``, so Aut is never listed. Reversal is a
    transpose and commutes with every relabeling, so Aut x <reversal> is a
    group and closing {table} under the generators and reversal gives the
    whole orbit, at |orbit| x (|autos| + 1) relabelings whatever |Aut| is.
    The closure (``_orbit_keys``) is depth-first, and each table is yielded
    when first found.
    """
    group = bracket.group
    n = group.order
    moves = _orbit_moves(n, automorphism_generators(group) if autos is None else autos)
    for key in _orbit_keys(_table_key(bracket.star), moves):
        yield tuple(tuple(key[i : i + n]) for i in range(0, n * n, n))


# The orbit kernel works on a table as ``bytes`` of its n^2 entries, row by
# row (n <= MAX_GROUP_ORDER < 256): a bytes key hashes once and keeps its
# hash, where a tuple of rows rehashes on every set lookup. A relabeling is
# ``key.translate`` by the map's values, then a move of the cells by one
# prebuilt ``itemgetter``; reversal moves the cells only.

_Move = tuple[bytes, Callable[[bytes], tuple[int, ...]]]
_NO_RELABEL = bytes(range(256))


def _table_key(table: _Table) -> bytes:
    return bytes(chain.from_iterable(table))


def _orbit_moves(n: int, autos: Sequence[tuple[int, ...]]) -> list[_Move]:
    """The moves of reversal and of each map in ``autos`` on the keys of
    n x n tables. Along phi, star'[phi x][phi y] = phi(star[x][y]), so cell
    (a, b) of the image takes phi of cell (pre a, pre b), with pre the
    inverse of phi (``pushforward_table``). On one cell every move is the
    identity, so there are none (and ``itemgetter(0)`` would give an int,
    which ``bytes`` reads as a length)."""
    if n == 1:
        return []
    cells = range(n * n)
    moves = [(_NO_RELABEL, itemgetter(*[p % n * n + p // n for p in cells]))]
    for phi in autos:
        pre = [0] * n
        for x, v in enumerate(phi):
            pre[v] = x
        values = bytes(phi) + bytes(256 - n)
        moves.append((values, itemgetter(*[pre[p // n] * n + pre[p % n] for p in cells])))
    return moves


def _orbit_keys(key: bytes, moves: Sequence[_Move]) -> Iterator[bytes]:
    """The closure of {key} under the moves, depth-first, each key yielded
    once when first found: the one orbit loop of ``bracket_orbit`` and
    ``search._classify``."""
    seen = {key}
    stack = [key]
    yield key
    while stack:
        table = stack.pop()
        for values, cells in moves:
            found = bytes(cells(table.translate(values)))
            if found not in seen:
                seen.add(found)
                stack.append(found)
                yield found


def end_mla(group: FiniteGroup) -> tuple[FiniteGroup, LieBracket]:
    """The endomorphism structure of an abelian group.

    Elements are the endomorphism tables of H in sorted order; the group
    operation is the pointwise product (F.G)(h) = F(h)G(h) and the bracket is
    (F*G)(h) = F(G(h)) G(F(h^-1)). The returned pair passes verify_mla.
    |End(H)| is checked against MAX_GROUP_ORDER before any endomorphism is
    enumerated.
    """
    if not group.is_abelian:
        raise ValidationError("end_mla requires an abelian group")
    size = endomorphism_count(group)
    if size > MAX_GROUP_ORDER:
        raise BoundExceededError(
            f"End({group.name}) has {size} elements, beyond supported order {MAX_GROUP_ORDER}"
        )
    endos = homomorphisms(group, group)
    index = {t: i for i, t in enumerate(endos)}
    mul_h, inv_h = group.cayley, group.inverse
    hs = range(group.order)

    def dot(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(mul_h[f[h]][g[h]] for h in hs)

    def star_op(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(mul_h[f[g[h]]][g[f[inv_h[h]]]] for h in hs)

    cayley = [[index[dot(endos[i], endos[j])] for j in range(size)] for i in range(size)]
    end_group = FiniteGroup.from_table(f"End({group.name})", cayley)
    star = [[index[star_op(endos[i], endos[j])] for j in range(size)] for i in range(size)]
    return end_group, LieBracket.make(end_group, star)
