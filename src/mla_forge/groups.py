"""Finite groups as validated Cayley tables over elements 0..order-1."""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd, inf, prod
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BoundExceededError, InvalidGroupError, ValidationError

# Size limits, each defined and checked in one place.
#
#   MAX_GROUP_ORDER  the largest group any table of this package describes:
#                    presets, products, subgroups, files and End(H). Checked
#                    before a table of that size is built (_check_order_bound,
#                    brackets.end_mla), so Hom, Aut and isomorphism searches
#                    need no bound of their own.
#   HARD_ORDER_CAP   the largest group that search.enumerate_brackets
#                    enumerates exhaustively.
MAX_GROUP_ORDER = 64
HARD_ORDER_CAP = 32

VIOLATION_CAP = 32


@dataclass(frozen=True)
class GroupViolation:
    """One violated group axiom, with the witnessing elements."""

    axiom: str
    witness: tuple[int, ...]
    message: str


def int_table(
    table: Sequence[Sequence[int]],
    what: str,
    shape: Optional[tuple[int, int]] = None,
    bound: Optional[int] = None,
) -> tuple[tuple[int, ...], ...]:
    """``table`` as a tuple of int tuples, each row checked by :func:`int_row`
    with ``bound``; with ``shape`` = (rows, cols) it must have that many rows
    of that length."""
    try:
        rows = tuple(tuple(row) for row in table)
    except TypeError:
        raise ValidationError(f"{what} must be a table of rows")
    if shape is not None and (len(rows) != shape[0] or any(len(row) != shape[1] for row in rows)):
        raise ValidationError(f"{what} table must have shape {shape[0]} x {shape[1]}")
    return tuple(int_row(row, what, bound) for row in rows)


def int_row(values: Sequence[int], what: str, bound: Optional[int] = None) -> tuple[int, ...]:
    """``values`` as a tuple of ints: the one entry check of every table of
    elements the package is given (Cayley tables, brackets, sigma, Gamma,
    beta, subgroups).

    Every entry must already be an ``int``: a float, a string or a bool is
    rejected, not coerced. With ``bound`` every entry must also lie in
    0..bound-1, checked in the same pass. A rejected value is shown by
    ``reprlib.repr``, so a deep or long one prints abridged.
    """
    try:
        row = tuple(values)
    except TypeError:
        raise ValidationError(f"{what} must be a list of integers, got {reprlib.repr(values)}")
    lo, hi = (0, bound) if bound is not None else (-inf, inf)
    for v in row:
        if type(v) is not int or not lo <= v < hi:
            if type(v) is not int:
                raise ValidationError(f"{what} entry {reprlib.repr(v)} is not an integer")
            raise ValidationError(f"{what} values must lie in 0..{bound - 1}, got {v}")
    return row


def _check_order_bound(order: int) -> None:
    """Reject a group order above MAX_GROUP_ORDER, before anything of that size is built."""
    if order > MAX_GROUP_ORDER:
        raise BoundExceededError(f"group order {order} exceeds supported bound {MAX_GROUP_ORDER}")


def verify_group(
    cayley: Sequence[Sequence[int]], generators: Optional[Sequence[int]] = None
) -> list[GroupViolation]:
    """Check the group axioms on a candidate Cayley table.

    Returns every violation found (up to VIOLATION_CAP); an empty list means
    the table is a group and, if generators were supplied, that they generate
    it. Entries and generators that are not integers, and tables above
    MAX_GROUP_ORDER, are input errors and raise instead.

    Associativity is decided by Light's test (Clifford & Preston, *The
    Algebraic Theory of Semigroups* I, 1961, §1.2). Let Z be the set of z
    with (x y) z = x (y z) for every x and y. A two-sided identity e is in Z,
    since (x y) e = x y = x (y e). Z is closed under products: for z1, z2 in
    Z, (x y)(z1 z2) = ((x y) z1) z2 = (x (y z1)) z2 = x ((y z1) z2)
    = x (y (z1 z2)). So when the table has a two-sided identity, the triples
    with z in S suffice, where S is a set from which right multiplication
    reaches every element (:func:`_greedy_reach_set`): that is |S|·n² steps,
    |S| <= log2(n) on a group, instead of n³. Without an identity, or when
    some triple with z in S fails, the full (x, y, z) scan runs, so the list
    of violations is that of the full scan for every table.
    """
    rows = int_table(cayley, "cayley")
    gens = int_row(generators, "generators") if generators is not None else None
    return _group_violations(rows, gens)[0]


def _group_violations(
    cayley: tuple[tuple[int, ...], ...], gens: Optional[tuple[int, ...]]
) -> tuple[list[GroupViolation], Optional[int], Optional[tuple]]:
    """:func:`verify_group` on integer entries, with the identity found or None
    and the walk that Light's test read S from (:func:`_greedy_reach_set`),
    or None; on a table without violations both are found."""
    _check_order_bound(len(cayley))
    out: list[GroupViolation] = []
    n = len(cayley)
    if n == 0:
        return [GroupViolation("shape", (), "table is empty")], None, None
    for i, row in enumerate(cayley):
        if len(row) != n:
            return [GroupViolation("shape", (i,), f"row {i} has length {len(row)}, expected {n}")], None, None
        for j, v in enumerate(row):
            if not (0 <= v < n):
                return [GroupViolation("shape", (i, j), f"entry [{i}][{j}]={v!r} out of range 0..{n - 1}")], None, None

    for i in range(n):
        if len(set(cayley[i])) != n:
            out.append(GroupViolation("latin-row", (i,), f"row {i} is not a permutation"))
        if len({cayley[x][i] for x in range(n)}) != n:
            out.append(GroupViolation("latin-column", (i,), f"column {i} is not a permutation"))
        if len(out) >= VIOLATION_CAP:
            return out[:VIOLATION_CAP], None, None

    identity = None
    for e in range(n):
        if all(cayley[e][x] == x and cayley[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        out.append(GroupViolation("identity", (), "no two-sided identity element"))

    if identity is not None:
        for x in range(n):
            if not any(cayley[x][y] == identity and cayley[y][x] == identity for y in range(n)):
                out.append(GroupViolation("inverse", (x,), f"element {x} has no two-sided inverse"))
                if len(out) >= VIOLATION_CAP:
                    return out[:VIOLATION_CAP], identity, None

    walk = _greedy_reach_set(cayley, identity) if identity is not None else None
    if walk is None or not all(_associative_at(cayley, z) for z in walk[0]):
        for x, y, z in product(range(n), repeat=3):
            if cayley[cayley[x][y]][z] != cayley[x][cayley[y][z]]:
                out.append(
                    GroupViolation("associativity", (x, y, z), f"(x*y)*z != x*(y*z) at ({x},{y},{z})")
                )
                if len(out) >= VIOLATION_CAP:
                    return out[:VIOLATION_CAP], identity, walk

    if gens is not None and not out and identity is not None:
        if any(not (0 <= g < n) for g in gens):
            out.append(GroupViolation("generators", gens, "generator index out of range"))
        else:
            reached = 1 + len(generator_steps(cayley, identity, gens))
            if reached != n:
                out.append(
                    GroupViolation("generators", gens, f"generators reach only {reached} of {n} elements")
                )
    return out[:VIOLATION_CAP], identity, walk


def _associative_at(cayley: Sequence[Sequence[int]], z: int) -> bool:
    """(x y) z = x (y z) for every x and y, one whole row x at a time: with
    row = cayley[x] and col[y] = y z, picking col at the entries of row gives
    (x y) z over y, and picking row at the entries of col gives x (y z).

    On one element ``itemgetter`` picks an int, not a tuple; both sides are
    then ints and compare the same way.
    """
    col = [row[z] for row in cayley]
    at_col = itemgetter(*col)
    return all(itemgetter(*row)(col) == at_col(row) for row in cayley)


def generator_steps(
    cayley: Sequence[Sequence[int]], identity: int, gens: Iterable[int]
) -> list[tuple[int, int, int]]:
    """Breadth-first steps (y, x, g) with y = x*g and g in ``gens``: one step
    for every element other than the identity that the generators reach from
    it by right multiplication, and x is the identity or the y of an earlier
    step. In a finite group the identity and the steps' y are the subgroup
    the generators generate.

    Run on raw tables and seed sets; a group keeps the walks of its own
    generators, built once by its check (``FiniteGroup._walk``).
    """
    gens = tuple(gens)
    order = [identity]
    seen = {identity}
    steps = []
    for x in order:  # grows while it is walked: the breadth-first queue
        for g in gens:
            y = cayley[x][g]
            if y not in seen:
                seen.add(y)
                order.append(y)
                steps.append((y, x, g))
    return steps


def _greedy_reach_set(
    cayley: Sequence[Sequence[int]], identity: int
) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...], tuple[tuple[int, ...], ...]]:
    """Elements S, added greedily: the first element that right
    multiplication by S does not yet reach from ``identity``, a two-sided
    identity of the table, until it reaches every element; with the n - 1
    ``generator_steps`` of S and, for j = 0..|S|, the elements that s_1..s_j
    reach, in the order of their steps. Each added element is reached, as
    identity * s = s, so this ends on any such table. On a group S generates
    it, and each element added at least doubles the subgroup reached, so
    |S| <= log2(n).
    """
    n = len(cayley)
    gens: list[int] = []
    steps: list[tuple[int, int, int]] = []
    reach = [(identity,)]
    while len(reach[-1]) < n:
        gens.append(min(set(range(n)).difference(reach[-1])))
        steps = generator_steps(cayley, identity, gens)
        reach.append((identity, *(y for y, _, _ in steps)))
    return tuple(gens), tuple(steps), tuple(reach)


class FiniteGroup:
    """Immutable finite group given by its Cayley table.

    Elements are the indices 0..order-1; ``cayley[x][y]`` is the product x*y.
    Instances are only built through :meth:`from_table` or the preset
    constructors, so the table is always a verified group. ``_walk`` is the
    group's one walk, which ``from_table`` keeps from its check
    (:func:`_greedy_reach_set`): S = :func:`find_generators`, the
    ``generator_steps`` of S and, for each j, the elements of <s_1..s_j>.
    """

    _walk: tuple[tuple[int, ...], tuple[tuple[int, int, int], ...], tuple[tuple[int, ...], ...]]

    def __init__(
        self,
        name: str,
        cayley: tuple[tuple[int, ...], ...],
        identity: int,
        inverse: tuple[int, ...],
        generators: Optional[tuple[int, ...]] = None,
        element_names: Optional[tuple[str, ...]] = None,
    ):
        self.name = name
        self.cayley = cayley
        self.order = len(cayley)
        self.identity = identity
        self.inverse = inverse
        self.generators = generators
        self.element_names = element_names

    @classmethod
    def from_table(
        cls,
        name: str,
        cayley: Sequence[Sequence[int]],
        generators: Optional[Sequence[int]] = None,
        element_names: Optional[Sequence[str]] = None,
    ) -> "FiniteGroup":
        rows = int_table(cayley, "cayley")
        gens = int_row(generators, "generators") if generators is not None else None
        problems, identity, walk = _group_violations(rows, gens)
        if problems:
            summary = "; ".join(v.message for v in problems[:4])
            raise InvalidGroupError(f"{name!r} is not a valid group: {summary}", problems)
        inverse = tuple(row.index(identity) for row in rows)
        try:
            names = tuple(element_names) if element_names is not None else None
        except TypeError:
            raise ValidationError("element_names must be a list of strings")
        if names is not None and len(names) != len(rows):
            raise ValidationError("element_names length does not match group order")
        if names is not None and not all(isinstance(s, str) for s in names):
            raise ValidationError("element_names must be a list of strings")
        group = cls(name, rows, identity, inverse, gens, names)
        group._walk = walk
        return group

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, x: int, g: int) -> int:
        """x g x^-1."""
        return self.cayley[self.cayley[x][g]][self.inverse[x]]

    def comm(self, x: int, y: int) -> int:
        """x y x^-1 y^-1."""
        return self.cayley[self.conj(x, y)][self.inverse[y]]

    def element_name(self, i: int) -> str:
        if self.element_names is not None:
            return self.element_names[i]
        return str(i)

    @cached_property
    def conj_table(self) -> tuple[tuple[int, ...], ...]:
        """conj_table[z][x] = z x z^-1."""
        mul, inv = self.cayley, self.inverse
        return tuple(tuple(mul[mul[z][x]][inv[z]] for x in range(self.order)) for z in range(self.order))

    @cached_property
    def conjugation_pair_minima(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The least pair of each orbit of G on pairs under simultaneous
        conjugation, (x, y) -> (^g x, ^g y), as (x, ys) in increasing x: x is
        the least element of its conjugacy class, and ys, increasing, are the
        y least in their orbit under conjugation by the centralizer of x."""
        n, conj = self.order, self.conj_table
        fixed = conj[self.identity]
        central = [conj[g] == fixed for g in range(n)]
        out = []
        for x in range(n):
            if any(conj[g][x] < x for g in range(n)):
                continue
            centralizer = [c for c in range(n) if conj[c][x] == x]
            seen = bytearray(n)
            ys = []
            for y in range(n):
                if seen[y]:
                    continue
                ys.append(y)
                if not central[y]:
                    for c in centralizer:
                        seen[conj[c][y]] = 1
            out.append((x, tuple(ys)))
        return tuple(out)

    @cached_property
    def _aut_chain(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Aut's strong generators and basic orbit lengths
        (``_stabiliser_chain``), built on first use."""
        return _stabiliser_chain(self)

    @cached_property
    def is_abelian(self) -> bool:
        c = self.cayley
        return all(c[a][b] == c[b][a] for a in range(self.order) for b in range(self.order))

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.cayley[x][a]
            k += 1
        return k

    @cached_property
    def order_profile(self) -> tuple[int, ...]:
        """Sorted multiset of element orders; an isomorphism invariant."""
        return tuple(sorted(self.element_order(a) for a in range(self.order)))


def find_generators(group: FiniteGroup) -> tuple[int, ...]:
    """The generator choice of every algorithm in the package: S of the
    group's walk (:func:`_greedy_reach_set`, ``FiniteGroup._walk``), built
    once per group; a group's declared ``generators`` are metadata that no
    algorithm reads."""
    return group._walk[0]


# ---------------------------------------------------------------------------
# presets


def _check_count(n: int, what: str, least: int) -> None:
    """Reject a preset parameter that is not an int (a bool is not) or is below ``least``."""
    if type(n) is not int:
        raise ValidationError(f"{what} must be an integer, got {reprlib.repr(n)}")
    if n < least:
        raise ValidationError(f"{what} must be >= {least}, got {n}")


def make_cyclic(n: int) -> FiniteGroup:
    """Z_n with element i = residue class i and identity 0."""
    _check_count(n, "cyclic order", 1)
    _check_order_bound(n)
    cayley = [[(i + j) % n for j in range(n)] for i in range(n)]
    gens = (1,) if n > 1 else ()
    names = tuple(str(i) for i in range(n))
    return FiniteGroup.from_table(f"Z{n}", cayley, generators=gens, element_names=names)


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n on <a, b | a^2 = b^n = 1, a b = b^-1 a>.

    Element b^i a^j is index j*n + i, so b = 1 and a = n.
    """
    _check_count(n, "dihedral index", 2)
    size = 2 * n
    _check_order_bound(size)

    def enc(i: int, j: int) -> int:
        return (j % 2) * n + (i % n)

    cayley = [[0] * size for _ in range(size)]
    for i, j, k, l in product(range(n), range(2), range(n), range(2)):
        s = 1 if j == 0 else -1
        cayley[enc(i, j)][enc(k, l)] = enc(i + s * k, j + l)
    names = tuple(_power_name("b", i) if j == 0 else _power_name("b", i, "a") for j in range(2) for i in range(n))
    return FiniteGroup.from_table(f"D{n}", cayley, generators=(1, n), element_names=names)


def make_quaternion(n: int) -> FiniteGroup:
    """Generalized quaternion group of order 4n on
    <a, b | a^(2n) = 1, b^2 = a^n, b^-1 a b = a^-1>.

    Element a^i b^j is index j*2n + i, so a = 1 and b = 2n.
    """
    _check_count(n, "quaternion index", 1)
    m = 2 * n
    size = 4 * n
    _check_order_bound(size)

    def enc(i: int, j: int) -> int:
        return (j % 2) * m + (i % m)

    cayley = [[0] * size for _ in range(size)]
    for i, j, k, l in product(range(m), range(2), range(m), range(2)):
        s = 1 if j == 0 else -1
        ii = i + s * k
        jj = j + l
        if jj == 2:
            ii += n
            jj = 0
        cayley[enc(i, j)][enc(k, l)] = enc(ii, jj)
    names = tuple(_power_name("a", i) if j == 0 else _power_name("a", i, "b") for j in range(2) for i in range(m))
    return FiniteGroup.from_table(f"Q{size}", cayley, generators=(1, m), element_names=names)


def _power_name(sym: str, i: int, suffix: str = "") -> str:
    if i == 0:
        return suffix or "1"
    body = sym if i == 1 else f"{sym}^{i}"
    return body + suffix


def pair_index(h: int, x: int, h_order: int) -> int:
    return h + h_order * x


def validate_action_tables(
    H: FiniteGroup, K: FiniteGroup, sigma: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """The one action check, of ``Action.make`` and :func:`make_semidirect`:
    |H||K| <= MAX_GROUP_ORDER, H abelian and sigma a homomorphism
    K -> Aut(H) as per-element tables, returned as int tuples."""
    _check_order_bound(H.order * K.order)
    if not H.is_abelian:
        raise ValidationError("actions are only supported on abelian H")
    rows = int_table(sigma, "sigma", (K.order, H.order), H.order)
    for x, row in enumerate(rows):
        if len(set(row)) != H.order:
            raise ValidationError(f"action table for element {x} is not a permutation of H")
        if not _is_homomorphism(H, H, row):
            raise ValidationError(f"action table for element {x} is not an automorphism of H")
    if rows[K.identity] != tuple(range(H.order)):
        raise ValidationError("action at the identity of K must be the identity map")
    for x, y in product(range(K.order), repeat=2):
        sx = rows[x]
        if tuple(sx[h] for h in rows[y]) != rows[K.cayley[x][y]]:
            raise ValidationError(f"action is not a homomorphism: fails at ({x},{y})")
    return rows


def make_semidirect(
    H: FiniteGroup, K: FiniteGroup, sigma: Sequence[Sequence[int]], name: Optional[str] = None
) -> FiniteGroup:
    """Semidirect product H x| K for an action of K on abelian H.

    Pairs (h, x) are encoded as h + |H|*x and multiply by
    (h, x)(k, y) = (h * sigma_x(k), x y). A trivial action gives the direct
    product table.
    """
    return _pair_product(H, K, validate_action_tables(H, K, sigma), name or f"{H.name}:{K.name}")


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    """Direct product, named AxB, with the same pair encoding as make_semidirect."""
    return _pair_product(A, B, [range(A.order)] * B.order, f"{A.name}x{B.name}")


def _pair_product(
    H: FiniteGroup, K: FiniteGroup, sigma: Sequence[Sequence[int]], name: str
) -> FiniteGroup:
    """The table of the pairs (h, x) = :func:`pair_index` (h, x) under
    (h, x)(k, y) = (h * sigma_x(k), x y), built by rows: row (h, x) is
    H[h][sigma_x(k)] + |H|*K[x][y] over y and then k, one comprehension per
    row. ``from_table`` still checks every product."""
    nH, nK = H.order, K.order
    _check_order_bound(nH * nK)
    cayley = []
    for x in range(nK):
        sx, offsets = sigma[x], [nH * xy for xy in K.cayley[x]]
        for h in range(nH):
            hrow = H.cayley[h]
            cayley.append([hrow[s] + off for off in offsets for s in sx])
    gens = tuple(pair_index(g, K.identity, nH) for g in find_generators(H)) + tuple(
        pair_index(H.identity, g, nH) for g in find_generators(K)
    )
    names = tuple(
        f"({H.element_name(h)},{K.element_name(x)})" for x in range(nK) for h in range(nH)
    )
    return FiniteGroup.from_table(name, cayley, generators=gens, element_names=names)


# ---------------------------------------------------------------------------
# subgroups


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent`` as a sorted tuple of element indices.

    The members are checked on construction: in range, sorted and distinct,
    the identity among them, and closed under products (a finite set closed
    under products is a subgroup), in O(m²) for m members.
    """

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        G, members = self.parent, int_row(self.members, "subgroup member", self.parent.order)
        object.__setattr__(self, "members", members)
        if list(members) != sorted(set(members)):
            raise ValidationError("subgroup members must be sorted and distinct")
        mem = self._member_set
        if G.identity not in mem:
            raise ValidationError("subgroup members must include the identity")
        for a in members:
            row = G.cayley[a]
            for b in members:
                if row[b] not in mem:
                    raise ValidationError(f"subgroup members are not closed under products: {a}*{b} = {row[b]}")

    def __contains__(self, x: int) -> bool:
        return x in self._member_set

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    @property
    def order(self) -> int:
        return len(self.members)

    @cached_property
    def is_normal(self) -> bool:
        G = self.parent
        mem = self._member_set
        return all(G.conj(g, s) in mem for g in range(G.order) for s in self.members)

    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone group, elements re-indexed in member order."""
        G = self.parent
        pos = {m: i for i, m in enumerate(self.members)}
        cayley = [[pos[G.cayley[a][b]] for b in self.members] for a in self.members]
        names = tuple(G.element_name(m) for m in self.members)
        return FiniteGroup.from_table(f"{G.name}-sub{len(self.members)}", cayley, element_names=names)


def subgroup_generated(group: FiniteGroup, seeds: Iterable[int]) -> Subgroup:
    """Closure of the seed set (plus identity) under products and inverses.

    Closing under products with the seeds suffices in a finite group, where
    inverses are positive powers.
    """
    steps = generator_steps(group.cayley, group.identity, set(int_row(seeds, "seed", group.order)))
    return Subgroup(group, tuple(sorted([group.identity] + [y for y, _, _ in steps])))


# ---------------------------------------------------------------------------
# homomorphisms


def _extend_from_generators(
    domain: FiniteGroup,
    codomain: FiniteGroup,
    values: Sequence[int],
    twist: Optional[Sequence[Sequence[int]]] = None,
) -> Optional[tuple[int, ...]]:
    """The map f with f(g_i) = values[i] on the first j = len(values)
    generators g_i of :func:`find_generators` and f(x g) = f(x) twist[x](f(g))
    for every x and each such g, as an image table that is -1 outside
    <g_1..g_j>, or None when there is none. ``twist[x]`` permutes the
    codomain; without it f is a homomorphism, with conjugation (twist[x] = ^x)
    a crossed homomorphism, which is a bracket row by A2.

    The schedule is the domain's walk of <g_1..g_j> (``FiniteGroup._walk``):
    walking its elements in step order, each product x g sets f(x g) if it is
    unset and is checked against it otherwise, so the table is accepted iff
    the rule holds for every x and generator g; for a homomorphism or a
    crossed homomorphism it then holds for every product x w, by induction on
    the length of the word w.
    """
    gens, _, reach = domain._walk
    image = tuple(zip(gens, values))
    mul_d, mul_c = domain.cayley, codomain.cayley
    val = [-1] * domain.order
    val[domain.identity] = codomain.identity
    for g, fg in image:
        val[g] = fg
    for x in reach[len(values)]:
        row, crow = mul_d[x], mul_c[val[x]]
        act = twist[x] if twist is not None else None
        for g, fg in image:
            y, w = row[g], crow[fg if act is None else act[fg]]
            if val[y] == -1:
                val[y] = w
            elif val[y] != w:
                return None
    return tuple(val)


def _is_homomorphism(domain: FiniteGroup, codomain: FiniteGroup, images: Sequence[int]) -> bool:
    """Whether x -> images[x] is a homomorphism, that is, whether
    ``_extend_from_generators`` rebuilds it from its generator images."""
    values = [images[g] for g in find_generators(domain)]
    return _extend_from_generators(domain, codomain, values) == tuple(images)


def _generator_maps(domain: FiniteGroup, codomain: FiniteGroup, bijective: bool) -> Iterator[tuple[int, ...]]:
    """Every homomorphism domain -> codomain as an image table, only the
    bijections when ``bijective``.

    The images of the domain's generators range, in product order, over the
    codomain elements whose order divides the generator's order (equals it
    when ``bijective``).
    """
    orders = [codomain.element_order(y) for y in range(codomain.order)]
    cand = []
    for g in find_generators(domain):
        og = domain.element_order(g)
        cand.append([y for y, oy in enumerate(orders) if (oy == og if bijective else og % oy == 0)])
    for images in product(*cand):
        ext = _extend_from_generators(domain, codomain, images)
        if ext is not None and (not bijective or len(set(ext)) == domain.order == codomain.order):
            yield ext


def homomorphisms(domain: FiniteGroup, codomain: FiniteGroup) -> list[tuple[int, ...]]:
    """All homomorphisms domain -> codomain as image tables, sorted."""
    return sorted(_generator_maps(domain, codomain, False))


def automorphisms(group: FiniteGroup) -> list[tuple[int, ...]]:
    """All automorphisms as image tables, sorted, so the identity map comes first."""
    return sorted(_generator_maps(group, group, True))


def automorphism_generators(group: FiniteGroup) -> list[tuple[int, ...]]:
    """A generating set of Aut(group) as image tables, sorted and
    irredundant: the strong generators of the stabiliser chain whose base is
    ``find_generators(group)`` (``_stabiliser_chain``), built once per group
    without listing Aut.

    No map lies in the subgroup that the maps before it generate, and the
    identity is never kept, so a group with no automorphism but the identity
    has none.
    """
    return list(group._aut_chain[0])


def automorphism_count(group: FiniteGroup) -> int:
    """|Aut(group)|, without listing Aut: the product of the basic orbit
    lengths of the stabiliser chain (``_stabiliser_chain``)."""
    return prod(group._aut_chain[1])


def _stabiliser_chain(group: FiniteGroup) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Strong generators of Aut(group), sorted, and the basic orbit lengths
    of the stabiliser chain on the base S = ``find_generators(group)`` =
    (s_1, ..., s_k) (Holt, Eick & O'Brien, *Handbook of Computational Group
    Theory*, 2005, §4.4), searched along the walks of <s_1..s_j> that the
    group's check kept (``FiniteGroup._walk``).

    Let A_i be the automorphisms that fix s_1..s_i: Aut = A_0 >= A_1 >= ...
    >= A_k = 1, the last since S generates the group. The levels are worked
    from i = k down to 1, and on entering level i the maps found so far
    generate A_i. The orbit of s_i under them is closed, and for each
    candidate y outside it (an element with the invariants of s_i,
    ``_aut_invariants``) one automorphism that fixes s_1..s_{i-1} and sends
    s_i to y is searched for (``_aut_search``). A hit joins the maps and the
    orbit is closed again; a miss rules out the orbit of y under the maps
    found, since a found h with h(y) = y' and some f in A_{i-1} with
    f(s_i) = y' would give h^-1 f sending s_i to y. At the end of the level
    the orbit is the basic orbit s_i^A_{i-1}, so the maps generate A_{i-1}
    (a map g of A_{i-1} sends s_i where some generated h does, and h^-1 g
    lies in A_i), and |A_{i-1}| = |orbit| |A_i|.

    Every element below s_i lies in <s_1..s_{i-1}> (``find_generators`` is
    greedy), so a map found at level i agrees with the identity below s_i and
    sends s_i to some y > s_i, while the maps of deeper levels fix s_i.
    Found from level k up, and within a level at increasing y, the maps come
    sorted, and each sends s_i outside the orbit that the maps before it
    reach.
    """
    base = find_generators(group)
    kind = _aut_invariants(group)
    cands = [[y for y in range(group.order) if kind[y] == kind[s]] for s in base]
    maps: list[tuple[int, ...]] = []
    lengths = []
    for i in reversed(range(len(base))):
        orbit = _orbit_of(base[i], maps)
        missed: set[int] = set()
        for y in cands[i]:
            if y in orbit or y in missed:
                continue
            phi = _aut_search(group, kind, cands, [*base[:i], y])
            if phi is None:
                missed |= _orbit_of(y, maps)
            else:
                maps.append(phi)
                orbit = _orbit_of(base[i], maps)
        lengths.append(len(orbit))
    return tuple(maps), tuple(lengths)


def _aut_invariants(group: FiniteGroup) -> list[int]:
    """Per element, a number that every automorphism keeps: the index, in
    order of first occurrence, of its order, the size of its centralizer and
    its number of square roots."""
    n, mul = group.order, group.cayley
    roots = [0] * n
    for y in range(n):
        roots[mul[y][y]] += 1
    keys = [(group.element_order(x), sum(mul[x][y] == mul[y][x] for y in range(n)), roots[x]) for x in range(n)]
    index: dict[tuple[int, int, int], int] = {}
    return [index.setdefault(key, len(index)) for key in keys]


def _orbit_of(point: int, maps: Sequence[tuple[int, ...]]) -> set[int]:
    """The orbit of ``point`` under the group the maps generate."""
    orbit, frontier = {point}, [point]
    for x in frontier:  # grows while it is walked
        for phi in maps:
            if phi[x] not in orbit:
                orbit.add(phi[x])
                frontier.append(phi[x])
    return orbit


def _aut_search(
    group: FiniteGroup,
    kind: list[int],
    cands: list[list[int]],
    images: list[int],
) -> Optional[tuple[int, ...]]:
    """An automorphism sending the base element s_j to images[j] for each
    j < len(images) and the rest of the base to candidates (``cands``),
    tried in increasing order depth-first, or None.

    An assignment to s_1..s_j is dropped as soon as it is no injective
    homomorphism on <s_1..s_j> that keeps the invariants ``kind``: the
    generator kernel ``_extend_from_generators`` builds it along the group's
    walk of <s_1..s_j>. At j = k that walk is the whole group's, and a map
    kept there is a bijective endomorphism.
    """
    j = len(images)
    phi = _extend_from_generators(group, group, images)
    elements = group._walk[2][j]
    if phi is None or len({phi[x] for x in elements}) < len(elements):
        return None
    if any(kind[phi[x]] != kind[x] for x in elements):
        return None
    if j == len(cands):
        return phi
    for y in cands[j]:
        phi = _aut_search(group, kind, cands, [*images, y])
        if phi is not None:
            return phi
    return None


def endomorphism_count(group: FiniteGroup) -> int:
    """|End(H)| of an abelian group, without enumerating: the product of
    gcd(d_i, d_j) over all pairs of invariant factors, since Hom(Z_a, Z_b)
    has gcd(a, b) elements."""
    factors = invariant_factors(group)
    return prod(gcd(a, b) for a in factors for b in factors)


def is_isomorphic(a: FiniteGroup, b: FiniteGroup) -> Optional[tuple[int, ...]]:
    """An explicit isomorphism a -> b as an image table, or None."""
    if a.order != b.order or a.is_abelian != b.is_abelian or a.order_profile != b.order_profile:
        return None
    return next(_generator_maps(a, b, True), None)


def invariant_factors(group: FiniteGroup) -> tuple[int, ...]:
    """Invariant factor chain d1 | d2 | ... of an abelian group, ascending.

    A finite abelian group is fixed up to isomorphism by how many of its
    elements have each order, so the chain is the one, of product |G|, whose
    cyclic product has the group's ``order_profile``: the same count of
    elements x with x^m = 1 for each divisor m of |G|, which in
    Z_d1 x Z_d2 x ... is the product of the gcd(m, d_i).
    """
    if not group.is_abelian:
        raise ValidationError("invariant factors only defined for abelian groups")
    n = group.order
    counts = {m: sum(1 for o in group.order_profile if m % o == 0) for m in range(1, n + 1) if n % m == 0}

    def chains(rest: int, low: int) -> Iterator[tuple[int, ...]]:
        """Chains low | d1 | d2 | ... of factors above 1 with product ``rest``."""
        if rest == 1:
            yield ()
        for d in range(max(low, 2), rest + 1):
            if rest % d == 0 and d % low == 0:
                yield from ((d, *tail) for tail in chains(rest // d, d))

    return next(c for c in chains(n, 1) if all(prod(gcd(m, d) for d in c) == k for m, k in counts.items()))


def abelian_label(group: FiniteGroup) -> str:
    factors = invariant_factors(group)
    if not factors:
        return "Z1"
    return "x".join(f"Z{d}" for d in factors)


def identify_small_group(group: FiniteGroup) -> str:
    """Match against the preset catalog: cyclics and their products (via
    abelian invariants), dihedral and quaternion groups. Anything else is
    reported with its order profile."""
    if group.order == 1:
        return "Z1"
    if group.is_abelian:
        return abelian_label(group)
    if group.order % 2 == 0 and group.order >= 6:
        n = group.order // 2
        if is_isomorphic(group, make_dihedral(n)) is not None:
            return f"D{n}"
    if group.order % 4 == 0 and group.order >= 8:
        if is_isomorphic(group, make_quaternion(group.order // 4)) is not None:
            return f"Q{group.order}"
    profile = ",".join(str(o) for o in group.order_profile)
    return f"unidentified order-{group.order} group (orders {profile})"
