"""Exhaustive enumeration engines for brackets, gamma families, pairing maps
and induced structures, with classification up to equivalence.

Every table here is fixed by its values at generators. One seed walk,
``_SeedWalk``, finds both brackets and pairing tables from their values on
the generator pairs a < b; ``enumerate_gamma`` ranges over Gamma at the
generators of K. Each extends its values along the group's one walk
(``FiniteGroup._walk``, built once per group) and checks the result in full.

Equivalence for counting: two brackets on the same group are one structure
when an automorphism carries one to the other or to its argument reversal
(y*x = (x*y)^-1 in any valid bracket, so reversal is a canonical involution),
that is, when one's table lies in the other's ``brackets.bracket_orbit``.
Classification sweeps the sorted tables once and marks each orbit as it
goes, so it serves both closed sets (every bracket on a group) and sets
that Aut does not preserve (induced brackets with a fixed split). Each
orbit is closed under reversal and the strong generators of Aut's
stabiliser chain (``groups.automorphism_generators``, built once per group
without listing Aut), on tables keyed as ``bytes`` (``brackets._orbit_keys``,
the loop ``bracket_orbit`` runs too), so its cost follows the orbit's size,
not |Aut|.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, product
from math import gcd
from typing import Iterable, Optional, Sequence

from .brackets import (
    LieBracket,
    _is_mla,
    _keeps_ideal,
    _orbit_keys,
    _orbit_moves,
    _Ranges,
    _reduced_ranges,
    _Table,
    _table_key,
    end_mla,
    is_ideal,
    verify_mla,
)
from .construction import (
    Action,
    ConstructionData,
    GammaMap,
    PairingMap,
    check_gamma_identities,
    decompose_bracket,
    semidirect_product,
    split_factor_subgroup,
)
from .errors import BoundExceededError, ValidationError
from .groups import (
    HARD_ORDER_CAP,
    FiniteGroup,
    Subgroup,
    _extend_from_generators,
    automorphism_generators,
    find_generators,
    homomorphisms,
)

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the enumeration engines. ``require_ideal`` keeps only the
    brackets for which the subgroup is an ideal in the sense of
    ``brackets.is_ideal``, so a subgroup that is not normal finds none."""

    max_group_order: int = 12
    require_ideal: Optional[Subgroup] = None
    up_to_iso: bool = False
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        for name in ("max_group_order", "node_budget"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValidationError(f"{name} must be an integer")
            if value < 1:
                raise ValidationError(f"{name} must be positive")
        if type(self.up_to_iso) is not bool:
            raise ValidationError("up_to_iso must be a bool")
        if self.require_ideal is not None and not isinstance(self.require_ideal, Subgroup):
            raise ValidationError("require_ideal must be a Subgroup or None")


@dataclass(frozen=True)
class EnumerationResult:
    """Items in canonical order plus raw and per-class counts.

    exhausted is False exactly when the node budget cut the search short; the
    items and counts then describe a partial enumeration.
    """

    items: tuple[LieBracket, ...]
    raw_count: int
    class_count: Optional[int]
    exhausted: bool


class _BudgetExhausted(Exception):
    pass


class _SeedWalk:
    """Depth-first walk over the seeds of a table on ``group`` with entries
    in ``values``: the cells (a, b) of generator pairs with a before b in
    ``find_generators``, in lexicographic order, each tried at every value
    (one node of the budget each). The diagonal holds the identity, and v
    at (a, b) puts reverse[a, b][v] at (b, a). Once the seeds set a
    generator row's values at the generators, the row is extended along the
    steps by a(x g) = a(x) . twists[a][x](a(g)) (``_extend_from_generators``)
    and dropped when it does not close or ``_keep_row`` rejects it. At the
    leaf ``_step`` fills each other row y = x g from the rows x and g, and
    the table is kept when ``_accept`` passes it. Subclasses set these rules.

    Every valid table is reached: it holds its seed values, and they fix it,
    since its generator rows follow from their values at the generators by
    the twisted rule and ``_step`` builds every other row from those. Each
    prune is an instance of a rule the table satisfies, so no valid table
    is pruned. Distinct seed values give distinct tables.
    """

    def __init__(self, group: FiniteGroup, values: FiniteGroup, budget: float):
        self.group, self.values, self.budget = group, values, budget
        self.nodes = 0
        self.results: list[_Table] = []
        self.exhausted = True
        self.gens = gens = find_generators(group)
        # the first steps, (g, 1, g) for each generator g, are the generator rows
        self.row_steps = group._walk[1][len(gens):]
        self.seeds = list(combinations(gens, 2))
        # rows_after[m]: the generator rows whose values at the generators
        # the first m seeds complete
        self.rows_after: list[list[int]] = [[] for _ in range(len(self.seeds) + 1)]
        for a in gens:
            self.rows_after[max((m + 1 for m, s in enumerate(self.seeds) if a in s), default=0)].append(a)
        self.cell = {(a, a): values.identity for a in gens}
        self.rows: dict[int, tuple[int, ...]] = {}

    def run(self) -> None:
        try:
            self._dfs(0)
        except _BudgetExhausted:
            self.exhausted = False

    def _dfs(self, m: int) -> None:
        if not all(self._complete_row(a) for a in self.rows_after[m]):
            return
        if m == len(self.seeds):
            self._leaf()
            return
        a, b = self.seeds[m]
        for v in range(self.values.order):
            self.nodes += 1
            if self.nodes > self.budget:
                raise _BudgetExhausted
            self.cell[a, b] = v
            self.cell[b, a] = self.reverse[a, b][v]
            self._dfs(m + 1)

    def _complete_row(self, a: int) -> bool:
        values = [self.cell[a, g] for g in self.gens]
        row = _extend_from_generators(self.group, self.values, values, self.twists[a])
        if row is None or not self._keep_row(a, row):
            return False
        self.rows[a] = row
        return True

    def _leaf(self) -> None:
        n = self.group.order
        table = [self.rows.get(y, ()) for y in range(n)]
        table[self.group.identity] = (self.values.identity,) * n
        for y, x, g in self.row_steps:
            table[y] = self._step(x, g, table[x], table[g])
        done = tuple(table)
        if self._accept(done):
            self.results.append(done)

    def _keep_row(self, a: int, row: tuple[int, ...]) -> bool:
        return True


class _StarTableSearch(_SeedWalk):
    """Brackets on a group: the reversal b*a = (a*b)^-1 of any valid bracket;
    generator rows twisted by conjugation, a*(x g) = (a*x) ^x(a*g) (A2), and
    dropped when ^z(a*y) = a * ^z y fails for a generator z with ^z a = a
    (A5) or ``brackets._keeps_ideal`` fails for ``require_ideal``; A3 on
    the other rows, (x g)*z = ^x(g*z) (x*z); a table is kept when every row
    keeps the ideal rule and ``brackets._is_mla`` passes it (A1-A5, A4
    first) on the group's reduced ranges, built once per search.
    """

    def __init__(self, group: FiniteGroup, config: SearchConfig):
        super().__init__(group, group, config.node_budget)
        ideal = config.require_ideal
        self.ideal = None if ideal is None else ideal._member_set
        conj, fixed = group.conj_table, group.conj_table[group.identity]
        self.reverse = dict.fromkeys(self.seeds, group.inverse)
        self.twists = dict.fromkeys(self.gens, conj)
        # a central z adds no condition
        self.a5 = {a: [conj[z] for z in self.gens if conj[z][a] == a and conj[z] != fixed] for a in self.gens}
        self.ranges = _reduced_ranges(group)

    def _step(self, x: int, g: int, rx: tuple[int, ...], rg: tuple[int, ...]) -> tuple[int, ...]:
        mul, cx = self.group.cayley, self.group.conj_table[x]
        return tuple(mul[cx[rg[z]]][rx[z]] for z in range(self.group.order))

    def _keep_row(self, a: int, row: tuple[int, ...]) -> bool:
        ideal_kept = self.ideal is None or _keeps_ideal(self.ideal, a, row)
        return ideal_kept and all(c[row[y]] == row[c[y]] for c in self.a5[a] for y in range(len(row)))

    def _accept(self, table: _Table) -> bool:
        ideal_kept = self.ideal is None or all(_keeps_ideal(self.ideal, x, row) for x, row in enumerate(table))
        return ideal_kept and _is_mla(self.group, table, self.ranges)


def _classify(group: FiniteGroup, tables: Sequence[_Table]) -> list[_Table]:
    """Class representatives, the lex-least member per class, one per class.

    ``tables`` must be sorted and distinct; it need not be closed under
    Aut or reversal. The sweep makes each table not yet assigned a
    representative and assigns every member of its orbit found in the set.
    A smaller member of the same class would have been swept first, so
    each representative is the least member of its class. Orbits are
    closed on byte keys (``brackets._orbit_keys``) under reversal and the
    strong generators of Aut's stabiliser chain.
    """
    moves = _orbit_moves(group.order, automorphism_generators(group))
    keys = [_table_key(t) for t in tables]
    unassigned = set(keys)
    reps = []
    for t, key in zip(tables, keys):
        if key in unassigned:
            reps.append(t)
            unassigned.difference_update(_orbit_keys(key, moves))
    return reps


def _result(group: FiniteGroup, found: Iterable[_Table], up_to_iso: bool, exhausted: bool) -> EnumerationResult:
    """The result of a search that found the tables ``found`` on ``group``."""
    tables = sorted(set(found))
    reps = _classify(group, tables)
    return EnumerationResult(
        items=tuple(LieBracket(group, t) for t in (reps if up_to_iso else tables)),
        raw_count=len(tables),
        class_count=len(reps),
        exhausted=exhausted,
    )


def _inner(config: SearchConfig) -> SearchConfig:
    """The config of a search that another search runs: every table it
    finds, with no ideal required."""
    return replace(config, up_to_iso=False, require_ideal=None)


def enumerate_brackets(group: FiniteGroup, config: Optional[SearchConfig] = None) -> EnumerationResult:
    """All bracket structures on the group, complete and duplicate-free.

    With up_to_iso the items are class representatives; raw_count always
    reports the total number of distinct tables found. With require_ideal
    only the brackets for which it is an ideal (``is_ideal``) are found: none
    when it is not normal.
    """
    config = config or SearchConfig()
    if group.order > HARD_ORDER_CAP:
        raise BoundExceededError(f"bracket enumeration capped at order {HARD_ORDER_CAP}")
    if group.order > config.max_group_order:
        raise BoundExceededError(
            f"group order {group.order} exceeds configured max_group_order {config.max_group_order}"
        )
    ideal = config.require_ideal
    if ideal is not None and ideal.parent.cayley != group.cayley:
        raise ValidationError("require_ideal is not a subgroup of the target group")
    if ideal is not None and not ideal.is_normal:
        return _result(group, [], config.up_to_iso, True)
    search = _StarTableSearch(group, config)
    search.run()
    return _result(group, search.results, config.up_to_iso, search.exhausted)


def _check_parts(H: FiniteGroup, K: FiniteGroup, action: Action) -> None:
    if action.H.cayley != H.cayley or action.K.cayley != K.cayley:
        raise ValidationError("action does not match H and K")


def enumerate_gamma(
    H: FiniteGroup, K: FiniteGroup, action: Action, star_k: LieBracket
) -> list[GammaMap]:
    """All endomorphism families passing check_gamma_identities, enumerated by
    generator images over End(H) and extended along the steps of K's walk by
    G1, Gamma_{x g} = Gamma_x . sigma_x Gamma_g."""
    _check_parts(H, K, action)
    endos = homomorphisms(H, H)
    gens, steps, _ = K._walk
    # the first steps, (g, 1, g) for each generator g, set the generators' values
    row_steps = steps[len(gens):]
    zero = (H.identity,) * H.order
    mul_h = H.cayley
    sig = action.sigma
    found = []
    for images in product(endos, repeat=len(gens)):
        gamma: list[tuple[int, ...]] = [zero] * K.order
        for g, image in zip(gens, images):
            gamma[g] = image
        for y, x, g in row_steps:
            gx, gg, sx = gamma[x], gamma[g], sig[x]
            gamma[y] = tuple(mul_h[gx[h]][sx[gg[h]]] for h in range(H.order))
        candidate = GammaMap(H, K, tuple(gamma))
        if not check_gamma_identities(action, candidate, star_k, max_violations=1):
            found.append(candidate)
    found.sort(key=lambda gm: gm.gamma)
    return found


class _PairingWalk(_SeedWalk):
    def __init__(self, action: Action, star_k: LieBracket, budget: int):
        super().__init__(action.K, action.H, budget)
        K, inv_h = action.K, action.H.inverse
        self.sig, self.star = sig, star = action.sigma, star_k.star
        self.reverse = {(a, b): [inv_h[v] for v in sig[K.inverse[star[a][b]]]] for a, b in self.seeds}
        self.twists = {a: [sig[K.cayley[star[a][x]][x]] for x in range(K.order)] for a in self.gens}

    def _step(self, x: int, g: int, bx: tuple[int, ...], bg: tuple[int, ...]) -> tuple[int, ...]:
        mul_h, sig, cx, sg = self.values.cayley, self.sig, self.group.conj_table[x], self.star[g]
        return tuple(mul_h[sig[x][bg[z]]][sig[cx[sg[z]]][bx[z]]] for z in range(self.group.order))

    def _accept(self, b: _Table) -> bool:
        mul_h, mul_k, conj_k = self.values.cayley, self.group.cayley, self.group.conj_table
        sig, star = self.sig, self.star
        return all(
            b[x][mul_k[y][z]] == mul_h[b[x][y]][sig[mul_k[star[x][y]][y]][b[x][z]]]
            and b[conj_k[z][x]][conj_k[z][y]] == sig[z][b[x][y]]
            for z in self.gens
            for x, y in product(range(self.group.order), repeat=2)
        )


def enumerate_pairings(
    H: FiniteGroup, K: FiniteGroup, action: Action, star_k: LieBracket
) -> list[PairingMap]:
    """Alternating pairing tables compatible with the induction conditions.

    Setting h = k = l = 1 in the two-sided expansions C3, C4 and C6 leaves
    constraints on beta alone:

      T1  beta(x y, z) = sigma_x(beta(y, z)) sigma_{^x(y*z)}(beta(x, z))
      T2  beta(x, y z) = beta(x, y) sigma_{(x*y) y}(beta(x, z))
      T3  beta(^z x, ^z y) = sigma_z(beta(x, y))

    star_k must pass A1-A5 on K, or ValidationError is raised. Then, with
    [x, y] = (beta(x, y), x*y) in H x| K and ^x conjugation by (1, x), T1-T3
    are A3, A2 and A5 of [ , ], and C1 (beta is 1 at (x, 1), (1, x) and
    (x, x)) is A1 with [x, 1] = [1, x] = 1. C1, T1 and T2 give the
    reversal R, [y, x] = [x, y]^-1 or beta(y, x) = sigma_{(x*y)^-1}(beta(x, y))^-1,
    as 1 = [x y, x y] = ^x[y, x y] [x, x y] = ^x([y, x] [x, y]).

    ``_PairingWalk`` runs the seed walk: R at generator pairs, T2 on
    generator rows (twist sigma_{(a*x) x}), T1 along the steps. It keeps a
    table when T2 and T3 hold at each (x, y, z) with z a generator, so at
    every z (the A2 and A5 arguments in ``brackets``). C1 and T1 follow:

    - R: [1, w] = 1 as row 1 is zero, and T2 at (w, 1, 1) gives [w, 1] = 1.
      On a step (x g, x, g), T1 and T2 give [x g, w] = ^x[g, w] [x, w] and
      [w, x g] = [w, x] ^x[w, g], so R at (x, w) and (g, w) gives it at
      (x g, w). The walk sets R at generator pairs; R is symmetric, so by
      this induction it holds at (g, w) for every w, then everywhere.
    - T1: [x y, z] = [z, x y]^-1 = ([z, x] ^x[z, y])^-1 = ^x[y, z] [x, z].
    - C1 at (x, x) holds at 1 and at the generators, and along a step T1
      and T2 give [x g, x g] = ^x[g, x] [x, x] ^x[x, g], 1 by R and [x, x] = 1.

    The walk here has the default node budget, which it never reaches: it
    tries |H| values at each of C(|S_K|, 2) seeds, so it takes at most
    |H| + |H|^2 + ... + |H|^C(|S_K|, 2) nodes, 5 460 when |H| |K| <= 64 (the
    bound of ``Action.make``; the most is at |H| = 4 and K = Z2^4).
    ``enumerate_induced`` gives the walk its config's budget.
    """
    _check_parts(H, K, action)
    if star_k.group.cayley != K.cayley:
        raise ValidationError("star_k is not a bracket on K")
    if verify_mla(K, star_k, max_violations=1):
        raise ValidationError("star_k is not a verified bracket on K")
    return _pairings(action, star_k, DEFAULT_NODE_BUDGET)[0]


def _pairings(action: Action, star_k: LieBracket, budget: int) -> tuple[list[PairingMap], bool]:
    """The one run of ``_PairingWalk``: its tables as pairing maps, sorted,
    and whether it ended within ``budget`` nodes. star_k must pass A1-A5."""
    walk = _PairingWalk(action, star_k, budget)
    walk.run()
    return [PairingMap(action.H, action.K, t) for t in sorted(walk.results)], walk.exhausted


def enumerate_tuples(action: Action, star_k: LieBracket) -> list[ConstructionData]:
    """The tuples (star_k, Gamma, beta) on the action that pass C1-C6, in the
    order of ``enumerate_gamma``, then of ``enumerate_pairings``, which
    verifies star_k once for all of them.

    A tuple is kept when its induced table passes ``brackets._is_mla``:

    - C1 holds for every beta from ``enumerate_pairings`` (proof there).
    - C2 holds for every Gamma from ``enumerate_gamma``, which keeps the
      families that pass ``check_gamma_identities``, and that is C2.
    - So a tuple passes C1-C6 exactly when it passes C3-C6, which are A3,
      A2, A4 and A5 of the induced table.
    - A1 of the induced table follows, so A1-A5 hold exactly when C3-C6 do:
      [(h,x),(h,x)] = (h^2 Gamma_x(h) sigma_{x*x}(h^-2 Gamma_x(h^-1))
      beta(x,x), x*x) = 1, since x*x = 1, sigma_1 = id, beta(x,x) = 1,
      Gamma_x is an endomorphism and H is abelian.

    ``_is_mla`` decides A2-A5 at the affine points of H (``_affine_points``):
    the free arguments whose H-coordinates are all 1 but at most one, which
    is a generator of H. Write H additively and the product's elements as
    (h, x). Then (h, x)(k, y) = (h + sigma_x(k), x y), and the bracket is

      [(h, x), (k, y)] = (h + k + Gamma_x(k) - sigma_{x*y}(h + k + Gamma_y(h))
                          + beta(x, y),  x*y).

    Fix an axiom's other arguments and the K-coordinates of its free ones.
    Each sigma_x is an automorphism and each Gamma_x an endomorphism of the
    abelian H, and beta does not depend on h, so a product, an inverse, a
    conjugate or a bracket of elements whose K-coordinates are fixed and
    whose H-coordinates are affine maps of the free H-coordinates is again
    such an element. Both sides of A2-A5 are then elements with fixed
    K-parts and H-parts f, g: H^m -> H affine. If the K-parts differ, the
    axiom fails at every point. Else f - g = c + L with L additive, and
    f = g everywhere exactly when c = 0 and L vanishes on the generators of
    H^m (one coordinate a generator of H, the others 0): exactly when f = g
    at 0 and at those generators. So, on the reduced ranges of ``brackets``:

    - A2 and A5: x and y free, z over the generators of the product (the
      non-central ones for A5);
    - A3: x over the generators, y and z free;
    - A4: J(x, y, z) = 1 with all three free, on the K-triples (a, b, c)
      with a <= b and a <= c: J = 1 at (X, Y, Z) exactly when it is 1 at
      (Y, Z, X), and rotating a triple of K-coordinates rotates its point
      set onto the point set of the rotated triple. On an abelian product
      ``_is_mla`` keeps its generator triples, which are fewer.

    Every row of ``enumerate_gamma`` is an endomorphism: it extends
    endomorphisms at the generators of K by Gamma_{x g} = Gamma_x .
    sigma_x Gamma_g, a pointwise product of endomorphisms of the abelian H.
    A ``GammaMap`` built without ``make`` need not have such rows, and then
    the points need not decide the axioms.
    """
    betas = enumerate_pairings(action.H, action.K, action, star_k)
    return _kept_tuples(action, star_k, betas, _affine_points(action))


def _affine_points(action: Action) -> _Ranges:
    """The reduced ranges of ``enumerate_tuples``' decision: those of the
    product (``brackets._reduced_ranges``) with the free pairs and the free
    triples at the elements whose K-coordinates are any (x, y), or any
    (x, y, z) with x <= y and x <= z, and whose H-coordinates are all 1 but
    at most one, which is a generator of H."""
    H, K = action.H, action.K
    e, nH, nK = H.identity, H.order, K.order
    hs = (e, *find_generators(H))

    def after(*taken: int) -> tuple[int, ...]:
        """The H-coordinates of the next free argument: 1 or a generator
        while the earlier ones are all 1, else 1."""
        return hs if all(h == e for h in taken) else (e,)

    pairs = tuple(
        (h + nH * x, tuple(k + nH * y for k in after(h) for y in range(nK))) for x in range(nK) for h in hs
    )
    triples = tuple(
        (
            h + nH * a,
            tuple(
                (k + nH * b, tuple(l + nH * c for l in after(h, k) for c in range(a, nK)))
                for b in range(a, nK)
                for k in after(h)
            ),
        )
        for a in range(nK)
        for h in hs
    )
    return _reduced_ranges(action.product_group, pairs, triples)


def _kept_tuples(
    action: Action, star_k: LieBracket, betas: list[PairingMap], ranges: _Ranges
) -> list[ConstructionData]:
    """The tuples of ``enumerate_tuples`` for the given betas."""
    tuples = (
        ConstructionData(action, star_k, gamma, beta)
        for gamma in enumerate_gamma(action.H, action.K, action, star_k)
        for beta in betas
    )
    return [data for data in tuples if _is_mla(action.product_group, data.induced_table, ranges)]


def enumerate_induced(
    H: FiniteGroup,
    K: FiniteGroup,
    action: Action,
    config: Optional[SearchConfig] = None,
) -> EnumerationResult:
    """Induced brackets on H x| K over every (star on K, gamma, beta) tuple
    accepted by the condition checks, deduplicated up to equivalence.

    raw_count equals the number of accepted tuples: distinct tuples always
    induce distinct tables because the components can be read back off the
    table. The search on K and each pairing walk run within the config's
    node budget, and exhausted is False when one of them is cut short.
    ``require_ideal`` is rejected: the induced search has no ideal filter."""
    config = config or SearchConfig()
    if config.require_ideal is not None:
        raise ValidationError("enumerate_induced does not support require_ideal")
    _check_parts(H, K, action)
    base = enumerate_brackets(K, _inner(config))
    ranges = _affine_points(action)
    tables, exhausted = [], base.exhausted
    for star_k in base.items:
        # star_k passed A1-A5 in the search, as _pairings requires
        betas, walked = _pairings(action, star_k, config.node_budget)
        exhausted = exhausted and walked
        tables += (data.induced_table for data in _kept_tuples(action, star_k, betas, ranges))
    return _result(semidirect_product(action), tables, config.up_to_iso, exhausted)


def enumerate_mla_homs(K: FiniteGroup, star_k: LieBracket, H: FiniteGroup) -> list[GammaMap]:
    """Families that respect both operations: group homomorphisms from K into
    (End(H), .) whose bracket behaviour matches the endomorphism structure,
    Gamma_{x*y} = Gamma_x * Gamma_y evaluated in end_mla(H).

    Each family is a GammaMap without ``GammaMap.make``'s check: its rows are
    endomorphisms, and a homomorphism sends 1 to the identity of End(H), the
    zero map."""
    if star_k.group.cayley != K.cayley:
        raise ValidationError("star_k is not a bracket on K")
    end_group, end_bracket = end_mla(H)
    endos = homomorphisms(H, H)
    found = []
    for hom in homomorphisms(K, end_group):
        ok = True
        for x, y in product(range(K.order), repeat=2):
            if hom[star_k.star[x][y]] != end_bracket.star[hom[x]][hom[y]]:
                ok = False
                break
        if ok:
            found.append(GammaMap(H, K, tuple(endos[i] for i in hom)))
    found.sort(key=lambda gm: gm.gamma)
    return found


@dataclass(frozen=True)
class CoprimeReport:
    """Outcome of the coprime-order determination check on H x K."""

    group_order: int
    full_mode: bool
    induced_raw_count: int
    induced_class_count: Optional[int]
    all_have_h_ideal: Optional[bool] = None
    all_beta_trivial: Optional[bool] = None
    counts_consistent: Optional[bool] = None
    exhausted: bool = True

    @property
    def passed(self) -> bool:
        checks = (self.all_have_h_ideal, self.all_beta_trivial, self.counts_consistent)
        return self.exhausted and all(c is not False for c in checks)


def verify_coprime_determination(
    H: FiniteGroup, K: FiniteGroup, config: Optional[SearchConfig] = None
) -> CoprimeReport:
    """For gcd(|H|, |K|) = 1 and the trivial action: every structure on the
    direct product should keep H as an ideal and decompose with a trivial
    pairing. When ``enumerate_brackets`` accepts the product (its order
    limits) the full bracket enumeration is cross-checked against the
    induced one; otherwise only the induced classification is reported.
    Both searches ignore up_to_iso and require_ideal."""
    if gcd(H.order, K.order) != 1:
        raise ValidationError("verify_coprime_determination requires coprime orders")
    inner = _inner(config or SearchConfig())
    action = Action.trivial(H, K)
    induced = enumerate_induced(H, K, action, inner)
    G = semidirect_product(action)
    try:
        full = enumerate_brackets(G, inner)
    except BoundExceededError:
        return CoprimeReport(
            group_order=G.order,
            full_mode=False,
            induced_raw_count=induced.raw_count,
            induced_class_count=induced.class_count,
            exhausted=induced.exhausted,
        )
    h_sub = split_factor_subgroup(action)
    all_ideal = True
    all_beta_trivial = True
    for bracket in full.items:
        if not is_ideal(bracket, h_sub):
            all_ideal = False
            continue
        data = decompose_bracket(action, bracket)
        if not data.beta.is_trivial():
            all_beta_trivial = False
    consistent = {b.star for b in full.items} == {b.star for b in induced.items} and (
        full.class_count == induced.class_count
    )
    return CoprimeReport(
        group_order=G.order,
        full_mode=True,
        induced_raw_count=induced.raw_count,
        induced_class_count=induced.class_count,
        all_have_h_ideal=all_ideal,
        all_beta_trivial=all_beta_trivial,
        counts_consistent=consistent,
        exhausted=full.exhausted and induced.exhausted,
    )


def tau(n: int) -> int:
    """Number of positive divisors of an int n >= 1 (a bool is not an int here)."""
    if type(n) is not int or n < 1:
        raise ValidationError(f"tau requires a positive integer, got {n!r}")
    return sum(1 for d in range(1, n + 1) if n % d == 0)
