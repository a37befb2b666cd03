"""Exhaustive enumeration engines for brackets, gamma families, pairing maps
and induced structures, with classification up to equivalence.

Every table here is fixed by its values at generators. Each engine ranges
over those values, extends each choice along the steps of
``groups.generator_steps`` and checks the result in full:
``_StarTableSearch`` (brackets, seeded on generator pairs a < b),
``enumerate_gamma`` (Gamma at the generators of K) and
``enumerate_pairings`` (beta on generator pairs a < b). The generator rows
of brackets and pairings are extended by the homomorphism kernel,
``groups._extend_from_generators``, twisted to A2 and to T2.

Equivalence for counting: two brackets on the same group are one structure
when an automorphism carries one to the other or to its argument reversal
(y*x = (x*y)^-1 in any valid bracket, so reversal is a canonical involution),
that is, when one's table lies in the other's ``brackets.bracket_orbit``.
Classification sweeps the sorted tables once and marks each orbit as it
goes, so it serves both closed sets (every bracket on a group) and sets
that Aut does not preserve (induced brackets with a fixed split). Each
orbit is found by closure under a generating set of Aut and reversal, so
its cost follows the orbit's size, not |Aut|.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, product
from math import gcd
from typing import Optional, Sequence

from .brackets import (
    LieBracket,
    bracket_orbit,
    end_mla,
    is_ideal,
    verify_mla,
)
from .construction import (
    Action,
    ConstructionData,
    GammaMap,
    PairingMap,
    _c1_failure,
    check_gamma_identities,
    check_theorem_conditions,
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
    endomorphisms,
    find_generators,
    generator_steps,
    homomorphisms,
)

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the enumeration engines."""

    max_group_order: int = 12
    require_ideal: Optional[Subgroup] = None
    up_to_iso: bool = False
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.max_group_order < 1:
            raise ValidationError("max_group_order must be positive")
        if self.node_budget < 1:
            raise ValidationError("node_budget must be positive")


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


class _StarTableSearch:
    """Depth-first walk over the seeds: the cells (a, b) of generator pairs
    with a before b in ``find_generators``, in lexicographic order, each
    tried at every value. Every tried value is one node of the budget.

    A1 (a*a = 1) and the reversal (b*a = (a*b)^-1) give a generator row's
    other values at the generators. Once the seeds have set all of them, the
    row a*y is extended along the generator steps as a crossed homomorphism,
    a*(x g) = (a*x) ^x(a*g) (A2), and rejected when it does not close, when
    ^z(a*y) = a * ^z y fails for a generator z with ^z a = a (A5), or when
    one of its cells breaks the ``require_ideal`` rule (x or y in the ideal
    puts x*y in it). At the leaf every generator row is set; the others are
    filled by A3 along the steps, (x g)*z = ^x(g*z) (x*z), and checked
    against the ideal rule, and the table is checked by ``verify_mla``.

    Every valid table is reached: it holds its seed values, and they fix it,
    since its generator rows are the crossed homomorphisms with its values
    at the generators and A3 builds every other row from the generator rows.
    Each prune on the way is one instance of A2, A5 or the ideal rule, which
    the table satisfies, so no valid table is pruned. Every table kept
    passed ``verify_mla`` and the ideal rule on every cell, and distinct
    seed values give distinct tables.
    """

    def __init__(self, group: FiniteGroup, config: SearchConfig):
        self.group = group
        self.budget = config.node_budget
        self.nodes = 0
        self.ideal = (
            frozenset(config.require_ideal.members) if config.require_ideal is not None else None
        )
        self.results: list[tuple[tuple[int, ...], ...]] = []
        self.exhausted = True
        gens = find_generators(group)
        steps = generator_steps(group.cayley, group.identity, gens)
        self.gens = gens
        self.order = [group.identity] + [y for y, _, _ in steps]
        # the first steps, (g, 1, g) for each generator g, are the generator rows
        self.row_steps = steps[len(gens):]
        self.seeds = list(combinations(gens, 2))
        # rows_after[m]: the generator rows whose values at the generators
        # the first m seeds complete
        self.rows_after: list[list[int]] = [[] for _ in range(len(self.seeds) + 1)]
        for a in gens:
            self.rows_after[max((m + 1 for m, s in enumerate(self.seeds) if a in s), default=0)].append(a)
        conj, fixed = group.conj_table, group.conj_table[group.identity]
        # a central z adds no condition
        self.a5 = {a: [conj[z] for z in gens if conj[z][a] == a and conj[z] != fixed] for a in gens}
        self.cell = {(a, a): group.identity for a in gens}
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
        inv = self.group.inverse
        for v in range(self.group.order):
            self.nodes += 1
            if self.nodes > self.budget:
                raise _BudgetExhausted
            self.cell[a, b] = v
            self.cell[b, a] = inv[v]
            self._dfs(m + 1)

    def _complete_row(self, a: int) -> bool:
        group = self.group
        image = {g: self.cell[a, g] for g in self.gens}
        row = _extend_from_generators(group, group, self.order, image, group.conj_table)
        if row is None or not self._in_ideal(a, row):
            return False
        if any(c[row[y]] != row[c[y]] for c in self.a5[a] for y in range(group.order)):
            return False
        self.rows[a] = row
        return True

    def _in_ideal(self, x: int, row: tuple[int, ...]) -> bool:
        """Whether row x keeps the ideal rule: x or y in the ideal puts x*y in it."""
        ideal = self.ideal
        return ideal is None or all(row[y] in ideal for y in (range(len(row)) if x in ideal else ideal))

    def _leaf(self) -> None:
        group = self.group
        mul, conj, e, n = group.cayley, group.conj_table, group.identity, group.order
        star: list[tuple[int, ...]] = [()] * n
        star[e] = (e,) * n
        for a, row in self.rows.items():
            star[a] = row
        for y, x, g in self.row_steps:
            rx, rg, cx = star[x], star[g], conj[x]
            star[y] = tuple(mul[cx[rg[z]]][rx[z]] for z in range(n))
            if not self._in_ideal(y, star[y]):
                return
        table = tuple(star)
        if not verify_mla(group, table, max_violations=1):
            self.results.append(table)


def _classify(
    group: FiniteGroup, tables: Sequence[tuple[tuple[int, ...], ...]]
) -> tuple[list[tuple[tuple[int, ...], ...]], int]:
    """Class representatives (lex-least member per class) and the class count.

    ``tables`` must be sorted and distinct; it need not be closed under
    Aut or reversal. The sweep makes each table not yet assigned a
    representative and assigns every member of its orbit found in the set.
    A smaller member of the same class would have been swept first, so
    each representative is the least member of its class.
    """
    gens = automorphism_generators(group)
    unassigned = set(tables)
    reps = []
    for t in tables:
        if t in unassigned:
            reps.append(t)
            unassigned.difference_update(bracket_orbit(LieBracket(group, t), gens))
    return reps, len(reps)


def enumerate_brackets(group: FiniteGroup, config: Optional[SearchConfig] = None) -> EnumerationResult:
    """All bracket structures on the group, complete and duplicate-free.

    With up_to_iso the items are class representatives; raw_count always
    reports the total number of distinct tables found.
    """
    config = config or SearchConfig()
    if group.order > HARD_ORDER_CAP:
        raise BoundExceededError(f"bracket enumeration capped at order {HARD_ORDER_CAP}")
    if group.order > config.max_group_order:
        raise BoundExceededError(
            f"group order {group.order} exceeds configured max_group_order {config.max_group_order}"
        )
    if config.require_ideal is not None and config.require_ideal.parent.cayley != group.cayley:
        raise ValidationError("require_ideal is not a subgroup of the target group")
    search = _StarTableSearch(group, config)
    search.run()
    tables = sorted(set(search.results))
    reps, class_count = _classify(group, tables)
    items = reps if config.up_to_iso else tables
    return EnumerationResult(
        items=tuple(LieBracket(group, t) for t in items),
        raw_count=len(tables),
        class_count=class_count,
        exhausted=search.exhausted,
    )


def _check_parts(H: FiniteGroup, K: FiniteGroup, action: Action) -> None:
    if action.H.cayley != H.cayley or action.K.cayley != K.cayley:
        raise ValidationError("action does not match H and K")


def enumerate_gamma(
    H: FiniteGroup, K: FiniteGroup, action: Action, star_k: LieBracket
) -> list[GammaMap]:
    """All endomorphism families passing check_gamma_identities, enumerated by
    generator images over End(H) and extended along the generator steps of K
    by G1, Gamma_{x g} = Gamma_x . sigma_x Gamma_g."""
    _check_parts(H, K, action)
    endos = endomorphisms(H)
    gens = find_generators(K)
    steps = generator_steps(K.cayley, K.identity, gens)
    zero = (H.identity,) * H.order
    mul_h = H.cayley
    sig = action.sigma
    found = []
    for images in product(endos, repeat=len(gens)):
        image = dict(zip(gens, images))
        gamma: list[tuple[int, ...]] = [zero] * K.order
        for y, x, g in steps:
            gx, gg, sx = gamma[x], image[g], sig[x]
            gamma[y] = tuple(mul_h[gx[h]][sx[gg[h]]] for h in range(H.order))
        candidate = GammaMap(H, K, tuple(gamma))
        if not check_gamma_identities(action, candidate, star_k, max_violations=1):
            found.append(candidate)
    found.sort(key=lambda gm: gm.gamma)
    return found


def enumerate_pairings(
    H: FiniteGroup, K: FiniteGroup, action: Action, star_k: LieBracket
) -> list[PairingMap]:
    """Alternating pairing tables compatible with the induction conditions.

    Setting h = k = l = 1 in the two-sided expansions C3, C4 and C6 leaves
    constraints on beta alone:

      T1  beta(x y, z) = sigma_x(beta(y, z)) sigma_{^x(y*z)}(beta(x, z))
      T2  beta(x, y z) = beta(x, y) sigma_{(x*y) y}(beta(x, z))
      T3  beta(^z x, ^z y) = sigma_z(beta(x, y))

    For the trivial action these are plain bilinearity plus conjugation
    invariance, whatever star_k is. The values on the generator pairs (a, b)
    with a before b in ``find_generators``, in product order, fix a table.
    Every table passing C1, T1 and T2 obeys the reversal

      beta(y, x) = sigma_{(x*y)^-1}(beta(x, y))^-1

    (T1 at (x, y, xy), with beta(y, xy) = beta(y, x) and
    beta(x, xy) = sigma_x(beta(x, y)) from T2 and C1, and y*xy = y*x in K);
    it is the H-part of y*x = (x*y)^-1 at (1,x), (1,y) in H x| K. The
    reversal fills (b, a), T2 along the generator steps of K fills the
    generator rows, then T1 along the same steps fills every other row. A
    generator row that does not close breaks T2, so its seeds are dropped.
    Each other table is kept when it satisfies C1 and every instance of
    T1-T3; it holds its seed values, so distinct seeds give distinct tables.
    """
    _check_parts(H, K, action)
    if star_k.group.cayley != K.cayley:
        raise ValidationError("star_k is not a bracket on K")
    nH, nK = H.order, K.order
    eH, eK = H.identity, K.identity
    mul_h, inv_h = H.cayley, H.inverse
    mul_k, inv_k = K.cayley, K.inverse
    conj_k = K.conj_table
    sig = action.sigma
    star = star_k.star
    gens = find_generators(K)
    steps = generator_steps(mul_k, eK, gens)
    order = [eK] + [y for y, _, _ in steps]
    # the first steps, (g, 1, g) for each generator g, are the generator rows
    steps = steps[len(gens):]
    cells = list(combinations(gens, 2))
    twists = {a: [sig[mul_k[star[a][x]][x]] for x in range(nK)] for a in gens}

    def fill(values: tuple[int, ...]) -> Optional[tuple[tuple[int, ...], ...]]:
        b = [[eH] * nK for _ in range(nK)]
        for (a, g), v in zip(cells, values):
            b[a][g] = v
            b[g][a] = inv_h[sig[inv_k[star[a][g]]][v]]
        for a in gens:
            row = _extend_from_generators(K, H, order, {g: b[a][g] for g in gens}, twists[a])
            if row is None:
                return None
            b[a] = row
        for y, x, g in steps:
            bx, bg, sx, cx, sg = b[x], b[g], sig[x], conj_k[x], star[g]
            b[y] = [mul_h[sx[bg[z]]][sig[cx[sg[z]]][bx[z]]] for z in range(nK)]
        return tuple(tuple(row) for row in b)

    def acceptable(b: tuple[tuple[int, ...], ...]) -> bool:
        if _c1_failure(b, eH, eK) is not None:
            return False
        for x, y, z in product(range(nK), repeat=3):
            if b[mul_k[x][y]][z] != mul_h[sig[x][b[y][z]]][sig[conj_k[x][star[y][z]]][b[x][z]]]:
                return False
            if b[x][mul_k[y][z]] != mul_h[b[x][y]][sig[mul_k[star[x][y]][y]][b[x][z]]]:
                return False
            if b[conj_k[z][x]][conj_k[z][y]] != sig[z][b[x][y]]:
                return False
        return True

    tables = (fill(values) for values in product(range(nH), repeat=len(cells)))
    return [PairingMap(H, K, t) for t in sorted(t for t in tables if t is not None and acceptable(t))]


def enumerate_tuples(action: Action, star_k: LieBracket) -> list[ConstructionData]:
    """The tuples (star_k, Gamma, beta) on the action that pass C1-C6, in the
    order of ``enumerate_gamma``, then of ``enumerate_pairings``.

    star_k is verified once, by the one ``ConstructionData.make`` here; the
    tuples share it and differ only in Gamma and beta.
    """
    H, K = action.H, action.K
    base = ConstructionData.make(action, star_k, GammaMap.zero(H, K), PairingMap.trivial(H, K))
    betas = enumerate_pairings(H, K, action, star_k)
    tuples = (
        replace(base, gamma=gamma, beta=beta)
        for gamma in enumerate_gamma(H, K, action, star_k)
        for beta in betas
    )
    return [data for data in tuples if check_theorem_conditions(data, short_circuit=True).passed]


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
    table."""
    config = config or SearchConfig()
    inner = replace(config, up_to_iso=False, require_ideal=None)
    base = enumerate_brackets(K, inner)
    _check_parts(H, K, action)
    G = semidirect_product(action)
    tables = sorted({data.induced_table for star_k in base.items for data in enumerate_tuples(action, star_k)})
    reps, class_count = _classify(G, tables)
    items = reps if config.up_to_iso else tables
    return EnumerationResult(
        items=tuple(LieBracket(G, t) for t in items),
        raw_count=len(tables),
        class_count=class_count,
        exhausted=base.exhausted,
    )


def enumerate_mla_homs(K: FiniteGroup, star_k: LieBracket, H: FiniteGroup) -> list[GammaMap]:
    """Families that respect both operations: group homomorphisms from K into
    (End(H), .) whose bracket behaviour matches the endomorphism structure,
    Gamma_{x*y} = Gamma_x * Gamma_y evaluated in end_mla(H)."""
    if star_k.group.cayley != K.cayley:
        raise ValidationError("star_k is not a bracket on K")
    end_group, end_bracket = end_mla(H)
    endos = endomorphisms(H)
    found = []
    for hom in homomorphisms(K, end_group):
        ok = True
        for x, y in product(range(K.order), repeat=2):
            if hom.images[star_k.star[x][y]] != end_bracket.star[hom.images[x]][hom.images[y]]:
                ok = False
                break
        if ok:
            found.append(GammaMap.make(H, K, tuple(endos[i] for i in hom.images)))
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
    pairing. When the product order is within the configured bound the full
    bracket enumeration is cross-checked against the induced one; otherwise
    only the induced classification is reported."""
    if gcd(H.order, K.order) != 1:
        raise ValidationError("verify_coprime_determination requires coprime orders")
    config = config or SearchConfig()
    action = Action.trivial(H, K)
    induced = enumerate_induced(H, K, action, config)
    G = semidirect_product(action)
    if G.order > config.max_group_order:
        return CoprimeReport(
            group_order=G.order,
            full_mode=False,
            induced_raw_count=induced.raw_count,
            induced_class_count=induced.class_count,
            exhausted=induced.exhausted,
        )
    full = enumerate_brackets(G, replace(config, up_to_iso=False, require_ideal=None))
    h_sub = split_factor_subgroup(action, G)
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
    """Number of positive divisors."""
    if n < 1:
        raise ValidationError(f"tau requires a positive integer, got {n}")
    return sum(1 for d in range(1, n + 1) if n % d == 0)
