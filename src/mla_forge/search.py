"""Exhaustive enumeration engines for brackets, gamma families, pairing maps
and induced structures, with classification up to equivalence.

Brackets are enumerated by ``_StarTableSearch``: it branches only on the
cells of generator pairs a < b and propagates by A2, A5 and the reversal
alone; its docstring proves that no A3 rule and no other branch cell is
needed.

Gamma families and pairing tables are fixed by their values at generators
of K (for pairings, at generator pairs a < b; the reversal gives (b, a)):
``enumerate_gamma`` and ``enumerate_pairings`` range over those values
and extend each choice along the breadth-first steps of
``groups.generator_steps``, as the homomorphism searches of ``groups`` do,
then keep the extensions that pass the full checks.

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
    """Backtracking over star-table cells.

    Seed cells are the generator pairs (a, b) with a before b in
    ``find_generators``, in lexicographic order; assigning a cell propagates
    forced values through three rules derived from the axioms:

      from (x,y) and (x,z) known:  (x, yz) and (x, zy)    (A2)
      from (x,y) known:            (^z x, ^z y) for all z (A5)
      from (x,y) known:            (y, x) = (x*y)^-1      (reversal)

    ``_set`` writes a cell and its reverse in one step, so (x,y) is empty
    exactly when (y,x) is. Diagonal and border cells are pre-filled with the
    identity first; that cannot conflict, since A2 and A5 force only identity
    values from identity cells, and every subgroup contains the identity.

    No A3 rule: for (x,y) = v and (x2,y) = w, A3 forces (x2 x, y) = ^x2 v . w
    and (x x2, y) = ^x w . v, the inverses of what A2 forces on (y, x2 x)
    and (y, x x2) from the reverse cells (y,x) = v^-1 and (y,x2) = w^-1, so
    the reversal sets the same values. Propagation runs to a fixpoint, whose
    cells and conflicts do not depend on the order the rules fire in.

    No branch beyond the seeds: once they are set, A2 fills each generator
    row over the products of generators, all of G; the reversal fills each
    generator column, and A2 then every row. Each leaf is a full table and
    is re-verified from scratch by ``verify_mla``, so propagation only has
    to be sound, not complete.
    """

    def __init__(self, group: FiniteGroup, config: SearchConfig):
        self.group = group
        self.n = group.order
        self.mul = group.cayley
        self.inv = group.inverse
        self.conj = group.conj_table
        self.e = group.identity
        self.budget = config.node_budget
        self.nodes = 0
        self.ideal = (
            frozenset(config.require_ideal.members) if config.require_ideal is not None else None
        )
        self.star = [[-1] * self.n for _ in range(self.n)]
        self.trail: list[tuple[int, int]] = []
        self.processed = 0
        self.results: list[tuple[tuple[int, ...], ...]] = []
        self.exhausted = True

    def run(self) -> None:
        seeds = list(combinations(find_generators(self.group), 2))
        self._seed_base_cells()
        try:
            self._dfs(seeds, 0)
        except _BudgetExhausted:
            self.exhausted = False

    def _seed_base_cells(self) -> None:
        e = self.e
        for x in range(self.n):
            self._set(x, x, e)
            self._set(x, e, e)
        self._propagate()

    def _set(self, x: int, y: int, v: int) -> bool:
        """Assign (x,y) = v and (y,x) = v^-1, or check them if already set."""
        cur = self.star[x][y]
        if cur != -1:
            return cur == v
        if self.ideal is not None and (x in self.ideal or y in self.ideal) and v not in self.ideal:
            return False
        self.star[x][y] = v
        self.trail.append((x, y))
        if x != y:
            self.star[y][x] = self.inv[v]
            self.trail.append((y, x))
        return True

    def _propagate(self) -> bool:
        mul, conj, star, n = self.mul, self.conj, self.star, self.n
        while self.processed < len(self.trail):
            x, y = self.trail[self.processed]
            self.processed += 1
            v = star[x][y]
            for z in range(n):
                cz = conj[z]
                if not self._set(cz[x], cz[y], cz[v]):
                    return False
            row = star[x]
            my = mul[y]
            cy = conj[y]
            for y2 in range(n):
                w = row[y2]
                if w != -1:
                    if not self._set(x, my[y2], mul[v][cy[w]]):
                        return False
                    if not self._set(x, mul[y2][y], mul[w][conj[y2][v]]):
                        return False
        return True

    def _dfs(self, seeds: list[tuple[int, int]], idx: int) -> None:
        while idx < len(seeds) and self.star[seeds[idx][0]][seeds[idx][1]] != -1:
            idx += 1
        if idx == len(seeds):
            table = tuple(tuple(row) for row in self.star)
            if not verify_mla(self.group, table, max_violations=1):
                self.results.append(table)
            return
        x, y = seeds[idx]
        for v in range(self.n):
            self.nodes += 1
            if self.nodes > self.budget:
                raise _BudgetExhausted
            mark = len(self.trail)
            if self._set(x, y, v) and self._propagate():
                self._dfs(seeds, idx)
            while len(self.trail) > mark:
                a, b = self.trail.pop()
                self.star[a][b] = -1
            self.processed = mark


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
    generator rows, then T1 along the same steps fills every other row.
    Each table is kept when it satisfies C1 and every instance of T1-T3; it
    holds its seed values, so distinct seeds give distinct tables.
    """
    _check_parts(H, K, action)
    nH, nK = H.order, K.order
    eH, eK = H.identity, K.identity
    mul_h, inv_h = H.cayley, H.inverse
    mul_k, inv_k = K.cayley, K.inverse
    conj_k = K.conj_table
    sig = action.sigma
    star = star_k.star
    gens = find_generators(K)
    # the first steps, (g, 1, g) for each generator g, would restate the seeds
    steps = generator_steps(mul_k, eK, gens)[len(gens):]
    cells = list(combinations(gens, 2))

    def fill(values: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        b = [[eH] * nK for _ in range(nK)]
        for (a, g), v in zip(cells, values):
            b[a][g] = v
            b[g][a] = inv_h[sig[inv_k[star[a][g]]][v]]
        for a in gens:
            row, sa = b[a], star[a]
            for y, x, g in steps:
                row[y] = mul_h[row[x]][sig[mul_k[sa[x]][x]][row[g]]]
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
    return [PairingMap(H, K, t) for t in sorted(t for t in tables if acceptable(t))]


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
    G = semidirect_product(action)
    tables = []
    for star_k in base.items:
        gammas = enumerate_gamma(H, K, action, star_k)
        betas = enumerate_pairings(H, K, action, star_k)
        for gamma in gammas:
            for beta in betas:
                data = ConstructionData.make(action, star_k, gamma, beta)
                report = check_theorem_conditions(data, short_circuit=True)
                if report.passed:
                    tables.append(data.induced_table)
    tables = sorted(set(tables))
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
