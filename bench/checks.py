"""Correctness checks for the benchmark, computed apart from mla_forge.

Nothing here imports the library. Groups are plain Cayley tables (lists of
rows over 0..n-1), brackets are star tables of the same shape, and every
check returns a list of error strings (empty means the output is right).

  axiom_failure        A1-A5 on a star table, written apart from verify_mla
  lie_algebra_tables   structure-constant enumeration of the Lie algebras on
                       F_p^d, transported to an elementary abelian group
  automorphisms        Aut(G) by generator images, each map checked to be a
                       bijective homomorphism before it is returned
  orbit_report         orbits of a table set under Aut(G) and argument
                       reversal, with stabilizer sizes (orbit-stabilizer)
  product_table        the split product H x| K on pairs h + |H| x
  induce / read_off    the induction formula of the README and its inverse
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Sequence

Table = Sequence[Sequence[int]]


# -- group basics --------------------------------------------------------------


def identity_of(mul: Table) -> int:
    n = len(mul)
    for e in range(n):
        if all(mul[e][x] == x for x in range(n)):
            return e
    raise ValueError("table has no left identity")


def inverses(mul: Table, e: int) -> list[int]:
    n = len(mul)
    inv = [-1] * n
    for x in range(n):
        for y in range(n):
            if mul[x][y] == e:
                inv[x] = y
                break
    return inv


def conjugation(mul: Table) -> list[list[int]]:
    """conj[u][v] = u v u^-1."""
    n = len(mul)
    inv = inverses(mul, identity_of(mul))
    return [[mul[mul[u][v]][inv[u]] for v in range(n)] for u in range(n)]


def element_orders(mul: Table) -> list[int]:
    e = identity_of(mul)
    out = []
    for x in range(len(mul)):
        k, y = 1, x
        while y != e:
            y = mul[y][x]
            k += 1
        out.append(k)
    return out


def generating_set(mul: Table) -> list[int]:
    """Greedy: add the largest element outside the subgroup reached so far."""
    n, e = len(mul), identity_of(mul)
    gens: list[int] = []
    reached = {e}
    while len(reached) < n:
        gens.append(max(x for x in range(n) if x not in reached))
        reached = {e}
        frontier = [e]
        while frontier:
            frontier = [mul[x][g] for x in frontier for g in gens if mul[x][g] not in reached]
            reached.update(frontier)
    return gens


# -- A1-A5 -----------------------------------------------------------------------


def axiom_failure(mul: Table, star: Table) -> Optional[str]:
    """The first axiom the star table breaks, as 'Ak at (x, y, z)', or None.

    Written row by row (one list per pair x, y over all z), apart from the
    library's verify_mla.
    """
    n = len(mul)
    if len(star) != n or any(len(row) != n for row in star):
        return "shape"
    if any(not (0 <= v < n) for row in star for v in row):
        return "value out of range"
    e = identity_of(mul)
    conj = conjugation(mul)
    zs = range(n)
    for x in zs:
        if star[x][x] != e:
            return f"A1 at ({x},)"
    for x in zs:
        sx = star[x]
        for y in zs:
            # A2  x*(yz) = (x*y) ^y(x*z)
            left = [sx[mul[y][z]] for z in zs]
            right = [mul[sx[y]][conj[y][sx[z]]] for z in zs]
            if left != right:
                return f"A2 at ({x}, {y}, {_first_diff(left, right)})"
            # A3  (xy)*z = ^x(y*z) (x*z)
            left = [star[mul[x][y]][z] for z in zs]
            right = [mul[conj[x][star[y][z]]][sx[z]] for z in zs]
            if left != right:
                return f"A3 at ({x}, {y}, {_first_diff(left, right)})"
            # A4  ((x*y) * ^y z) ((y*z) * ^z x) ((z*x) * ^x y) = 1
            sxy_row = star[sx[y]]
            vals = [
                mul[mul[sxy_row[conj[y][z]]][star[star[y][z]][conj[z][x]]]][star[star[z][x]][conj[x][y]]]
                for z in zs
            ]
            if any(v != e for v in vals):
                return f"A4 at ({x}, {y}, {_first_diff(vals, [e] * n)})"
            # A5  ^z(x*y) = ^z x * ^z y
            left = [conj[z][sx[y]] for z in zs]
            right = [star[conj[z][x]][conj[z][y]] for z in zs]
            if left != right:
                return f"A5 at ({x}, {y}, {_first_diff(left, right)})"
    return None


def _first_diff(a: list[int], b: list[int]) -> int:
    return next(i for i, (u, v) in enumerate(zip(a, b)) if u != v)


# -- Lie algebras over F_p ---------------------------------------------------------


def lie_algebra_tables(mul: Table, p: int, d: int) -> set[tuple[tuple[int, ...], ...]]:
    """Every Lie algebra on F_p^d as a star table on the group ``mul``.

    The structure constants [e_i, e_j] (i < j) range over all of F_p^d; the
    alternating bilinear extension is kept when Jacobi holds on every basis
    triple. The group must be elementary abelian of order p^d; its elements
    are matched to vectors through a generating set of d elements of order p.
    """
    n = len(mul)
    if n != p**d:
        raise ValueError(f"group of order {n} is not of order {p}^{d}")
    gens = generating_set(mul)
    if len(gens) != d or any(o not in (1, p) for o in element_orders(mul)):
        raise ValueError("group is not elementary abelian of the stated rank")
    e = identity_of(mul)
    vectors = list(product(range(p), repeat=d))
    elem = {}
    for v in vectors:
        x = e
        for g, c in zip(gens, v):
            for _ in range(c):
                x = mul[x][g]
        elem[v] = x
    if len(set(elem.values())) != n:
        raise ValueError("generators do not give a basis")
    vec_of = {x: v for v, x in elem.items()}

    def add(u, v):
        return tuple((a + b) % p for a, b in zip(u, v))

    def scale(c, v):
        return tuple((c * a) % p for a in v)

    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    basis = [tuple(int(i == k) for k in range(d)) for i in range(d)]
    zero = (0,) * d
    found = set()
    for consts in product(vectors, repeat=len(pairs)):
        c = {}
        for (i, j), w in zip(pairs, consts):
            c[(i, j)] = w
            c[(j, i)] = scale(p - 1, w)
        for i in range(d):
            c[(i, i)] = zero

        def br(u, v):
            out = zero
            for i in range(d):
                for j in range(d):
                    if u[i] and v[j]:
                        out = add(out, scale(u[i] * v[j], c[(i, j)]))
            return out

        if any(
            add(add(br(br(basis[i], basis[j]), basis[k]), br(br(basis[j], basis[k]), basis[i])),
                br(br(basis[k], basis[i]), basis[j])) != zero
            for i in range(d) for j in range(i + 1, d) for k in range(j + 1, d)
        ):
            continue
        found.add(tuple(tuple(elem[br(vec_of[x], vec_of[y])] for y in range(n)) for x in range(n)))
    return found


# -- automorphisms and orbits ------------------------------------------------------


def automorphisms(mul: Table) -> list[tuple[int, ...]]:
    """All automorphisms as image tuples; each is checked to be a bijective
    homomorphism before it is kept."""
    n, e = len(mul), identity_of(mul)
    gens = generating_set(mul)
    orders = element_orders(mul)
    choices = [[y for y in range(n) if orders[y] == orders[g]] for g in gens]
    found = []
    for images in product(*choices):
        phi = [-1] * n
        phi[e] = e
        queue = [e]
        ok = True
        while queue and ok:
            x = queue.pop()
            for g, img in zip(gens, images):
                y, w = mul[x][g], mul[phi[x]][img]
                if phi[y] == -1:
                    phi[y] = w
                    queue.append(y)
                elif phi[y] != w:
                    ok = False
                    break
        if ok and is_automorphism(mul, phi):
            found.append(tuple(phi))
    return found


def is_automorphism(mul: Table, phi: Sequence[int]) -> bool:
    n = len(mul)
    if sorted(phi) != list(range(n)):
        return False
    return all(phi[mul[a][b]] == mul[phi[a]][phi[b]] for a in range(n) for b in range(n))


def relabelings(n: int, auts: Sequence[Sequence[int]]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(phi, source) pairs for every automorphism and for argument reversal.

    A flat table T (index x*n + y) maps to [phi[T[s]] for s in source]: the
    table phi(x) *' phi(y) = phi(x * y), reversed when the source swaps x, y.
    """
    out = []
    for phi in auts:
        pre = [0] * n
        for i, v in enumerate(phi):
            pre[v] = i
        plain = tuple(pre[p // n] * n + pre[p % n] for p in range(n * n))
        swapped = tuple(pre[p % n] * n + pre[p // n] for p in range(n * n))
        out.append((tuple(phi), plain))
        out.append((tuple(phi), swapped))
    return out


def flat(table: Table) -> tuple[int, ...]:
    return tuple(v for row in table for v in row)


def orbit_report(mul: Table, tables: Sequence[Table], auts: Sequence[Sequence[int]]) -> dict:
    """Orbits of the set under Aut(G) x reversal.

    Returns the number of orbits, the orbit sizes, their sum, whether every
    orbit stays inside the set (closure), and for each orbit whether
    |orbit| * |stabilizer| equals 2 |Aut|.
    """
    n = len(mul)
    maps = relabelings(n, auts)
    pool = {flat(t) for t in tables}
    seen: set[tuple[int, ...]] = set()
    sizes, closed, stabilizer_ok = [], True, True
    for t in sorted(pool):
        if t in seen:
            continue
        orbit = set()
        stab = 0
        for phi, src in maps:
            image = tuple(phi[t[s]] for s in src)
            orbit.add(image)
            stab += image == t
        if not orbit <= pool:
            closed = False
        seen |= orbit
        sizes.append(len(orbit))
        stabilizer_ok &= len(orbit) * stab == len(maps)
    return {
        "orbits": len(sizes),
        "sizes": sizes,
        "size_sum": sum(sizes),
        "closed": closed,
        "orbit_stabilizer": stabilizer_ok,
    }


def class_count(mul: Table, tables: Sequence[Table], auts: Sequence[Sequence[int]]) -> int:
    """Number of classes of a set that need not be closed under Aut: tables
    are in one class when one is an image of the other."""
    maps = relabelings(len(mul), auts)
    keys = {min(tuple(phi[t[s]] for s in src) for phi, src in maps) for t in map(flat, tables)}
    return len(keys)


# -- split products and induction ----------------------------------------------------


def product_table(H: Table, K: Table, sigma: Table) -> list[list[int]]:
    """(h, x)(k, y) = (h sigma_x(k), x y) on the index h + |H| x."""
    nH, nK = len(H), len(K)
    return [
        [H[h][sigma[x][k]] + nH * K[x][y] for y in range(nK) for k in range(nH)]
        for x in range(nK)
        for h in range(nH)
    ]


def induce(H: Table, K: Table, sigma: Table, star_k: Table, gamma: Table, beta: Table) -> list[list[int]]:
    """The README's induction formula on pairs, H abelian:

    (h,x) * (k,y) = (h k Gamma_x(k) sigma_{x*y}(h^-1 k^-1 Gamma_y(h^-1)) beta(x,y), x*y)
    """
    nH, nK = len(H), len(K)
    eH = identity_of(H)
    inv = inverses(H, eH)
    table = [[0] * (nH * nK) for _ in range(nH * nK)]
    for x, h, y, k in product(range(nK), range(nH), range(nK), range(nH)):
        s = star_k[x][y]
        inner = H[H[inv[h]][inv[k]]][gamma[y][inv[h]]]
        value = H[H[H[H[h][k]][gamma[x][k]]][sigma[s][inner]]][beta[x][y]]
        table[h + nH * x][k + nH * y] = value + nH * s
    return table


def read_off(star: Table, H: Table, K: Table) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(star_K, Gamma, beta) from a table on the product: (1,x)*(1,y) gives
    star_K(x, y) and beta(x, y); (1,x)*(k,1) gives Gamma_x(k)."""
    nH, nK = len(H), len(K)
    eH, eK = identity_of(H), identity_of(K)
    star_k = [[star[eH + nH * x][eH + nH * y] // nH for y in range(nK)] for x in range(nK)]
    beta = [[star[eH + nH * x][eH + nH * y] % nH for y in range(nK)] for x in range(nK)]
    gamma = [[star[eH + nH * x][k + nH * eK] % nH for k in range(nH)] for x in range(nK)]
    return star_k, gamma, beta


def reinduces(H: Table, K: Table, sigma: Table, star: Table) -> bool:
    """The formula gives the table back from the data read off it."""
    return induce(H, K, sigma, *read_off(star, H, K)) == [list(r) for r in star]


def is_ideal(mul: Table, star: Table, members: Sequence[int]) -> bool:
    """members is normal and x * m, m * x stay in it for every x."""
    mem = set(members)
    conj = conjugation(mul)
    n = len(mul)
    normal = all(conj[g][m] in mem for g in range(n) for m in mem)
    return normal and all(star[g][m] in mem and star[m][g] in mem for g in range(n) for m in mem)


# -- per-workload checks --------------------------------------------------------------


def check_enumeration(
    mul: Table,
    items: Sequence[Table],
    raw_count: int,
    class_count_: int,
    exhausted: bool,
    auts: Sequence[Sequence[int]],
    lie: Optional[tuple[int, int]] = None,
) -> list[str]:
    """Exhaustive enumeration output: every table is a bracket, the set is
    closed under Aut and reversal, the counts agree with orbit-stabilizer
    counting and, for an elementary abelian group, with the Lie algebras."""
    errors = []
    if not exhausted:
        errors.append("search was cut short by its node budget")
    if len({flat(t) for t in items}) != len(items):
        errors.append("duplicate tables in the output")
    if raw_count != len(items):
        errors.append(f"raw_count {raw_count} but {len(items)} tables")
    for i, t in enumerate(items):
        bad = axiom_failure(mul, t)
        if bad:
            errors.append(f"table {i} breaks {bad}")
            break
    orbits = orbit_report(mul, items, auts)
    if not orbits["closed"]:
        errors.append("raw set is not closed under Aut and reversal")
    if not orbits["orbit_stabilizer"]:
        errors.append("an orbit size times its stabilizer is not 2|Aut|")
    if orbits["size_sum"] != raw_count:
        errors.append(f"orbit sizes sum to {orbits['size_sum']}, raw_count is {raw_count}")
    if orbits["orbits"] != class_count_:
        errors.append(f"{orbits['orbits']} orbits, class_count is {class_count_}")
    if lie is not None:
        expected = lie_algebra_tables(mul, *lie)
        if raw_count != len(expected):
            errors.append(f"raw_count {raw_count}, structure constants give {len(expected)}")
        if {tuple(map(tuple, t)) for t in items} != expected:
            errors.append("tables differ from the Lie algebras on F_p^d")
    return errors


def check_induced(
    H: Table,
    K: Table,
    sigma: Table,
    product_mul: Table,
    items: Sequence[Table],
    raw_count: int,
    class_count_: int,
    auts: Sequence[Sequence[int]],
    ideal_exhaustive: Sequence[Table],
    exhaustive: Optional[Sequence[Table]] = None,
) -> list[str]:
    """Induced enumeration output: the product group is H x| K, every table is
    a bracket with H as an ideal and is re-induced by the formula from its own
    read-off data, and the counts match.

    ``ideal_exhaustive`` is an exhaustive search on the product for brackets
    with H as an ideal: the induced set must equal its tables that the
    formula re-induces from their read-off data, so a table missing from the
    output is caught. With ``exhaustive`` (coprime orders, trivial action, no
    ideal required) the induced set must equal that whole set."""
    errors = []
    nH = len(H)
    if [list(r) for r in product_mul] != product_table(H, K, sigma):
        errors.append("product group table is not H x| K")
        return errors
    if raw_count != len(items) or len({flat(t) for t in items}) != len(items):
        errors.append(f"raw_count {raw_count} but {len({flat(t) for t in items})} distinct tables")
    h_members = [h + nH * identity_of(K) for h in range(nH)]
    for i, t in enumerate(items):
        bad = axiom_failure(product_mul, t)
        if bad:
            errors.append(f"table {i} breaks {bad}")
            break
        if not is_ideal(product_mul, t, h_members):
            errors.append(f"H is not an ideal of table {i}")
            break
        if not reinduces(H, K, sigma, t):
            errors.append(f"table {i} is not re-induced by its read-off data")
            break
    got = class_count(product_mul, items, auts)
    if got != class_count_:
        errors.append(f"{got} classes, class_count is {class_count_}")
    if {flat(t) for t in ideal_exhaustive if reinduces(H, K, sigma, t)} != {flat(t) for t in items}:
        errors.append("induced set differs from the re-induced tables of the exhaustive search with H ideal")
    if exhaustive is not None and {flat(t) for t in exhaustive} != {flat(t) for t in items}:
        errors.append("induced set differs from the exhaustive search on the product")
    return errors
