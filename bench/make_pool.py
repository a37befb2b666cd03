"""Make bench/roundtrip_pool.json, the construction tuples the roundtrip
workload draws its input files from.

    python3 bench/make_pool.py

For each product of the roundtrip workload the pool holds every accepted
(star on K, Gamma, beta) tuple, as found by mla_forge's induced enumeration
and read back by decomposition, in the enumeration's order. The pool is input
data only: the benchmark re-checks every tuple it draws with its own A1-A5
check on its own evaluation of the induction formula.
"""

from __future__ import annotations

import json

from run import POOL, Roundtrip, import_library, make_action, search_config


def main() -> None:
    lib = import_library()
    lines = []
    for name in Roundtrip.NAMES:
        action = make_action(lib, name)
        result = lib.search.enumerate_induced(action.H, action.K, action, search_config(lib))
        tuples = []
        for bracket in result.items:
            data = lib.construction.decompose_bracket(action, bracket)
            tuples.append([data.star_k.star, data.gamma.gamma, data.beta.beta])
        lines.append(f"{json.dumps(name)}:{json.dumps(tuples, separators=(',', ':'))}")
        print(f"{name}: {len(tuples)} tuples")
    POOL.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
