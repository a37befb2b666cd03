"""Tests of the benchmark's own checks: each must pass the library's real
output and reject a corrupted copy of it.

    python3 bench/test_checks.py        (or: python3 -m pytest bench)
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import sys
import time
import unittest
from math import prod
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

LIB = run.import_library()


def enumeration(spec: str):
    G = LIB.cli.parse_preset(spec)
    r = LIB.search.enumerate_brackets(G, run.search_config(LIB))
    return G, [list(map(list, b.star)) for b in r.items], r.raw_count, r.class_count


def flip_cell(tables, n):
    """Change one off-diagonal cell of the last table to another element."""
    out = copy.deepcopy(tables)
    out[-1][1][n - 1] = (out[-1][1][n - 1] + 1) % n
    return out


def gl_order(p: int, d: int) -> int:
    return prod(p**d - p**i for i in range(d))


class StructureConstants(unittest.TestCase):
    def test_lie_algebra_counts(self):
        for spec, p, d in (("Z2xZ2", 2, 2), ("Z3xZ3", 3, 2), ("Z2xZ2xZ2", 2, 3)):
            G = LIB.cli.parse_preset(spec)
            found = checks.lie_algebra_tables(G.cayley, p, d)
            # F_2^2: 4, F_3^2: 9 (every alternating map on a plane is Lie),
            # F_2^3: 120 (Jacobi cuts 8^3 = 512 down)
            self.assertEqual(len(found), {(2, 2): 4, (3, 2): 9, (2, 3): 120}[(p, d)])

    def test_automorphisms_of_elementary_abelian_groups_are_gl(self):
        for spec, p, d in (("Z2xZ2xZ2", 2, 3), ("Z3xZ3", 3, 2)):
            G = LIB.cli.parse_preset(spec)
            auts = checks.automorphisms(G.cayley)
            self.assertEqual(len(auts), gl_order(p, d))
            self.assertEqual(len(set(auts)), len(auts))


class EnumerationChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cases = {
            "Z2xZ2": (enumeration("Z2xZ2"), (2, 2)),
            "D4": (enumeration("D4"), None),
        }

    def errors(self, spec, items=None, raw=None, classes=None):
        (G, tables, raw0, cls0), lie = self.cases[spec]
        return checks.check_enumeration(
            G.cayley,
            tables if items is None else items,
            raw0 if raw is None else raw,
            cls0 if classes is None else classes,
            True,
            checks.automorphisms(G.cayley),
            lie,
        )

    def test_real_output_passes(self):
        for spec in self.cases:
            self.assertEqual(self.errors(spec), [], spec)

    def test_flipped_cell_is_rejected(self):
        for spec, ((G, tables, _, _), _) in self.cases.items():
            self.assertNotEqual(self.errors(spec, items=flip_cell(tables, G.order)), [], spec)

    def test_dropped_table_is_rejected(self):
        for spec, ((G, tables, raw, _), _) in self.cases.items():
            # counts adjusted to the shortened list, so only closure and the
            # orbit identities can catch it
            self.assertNotEqual(self.errors(spec, items=tables[:-1], raw=raw - 1), [], spec)

    def test_wrong_counts_are_rejected(self):
        for spec, ((G, tables, raw, classes), _) in self.cases.items():
            self.assertNotEqual(self.errors(spec, raw=raw + 1), [], spec)
            self.assertNotEqual(self.errors(spec, classes=classes + 1), [], spec)
            self.assertNotEqual(self.errors(spec, classes=classes - 1), [], spec)


class InducedChecks(unittest.TestCase):
    """Through the same call the induce workload makes, on one trivial action
    with orders not coprime and one non-trivial action."""

    @classmethod
    def setUpClass(cls):
        H, K = LIB.cli.parse_preset("Z3"), LIB.cli.parse_preset("D3")
        cls.cases = {}
        for name, action in (("Z3xD3", LIB.construction.Action.trivial(H, K)),
                             ("Z8:Z2", run.make_action(LIB, "Z8:Z2"))):
            r = LIB.search.enumerate_induced(action.H, action.K, action, run.search_config(LIB))
            G = LIB.construction.semidirect_product(action)
            tables = [list(map(list, b.star)) for b in r.items]
            cls.cases[name] = (action, G, tables, r.raw_count, r.class_count)

    def errors(self, name, items=None, raw=None, classes=None):
        action, _, tables, raw0, classes0 = self.cases[name]
        return run.check_induced_output(
            LIB, action,
            tables if items is None else items,
            raw0 if raw is None else raw,
            classes0 if classes is None else classes,
        )

    def test_real_output_passes(self):
        for name in self.cases:
            self.assertEqual(self.errors(name), [], name)

    def test_flipped_cell_is_rejected(self):
        for name, (_, G, tables, _, _) in self.cases.items():
            self.assertNotEqual(self.errors(name, items=flip_cell(tables, G.order)), [], name)

    def test_dropped_table_is_rejected(self):
        for name, (_, G, tables, raw, _) in self.cases.items():
            # counts adjusted to the shortened list, so only the comparison
            # with the exhaustive search can catch it
            short = tables[:-1]
            classes = checks.class_count(G.cayley, short, checks.automorphisms(G.cayley))
            self.assertNotEqual(self.errors(name, items=short, raw=raw - 1, classes=classes), [], name)

    def test_wrong_counts_are_rejected(self):
        for name, (_, _, _, raw, classes) in self.cases.items():
            self.assertNotEqual(self.errors(name, raw=raw + 1), [], name)
            self.assertNotEqual(self.errors(name, classes=classes + 1), [], name)


class RoundtripChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = run.OUT / f"test-{os.getpid()}"
        wl = run.Roundtrip()
        cls.inputs = wl.setup(LIB, cls.work, random.Random(1))
        ops = [op for op in wl.round_ops(LIB, cls.inputs, random.Random(1)) if op[0].startswith("Z3:D3/")]
        cls.got = {label.split("/", 1)[1]: fn() for label, fn in ops}
        cls.got.update({k.split("/", 1)[1]: v for k, v in wl.collect(cls.inputs).items() if k.startswith("Z3:D3/")})

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def errors(self, **override):
        return run.check_roundtrip(LIB.serialization, self.inputs["Z3:D3"], {**self.got, **override})

    def test_real_output_passes(self):
        self.assertEqual(self.errors(), [])

    def test_decomposition_that_does_not_give_back_its_input_is_rejected(self):
        doc = json.loads(self.got["decompose"])
        doc["beta"][1][2] = (doc["beta"][1][2] + 1) % 3
        self.assertNotEqual(self.errors(decompose=json.dumps(doc)), [])
        emitted = json.dumps(doc, separators=(",", ":")).encode()
        self.assertNotEqual(self.errors(**{"parts-file": emitted}), [])

    def test_flipped_cell_in_induced_file_is_rejected(self):
        doc = json.loads(self.got["bracket-file"])
        doc["star"][1][2] = (doc["star"][1][2] + 1) % len(doc["star"])
        self.assertNotEqual(self.errors(**{"bracket-file": json.dumps(doc).encode()}), [])

    def test_failing_condition_report_is_rejected(self):
        doc = json.loads(self.got["verify-construction"])
        doc["C5"]["pass"] = False
        self.assertNotEqual(self.errors(**{"verify-construction": json.dumps(doc)}), [])


class Tracing(unittest.TestCase):
    def test_self_times_account_for_the_traced_call_and_uninstall_restores(self):
        before = LIB.search.enumerate_brackets
        G = LIB.cli.parse_preset("D4")
        tracer = spans.Tracer()
        tracer.install()
        self.assertIsNot(LIB.search.enumerate_brackets, before)
        t0 = time.perf_counter()
        LIB.search.enumerate_brackets(G, run.search_config(LIB))
        wall = time.perf_counter() - t0
        tracer.uninstall()
        self.assertIs(LIB.search.enumerate_brackets, before)
        m = spans.round_metrics(tracer.new_round(), wall)
        self.assertGreater(m["search.leaves"], 0)
        self.assertEqual(m["groups.automorphisms_calls"], 1)
        self.assertEqual(m["brackets.canonical_key_calls"], 4)  # D4 has 4 raw tables
        self.assertEqual(m["brackets.relabelings"], 4 * 8 * 2)  # |Aut(D4)| = 8, with reversal
        self.assertGreaterEqual(m["trace.unattributed_s"], 0)
        self.assertLess(m["trace.unattributed_s"], 0.05 * wall)
        names = {s[0] for s in tracer.spans}
        self.assertIn("search._classify", names)
        self.assertIn("brackets.verify_mla", names)


if __name__ == "__main__":
    unittest.main()
