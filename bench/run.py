"""Benchmark for mla-forge.

    python3 bench/run.py --workload {enumerate,induce,roundtrip} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else. One process, one thread.

A run sets the workload up several times (import plus building its groups,
actions and input files) and reports the median as ``setup_s``. It then runs
whole rounds, one pass over the workload's inputs in an order drawn from the
seed, until ``--seconds`` have passed. Every output of every round is
compared with the first output for the same input, and the first outputs are
checked against computations made apart from the library (checks.py).

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` rounds alternate between untraced and traced,
and it holds the per-layer metrics of the traced rounds (spans.py) together
with the tracing overhead. Results and spans are also written under
``.bench_out/``. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from math import gcd
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
POOL = HERE / "roundtrip_pool.json"

# Byte code is cached under .bench_out/ whatever the environment says, so that
# every set-up after the first imports from the same cache.
sys.dont_write_bytecode = False
sys.pycache_prefix = str(OUT / "pycache")

import checks  # noqa: E402
import spans  # noqa: E402

# At least this many set-ups per run, spread over the run so that their
# median does not hang on one moment of the machine's load.
SETUP_REPS = 15

# Every timing is scaled by the machine's speed at that moment: the time of a
# fixed reference loop, measured right before and after each operation and
# set-up, against its nominal time REFERENCE_S. On a shared host the same
# call takes anywhere from 1x to 2x its fastest time from one minute to the
# next; the scaled times follow the program, not the host's load. Every
# end-to-end time is therefore in reference-scaled seconds, not wall time; the
# result file keeps the measured times under "measured" and the end-to-end
# metrics computed from them under "measured_metrics".
REFERENCE_LOOP = 50_000
REFERENCE_S = 0.005
MAX_ORDER = 32

# name: (H preset, K preset, action). In the dihedral presets b^i a is index
# n + i, so the reflections of D_n are n..2n-1; "scale" acts on a cyclic H by
# h -> c^x h for x in a cyclic K.
PRODUCTS = {
    "Z4xD4": ("Z4", "D4", ("trivial",)),
    "Z4xQ8": ("Z4", "Q8", ("trivial",)),
    "Z3:D3": ("Z3", "D3", ("invert", (3, 4, 5))),
    "Z4xV4": ("Z4", "Z2xZ2", ("trivial",)),
    "Z2xD4": ("Z2", "D4", ("trivial",)),
    "Z3:D4": ("Z3", "D4", ("invert", (4, 5, 6, 7))),
    "Z5xD3": ("Z5", "D3", ("trivial",)),
    "Z8:Z2": ("Z8", "Z2", ("invert", (1,))),
    "Z5:Z4": ("Z5", "Z4", ("scale", 2)),
}


class BenchError(Exception):
    """The benchmark cannot run here (no library, no input pool)."""


def import_library() -> SimpleNamespace:
    """Import mla_forge afresh from this checkout's src/ (module code runs
    again on every call, so set-up time includes it)."""
    if not (SRC / "mla_forge" / "__init__.py").is_file():
        raise BenchError(f"no library at {SRC / 'mla_forge'}; run from the root of a checkout")
    for name in [n for n in sys.modules if n == "mla_forge" or n.startswith("mla_forge.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    lib = SimpleNamespace(**{layer: importlib.import_module(f"mla_forge.{layer}") for layer in spans.LAYERS})
    if Path(lib.groups.__file__).resolve().parent != (SRC / "mla_forge").resolve():
        raise BenchError(f"mla_forge was imported from {lib.groups.__file__}, not from {SRC}")
    return lib


def make_action(lib, name: str):
    h_spec, k_spec, (kind, *param) = PRODUCTS[name]
    H, K = lib.cli.parse_preset(h_spec), lib.cli.parse_preset(k_spec)
    Action = lib.construction.Action
    if kind == "trivial":
        return Action.trivial(H, K)
    if kind == "invert":
        return Action.by_inversion(H, K, param[0])
    c = param[0]
    return Action.make(H, K, [[(pow(c, x, H.order) * h) % H.order for h in range(H.order)] for x in range(K.order)])


def search_config(lib):
    return lib.search.SearchConfig(max_group_order=MAX_ORDER)


def result_summary(result) -> tuple:
    return (result.raw_count, result.class_count, result.exhausted, tuple(b.star for b in result.items))


# -- workloads ----------------------------------------------------------------------


class Workload:
    """One workload: set-up, the operations of one round, and checks.

    ``per_call`` says whether op_p50_s and op_p90_s are taken over single
    operations (like calls) or over whole rounds (when a round's operations
    are unlike, so that only the round repeats the same work).
    """

    per_call = False

    def collect(self, inputs: dict) -> dict:
        """Outputs a round leaves in files, read after the round."""
        return {}


class Enumerate(Workload):
    """Exhaustive bracket search and classification, no construction."""

    # (preset, (p, d) when elementary abelian of order p^d)
    GROUPS = (("Z2xZ2xZ2", (2, 3)), ("Z3xZ3", (3, 2)), ("Z2xD4", None), ("Z2xQ8", None), ("Z4xZ4", None))

    def setup(self, lib, work: Path, rng: random.Random) -> dict:
        return {spec: (lib.cli.parse_preset(spec), lie) for spec, lie in self.GROUPS}

    def round_ops(self, lib, inputs: dict, rng: random.Random) -> list:
        order = list(inputs)
        rng.shuffle(order)
        config = search_config(lib)
        return [
            (spec, lambda G=inputs[spec][0]: result_summary(lib.search.enumerate_brackets(G, config)))
            for spec in order
        ]

    def check(self, lib, inputs: dict, outputs: dict) -> list[str]:
        errors = []
        for spec, (G, lie) in inputs.items():
            if spec not in outputs:
                continue
            raw, classes, exhausted, items = outputs[spec]
            auts = checks.automorphisms(G.cayley)
            found = checks.check_enumeration(G.cayley, items, raw, classes, exhausted, auts, lie)
            errors += [f"{spec}: {e}" for e in found]
        return errors


class Induce(Workload):
    """Induced enumeration over split products: C1-C6 and classification."""

    NAMES = ("Z4xD4", "Z4xV4", "Z2xD4", "Z3:D4", "Z5xD3", "Z8:Z2", "Z5:Z4")

    def setup(self, lib, work: Path, rng: random.Random) -> dict:
        return {name: make_action(lib, name) for name in self.NAMES}

    def round_ops(self, lib, inputs: dict, rng: random.Random) -> list:
        order = list(inputs)
        rng.shuffle(order)
        config = search_config(lib)
        return [
            (name, lambda a=inputs[name]: result_summary(lib.search.enumerate_induced(a.H, a.K, a, config)))
            for name in order
        ]

    def check(self, lib, inputs: dict, outputs: dict) -> list[str]:
        errors = []
        for name, action in inputs.items():
            if name not in outputs:
                continue
            raw, classes, exhausted, items = outputs[name]
            found = check_induced_output(lib, action, items, raw, classes)
            if not exhausted:
                found.append("search on K was cut short by its node budget")
            errors += [f"{name}: {e}" for e in found]
        return errors


def check_induced_output(lib, action, items, raw_count: int, class_count: int) -> list[str]:
    """One product's induced enumeration against checks.check_induced. The
    sets it is compared with come from the library's exhaustive search on the
    product (order at most 32, after the timed rounds): with H, as the
    benchmark embeds it, required to be an ideal, and, for coprime orders and
    the trivial action, with no ideal required."""
    G = lib.construction.semidirect_product(action)
    H, K = action.H.cayley, action.K.cayley
    h_members = tuple(h + len(H) * checks.identity_of(K) for h in range(len(H)))
    config = search_config(lib)
    ideal = lib.search.enumerate_brackets(G, replace(config, require_ideal=lib.groups.Subgroup(G, h_members)))
    exhaustive = None
    if action.is_trivial and gcd(len(H), len(K)) == 1:
        exhaustive = [b.star for b in lib.search.enumerate_brackets(G, config).items]
    errors = checks.check_induced(
        H, K, action.sigma, G.cayley, items, raw_count, class_count, checks.automorphisms(G.cayley),
        [b.star for b in ideal.items], exhaustive,
    )
    if not ideal.exhausted:
        errors.append("exhaustive search with H ideal was cut short by its node budget")
    return errors


class Roundtrip(Workload):
    """CLI calls on construction files: verify, induce, verify, decompose."""

    per_call = True

    NAMES = ("Z3:D3", "Z5:Z4", "Z3:D4", "Z5xD3", "Z4xD4", "Z4xQ8")

    def __init__(self) -> None:
        self.picks: dict[str, int] = {}

    def setup(self, lib, work: Path, rng: random.Random) -> dict:
        pool = json.loads(POOL.read_text(encoding="utf-8")) if POOL.is_file() else None
        if pool is None or any(name not in pool for name in self.NAMES):
            raise BenchError(f"missing input pool {POOL}; make it with: python3 bench/make_pool.py")
        if not self.picks:
            self.picks = {name: rng.randrange(len(pool[name])) for name in self.NAMES}
        io_ = lib.serialization
        work.mkdir(parents=True, exist_ok=True)
        inputs = {}
        for name in self.NAMES:
            action = make_action(lib, name)
            star_k, gamma, beta = pool[name][self.picks[name]]
            H, K = action.H, action.K
            data = lib.construction.ConstructionData.make(
                action,
                lib.brackets.LieBracket.make(K, star_k),
                lib.construction.GammaMap.make(H, K, gamma),
                lib.construction.PairingMap.make(H, K, beta),
            )
            stem = work / name.replace(":", "-")
            paths = {k: f"{stem}-{k}.json" for k in ("data", "group", "bracket", "sigma")}
            paths["parts"] = f"{stem}-parts"
            io_.save_construction(data, paths["data"])
            io_.save_group(lib.construction.semidirect_product(action), paths["group"])
            h_spec, k_spec, _ = PRODUCTS[name]
            if action.is_trivial:
                spec = f"{h_spec}x{k_spec}"
            else:
                Path(paths["sigma"]).write_text(
                    io_.canonical_dumps({"sigma": [list(r) for r in action.sigma]}), encoding="utf-8"
                )
                spec = f"{h_spec}:{k_spec}:sigma={os.path.relpath(paths['sigma'])}"
            inputs[name] = SimpleNamespace(action=action, tables=(star_k, gamma, beta), paths=paths, spec=spec)
        return inputs

    def round_ops(self, lib, inputs: dict, rng: random.Random) -> list:
        order = list(inputs)
        rng.shuffle(order)
        ops = []
        for name in order:
            p, spec = inputs[name].paths, inputs[name].spec
            for cmd, argv in (
                ("verify-construction", ["verify", "--construction", p["data"], "--format", "json"]),
                ("induce", ["induce", "--data", p["data"], "--out", p["bracket"]]),
                ("verify-bracket", ["verify", "--group", p["group"], "--bracket", p["bracket"], "--format", "json"]),
                ("decompose", ["decompose", "--group", spec, "--bracket", p["bracket"],
                               "--emit", p["parts"], "--format", "json"]),
            ):
                ops.append((f"{name}/{cmd}", lambda argv=argv: cli_call(lib, argv)))
        return ops

    def collect(self, inputs: dict) -> dict:
        out = {}
        for name, inp in inputs.items():
            for label, path in (("bracket-file", inp.paths["bracket"]),
                                ("parts-file", Path(inp.paths["parts"]) / "construction.json")):
                if Path(path).is_file():
                    out[f"{name}/{label}"] = Path(path).read_bytes()
        return out

    def check(self, lib, inputs: dict, outputs: dict) -> list[str]:
        errors = []
        io_ = lib.serialization
        for name, inp in inputs.items():
            got = {k.split("/", 1)[1]: v for k, v in outputs.items() if k.startswith(name + "/")}
            found = check_roundtrip(io_, inp, got)
            errors += [f"{name}: {e}" for e in found]
        return errors


def cli_call(lib, argv: list[str]) -> str:
    """Standard output of one ``mla-forge`` call; a non-zero exit raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"mla-forge {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def check_roundtrip(io_, inp, got: dict) -> list[str]:
    """One construction file's CLI outputs against the induction formula and
    the file itself."""
    errors = []
    action = inp.action
    H, K, sigma = action.H.cayley, action.K.cayley, action.sigma
    star_k, gamma, beta = inp.tables
    product = checks.product_table(H, K, sigma)
    expected = checks.induce(H, K, sigma, star_k, gamma, beta)
    bad = checks.axiom_failure(product, expected)
    h_members = [h + len(H) * checks.identity_of(K) for h in range(len(H))]
    if bad or not checks.is_ideal(product, expected, h_members):
        return [f"input tuple does not induce a bracket with H ideal ({bad or 'H not ideal'})"]
    data_bytes = Path(inp.paths["data"]).read_bytes()
    if "verify-construction" in got:
        report = json.loads(got["verify-construction"])
        if sorted(report) != [f"C{i}" for i in range(1, 7)] or not all(v["pass"] for v in report.values()):
            errors.append(f"verify --construction does not pass all six conditions: {report}")
    if "bracket-file" in got:
        doc = json.loads(got["bracket-file"])
        if doc["star"] != expected:
            errors.append("induced bracket file differs from the induction formula")
        if doc["group"]["cayley"] != product:
            errors.append("induced bracket file has the wrong product group")
    if "verify-bracket" in got and json.loads(got["verify-bracket"]) != {"violations": []}:
        errors.append(f"verify --bracket reports violations: {got['verify-bracket'][:200]}")
    if "decompose" in got and json.loads(got["decompose"]) != json.loads(data_bytes):
        errors.append("decompose does not give back the construction data")
    if "parts-file" in got and got["parts-file"] != data_bytes:
        errors.append("decompose --emit construction.json differs from the input file")
    tmp = Path(inp.paths["data"]).with_suffix(".rewrite")
    for load, save, path in (
        (io_.load_construction, io_.save_construction, inp.paths["data"]),
        (io_.load_bracket, io_.save_bracket, inp.paths["bracket"]),
        (io_.load_group, io_.save_group, inp.paths["group"]),
    ):
        if not Path(path).is_file():  # the call that writes it failed
            continue
        save(load(path), tmp)
        if tmp.read_bytes() != Path(path).read_bytes():
            errors.append(f"write -> read -> write changes {Path(path).name}")
    tmp.unlink(missing_ok=True)
    return errors


WORKLOADS = {"enumerate": Enumerate, "induce": Induce, "roundtrip": Roundtrip}


# -- the run --------------------------------------------------------------------------


def reference_loop() -> None:
    s = 0
    for i in range(REFERENCE_LOOP):
        s += i * i % 7


def reference_time() -> float:
    """The reference loop's time now (median of three runs)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def speed_factor(before: float, after: float) -> float:
    """REFERENCE_S over the reference time around a measurement: above 1 when
    the machine ran faster than nominal, below 1 when slower."""
    return REFERENCE_S / ((before + after) / 2)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]()
    rng = random.Random(seed)
    work = OUT / f"work-{os.getpid()}"
    raw = {"setup": [], "rounds": [], "traced_rounds": [], "ops": [], "speed": []}
    setup_times: list[float] = []
    lib = inputs = None

    def set_up() -> None:
        nonlocal lib, inputs
        gc.collect()
        before = reference_time()
        t0 = time.perf_counter()
        lib = import_library()
        inputs = wl.setup(lib, work, rng)
        elapsed = time.perf_counter() - t0
        raw["setup"].append(elapsed)
        setup_times.append(elapsed * speed_factor(before, reference_time()))

    try:
        tracer = spans.Tracer() if trace else None
        walls: dict[bool, list[float]] = {False: [], True: []}
        op_times: list[float] = []
        op_log: dict[str, list[float]] = {}
        layer_rounds: list[dict] = []
        reference: dict = {}
        problems: list[str] = []
        attempted = failed = rounds = 0
        start = time.perf_counter()
        while True:
            # each round runs on a fresh set-up, and set-ups keep pace with
            # SETUP_REPS per run
            set_up()
            while len(setup_times) < 1 + SETUP_REPS * (time.perf_counter() - start) / seconds:
                set_up()
            traced = trace and rounds % 2 == 1
            ops = wl.round_ops(lib, inputs, rng)
            outputs = {}
            round_raw = round_scaled = 0.0
            gc.collect()
            if traced:
                tracer.new_round()
                tracer.install()
            before = reference_time()
            for label, op in ops:
                t0 = time.perf_counter()
                try:
                    value = op()
                except Exception as exc:  # an operation of the program failed; count it
                    failed += 1
                    problems.append(f"{label}: {type(exc).__name__}: {exc}")
                else:
                    outputs[label] = value
                elapsed = time.perf_counter() - t0
                after = reference_time()
                factor = speed_factor(before, after)
                before = after
                attempted += 1
                raw["speed"].append(factor)
                round_raw += elapsed
                round_scaled += elapsed * factor
                if not traced and label in outputs:
                    raw["ops"].append(elapsed)
                    op_times.append(elapsed * factor)
                    op_log.setdefault(label, []).append(elapsed * factor)
            if traced:
                tracer.uninstall()
                layer_rounds.append(spans.round_metrics(tracer.new_round(), round_raw))
            raw["traced_rounds" if traced else "rounds"].append(round_raw)
            walls[traced].append(round_scaled)
            outputs.update(wl.collect(inputs))
            for label, value in outputs.items():
                if reference.setdefault(label, value) != value:
                    problems.append(f"{label}: round {rounds} output differs from round 0")
            rounds += 1
            if time.perf_counter() - start >= seconds and (not trace or rounds >= 2):
                break
        while len(setup_times) < SETUP_REPS:
            set_up()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        errors = [p for p in problems if "differs from round" in p]
        try:
            errors += wl.check(lib, inputs, reference)
        except Exception as exc:  # the library failed while its outputs were checked
            errors.append(f"check raised {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    scaled = end_to_end(setup_times, walls[False], op_times if wl.per_call else walls[False], peak_rss_mb)
    measured = end_to_end(raw["setup"], raw["rounds"], raw["ops"] if wl.per_call else raw["rounds"], peak_rss_mb)
    if trace:
        metrics = {k: statistics.median(r[k] for r in layer_rounds) for k in layer_rounds[0]}
        metrics["trace.overhead_s"] = statistics.median(raw["traced_rounds"]) - statistics.median(raw["rounds"])
    else:
        metrics = scaled
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(
        f"{workload} seed={seed}: {rounds} rounds, {attempted} operations, {failed} failed; "
        f"median speed factor {statistics.median(raw['speed']):.3f}, "
        f"measured round times {[round(w, 3) for w in raw['rounds']]}; "
        f"measured (unscaled) {json.dumps({k: round(v, 6) for k, v in measured.items()})}",
        file=sys.stderr,
    )
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({**result, "rounds": rounds, "scaled_metrics": scaled, "measured_metrics": measured,
                    "round_walls": walls[False], "setup_times": setup_times, "op_times": op_log,
                    "measured": raw, "errors": errors, "problems": problems}),
        encoding="utf-8",
    )
    if trace:
        (OUT / f"trace-{tag}.json").write_text(
            json.dumps({"spans": tracer.spans, "rounds": layer_rounds}), encoding="utf-8"
        )
    return result


def end_to_end(setups: list[float], rounds: list[float], ops: list[float], peak_rss_mb: float) -> dict:
    """The end-to-end metrics of a run from its set-up, round and operation
    times (scaled or measured)."""
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rounds),
        "peak_rss_mb": peak_rss_mb,
        "op_p50_s": statistics.median(ops),
        # inclusive: with a dozen rounds, stay inside the samples seen
        "op_p90_s": statistics.quantiles(ops, n=10, method="inclusive")[8] if len(ops) > 1 else ops[0],
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith("_ratio") or metric.endswith("_per_action"):
        return "ratio"
    if metric.endswith("bytes_written"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
