"""The benchmark's four workloads: input generation, the timed op, and an
oracle per op that does not reuse the library's own computation.

Each workload is built from a seed alone. `prepare(k)` makes the inputs of
op k (untimed), `run(inputs)` is the op (timed), and `check(inputs, result)`
raises `Mismatch` when the library's answer disagrees with the oracle.
`digest(result)` renders a result so that traced and untraced runs can be
compared byte for byte.

Values are compared through `str()`, the library's public rendering, so an
oracle never relies on `ExtReal` comparisons or arithmetic.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from condind import cli, expectation_ext, indicators, risk, scenario, space, stochastic
from condind.extreal import ext

INF, NEG_INF = "inf", "-inf"  # raw infinite values; every other raw value is a Fraction


class Mismatch(Exception):
    """The library's output disagrees with the benchmark's oracle."""


def rng_for(seed: int, workload: str, k: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{k}")


def raw_key(v) -> tuple:
    """Total order on raw values without touching ExtReal."""
    if v == INF:
        return (1, 0)
    if v == NEG_INF:
        return (-1, 0)
    return (0, v)


def raw_str(v) -> str:
    return v if isinstance(v, str) else str(v)


def rv(space_, raw) -> space.RandomVariable:
    return space.RandomVariable(space_, tuple(ext(v) for v in raw))


def expect_equal(what: str, got: space.RandomVariable, want: list[str], memo: dict | None = None) -> None:
    """`memo` caches str() by object id; only valid while every value seen is alive."""
    if memo is None:
        rendered = [str(v) for v in got.values]
    else:
        rendered = []
        for v in got.values:
            text = memo.get(id(v))
            if text is None:
                text = memo[id(v)] = str(v)
            rendered.append(text)
    if rendered != want:
        raise Mismatch(f"{what}: got {rendered[:8]}... want {want[:8]}...")


# -- oracles ----------------------------------------------------------------
# Each works from the raw inputs alone; library answers are read through str().


def oracle_cell_extremes(raw, partitions) -> list[tuple[list[str], list[str]]]:
    """Cellwise (max, min) for each partition, chosen by index into the
    sorted grid of the raw values."""
    grid = sorted(set(raw), key=raw_key)
    rank = {v: i for i, v in enumerate(grid)}
    idx = [rank[v] for v in raw]
    names = [raw_str(v) for v in grid]
    out = []
    for cells in partitions:
        hi, lo = [""] * len(raw), [""] * len(raw)
        for cell in cells:
            top = names[max(idx[i] for i in cell)]
            bottom = names[min(idx[i] for i in cell)]
            for i in cell:
                hi[i], lo[i] = top, bottom
        out.append((hi, lo))
    return out


def oracle_cell_max(raw, cells) -> list[str]:
    return oracle_cell_extremes(raw, [cells])[0][0]


def oracle_cell_mean(raw, probs, cells) -> list[Fraction]:
    """Probability-weighted cell means from explicit Fraction sums (finite raw)."""
    out = [Fraction(0)] * len(raw)
    for cell in cells:
        mass = sum((probs[i] for i in cell), Fraction(0))
        mean = sum((probs[i] * raw[i] for i in cell), Fraction(0)) / mass
        for i in cell:
            out[i] = mean
    return out


def oracle_rho_within(got: space.RandomVariable, exact: list[Fraction], tol: Fraction) -> None:
    """Bisection rho must lie within tol of the exact value -E(X|H)."""
    for i, (v, want) in enumerate(zip(got.values, exact)):
        text = str(v)
        if text in (INF, NEG_INF) or abs(Fraction(text) - want) > tol:
            raise Mismatch(f"rho at atom {i}: {text} not within {tol} of {want}")


def oracle_solutions(got: list, dominator: list[str]) -> None:
    """The projection solution set is exactly [the cellwise dominator]."""
    if len(got) != 1:
        raise Mismatch(f"projection: {len(got)} solutions, want exactly the dominator")
    expect_equal("projection dominator", got[0], dominator)


# -- set partitions ---------------------------------------------------------


def set_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every set partition of range(n), cells ascending and ordered by first atom."""
    out: list[tuple[tuple[int, ...], ...]] = []
    blocks: list[list[int]] = []

    def extend(i: int) -> None:
        if i == n:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            extend(i + 1)
            b.pop()
        blocks.append([i])
        extend(i + 1)
        blocks.pop()

    extend(0)
    return out


def coarsen(cells, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """Merge cells at random into a coarser partition, canonical order."""
    groups: list[list[int]] = []
    for cell in cells:
        g = rng.randrange(len(groups) + 1)
        if g == len(groups):
            groups.append([])
        groups[g].extend(cell)
    return tuple(sorted((tuple(sorted(g)) for g in groups), key=lambda c: c[0]))


def binary_tree_levels(n: int, depth: int) -> list[tuple[tuple[int, ...], ...]]:
    """Level l splits the atoms into 2**l contiguous blocks; the last level is discrete."""
    levels = []
    for level in range(depth + 1):
        size = n >> level
        levels.append(tuple(tuple(range(s, s + size)) for s in range(0, n, size)))
    return levels


def tree_scenario_doc(rng: random.Random, n: int, depth: int) -> dict:
    """A scenario JSON document: non-uniform rational masses and a binary-tree filtration.

    The weights 1..9 repeat in a fixed multiset that the seed shuffles, so every
    seed gives the same total mass and cell sums of the same size; freely drawn
    weights made the cost of a desk op differ by up to 15% from seed to seed."""
    weights = [1 + i % 9 for i in range(n)]
    rng.shuffle(weights)
    total = sum(weights)
    labels = [f"w{i:03d}" for i in range(n)]
    levels = binary_tree_levels(n, depth)
    return {
        "atoms": [{"label": a, "prob": f"{w}/{total}"} for a, w in zip(labels, weights)],
        "partitions": {
            f"L{l}": [[labels[i] for i in cell] for cell in cells] for l, cells in enumerate(levels)
        },
        "filtration": [f"L{l}" for l in range(depth + 1)],
        "variables": {},
    }


def random_fraction(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 8))


def unit_mean_density(rng: random.Random, probs, cells) -> list[Fraction]:
    """Strictly positive density with conditional mean 1 on every cell."""
    out = [Fraction(0)] * len(probs)
    for cell in cells:
        w = {i: Fraction(rng.randint(1, 9), rng.randint(1, 3)) for i in cell}
        mass = sum((probs[i] for i in cell), Fraction(0))
        weighted = sum((w[i] * probs[i] for i in cell), Fraction(0))
        for i in cell:
            out[i] = w[i] * mass / weighted
    return out


def render(obj) -> str:
    return json.dumps(cli.jsonable(obj), sort_keys=True)


# -- battery ----------------------------------------------------------------


class Battery:
    """verify-all on the built-in canonical scenario: the CI-gate user path."""

    name = "battery"
    samples = 10
    tail_percentile = 50  # about 10 ops in 28 s: too few for a higher percentile
    trace_ops = 4

    def __init__(self, seed: int, root: Path):
        self.seed = seed

    def argv(self, op_seed: int) -> list[str]:
        return ["verify-all", "--seed", str(op_seed), "--samples", str(self.samples)]

    def prepare(self, k: int) -> list[str]:
        return self.argv(rng_for(self.seed, self.name, k).randrange(10**6))

    def run(self, argv: list[str]) -> tuple[int, str]:
        return run_cli_in_process(argv)

    def check(self, argv, result) -> None:
        code, out = result
        doc = json.loads(out)
        if code != 0 or doc["failed"]:
            raise Mismatch(f"verify-all exit {code}, failed={doc['failed']}")
        bad = [c["property"] for c in doc["checks"] if c["verdict"] == "counterexample" or c.get("alarm")]
        if bad:
            raise Mismatch(f"verify-all reports not ok: {bad}")
        names = [c["property"] for c in doc["checks"]]
        if names != BATTERY_PROPERTIES:
            raise Mismatch("verify-all property names differ from the pinned list")

    def digest(self, result) -> str:
        return hashlib.sha256(repr(result).encode()).hexdigest()


def run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


# -- desk -------------------------------------------------------------------


class Desk:
    """Desk-scale API calls on one large seeded scenario: per-cell arithmetic dominates."""

    name = "desk"
    atoms = 128  # recover_density is quadratic in the atoms: 256 atoms cost 4 s per op
    depth = 7  # binary tree down to the discrete partition
    apply_level = 3  # 8 cells of 16 atoms
    rho_level = 2  # 4 cells of 32 atoms, bisected cell by cell
    density_level = 2
    recover_samples = 8
    tail_percentile = 50  # about 19 ops in 28 s: too few for a higher percentile
    trace_ops = 6

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        doc = tree_scenario_doc(rng_for(seed, self.name, -1), self.atoms, self.depth)
        self.scenario = scenario.parse_scenario(doc)
        self.space = self.scenario.space
        self.probs = self.space.probs
        self.levels = binary_tree_levels(self.atoms, self.depth)
        filtration = self.scenario.filtration
        self.parts = filtration.partitions
        self.env_sup = stochastic.StochasticIndicator.from_builtin(filtration, "esssup")
        self.env_mean = stochastic.StochasticIndicator.from_builtin(filtration, "condexp")

    def prepare(self, k: int) -> dict:
        rng = rng_for(self.seed, self.name, k)
        n = self.atoms
        x = [random_fraction(rng, -30, 30) for _ in range(n)]
        spike_cell = self.levels[self.apply_level][rng.randrange(1 << self.apply_level)]
        spike = list(x)
        spike[rng.choice(spike_cell)] = INF
        return {
            "k": k,
            "x": x,
            "y": [random_fraction(rng, -30, 30) for _ in range(n)],
            "nonneg": [Fraction(rng.choice((0, 1, 2, 3, 5)), rng.choice((1, 2))) for _ in range(n)],
            "spike": spike,
            "spike_cell": spike_cell,
            "density": unit_mean_density(rng, self.probs, self.levels[self.density_level]),
        }

    def run(self, inp: dict) -> dict:
        sp = self.space
        H = self.parts[self.apply_level]
        H_rho = self.parts[self.rho_level]
        H_w = self.parts[self.density_level]
        X = rv(sp, inp["x"])
        out = {
            "esssup": indicators.esssup_indicator(H)(X),
            "essinf": indicators.essinf_indicator(H)(X),
            "condexp": indicators.condexp_indicator(H)(X),
            "env_sup": stochastic.backward_envelope(self.env_sup, X),
            "env_mean": stochastic.backward_envelope(self.env_mean, X),
            "rho_fast": risk.rho(indicators.condexp_indicator(H_rho), X),
            "rho_bisect": risk.rho(indicators.condexp_ext_indicator(H_rho), X),
        }
        X_nn = rv(sp, inp["nonneg"])
        grid = (0, Fraction(1, 2), 1, 2)
        out["projection"] = stochastic.projection_solve(
            indicators.esssup_indicator(self.parts[0]), X_nn, H_rho, grid
        )
        out["additivity"] = expectation_ext.additivity_set(rv(sp, inp["spike"]), rv(sp, inp["y"]), H)
        weighted = expectation_ext.weighted_indicator(H_w, rv(sp, inp["density"]))
        out["density"] = expectation_ext.recover_density(weighted, self.recover_samples, inp["k"])
        return out

    def check(self, inp: dict, out: dict) -> None:
        x, probs, levels = inp["x"], self.probs, self.levels
        cells = levels[self.apply_level]
        extremes = oracle_cell_extremes(x, levels)
        expect_equal("esssup", out["esssup"], extremes[self.apply_level][0])
        expect_equal("essinf", out["essinf"], extremes[self.apply_level][1])
        expect_equal("condexp", out["condexp"], [str(m) for m in oracle_cell_mean(x, probs, cells)])
        for t, cells_t in enumerate(levels):
            expect_equal(f"envelope esssup t={t}", out["env_sup"].values[t], extremes[t][0])
            means = oracle_cell_mean(x, probs, cells_t)
            expect_equal(f"envelope condexp t={t}", out["env_mean"].values[t], [str(m) for m in means])
        exact = [-m for m in oracle_cell_mean(x, probs, levels[self.rho_level])]
        expect_equal("rho fast path", out["rho_fast"], [str(v) for v in exact])
        oracle_rho_within(out["rho_bisect"], exact, risk.DEFAULT_TOL)
        oracle_solutions(out["projection"], oracle_cell_max(inp["nonneg"], levels[self.rho_level]))
        event, tags = out["additivity"]
        want_tags = {ci: ("F2" if cell == inp["spike_cell"] else "F1") for ci, cell in enumerate(cells)}
        if tags != want_tags or event.members != frozenset(range(self.atoms)):
            raise Mismatch("additivity set differs from the spiked-cell classification")
        report = out["density"]
        if not report.reconstruction_ok:
            raise Mismatch("density recovery did not reconstruct the indicator")
        expect_equal("recovered density", report.density, [str(v) for v in inp["density"]])

    def digest(self, out: dict) -> str:
        return hashlib.sha256(render(out).encode()).hexdigest()


# -- shapes -----------------------------------------------------------------


class Shapes:
    """Many fresh small spaces: ExtReal comparisons, the esssup/essinf
    kernels and space construction, with no cell means at all."""

    name = "shapes"
    grid = (NEG_INF, Fraction(-3), Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
            Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2), INF)
    grid_vars = 4
    random_vars = 2
    eps_grid = (0, Fraction(1, 4), Fraction(1, 2), 1, 2)
    tail_percentile = 99
    trace_ops = 500

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.partitions = {n: set_partitions(n) for n in range(2, 7)}

    def prepare(self, k: int) -> dict:
        rng = rng_for(self.seed, self.name, k)
        n = rng.randint(2, 6)
        weights = [rng.randint(1, 9) for _ in range(n)]
        variables = [[rng.choice(self.grid) for _ in range(n)] for _ in range(self.grid_vars)]
        variables += [[random_fraction(rng, -20, 20) for _ in range(n)] for _ in range(self.random_vars)]
        fine = rng.choice(self.partitions[n])
        mid = coarsen(fine, rng)
        chain = (coarsen(mid, rng), mid, fine)
        nonneg = [Fraction(rng.choice((0, 1, 2, 3)), rng.choice((1, 2))) for _ in range(n)]
        carried = [c for c in fine if rng.random() < 0.5] or [fine[0]]
        event = sorted(i for c in carried for i in c)
        shift_x = [Fraction(0)] * n
        for i in event:
            shift_x[i] = Fraction(rng.randint(0, 4), rng.randint(1, 3))
        shift_x[event[0]] = Fraction(1)  # keeps the conditional supremum nonzero
        return {
            "probs": tuple(Fraction(w, sum(weights)) for w in weights),
            "cells": self.partitions[n],
            "vars": variables,
            "chain": chain,
            "nonneg": nonneg,
            "event": event,
            "shift_x": shift_x,
        }

    def run(self, inp: dict) -> dict:
        n = len(inp["probs"])
        sp = space.FiniteProbabilitySpace(tuple(f"s{i}" for i in range(n)), inp["probs"])
        parts = [space.Partition(sp, cells) for cells in inp["cells"]]
        Xs = [rv(sp, raw) for raw in inp["vars"]]
        sup = [[indicators.esssup_cond(X, P) for X in Xs] for P in parts]
        inf = [[indicators.essinf_cond(X, P) for X in Xs] for P in parts]
        F0, F1, F2 = (space.Partition(sp, cells) for cells in inp["chain"])
        X_nn = rv(sp, inp["nonneg"])
        I0 = indicators.esssup_indicator(F0)
        grid = sorted(set(inp["nonneg"]) | {Fraction(0)})
        projections = [stochastic.projection_solve(I0, X_nn, Ft, grid) for Ft in (F1, F2)]
        event = space.Event(sp, frozenset(inp["event"]))
        rigidity = stochastic.check_esssup_shift_rigidity(F0, event, rv(sp, inp["shift_x"]), self.eps_grid)
        return {"sup": sup, "inf": inf, "projections": projections, "rigidity": rigidity}

    def check(self, inp: dict, out: dict) -> None:
        memo: dict = {}
        for v, raw in enumerate(inp["vars"]):
            expected = oracle_cell_extremes(raw, inp["cells"])
            for p, (hi, lo) in enumerate(expected):
                expect_equal("esssup", out["sup"][p][v], hi, memo)
                expect_equal("essinf", out["inf"][p][v], lo, memo)
        for cells, got in zip(inp["chain"][1:], out["projections"]):
            oracle_solutions(got, oracle_cell_max(inp["nonneg"], cells))
        rep = out["rigidity"]
        if rep.verdict.value != "verified" or rep.cases != len(self.eps_grid):
            raise Mismatch(f"shift rigidity: {rep.verdict.value} after {rep.cases} cases")

    def digest(self, out: dict) -> str:
        return hashlib.sha256(render(out).encode()).hexdigest()


# -- cli-cold ---------------------------------------------------------------


class CliCold:
    """One `python -m condind.cli <verb>` child per op: interpreter start,
    import, scenario parsing and rendering."""

    name = "cli-cold"
    atoms = 32
    depth = 5
    tail_percentile = 90  # about 140 ops in 28 s
    trace_ops = 32  # four rounds of the eight commands

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        rng = rng_for(seed, self.name, -1)
        doc = tree_scenario_doc(rng, self.atoms, self.depth)
        labels = [a["label"] for a in doc["atoms"]]
        x = [random_fraction(rng, -20, 20) for _ in labels]
        spike = list(x)
        spike[rng.randrange(len(spike))] = INF
        doc["variables"] = {
            "X": dict(zip(labels, map(raw_str, x))),
            "Y": {a: str(random_fraction(rng, -20, 20)) for a in labels},
            "nn": {a: str(Fraction(rng.randint(0, 6), 2)) for a in labels},
            "spike": dict(zip(labels, map(raw_str, spike))),
        }
        self.doc = doc
        self.path = root / "perfbench" / "out" / f"cli-scenario-{seed}.json"
        s = ["--scenario", str(self.path)]
        self.argvs = [
            ["apply", *s, "--indicator", "esssup", "--sigma", "L2", "--var", "X"],
            ["apply", *s, "--indicator", "condexp", "--sigma", "L3", "--var", "X"],
            ["condexp-ext", *s, "--sigma", "L2", "--var", "spike"],
            ["risk", *s, "--indicator", "condexp", "--sigma", "L2", "--var", "X"],
            ["additivity-set", *s, "--x", "spike", "--y", "Y", "--sigma", "L2"],
            ["envelope", *s, "--family", "esssup", "--payoff", "X"],
            ["envelope", *s, "--family", "condexp", "--payoff", "X"],
            ["project", *s, "--var", "nn", "--time", "L2"],
        ]
        self.env = child_env(root)
        self.expected: dict[int, tuple[int, str]] = {}

    def materialize(self) -> None:
        """Write the scenario file and record the in-process answer for every argv."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.doc, indent=1))
        self.expected = {i: run_cli_in_process(argv) for i, argv in enumerate(self.argvs)}

    def prepare(self, k: int) -> int:
        return k % len(self.argvs)

    def run(self, i: int) -> tuple[int, str]:
        cmd = [sys.executable, "-m", "condind.cli", *self.argvs[i]]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=self.env)
        return proc.returncode, proc.stdout

    def check(self, i: int, result) -> None:
        if result != self.expected[i]:
            raise Mismatch(f"cli-cold {self.argvs[i][0]}: subprocess output differs from in-process cli.run")

    def digest(self, result) -> str:
        return hashlib.sha256(repr(result).encode()).hexdigest()


def child_env(root: Path) -> dict:
    """The parent's environment without CONDIND_CAP, importing condind from root/src."""
    env = {k: v for k, v in os.environ.items() if k != "CONDIND_CAP"}
    env["PYTHONPATH"] = str(root / "src")
    return env


WORKLOADS = {w.name: w for w in (Battery, Desk, Shapes, CliCold)}

# `verify-all` property names on the canonical scenario, in report order.
BATTERY_PROPERTIES: list[str] = json.loads((Path(__file__).parent / "battery_properties.json").read_text())
