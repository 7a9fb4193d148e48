"""The benchmark's own tests: negative controls for every oracle, the
tracer's bookkeeping, and agreement between BENCHMARK.json and run.py.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import signal
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from condind import indicators, space  # noqa: E402
from condind.extreal import ext  # noqa: E402


class SmallDesk(workloads.Desk):
    atoms = 16
    depth = 4
    apply_level = 2
    rho_level = 1
    density_level = 1


def bump(rv: space.RandomVariable, atom: int = 0, by=Fraction(1, 2**60)) -> space.RandomVariable:
    values = list(rv.values)
    values[atom] = values[atom] + ext(by)
    return space.RandomVariable(rv.space, tuple(values))


def shift_level(process, t: int):
    """The envelope with time t moved by a tiny constant (still adapted)."""
    values = list(process.values)
    values[t] = values[t].shift(Fraction(1, 2**60))
    return replace(process, values=tuple(values))


def flagged(wl, inp, out) -> bool:
    try:
        wl.check(inp, out)
    except workloads.Mismatch:
        return True
    return False


@pytest.fixture(scope="module")
def desk_case():
    wl = SmallDesk(4, ROOT)
    inp = wl.prepare(0)
    out = wl.run(inp)
    wl.check(inp, out)  # the unperturbed answer passes
    return wl, inp, out


@pytest.mark.parametrize(
    "perturb",
    [
        pytest.param(lambda o, i: o.update(esssup=bump(o["esssup"])), id="cell-max"),
        pytest.param(lambda o, i: o.update(essinf=bump(o["essinf"], 3)), id="cell-min"),
        pytest.param(lambda o, i: o.update(condexp=bump(o["condexp"], 5)), id="cell-mean"),
        pytest.param(lambda o, i: o.update(env_sup=shift_level(o["env_sup"], 0)), id="envelope-max"),
        pytest.param(lambda o, i: o.update(env_mean=shift_level(o["env_mean"], 2)), id="envelope-mean"),
        pytest.param(lambda o, i: o.update(rho_fast=bump(o["rho_fast"])), id="rho-exact"),
        pytest.param(lambda o, i: o.update(rho_bisect=bump(o["rho_bisect"], 1, Fraction(1, 2**39))), id="rho-beyond-tol"),
        pytest.param(lambda o, i: o.update(projection=[]), id="projection-empty"),
        pytest.param(lambda o, i: o.update(projection=o["projection"] * 2), id="projection-extra"),
        pytest.param(lambda o, i: o.update(projection=[bump(o["projection"][0], 2, 1)]), id="projection-dominator"),
        pytest.param(lambda o, i: o["additivity"][1].update({0: "F3"}), id="additivity-tags"),
        pytest.param(
            lambda o, i: o.update(density=replace(o["density"], density=bump(o["density"].density, 7))),
            id="density-bits",
        ),
        pytest.param(lambda o, i: o.update(density=replace(o["density"], reconstruction_ok=False)), id="density-verdict"),
    ],
)
def test_desk_oracles_flag_perturbed_answers(desk_case, perturb):
    wl, inp, out = desk_case
    out = dict(out)
    out["additivity"] = (out["additivity"][0], dict(out["additivity"][1]))
    perturb(out, inp)
    assert flagged(wl, inp, out)


def test_rho_oracle_accepts_exactly_tol_and_flags_beyond(desk_case):
    wl, inp, out = desk_case
    exact = workloads.oracle_cell_mean(inp["x"], wl.probs, wl.levels[wl.rho_level])
    tol = workloads.risk.DEFAULT_TOL

    def shifted(by):
        return space.RandomVariable(wl.space, tuple(ext(-m + by) for m in exact))

    wl.check(inp, dict(out, rho_bisect=shifted(tol)))
    wl.check(inp, dict(out, rho_bisect=shifted(-tol)))
    assert flagged(wl, inp, dict(out, rho_bisect=shifted(tol + Fraction(1, 2**60))))


@pytest.fixture(scope="module")
def shapes_case():
    wl = workloads.Shapes(4, ROOT)
    k = next(k for k in range(50) if len(wl.prepare(k)["probs"]) >= 4)
    inp = wl.prepare(k)
    out = wl.run(inp)
    wl.check(inp, out)
    return wl, inp, out


@pytest.mark.parametrize("key", ["sup", "inf"])
def test_shapes_kernel_oracle_flags_perturbed_answer(shapes_case, key):
    wl, inp, out = shapes_case
    table = [list(row) for row in out[key]]
    table[-1][0] = bump(table[-1][0], 1, 1)
    assert flagged(wl, inp, dict(out, **{key: table}))


def test_shapes_projection_and_rigidity_oracles_flag_perturbed_answers(shapes_case):
    wl, inp, out = shapes_case
    assert flagged(wl, inp, dict(out, projections=[[], out["projections"][1]]))
    bad = bump(out["projections"][1][0], 0, 1)
    assert flagged(wl, inp, dict(out, projections=[out["projections"][0], [bad]]))
    skipped = out["rigidity"].skipped("esssup-shift-rigidity", "perturbed")
    assert flagged(wl, inp, dict(out, rigidity=skipped))


@pytest.fixture(scope="module")
def battery_case():
    wl = workloads.Battery(4, ROOT)
    argv = wl.argv(7)
    argv[-1] = "2"
    out = wl.run(argv)
    wl.check(argv, out)
    return wl, argv, out


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda doc: doc["checks"][3].update(verdict="counterexample"), id="counterexample"),
        pytest.param(lambda doc: doc["checks"][5].update(alarm=True), id="alarm"),
        pytest.param(lambda doc: doc["checks"][7].update(property="renamed"), id="property-names"),
        pytest.param(lambda doc: doc["checks"].pop(), id="property-dropped"),
        pytest.param(lambda doc: doc.update(failed=True), id="failed-flag"),
    ],
)
def test_battery_oracle_flags_perturbed_report(battery_case, edit):
    wl, argv, (code, text) = battery_case
    doc = json.loads(text)
    edit(doc)
    assert flagged(wl, argv, (code, json.dumps(doc)))


def test_battery_oracle_flags_nonzero_exit(battery_case):
    wl, argv, (code, text) = battery_case
    assert flagged(wl, argv, (1, text))


def test_cli_cold_oracle_flags_differing_stdout(tmp_path):
    wl = workloads.CliCold(4, tmp_path)
    wl.materialize()
    for i, (code, text) in wl.expected.items():
        assert code == 0, wl.argvs[i]
        wl.check(i, (code, text))
        assert flagged(wl, i, (code, text.replace("1", "2", 1)))
        assert flagged(wl, i, (2, text))


def test_set_partitions_are_counted_by_bell_numbers():
    assert [len(workloads.set_partitions(n)) for n in range(1, 7)] == [1, 2, 5, 15, 52, 203]


def test_tracer_restores_every_patched_name_and_keeps_outputs(shapes_case):
    wl, inp, out = shapes_case
    before = (indicators.esssup_cond, workloads.indicators.esssup_cond, space.Partition.__post_init__)
    t = tracer.Tracer()
    t.install()
    try:
        assert indicators.esssup_cond is not before[0]
        t.begin_op(0)
        traced_out = wl.run(inp)
        wall = t.end_op()
    finally:
        t.uninstall()
    assert (indicators.esssup_cond, workloads.indicators.esssup_cond, space.Partition.__post_init__) == before
    assert wl.digest(traced_out) == wl.digest(out)
    assert t.counts["indicators.esssup.calls"] >= len(out["sup"]) * len(inp["vars"])
    # self times partition the op's wall time (GC pauses are measured apart)
    spans_self = sum(v for k, v in t.self_s.items() if k != "runtime.gc.pause")
    assert spans_self == pytest.approx(wall, rel=1e-9)


def test_importtime_parser_sums_top_level_condind_modules():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   fractions",
        "import time:       300 |       5000 | condind",
        "import time:        50 |         50 |   condind.space",
        "import time:       200 |       1000 | condind.cli",
        "import time:       900 |        900 | json",
    ])
    assert run.import_seconds(stderr) == pytest.approx(0.006)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    t = tracer.Tracer()
    reported = run.per_layer_metrics(t, 1, 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, u) for k, (_, u) in reported.items()]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_host_speed_takes_samples_out_of_the_op_and_divides_by_their_mean():
    host = HostSpeed()
    host.at = [1.0, 2.0, 3.0, 4.0]
    host.seconds = [0.1, 0.2, 0.4, 0.8]
    own, cost = host.op_cost(1.5, 2.0)  # samples at 2.0 and 3.0 ran during the op
    assert own == pytest.approx(1.4) and cost == pytest.approx(1.4 / 0.3)
    # no sample during the op: the samples just before and just after it
    assert host.op_cost(2.1, 0.2) == (0.2, pytest.approx(0.2 / 0.3))
    assert host.op_cost(9.0, 0.5) == (0.5, pytest.approx(0.5 / 0.8))
    assert host.op_cost(0.0, 0.1) == (0.1, pytest.approx(0.1 / 0.1))


def test_host_speed_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed(interval_s=0.01) as host:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(host.seconds) >= 5 and host.at == sorted(host.at)
    assert all(s > 0 for s in host.seconds)
