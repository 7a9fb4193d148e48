"""Span tracer for the benchmark's traced run.

The tracer measures condind from outside: it replaces public functions in
every module namespace that binds them, and a few methods on the classes
`ExtReal`, `RandomVariable`, `Partition`, `IndicatorSpec` and `RunReport`.
`uninstall()` puts every original back. Nothing under `src/` changes.

Each span records its name, start, end, parent and op id. Spans stay in
memory (typed arrays, about 28 bytes each) until `write()`. Self time is a
span's duration minus the time its child spans cover, accumulated as the
spans close. `ExtReal` arithmetic gets counters only: a span per arithmetic
operation would swamp the run.
"""

from __future__ import annotations

import functools
import gc
import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter

# (metric name, defining module, attribute). Every module namespace that
# binds the same object under that attribute is patched too.
SPANNED_FUNCTIONS = (
    ("indicators.cellmean", "condind.indicators", "ext_cond_expectation_closed_form"),
    ("indicators.esssup", "condind.indicators", "esssup_cond"),
    ("indicators.essinf", "condind.indicators", "essinf_cond"),
    ("indicators.extension", "condind.indicators", "lower_extension"),
    ("indicators.extension", "condind.indicators", "upper_extension"),
    ("space.restrict", "condind.space", "restrict"),
    ("space.patch", "condind.space", "patch"),
    ("space.enumerate_events", "condind.space", "enumerate_events"),
    ("space.expectation", "condind.space", "expectation"),
    ("checks.check_axioms", "condind.checks", "check_axioms"),
    ("checks.check_regular", "condind.checks", "check_regular"),
    ("checks.check_structural", "condind.checks", "check_structural"),
    ("checks.check_hplus_decomposition", "condind.checks", "check_hplus_decomposition"),
    ("checks.check_convex_implies_regular", "condind.checks", "check_convex_implies_regular"),
    ("checks.check_additive_implies_regular", "condind.checks", "check_additive_implies_regular"),
    ("battery.verify_all", "condind.battery", "verify_all"),
    ("risk.rho", "condind.risk", "rho"),
    ("risk.check_prop_rm", "condind.risk", "check_prop_rm"),
    ("risk.check_dom_closure", "condind.risk", "check_dom_closure"),
    ("stochastic.projection_solve", "condind.stochastic", "projection_solve"),
    ("stochastic.check_projection", "condind.stochastic", "check_projection"),
    ("stochastic.backward_envelope", "condind.stochastic", "backward_envelope"),
    ("stochastic.check_tower", "condind.stochastic", "check_tower"),
    ("expectation_ext.recover_density", "condind.expectation_ext", "recover_density"),
    ("expectation_ext.additivity_set", "condind.expectation_ext", "additivity_set"),
    ("expectation_ext.check_lemm_cond_exp", "condind.expectation_ext", "check_lemm_cond_exp"),
    ("sampling.sample_rv", "condind.sampling", "sample_rv"),
    ("scenario.parse", "condind.scenario", "parse_scenario"),
    ("cli.dispatch", "condind.cli", "dispatch"),
)
# generator functions: each `next()` is one span
SPANNED_GENERATORS = (("sampling.iter_cases", "condind.sampling", "iter_cases"),)
# (metric name, class module, class, method)
SPANNED_METHODS = (
    ("space.partition_new", "condind.space", "Partition", "__post_init__"),
    ("cli.render", "condind.cli", "RunReport", "to_dict"),
)
CHECKERS = tuple(n for n, _, _ in SPANNED_FUNCTIONS if n.startswith("checks."))
# spans whose indicator evaluations are counted per call
EVAL_COUNTED = ("risk.rho", "expectation_ext.recover_density")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, child seconds]
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = -1
        self._seen_args: set = set()
        self._pinned_specs: list = []
        self._ext_busy = False
        self._gc_start = 0.0
        self._undo: list = []

    # -- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> None:
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(time.perf_counter())

    def close(self) -> float:
        end = time.perf_counter()
        idx, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        name = self.names[self.span_name[idx]]
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    def begin_op(self, op: int) -> None:
        self.op = op
        self._seen_args.clear()
        self._pinned_specs.clear()
        self.open("op")

    def end_op(self) -> float:
        return self.close()

    def add_child_time(self, name: str, seconds: float) -> None:
        """Self time measured outside the tracer (a child's import), nested
        in the open span."""
        self.self_s[name] += seconds
        if self._stack:
            self._stack[-1][1] += seconds

    # -- installation ----------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self
        evals = name in EVAL_COUNTED
        checker = name in CHECKERS
        events = name == "space.enumerate_events"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.open(name)
            before = tracer.counts["indicators.call.calls"]
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            tracer.counts[name + ".calls"] += 1
            if evals:
                tracer.counts[name + ".evals"] += tracer.counts["indicators.call.calls"] - before
            if checker:
                tracer.counts["checks.cases"] += result.cases
            if events:
                tracer.counts["space.enumerate_events.events"] += len(result)
            return result

        return wrapper

    def _generator_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                tracer.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close()
                yield item

        return wrapper

    def _rho_wrapper(self, fn, flag):
        tracer = self
        inner = self._span_wrapper("risk.rho", fn)

        @functools.wraps(fn)
        def wrapper(I, X, *args, **kwargs):
            if not I.has(flag):
                tracer.counts["risk.rho.bisect_calls"] += 1
            return inner(I, X, *args, **kwargs)

        return wrapper

    def _patch_everywhere(self, module_name: str, attr: str, make) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if key == attr and value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def _patch_method(self, cls, attr: str, wrapped) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)

    def install(self) -> None:
        from condind import extreal, indicators, space

        for name, module, attr in SPANNED_FUNCTIONS:
            if name == "risk.rho":
                flag = indicators.Flag.TRANSLATION_INVARIANT
                self._patch_everywhere(module, attr, lambda fn: self._rho_wrapper(fn, flag))
            else:
                self._patch_everywhere(module, attr, functools.partial(self._span_wrapper, name))
        for name, module, attr in SPANNED_GENERATORS:
            self._patch_everywhere(module, attr, functools.partial(self._generator_wrapper, name))
        for name, module, cls_name, attr in SPANNED_METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch_method(cls, attr, self._span_wrapper(name, cls.__dict__[attr]))

        self._install_extreal(extreal.ExtReal)
        self._install_indicator_spec(indicators.IndicatorSpec)
        rv_post_init = space.RandomVariable.__dict__["__post_init__"]
        counts = self.counts

        def rv_new(rv):
            counts["space.rv_new.calls"] += 1
            return rv_post_init(rv)

        self._patch_method(space.RandomVariable, "__post_init__", rv_new)
        self._install_scenario_literals()
        gc.callbacks.append(self._on_gc)

    def _install_extreal(self, ExtReal) -> None:
        tracer = self
        counts = self.counts

        def counted(key, fn):
            # only the outermost operation counts: __le__ delegating to
            # __eq__ and __lt__ is one comparison, __sub__ is one addition
            @functools.wraps(fn)
            def wrapper(a, b):
                if tracer._ext_busy:
                    return fn(a, b)
                tracer._ext_busy = True
                counts[key] += 1
                try:
                    return fn(a, b)
                finally:
                    tracer._ext_busy = False

            return wrapper

        for attr in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
            self._patch_method(ExtReal, attr, counted("extreal.cmp.calls", ExtReal.__dict__[attr]))
        for attr in ("__add__", "__sub__"):
            self._patch_method(ExtReal, attr, counted("extreal.add.calls", ExtReal.__dict__[attr]))
        self._patch_method(ExtReal, "__mul__", counted("extreal.mul.calls", ExtReal.__dict__["__mul__"]))
        init = ExtReal.__dict__["__init__"]

        @functools.wraps(init)
        def new(self_, *args, **kwargs):
            counts["extreal.new.calls"] += 1
            init(self_, *args, **kwargs)

        self._patch_method(ExtReal, "__init__", new)

    def _install_indicator_spec(self, IndicatorSpec) -> None:
        tracer = self
        counts = self.counts
        call = IndicatorSpec.__dict__["__call__"]
        in_domain = IndicatorSpec.__dict__["in_domain"]

        @functools.wraps(call)
        def counted_call(spec, X):
            counts["indicators.call.calls"] += 1
            key = (id(spec), X)
            if key in tracer._seen_args:
                counts["indicators.call.repeats"] += 1
            else:
                tracer._seen_args.add(key)
                tracer._pinned_specs.append(spec)  # keeps id(spec) unique in the op
            return call(spec, X)

        @functools.wraps(in_domain)
        def counted_in_domain(spec, X):
            ok = in_domain(spec, X)
            counts["indicators.domain.checks"] += 1
            if not ok:
                counts["indicators.domain.rejects"] += 1
            return ok

        self._patch_method(IndicatorSpec, "__call__", counted_call)
        self._patch_method(IndicatorSpec, "in_domain", counted_in_domain)

    def _install_scenario_literals(self) -> None:
        scenario = importlib.import_module("condind.scenario")
        parse_ext = scenario.parse_ext
        counts = self.counts

        def counted_parse_ext(text):
            counts["scenario.literals"] += 1
            return parse_ext(text)

        self._undo.append((scenario, "parse_ext", parse_ext))
        scenario.parse_ext = counted_parse_ext

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.counts["runtime.gc.collections"] += 1
            self.self_s["runtime.gc.pause"] += time.perf_counter() - self._gc_start

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ----------------------------------------------------------

    def merge(self, other: dict) -> None:
        """Fold a child process's exported trace into the current op."""
        base = len(self.span_start)
        parent_of_roots = self._stack[-1][0] if self._stack else -1
        remap = [self._name_id(name) for name in other["names"]]
        for nid, parent, start, end in other["spans"]:
            if parent < 0 and self._stack:
                self._stack[-1][1] += end - start
            self.total_s[other["names"][nid]] += end - start
            self.span_name.append(remap[nid])
            self.span_parent.append(parent + base if parent >= 0 else parent_of_roots)
            self.span_op.append(self.op)
            self.span_start.append(start)
            self.span_end.append(end)
        self.self_s.update(other["self_s"])
        self.counts.update(other["counts"])

    def export(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                [self.span_name[i], self.span_parent[i], self.span_start[i], self.span_end[i]]
                for i in range(len(self.span_start))
            ],
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt") as out:
            out.write(json.dumps({"names": self.names, "columns": ["name", "start_s", "end_s", "parent", "op"]}) + "\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"[{self.span_name[i]},{self.span_start[i]:.9f},{self.span_end[i]:.9f},"
                    f"{self.span_parent[i]},{self.span_op[i]}]\n"
                )
