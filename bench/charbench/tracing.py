"""Spans around calls into charsum's public functions, installed from outside.

A traced run replaces module attributes such as `charsum.evaluator.derive`
with wrappers that record a span (name, start, end, parent).  Spans of one
root call (one evaluation, one CLI `main`, one worker chunk) are kept in
memory until the root closes, then folded into per-name totals and self
times, so memory stays bounded however long the run is.  Nothing under
`src/` knows about this; the wrappers are removed after the traced pass.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import uuid
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


def fold(spans: list) -> dict[str, list[int]]:
    """Per-name [calls, total_ns, self_ns] for spans [name, start, end, parent].

    A span's self time is its duration minus the durations of the spans whose
    parent it is.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, list[int]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        acc = out.setdefault(name, [0, 0, 0])
        acc[0] += 1
        acc[1] += end - start
        acc[2] += end - start - child_ns[i]
    return out


def merge(into: dict[str, list[int]], part: dict[str, list[int]]) -> None:
    for name, vals in part.items():
        acc = into.setdefault(name, [0, 0, 0])
        for j, v in enumerate(vals):
            acc[j] += v


class Tracer:
    """Collects spans from wrapped attributes and folds them per root call."""

    def __init__(self, worker_dir: Path | None = None) -> None:
        self.agg: dict[str, list[int]] = {}
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self._spans: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def reset(self) -> None:
        self.agg = {}
        self.counters = Counter()
        self._spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([name, perf_counter_ns(), 0, parent])
        self._stack.append(len(self._spans) - 1)
        try:
            yield
        finally:
            i = self._stack.pop()
            self._spans[i][2] = perf_counter_ns()
            if not self._stack:
                merge(self.agg, fold(self._spans))
                self._spans = []

    def _wrapper(self, func, name, hook):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with tracer.span(name(args) if callable(name) else name):
                result = func(*args, **kwargs)
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return wrapper

    def wrap_function(self, path: str, name, hook=None) -> None:
        """Wrap the function at dotted `path` wherever a charsum module binds it."""
        func = _resolve(path)
        if func is None:
            self.missing.append(path)
            return
        wrapper = self._wrapper(func, name, hook)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "charsum" or modname.startswith("charsum.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is func:
                    self._set(mod, attr, wrapper)

    def wrap_attr(self, owner, attr: str, name, hook=None) -> None:
        """Wrap one attribute, such as a method on a class or `json.dump`."""
        func = getattr(owner, attr, None)
        if func is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._set(owner, attr, self._wrapper(func, name, hook))

    def wrap_worker_root(self, path: str, name: str) -> None:
        """Wrap a function that a process pool runs in forked workers.

        In a worker the wrapper starts from an empty trace, runs the call as a
        root span and writes the folded result to `worker_dir`, where the
        parent collects it with `collect_workers`.  The wrapper keeps the
        original's module and name, so the pool pickles it by reference.
        """
        func = _resolve(path)
        if func is None:
            self.missing.append(path)
            return
        mod_name, attr = path.rsplit(".", 1)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if os.getpid() == tracer.pid:
                with tracer.span(name):
                    return func(*args, **kwargs)
            tracer.reset()
            with tracer.span(name):
                result = func(*args, **kwargs)
            tracer.dump(tracer.worker_dir / f"{os.getpid()}-{uuid.uuid4().hex}.json")
            return result

        self._set(sys.modules[mod_name], attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"agg": self.agg, "counters": dict(self.counters)}))

    def absorb(self, path: Path) -> None:
        part = json.loads(path.read_text())
        merge(self.agg, part["agg"])
        self.counters.update(part["counters"])

    def collect_workers(self) -> None:
        for path in sorted(self.worker_dir.glob("*.json")):
            self.absorb(path)
            path.unlink()

    def calls(self, name: str) -> int:
        return self.agg.get(name, (0, 0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.agg.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.agg.get(name, (0, 0, 0))[2] / 1e9


def _resolve(path: str):
    mod_name, attr = path.rsplit(".", 1)
    mod = sys.modules.get(mod_name)
    return getattr(mod, attr, None) if mod is not None else None


def oracle_bucket(m: int) -> str:
    return "m6-14" if m <= 14 else "m16-24"


def _count_solutions(counters, args, result) -> None:
    n = len(result.solutions)
    counters["solve.solutions"] += n
    counters["solve.witnesses"] += 1 if n else 0


def _count_dense(counters, args, result) -> None:
    counters["dense_coeffs"] += len(result.coeffs)


def _count_oracle(counters, args, result) -> None:
    m = args[0].m
    counters[f"oracle.terms.{oracle_bucket(m)}"] += 1 << (m - 1)
    counters["dense_coeffs"] += len(result.coeffs)


def install_evaluator(tracer: Tracer) -> None:
    """Spans for the closed-form pipeline and the ring helpers it calls."""
    import charsum.evaluator as ev

    tracer.wrap_function("charsum.evaluator.closed_form", "evaluator.closed_form")
    tracer.wrap_function("charsum.evaluator.normalize", "evaluator.normalize")
    tracer.wrap_function("charsum.evaluator.derive", "evaluator.derive")
    for fn in ("evaluate_large", "evaluate_small", "evaluate_tiny"):
        tracer.wrap_function(f"charsum.evaluator.{fn}", "evaluator.regime")
    tracer.wrap_function(
        "charsum.evaluator.solve_characteristic", "evaluator.solve", _count_solutions
    )
    tracer.wrap_function("charsum.ring2adic.dlog5", "ring2adic.dlog5")
    tracer.wrap_function("charsum.ring2adic.five_pow_cofactor", "ring2adic.five_pow_cofactor")
    tracer.wrap_attr(ev.ClosedForm, "value", "evaluator.value", _count_dense)
    tracer.wrap_attr(ev.ClosedForm, "to_json_dict", "evaluator.to_json")


def install_oracle(tracer: Tracer) -> None:
    tracer.wrap_function(
        "charsum.oracle.brute_force",
        lambda args: f"oracle.brute_force.{oracle_bucket(args[0].m)}",
        _count_oracle,
    )


def install_sweep(tracer: Tracer) -> None:
    """Spans for run_check's chunks in the pool workers."""
    tracer.wrap_worker_root("charsum.sweep._check_chunk", "sweep.check_chunk")
    tracer.wrap_function("charsum.cyclotomic.mul", "cyclotomic.mul")


def layer_metrics(tracer: Tracer, extra: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name, as (value, unit); 0 where not exercised."""
    t = tracer
    c = t.counters
    evals = t.calls("evaluator.closed_form")
    cli_calls = t.calls("cli.main")

    def per_eval(x: float) -> float:
        return x / evals if evals else 0.0

    def per_cli(x: float) -> float:
        return x / cli_calls if cli_calls else 0.0

    def ns_per_term(bucket: str) -> float:
        terms = c.get(f"oracle.terms.{bucket}", 0)
        return t.total_s(f"oracle.brute_force.{bucket}") * 1e9 / terms if terms else 0.0

    solutions = c.get("solve.solutions", 0)
    chunk_s = t.total_s("sweep.check_chunk")
    brute_in_chunks = t.total_s("oracle.brute_force.m6-14") if chunk_s else 0.0
    closed_in_chunks = t.total_s("evaluator.closed_form") if chunk_s else 0.0
    cli_oracle = sum(t.total_s(f"oracle.brute_force.{b}") for b in ("m6-14", "m16-24"))
    us, cnt, ratio = "us", "count", "ratio"
    return {
        "evaluator.solve.us_per_eval": (per_eval(t.self_s("evaluator.solve")) * 1e6, us),
        "evaluator.solve.solutions_per_eval": (per_eval(solutions), cnt),
        "evaluator.solve.witness_yield": (
            c.get("solve.witnesses", 0) / solutions if solutions else 0.0, ratio),
        "evaluator.normalize.us_per_eval": (per_eval(t.self_s("evaluator.normalize")) * 1e6, us),
        "evaluator.derive.calls_per_eval": (per_eval(t.calls("evaluator.derive")), cnt),
        "evaluator.derive.us_per_eval": (per_eval(t.self_s("evaluator.derive")) * 1e6, us),
        "evaluator.regime.us_per_eval": (per_eval(t.self_s("evaluator.regime")) * 1e6, us),
        "ring2adic.dlog5.calls_per_eval": (per_eval(t.calls("ring2adic.dlog5")), cnt),
        "ring2adic.dlog5.us_per_eval": (per_eval(t.self_s("ring2adic.dlog5")) * 1e6, us),
        "ring2adic.five_pow_cofactor.calls_per_eval": (
            per_eval(t.calls("ring2adic.five_pow_cofactor")), cnt),
        "evaluator.value.us_per_item": (per_eval(t.total_s("evaluator.value")) * 1e6, us),
        "cyclotomic.dense_coeffs_per_item": (per_eval(c.get("dense_coeffs", 0)), cnt),
        "cli.encode_s": (per_cli(t.total_s("cli.encode")), "s"),
        "oracle.ns_per_term.m6-14": (ns_per_term("m6-14"), "ns"),
        "sweep.parallel_efficiency": (extra.get("parallel_efficiency", 0.0), ratio),
        "sweep.oracle_share": (brute_in_chunks / chunk_s if chunk_s else 0.0, ratio),
        "sweep.harness_share": (
            (chunk_s - brute_in_chunks - closed_in_chunks) / chunk_s if chunk_s else 0.0, ratio),
        "cyclotomic.mul.us_per_record": (per_eval(t.total_s("cyclotomic.mul")) * 1e6, us),
        "oracle.ns_per_term.m16-24": (ns_per_term("m16-24"), "ns"),
        "oracle.cold_extra_s": (extra.get("cold_extra_s", 0.0), "s"),
        "oracle.table_mb": (extra.get("table_mb", 0.0), "MB"),
        "cli.closed_s": (
            per_cli(t.total_s("evaluator.closed_form") + t.total_s("evaluator.to_json")), "s"),
        "cli.oracle_s": (per_cli(cli_oracle), "s"),
        "cli.process_overhead_s": (
            per_cli(extra.get("child_wall_s", 0.0) - t.total_s("cli.main")), "s"),
        "trace.overhead_share": (extra["overhead_share"], ratio),
    }
