"""Workload inputs made from a seed, and the runners that time and check them.

A seed selects one of SPEC["blocks"] input blocks.  Each block is generated
afresh from the seed and checked against reference.json, which pins the
digest of the block's inputs and of every item's exact result, so that any
seed's outputs are gated against values recorded when the benchmark was
defined.  A runner exposes `invoke(i)` (the timed call into the program) and
`check(i, result, dt_ns)` (untimed verification and bookkeeping).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import charsum.evaluator as ev
import charsum.sweep as sweep
from charsum.characters import Character

from . import stats, tracing

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())
REFERENCE_PATH = BENCH_DIR / "reference.json"
WORKLOADS = tuple(SPEC["workloads"])


def sub_seed(*parts) -> int:
    """A 64-bit generator seed derived from the workload, block and position."""
    data = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def block_of(seed: int) -> int:
    return seed % SPEC["blocks"]


def _gen(name: str) -> dict:
    return SPEC["workloads"][name]["generator"]


def _objects(rec):
    m, a, b, k, c1, s1, c2, s2 = rec
    return ev.SumInstance(m, a, b, k), Character(m, s1, c1), Character(m, s2, c2)


def _v2(x: int) -> int:
    return (x & -x).bit_length() - 1


def normalized_shape(rec) -> tuple[str, int, int] | None:
    """(regime, n, t) after normalization, or None when the sum is settled
    before derive (parity, imprimitivity, four-term direct sum)."""
    norm = ev.normalize(*_objects(rec))
    if norm.kind != "standard":
        return None
    p = ev.derive(norm.inst)
    return p.regime, p.n, p.t


def shape_class(rec, limit: int) -> str | None:
    """The record's class for quotas.

    "zero" when normalize settles the sum (parity or imprimitivity); for the
    Large regime "Large.zero" when evaluate_large returns before solving
    (chi1's parameter lacks the 2-power n + t, or k is even and chi1(-1) = -1)
    and "Large.<s>" otherwise, s = n + 2t + min(1, t) being log2 of the
    solver's solution count; else the regime.  None for four-term direct
    sums and for Large shapes with n + 2t above `limit` (closed-deep's traffic).
    """
    norm = ev.normalize(*_objects(rec))
    if norm.kind != "standard":
        return "zero" if norm.kind == "zero" else None
    p = ev.derive(norm.inst)
    if p.regime != ev.REGIME_LARGE:
        return p.regime
    if p.n + 2 * p.t > limit:
        return None
    chi1 = norm.chi1
    if _v2(chi1.c) != p.n + p.t or (norm.inst.k % 2 == 0 and chi1.s != 1):
        return "Large.zero"
    return f"Large.{p.n + 2 * p.t + min(1, p.t)}"


def _sampled(name: str, m: int, quota: dict[str, int], limit: int, *key) -> list:
    """Records from sample_records at one modulus, the first ones of each class
    up to its quota, in sampling order.  A longer sample only appends to a
    shorter one, so growing it until the quotas fill keeps the choice fixed."""
    count = 6 * sum(quota.values())
    while True:
        want = dict(quota)
        kept = []
        for rec in sweep.sample_records(sub_seed(name, *key, m), m, m, count):
            cls = shape_class(rec, limit)
            if want.get(cls, 0) > 0:
                want[cls] -= 1
                kept.append(rec)
        if not any(want.values()):
            return kept
        count *= 4


# ---------------------------------------------------------------------------
# generators: one list of items per (workload, block)

def closed_mix_items(block: int) -> list[tuple[tuple, str | None]]:
    g = _gen("closed-mix")
    items: list = []
    for m in range(g["m"][0], g["m"][1] + 1):
        recs = _sampled("closed-mix", m, g["per_m"], g["max_large_n_plus_2t"], block)
        items += [(r, None) for r in recs]
    c8 = g["criterion8"]
    for m in c8["m"]:
        rec = (m, c8["A"], c8["B"], c8["k"], c8["c1"], c8["s1"], c8["c2"], c8["s2"])
        items.append((rec, "criterion8"))
    random.Random(sub_seed("closed-mix", block, "order")).shuffle(items)
    return items


def _solved_b(rng: random.Random, m: int, a: int, k: int, c1: int, c2: int) -> int:
    """Odd B for which the characteristic congruence has a random odd witness."""
    n, t = _v2(a), _v2(k)
    width = ((m + n) >> 1) + t
    x0 = rng.randrange(1, 1 << width, 2)
    probe = ev.SumInstance(m, a, 1, k)
    cv = ev.characteristic_value(x0, probe, Character(m, 1, c1), Character(m, 1, c2), width)
    q = ((cv - c1) % (1 << width)) >> (n + t)
    w2 = width - n - t
    b = (-q * pow(c1 >> (n + t), -1, 1 << w2)) % (1 << w2)
    return b + (rng.randrange(0, 1 << (m - w2)) << w2)


def closed_deep_items(block: int) -> list[tuple[tuple, str | None]]:
    """The same grid of shapes in every block: each solver size s (the solver
    finds 2^s solutions, s = n + 2t + min(1, t)), each t, two moduli, with k's
    odd part fixed by position.  The seed draws A's odd part, B and the
    characters, which leave the solver's work alone."""
    g = _gen("closed-deep")
    rng = random.Random(sub_seed("closed-deep", block))
    m_lo, m_hi = g["m"]
    width = m_hi - m_lo + 1
    per = g["moduli_per_shape"]
    items: list = []
    for s in range(g["log2_solutions"][0], g["log2_solutions"][1] + 1):
        for t in g["t"]:
            n = s - 2 * t - min(1, t)
            for j in range(per):
                m = m_lo + (s + t + j * width // per) % width
                k = (1 << t) * (2 * ((s + t + j) % 8) + 1)
                a = (1 << n) * rng.randrange(1, 1 << (m - n), 2)
                c1 = rng.randrange(1, 1 << (m - 2 - n - t), 2) << (n + t)
                c2 = rng.randrange(1, 1 << (m - 2), 2)
                s2 = rng.choice((1, -1))
                if t == 0:
                    s1, b = rng.choice((1, -1)), rng.randrange(1, 1 << m, 2)
                else:
                    s1, b = 1, _solved_b(rng, m, a, k, c1, c2)
                items.append(((m, a, b, k, c1, s1, c2, s2), f"log2_solutions={s}"))
    rng.shuffle(items)
    return items


def verify_sweep_batches(block: int) -> list[list[tuple]]:
    g = _gen("verify-sweep")
    batches = []
    for i in range(g["batches"]):
        recs: list = []
        for m in range(g["m"][0], g["m"][1] + 1):
            recs += sweep.sample_records(sub_seed("verify-sweep", block, i, m), m, m, g["per_m"])
        random.Random(sub_seed("verify-sweep", block, i, "order")).shuffle(recs)
        batches.append(recs)
    return batches


def cli_eval_items(block: int) -> list[tuple[str, tuple]]:
    g = _gen("cli-eval")
    items = []
    for method, key in (("closed", "closed_m"), ("both", "both_m")):
        for m in range(g[key][0], g[key][1] + 1):
            recs = _sampled("cli-eval", m, g["per_point"], g["max_large_n_plus_2t"], block, method)
            items += [(method, r) for r in recs]
    random.Random(sub_seed("cli-eval", block, "order")).shuffle(items)
    return items


GENERATORS = {
    "closed-mix": closed_mix_items,
    "closed-deep": closed_deep_items,
    "verify-sweep": verify_sweep_batches,
    "cli-eval": cli_eval_items,
}


def inputs_digest(items) -> str:
    return stats.digest(items, size=8)


def load_reference(name: str, block: int) -> dict:
    ref = json.loads(REFERENCE_PATH.read_text())["workloads"][name]
    out = {"inputs": ref["inputs"][block]}
    if "outputs" in ref:
        packed = ref["outputs"][block]
        out["outputs"] = [packed[i : i + 8] for i in range(0, len(packed), 8)]
    return out


def _peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _table_mb(m: int) -> float:
    """Bytes of the oracle's discrete-log table at modulus 2^m, if it exposes one."""
    import charsum.oracle as oracle

    build = getattr(oracle, "_dlog_table", None)
    if build is None:
        return 0.0
    tbl = build(m)
    return len(tbl) * getattr(tbl, "itemsize", 8) / 2**20


# ---------------------------------------------------------------------------
# runners

class Runner:
    """Shared bookkeeping: per-item first results, output sizes, failures."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.block = block_of(seed)
        self.raw = GENERATORS[name](self.block)
        self.ref = load_reference(name, self.block)
        self.inputs_ok = inputs_digest(self.raw) == self.ref["inputs"]
        self.out_bytes: list[int | None] = [None] * len(self.raw)
        self.cases: list[str | None] = [None] * len(self.raw)
        self.first_failure: str | None = None
        self.tracer: tracing.Tracer | None = None
        self.tmp: Path | None = None

    def __len__(self) -> int:
        return len(self.raw)

    def fail(self, i: int, why: str) -> None:
        if self.first_failure is None:
            self.first_failure = f"item {i}: {why}"

    def output_bytes(self) -> float:
        sizes = [b for b in self.out_bytes if b is not None]
        return sum(sizes) / len(sizes) if sizes else 0.0

    def records(self) -> list[tuple]:
        return [item[0] for item in self.raw]

    def traffic(self) -> dict:
        """Case tags, normalized n + 2t ("-" when normalize settles the sum,
        ">16" beyond closed-deep's range) and m, counted over the block."""
        depths: Counter = Counter()
        for rec in self.records():
            shape = normalized_shape(rec)
            depths[-1 if shape is None else min(shape[1] + 2 * shape[2], 17)] += 1
        labels = {-1: "-", 17: ">16"}
        return {
            "case_tags": dict(sorted(Counter(c for c in self.cases if c).items())),
            "n_plus_2t": {labels.get(d, str(d)): n for d, n in sorted(depths.items())},
            "m": {str(m): n for m, n in sorted(Counter(r[0] for r in self.records()).items())},
        }

    def trace_begin(self) -> tracing.Tracer:
        raise NotImplementedError

    def trace_end(self) -> dict:
        self.tracer.unwrap_all()
        return {}

    def make_tmp(self) -> Path:
        """A scratch directory for trace files, inside the benchmark's own tree."""
        self.tmp = BENCH_DIR / ".tmp" / f"trace-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        return self.tmp

    def cleanup(self) -> None:
        if self.tmp is None:
            return
        for path in self.tmp.glob("*"):
            path.unlink()
        self.tmp.rmdir()
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass


class ClosedRunner(Runner):
    """closed-mix and closed-deep: one closed_form() call per item."""

    def __init__(self, name: str, seed: int) -> None:
        super().__init__(name, seed)
        self.args = [_objects(rec) for rec, _ in self.raw]
        self.groups = [group for _, group in self.raw]
        self.first_key: list = [None] * len(self.raw)
        self.first_ok = [False] * len(self.raw)

    def invoke(self, i: int):
        return ev.closed_form(*self.args[i])

    def check(self, i: int, cf, dt_ns: int) -> bool:
        key = stats.closed_form_key(cf)
        if self.first_key[i] is None:
            self.first_key[i] = key
            self.first_ok[i] = stats.digest(key) == self.ref["outputs"][i]
            self.cases[i] = cf.case
            self.out_bytes[i] = len(json.dumps({
                "case": cf.case, "ring_exponent": cf.ring_exponent,
                "terms": [list(t) for t in cf.terms], "magnitude_halves": cf.magnitude_halves,
                "x0": cf.x0, "lambda_parity": cf.lambda_parity, "h": cf.h,
                "scale_log2": cf.scale_log2,
            }))
        ok = self.first_ok[i] and key == self.first_key[i]
        if not ok:
            self.fail(i, f"result differs from reference: {key[:2]}")
        return ok

    def peak_rss_mb(self) -> float:
        return _peak_rss_self_mb()

    def trace_begin(self) -> tracing.Tracer:
        self.tracer = tracing.Tracer()
        tracing.install_evaluator(self.tracer)
        return self.tracer


class SweepRunner(Runner):
    """verify-sweep: one run_check() batch per item on a pool of `jobs` workers."""

    def __init__(self, name: str, seed: int) -> None:
        super().__init__(name, seed)
        self.jobs = _gen(name)["jobs"]
        self.tags: list[Counter | None] = [None] * len(self.raw)
        self.busy = {"closed": 0.0, "brute": 0.0, "wall": 0.0}

    def records(self) -> list[tuple]:
        return [rec for batch in self.raw for rec in batch]

    def invoke(self, i: int):
        report = sweep.run_check(self.raw[i], jobs=self.jobs)
        if self.tracer is not None:
            self.tracer.collect_workers()
        return report

    def check(self, i: int, report, dt_ns: int) -> bool:
        if self.tracer is None:
            self.busy["closed"] += report.closed_seconds
            self.busy["brute"] += report.brute_seconds
            self.busy["wall"] += dt_ns / 1e9
        if self.out_bytes[i] is None:
            self.out_bytes[i] = len(json.dumps(report.to_json_dict(), indent=2)) + 1
            self.tags[i] = Counter(report.tag_counts)
        ok = report.ok() and report.instances_checked == len(self.raw[i])
        if not ok:
            self.fail(i, f"{len(report.mismatches)} mismatches, "
                         f"{len(report.magnitude_violations)} magnitude violations, "
                         f"{report.instances_checked} of {len(self.raw[i])} checked")
        return ok

    def traffic(self) -> dict:
        out = super().traffic()
        tags: Counter = Counter()
        for t in self.tags:
            tags.update(t or {})
        out["case_tags"] = dict(sorted(tags.items()))
        return out

    def peak_rss_mb(self) -> float:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return _peak_rss_self_mb() + self.jobs * children

    def trace_begin(self) -> tracing.Tracer:
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            raise RuntimeError("the traced verify-sweep needs fork-started pool workers")
        self.tracer = tracing.Tracer(worker_dir=self.make_tmp())
        tracing.install_evaluator(self.tracer)
        tracing.install_oracle(self.tracer)
        tracing.install_sweep(self.tracer)
        return self.tracer

    def trace_end(self) -> dict:
        super().trace_end()
        b = self.busy
        return {
            "parallel_efficiency": (b["closed"] + b["brute"]) / (b["wall"] * self.jobs),
            "table_mb": _table_mb(_gen(self.name)["m"][1]),
        }


class CliRunner(Runner):
    """cli-eval: one `python -m charsum.cli eval` child process per item."""

    def __init__(self, name: str, seed: int) -> None:
        super().__init__(name, seed)
        self.argv = []
        for method, (m, a, b, k, c1, s1, c2, s2) in self.raw:
            self.argv.append([
                "eval", f"--m={m}", f"--A={a}", f"--B={b}", f"--k={k}", f"--c1={c1}",
                f"--s1={s1}", f"--c2={c2}", f"--s2={s2}", f"--method={method}",
            ])
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.first_hash: list[bytes | None] = [None] * len(self.raw)
        self.first_ok = [False] * len(self.raw)
        self.max_rss_kb = 0
        self.child_wall = 0.0

    def records(self) -> list[tuple]:
        return [rec for _, rec in self.raw]

    def traffic(self) -> dict:
        out = super().traffic()
        out["method"] = dict(Counter(method for method, _ in self.raw))
        return out

    def invoke(self, i: int):
        tmp = self.tmp or self.make_tmp()
        if self.tracer is None:
            cmd = [sys.executable, "-m", "charsum.cli", *self.argv[i]]
            trace_file = None
        else:
            trace_file = tmp / f"cli-{i}.json"
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), "cli", str(trace_file),
                   *self.argv[i]]
        out_file = tmp / f"out-{i}.json"
        with open(out_file, "wb") as out:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return out_file, proc.returncode, usage.ru_maxrss, trace_file

    def check(self, i: int, result, dt_ns: int) -> bool:
        out_file, code, rss_kb, trace_file = result
        if trace_file is not None:
            self.child_wall += dt_ns / 1e9
            if trace_file.exists():
                self.tracer.absorb(trace_file)
                trace_file.unlink()
        else:
            self.max_rss_kb = max(self.max_rss_kb, rss_kb)
        h = hashlib.blake2b(digest_size=16)
        with open(out_file, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        if self.first_hash[i] is None:
            self.first_hash[i] = h.digest()
            self.out_bytes[i] = out_file.stat().st_size
            self.first_ok[i] = code == 0 and self._verify_first(i, out_file)
        out_file.unlink()
        ok = code == 0 and self.first_ok[i] and h.digest() == self.first_hash[i]
        if not ok:
            self.fail(i, f"exit code {code} or output differs from reference")
        return ok

    def _verify_first(self, i: int, out_file: Path) -> bool:
        """Parse one CLI output in a separate process and compare it with the
        reference; parsing 23 MB here would grow this process, and every child
        started after that would report this process's peak RSS as its own."""
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), "verify", str(out_file)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            return False
        found = json.loads(proc.stdout)
        self.cases[i] = found["case"]
        ok = found["digest"] == self.ref["outputs"][i]
        if self.raw[i][0] == "both":
            ok = ok and found["match"] is True
        return ok

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024

    def trace_begin(self) -> tracing.Tracer:
        self.make_tmp()
        self.tracer = tracing.Tracer()
        return self.tracer

    def trace_end(self) -> dict:
        from charsum.oracle import brute_force

        extra = super().trace_end()
        extra["child_wall_s"] = self.child_wall
        both = {}
        for method, rec in self.raw:
            if method == "both":
                both.setdefault(rec[0], rec)
        gaps = []
        for m in sorted(both):
            args = _objects(both[m])
            t0 = time.perf_counter()
            brute_force(*args)
            t1 = time.perf_counter()
            brute_force(*args)
            t2 = time.perf_counter()
            gaps.append((t1 - t0) - (t2 - t1))
        extra["cold_extra_s"] = sum(gaps) / len(gaps) if gaps else 0.0
        extra["table_mb"] = _table_mb(max(both)) if both else 0.0
        return extra


RUNNERS = {
    "closed-mix": ClosedRunner,
    "closed-deep": ClosedRunner,
    "verify-sweep": SweepRunner,
    "cli-eval": CliRunner,
}


def build(name: str, seed: int) -> Runner:
    """Set up one workload: generate its block and load its reference."""
    return RUNNERS[name](name, seed)
