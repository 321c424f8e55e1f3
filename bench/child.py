"""Child-process entry points of the benchmark.

    child.py setup <workload> <seed>     time one set-up in a fresh interpreter
    child.py cli <trace-file> eval ...   run `charsum eval` with spans recorded
    child.py verify <output-file>        digest of the result a `charsum eval` printed
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]


def setup(workload: str, seed: str) -> int:
    from charbench import workloads

    workloads.build(workload, int(seed))
    print(time.perf_counter() - START)
    return 0


def traced_cli(trace_file: str, argv: list[str]) -> int:
    import json

    import charsum.cli
    from charbench import tracing

    tracer = tracing.Tracer()
    tracing.install_evaluator(tracer)
    tracing.install_oracle(tracer)
    tracer.wrap_attr(json, "dump", "cli.encode")
    with tracer.span("cli.main"):
        code = charsum.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(Path(trace_file))
    return code


def verify(output_file: str) -> int:
    import json

    from charbench import stats

    with open(output_file, "rb") as fh:
        doc = json.load(fh)
    cf = doc["closed_form"]
    key = stats.result_key(cf["case"], cf["value"]["ring_exponent"],
                           stats.json_value_terms(cf["value"]), cf["x0"])
    print(json.dumps({"case": cf["case"], "digest": stats.digest(key), "match": doc.get("match")}))
    return 0


if __name__ == "__main__":
    command = sys.argv[1]
    if command == "setup":
        sys.exit(setup(*sys.argv[2:4]))
    if command == "verify":
        sys.exit(verify(sys.argv[2]))
    sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
