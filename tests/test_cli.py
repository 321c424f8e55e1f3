import io
import itertools
import json
import multiprocessing
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import charsum.cli
import charsum.oracle
import charsum.sweep
from charsum.cli import build_parser, main
from charsum.cyclotomic import ring_exponent_for
from charsum.evaluator import ClosedForm
from charsum.sweep import GRID_HEADER, CheckReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_both_matches(capsys):
    code, out = run_cli(
        capsys, "eval", "--m", "7", "--A", "2", "--B", "1", "--k", "1",
        "--c1", "2", "--s1", "1", "--c2", "1", "--s2", "1", "--method", "both",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["match"] is True
    assert doc["closed_form"]["case"] == "LargeEven"
    assert doc["closed_form"]["value"]["ring_exponent"] == 5
    assert doc["closed_form"]["value"]["terms"] == [[3, 16]]
    assert doc["oracle"]["value"] == doc["closed_form"]["value"]
    assert set(doc["closed_form"]) == {
        "case", "magnitude_halves", "x0", "lambda_parity", "h", "scale_log2", "value", "approx",
    }


def test_eval_zero_parity(capsys):
    code, out = run_cli(capsys, "eval", "--m", "5", "--A", "1", "--B", "3", "--k", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["closed_form"]["case"] == "ZeroParity"
    assert doc["closed_form"]["value"]["terms"] == []
    assert doc["closed_form"]["magnitude_halves"] is None


def test_eval_zero_imprimitive(capsys):
    code, out = run_cli(
        capsys, "eval", "--m", "6", "--A", "2", "--B", "1", "--c1", "3", "--c2", "4",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["closed_form"]["case"] == "ZeroImprimitive"
    assert doc["match"] is True


def test_eval_single_method_skips_compare(capsys):
    code, out = run_cli(capsys, "eval", "--m", "6", "--method", "closed")
    doc = json.loads(out)
    assert code == 0
    assert "oracle" not in doc and "match" not in doc


def test_eval_closed_does_not_import_the_oracle():
    script = (
        "import sys; from charsum.cli import main; code = main(sys.argv[1:]); "
        "print('charsum.oracle' in sys.modules); sys.exit(code)"
    )
    src = os.path.dirname(os.path.dirname(charsum.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script, "eval", "--m", "20", "--method", "closed"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False", proc.stdout[-200:]


def test_eval_closed_at_largest_m_is_small(capsys):
    code, out = run_cli(capsys, "eval", "--m", "30", "--method", "closed")
    assert code == 0
    assert len(out.encode()) < 4096
    assert json.loads(out)["closed_form"]["value"]["ring_exponent"] == 28


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--m"])  # missing value
    assert exc.value.code == 2
    code, _ = run_cli(capsys, "eval", "--m", "6", "--c1", "0")
    assert code == 2  # parameter outside [1, 2^(m-2)]


@pytest.mark.parametrize("argv", [
    ["check", "--jobs", "0"],
    ["check", "--jobs", "-2"],
    ["check", "--jobs", "two"],
    ["grid", "--m", "4", "--out", "unused.csv", "--jobs", "0"],
])
def test_nonpositive_jobs_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--jobs: expected a positive integer" in capsys.readouterr().err


def test_mismatch_exit_1(capsys, monkeypatch):
    # no honest mismatch exists, so fake the oracle (zero) to exercise the exit path
    monkeypatch.setattr(charsum.oracle, "brute_terms", lambda inst, c1, c2: ())
    code, out = run_cli(
        capsys, "eval", "--m", "7", "--A", "2", "--B", "1", "--k", "1",
        "--c1", "2", "--c2", "1", "--method", "both",
    )
    assert code == 1
    assert json.loads(out)["match"] is False


def test_width_cap_exit_3(capsys):
    code, _ = run_cli(capsys, "eval", "--m", "31")
    assert code == 3
    code, _ = run_cli(capsys, "eval", "--m", "28", "--method", "brute")
    assert code == 3  # oracle refuses above its own cap


@pytest.mark.parametrize("command", ["eval", "bench"])
def test_huge_m_exits_3_without_traceback(capsys, command):
    code = main([command, "--m", "1" + "0" * 30])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_check_refuses_nonpositive_samples(capsys, samples):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--samples", samples])
    assert exc.value.code == 2
    assert "--samples: expected a positive integer" in capsys.readouterr().err


def test_check_refuses_empty_m_range(capsys):
    code = main(["check", "--exhaustive", "--m-min", "5", "--m-max", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --m-min 5 exceeds --m-max 4\n"


@pytest.mark.parametrize("argv", [
    ["check", "--m-min", "3", "--m-max", "4", "--k-list", "1", "--samples", "20", "--jobs", "1"],
    ["check", "--k-list", "1,2"],
], ids=["sampled", "defaults"])
def test_check_refuses_k_list_without_exhaustive(capsys, argv):
    # sampled checks draw their own k, so a --k-list there would be ignored
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --k-list needs --exhaustive: sampled checks draw k themselves\n"


@pytest.mark.parametrize("argv, flag, value, cap", [
    (["eval", "--m", "-1"], "--m", -1, 30),
    (["eval", "--m", "2", "--method", "closed"], "--m", 2, 30),
    (["bench", "--m", "-1"], "--m", -1, 26),
    (["grid", "--m", "-1", "--out", os.devnull], "--m", -1, 26),
    (["check", "--exhaustive", "--m-min", "-1"], "--m-min", -1, 26),
    (["check", "--m-min", "2", "--m-max", "4", "--samples", "5"], "--m-min", 2, 26),
], ids=["eval", "eval-m2", "bench", "grid", "check-exhaustive", "check-sampled-m2"])
def test_m_below_3_exits_2_naming_flag_and_range(capsys, argv, flag, value, cap):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {flag} {value} is outside [3, {cap}]\n"


@pytest.mark.parametrize("argv, flag", [
    (["check", "--exhaustive", "--m-min", "3", "--m-max", "3", "--k-list", ""], "--k-list"),
    (["grid", "--m", "3", "--out", os.devnull, "--k-list", ","], "--k-list"),
    (["grid", "--m", "3", "--out", os.devnull, "--A-list", ","], "--A-list"),
], ids=["check-k-list", "grid-k-list", "grid-A-list"])
def test_empty_int_list_exits_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: expected a non-empty" in captured.err


@pytest.mark.parametrize("argv, flag, text", [
    (["check", "--exhaustive", "--m-min", "3", "--m-max", "3", "--k-list", "1,x"], "--k-list", "1,x"),
    (["grid", "--m", "3", "--out", os.devnull, "--A-list", "2,,y"], "--A-list", "2,,y"),
], ids=["check-k-list", "grid-A-list"])
def test_non_integer_in_int_list_exits_2(capsys, argv, flag, text):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument {flag}: expected a non-empty comma-separated list of integers, "
        f"got {text!r}\n"
    )


@pytest.mark.parametrize("argv, flag, value, allowed", [
    (["grid", "--m", "5", "--c1-list", "1,9"], "--c1-list", 9, "[1, 8]"),
    (["grid", "--m", "5", "--c2-list", "0"], "--c2-list", 0, "[1, 8]"),
    (["grid", "--m", "5", "--A-list", "40"], "--A-list", 40, "[0, 31]"),
    (["grid", "--m", "5", "--B-list", "1,-1"], "--B-list", -1, "[0, 31]"),
    (["grid", "--m", "5", "--s1-list", "1,0"], "--s1-list", 0, "{1, -1}"),
    (["grid", "--m", "5", "--s2-list", "2"], "--s2-list", 2, "{1, -1}"),
    (["grid", "--m", "5", "--k-list", "0"], "--k-list", 0, "[1, inf)"),
    (["check", "--exhaustive", "--m-min", "3", "--m-max", "3", "--k-list", "1,0"],
     "--k-list", 0, "[1, inf)"),
], ids=["grid-c1", "grid-c2", "grid-A", "grid-B", "grid-s1", "grid-s2", "grid-k", "check-k"])
def test_out_of_range_list_value_exits_2_before_any_work(
    capsys, monkeypatch, tmp_path, argv, flag, value, allowed
):
    monkeypatch.setattr(charsum.sweep, "_compare", _never_compare)
    out_path = tmp_path / "grid.csv"
    if argv[0] == "grid":
        argv = [*argv, "--out", str(out_path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {flag} value {value} is outside {allowed}\n"
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["grid", "--m", "27", "--out", os.devnull],
    ["check", "--exhaustive", "--m-min", "27", "--m-max", "27"],
    ["check", "--m-max", "27", "--samples", "5"],
])
def test_wide_sweeps_refused_before_allocating(argv):
    # 1 GiB of address space: building the 2^27-wide lists would fail long before
    script = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from charsum.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    src = os.path.dirname(os.path.dirname(charsum.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: modulus exponent 27 exceeds cap 26\n"


@pytest.mark.parametrize("exc", [AssertionError, RuntimeError])
def test_internal_error_exit_5(capsys, monkeypatch, exc):
    def broken(inst, chi1, chi2):
        raise exc("invariant broken")

    monkeypatch.setattr(charsum.cli, "closed_form", broken)
    code = main(["eval", "--m", "7", "--method", "closed"])
    err = capsys.readouterr().err
    assert code == 5
    assert err == f"internal error: {exc.__name__}: invariant broken\n"


def test_eval_does_not_import_sweep():
    # every `eval` process would otherwise pay for importing the sweep module
    script = (
        "import sys; from charsum.cli import main; "
        "main(['eval', '--m', '8', '--method', 'both']); "
        "sys.exit(3 if 'charsum.sweep' in sys.modules else 0)"
    )
    src = os.path.dirname(os.path.dirname(charsum.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["match"] is True


def test_cli_does_not_import_dataclasses():
    # importing dataclasses (and inspect) would cost every CLI process milliseconds
    script = (
        "import sys; from charsum.cli import main; "
        "loaded = 'dataclasses' in sys.modules; "
        "main(['eval', '--m', '8', '--method', 'both']); "
        "sys.exit(3 if loaded or 'dataclasses' in sys.modules else 0)"
    )
    src = os.path.dirname(os.path.dirname(charsum.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


posix_only = pytest.mark.skipif(not hasattr(os, "wait4"), reason="reads a child's peak RSS with os.wait4")


_WAIT4 = (
    "import os, subprocess, sys; "
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
    "_, status, usage = os.wait4(proc.pid, 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


def _child_peak_rss(prelude, *argv):
    """(exit code, peak RSS in bytes) of a CLI process that runs prelude before main(argv).

    A small interpreter starts it and reads its rusage with os.wait4: Linux
    carries the starting process's peak into a child's ru_maxrss, so started
    from this test process every child would read at least this one's peak.
    """
    script = f"import sys; {prelude}from charsum.cli import main; sys.exit(main(sys.argv[1:]))"
    src = os.path.dirname(os.path.dirname(charsum.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _WAIT4, sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, maxrss = map(int, proc.stdout.split())
    return code, maxrss * (1 if sys.platform == "darwin" else 1024)


@posix_only
def test_oracle_costs_at_most_6_bytes_per_count_slot():
    # `both` differs from `closed` by the oracle: its 2^r-slot count vector,
    # 4 bytes a slot, and its sparse terms; 8-byte slots, or a dense folded
    # value (8 bytes a pointer on half the slots), would exceed the bound
    argv = ["eval", "--m", "22", "--k", "13", "--method"]
    code_both, both = _child_peak_rss("", *argv, "both")
    code_closed, closed = _child_peak_rss("", *argv, "closed")
    assert code_both == code_closed == 0
    assert both - closed <= 6 * (1 << ring_exponent_for(22)), (both, closed)


@posix_only
def test_check_peak_rss_does_not_grow_with_samples():
    # blocks of 2^12 records: a sweep that held every record would differ by
    # over 10 MB between 10^4 and 10^5 records at m = 3
    prelude = "import charsum.sweep; charsum.sweep._BLOCK = 1 << 12; "
    argv = ["check", "--m-min", "3", "--m-max", "3", "--jobs", "1", "--samples"]
    code_small, small = _child_peak_rss(prelude, *argv, "10000")
    code_large, large = _child_peak_rss(prelude, *argv, "100000")
    assert code_small == code_large == 0
    assert large - small <= 3 << 20, (small, large)


@pytest.mark.parametrize("argv", [
    ["eval", "--m", "12"],
    ["check", "--m-min", "3", "--m-max", "6", "--samples", "50", "--jobs", "1"],
])
def test_closed_stdout_is_an_io_failure(argv):
    # a reader that stops early (`charsum ... | head -1`) is exit 4, not the mismatch code 1
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(charsum.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "charsum.cli", *argv],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: standard output was closed before the result was written\n"


def test_check_small_sweep(capsys):
    code, out = run_cli(
        capsys, "check", "--m-min", "5", "--m-max", "8",
        "--samples", "300", "--seed", "31", "--jobs", "1",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["instances_checked"] == 300
    assert doc["mismatches"] == []
    assert doc["seed"] == 31
    assert sum(doc["tag_counts"].values()) == 300


def test_check_deterministic_across_jobs(capsys, monkeypatch):
    # 203 records: not a multiple of 2 or 3, so the last part is shorter; a
    # one-term fork price makes jobs 2 and 3 fan out
    monkeypatch.setattr(charsum.sweep, "FORK_TERMS", 1)
    docs = []
    for jobs in ("1", "2", "3"):
        code, out = run_cli(
            capsys, "check", "--m-min", "6", "--m-max", "9",
            "--samples", "203", "--seed", "9", "--jobs", jobs,
        )
        assert code == 0
        doc = json.loads(out)
        del doc["wall_time"]
        del doc["jobs"]
        docs.append(doc)
    assert docs[0] == docs[1] == docs[2]


def _check_doc(records, jobs):
    doc = charsum.sweep.run_check(records, jobs=jobs).to_json_dict()
    del doc["wall_time"], doc["jobs"]
    return doc


def _grid_text(records, jobs):
    fh = io.StringIO()
    counts = charsum.sweep.write_grid(fh, records, jobs)
    return fh.getvalue(), counts


def _blocks_of_70(monkeypatch):
    """Cuts sweeps into blocks of 70 records, prices a block's fan-out at one
    term per process, so that every block uses every job, and returns the
    list that receives, per block, how many parts _pool_map cut it into: one
    per process.  203 records make blocks of 70, 70 and 63."""
    real = charsum.sweep._pool_map
    parts = []

    def watched(func, block, jobs):
        results = real(func, block, jobs)
        parts.append(len(results))
        return results

    monkeypatch.setattr(charsum.sweep, "_BLOCK", 70)
    monkeypatch.setattr(charsum.sweep, "FORK_TERMS", 1)
    monkeypatch.setattr(charsum.sweep, "_pool_map", watched)
    return parts


def test_grid_rows_identical_across_jobs(monkeypatch):
    # 203 records: not a multiple of 2 or 3, so the last part is shorter
    records = list(charsum.sweep.sample_records(9, 6, 9, 203))
    want = _grid_text(records, 1)
    assert want[1] == (203, 0)
    assert want[0].count("\n") == 204 and want[0].startswith(GRID_HEADER + "\n")
    for jobs in (2, 3):
        assert _grid_text(iter(records), jobs) == want
    parts = _blocks_of_70(monkeypatch)
    for jobs in (1, 2, 3):
        parts.clear()
        assert _grid_text(iter(records), jobs) == want
        assert parts == [jobs, jobs, jobs]


def test_check_report_identical_across_blocks(monkeypatch):
    records = list(charsum.sweep.sample_records(9, 6, 9, 203))
    want = _check_doc(records, 1)
    assert want["instances_checked"] == 203
    parts = _blocks_of_70(monkeypatch)
    for jobs in (1, 2, 3):
        parts.clear()
        assert _check_doc(iter(records), jobs) == want
        assert parts == [jobs, jobs, jobs]


def test_exhaustive_records_are_lazy():
    # the default m = 12 grid has about 2.5 * 10^14 records
    t0 = time.monotonic()
    assert next(charsum.sweep.exhaustive_records(12)) == (12, 0, 1, 1, 1, 1, 1, 1)
    assert time.monotonic() - t0 < 1


def test_sample_records_are_lazy():
    # 2^30 records at m = 3 would take over 100 GB as one list
    t0 = time.monotonic()
    first = next(charsum.sweep.sample_records(1, 3, 3, 1 << 30))
    assert time.monotonic() - t0 < 1
    assert first == next(charsum.sweep.sample_records(1, 3, 3, 1))


@pytest.mark.parametrize("m, ks, lists", [
    (3, (), {}),
    (4, (1, 2), {}),
    (5, (3,), {"a_list": (0, 2, 7), "c1_list": (1, 8), "s2_list": (-1,)}),
])
def test_exhaustive_count_matches_records(m, ks, lists):
    records = list(charsum.sweep.exhaustive_records(m, ks, **lists))
    assert charsum.sweep.exhaustive_count(m, ks, **lists) == len(records) == len(set(records))


def _never_compare(rec):
    raise AssertionError("a record was compared")


@pytest.mark.parametrize("argv, terms", [
    (["check", "--exhaustive", "--m-min", "7", "--m-max", "7"], "2.56e+11"),
    (["check", "--m-min", "26", "--m-max", "26", "--samples", "1000"], "3.36e+10"),
    (["grid", "--m", "12"], "7.57e+17"),
    # each record's fixed cost: 2^30 records at m = 3 would take hours
    (["check", "--m-min", "3", "--m-max", "3", "--samples", "1073741824"], "1.1e+12"),
], ids=["check-exhaustive", "check-sampled", "grid", "check-many-small"])
def test_oversized_sweep_exits_3_before_comparing(capsys, monkeypatch, tmp_path, argv, terms):
    monkeypatch.setattr(charsum.sweep, "_compare", _never_compare)
    out_path = tmp_path / "grid.csv"
    if argv[0] == "grid":
        argv = [*argv, "--out", str(out_path)]
    t0 = time.monotonic()
    code = main(argv)
    captured = capsys.readouterr()
    assert time.monotonic() - t0 < 1
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: sweep of about {terms} oracle terms exceeds cap 4.29e+09\n"
    assert not out_path.exists()


_TEST_PID = os.getpid()
_real_check_chunk = charsum.sweep._check_chunk


def _fail_in_child(recs):
    if os.getpid() != _TEST_PID:
        raise AssertionError("planted failure in a sweep worker")
    return _real_check_chunk(recs)


def _exit_in_child(recs):
    if os.getpid() != _TEST_PID:
        os._exit(3)
    return len(recs)


def _fail_in_parent(recs):
    if os.getpid() == _TEST_PID:
        raise AssertionError("planted failure in the calling process")
    time.sleep(60)
    return len(recs)


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the planted failures tell parent from child by the pid of a forked copy",
)


@fork_only
@pytest.mark.parametrize("func, exc, match", [
    (_fail_in_child, AssertionError, "planted failure in a sweep worker"),
    (_exit_in_child, RuntimeError, r"sweep worker 1 \(pid \d+\) exited with code 3 "),
    (_fail_in_parent, AssertionError, "planted failure in the calling process"),
], ids=["child-raises", "child-exits", "parent-raises"])
def test_pool_map_error_stops_every_child(monkeypatch, func, exc, match):
    monkeypatch.setattr(charsum.sweep, "FORK_TERMS", 1)  # 64 records fan out
    records = list(charsum.sweep.sample_records(3, 6, 6, 64))
    t0 = time.monotonic()
    with pytest.raises(exc, match=match):
        charsum.sweep._pool_map(func, records, 2)
    # the sleeping child of parent-raises was terminated, not waited for
    assert time.monotonic() - t0 < 30
    assert multiprocessing.active_children() == []


@fork_only
def test_check_exits_5_on_worker_assertion(capsys, monkeypatch):
    monkeypatch.setattr(charsum.sweep, "_check_chunk", _fail_in_child)
    monkeypatch.setattr(charsum.sweep, "FORK_TERMS", 1)  # 100 records fan out
    code = main(["check", "--m-min", "6", "--m-max", "6", "--samples", "100", "--jobs", "2"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.err == "internal error: AssertionError: planted failure in a sweep worker\n"
    assert multiprocessing.active_children() == []


_real_compare = charsum.sweep._compare


def _compare_fails_in_child(rec):
    if os.getpid() != _TEST_PID:
        raise AssertionError("planted failure in a sweep worker")
    return _real_compare(rec)


@fork_only
def test_grid_exits_5_on_worker_assertion(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(charsum.sweep, "_compare", _compare_fails_in_child)
    code = main([
        "grid", "--m", "6", "--out", str(tmp_path / "grid.csv"), "--k-list", "1",
        "--c1-list", "1", "--c2-list", "1", "--s1-list", "1", "--s2-list", "1", "--jobs", "2",
    ])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.err == "internal error: AssertionError: planted failure in a sweep worker\n"
    assert multiprocessing.active_children() == []


@pytest.fixture
def inline_processes(monkeypatch):
    """Runs each child's share of a _pool_map in this process, and returns
    the list that receives the size of each part handed to a child."""
    started = []

    class InlineProcess:
        def __init__(self, target, args, daemon):
            self.target, self.args = target, args

        def start(self):
            started.append(len(self.args[1]))
            self.target(*self.args)

        def is_alive(self):
            return False

        def join(self):
            pass

    monkeypatch.setattr(multiprocessing, "Process", InlineProcess)
    return started


def test_pool_map_starts_no_child_without_a_chunk(monkeypatch, inline_processes):
    monkeypatch.setattr(charsum.sweep, "FORK_TERMS", 1)
    records = list(charsum.sweep.sample_records(3, 3, 3, 64))
    # 64 records at jobs = 100 make 64 one-record parts: 63 children, one part each
    assert charsum.sweep._pool_map(len, records, 100) == [1] * 64
    assert inline_processes == [1] * 63


@pytest.mark.parametrize("n, m, jobs, procs", [
    # at m = 11 a record is priced 2^10 + 2^10 terms, so 512 records make FORK_TERMS
    (511, 11, 4, 1), (512, 11, 4, 1), (1023, 11, 4, 1), (1024, 11, 4, 2),
    (1535, 11, 4, 2), (1536, 11, 4, 3), (2047, 11, 4, 3), (2048, 11, 4, 4),
    (2560, 11, 4, 4),  # capped at jobs
    (4096, 11, 1, 1),  # jobs 1 never prices
    (3, 26, 8, 3),  # capped at one process per record
])
def test_pool_map_uses_one_process_per_fork_terms(inline_processes, n, m, jobs, procs):
    records = [(m, 2, 1, 1, 1, 1, 1, 1)] * n
    sizes = charsum.sweep._pool_map(len, records, jobs)
    assert len(sizes) == procs and sum(sizes) == n
    assert inline_processes == sizes[1:]


def test_verify_batch_stays_in_one_process(inline_processes):
    # a verify-sweep batch: 14 records at each m = 6..14, 0.36M priced terms
    records = [r for m in range(6, 15) for r in charsum.sweep.sample_records(m, m, m, 14)]
    report = charsum.sweep.run_check(records, jobs=2)
    assert report.ok() and report.instances_checked == 126 and report.jobs == 2
    assert inline_processes == []


@pytest.mark.parametrize("ring, terms", [
    (5, ((4, 16), (12, 16))),  # one coefficient negated
    (5, ((5, -16), (12, 16))),  # one term moved by one exponent step
    (5, ((4, -16), (12, -16))),  # the value turned a quarter (times i): same magnitude
    (5, ((12, 16),)),  # one term dropped
    (5, ((4, -16), (7, 1), (12, 16))),  # one term added
    (5, ((4, -32), (12, 32))),  # every coefficient doubled
    (6, ((4, -16), (12, 16))),  # the right terms in the wrong ring
    (5, ()),  # zero
], ids=["negated", "moved", "quarter-turn", "dropped", "added", "doubled", "ring", "zero"])
def test_compare_rejects_each_kind_of_wrong_value(monkeypatch, ring, terms):
    # a LargeOdd record worth -16 zeta^4 + 16 zeta^12 in Z[zeta_32]; its
    # closed form is replaced by a wrong value and compared with the real oracle
    rec = (7, 28, 115, 15, 4, 1, 25, -1)
    (cf,), (match,), _, _ = charsum.sweep._compare([rec])
    assert match and cf.ring_exponent == 5 and cf.terms == ((4, -16), (12, 16))
    wrong = cf._replace(ring_exponent=ring, terms=terms)
    monkeypatch.setattr(charsum.sweep, "closed_form", lambda *args: wrong)
    assert charsum.sweep._compare([rec])[1][0] is False


def test_check_flags_wrong_magnitude(capsys, monkeypatch):
    # no honest magnitude violation exists, so fake a closed form and an oracle
    # that agree on twice the true value: the terms match, |S|^2 is 4x too big
    real = charsum.sweep.closed_form

    def doubled(inst, chi1, chi2):
        cf = real(inst, chi1, chi2)
        return ClosedForm(
            cf.case, cf.ring_exponent, tuple((e, 2 * x) for e, x in cf.terms),
            cf.magnitude_halves, cf.x0, cf.lambda_parity, cf.h, cf.scale_log2,
        )

    monkeypatch.setattr(charsum.sweep, "closed_form", doubled)
    monkeypatch.setattr(charsum.sweep, "brute_terms", lambda *args: doubled(*args).terms)
    code, out = run_cli(
        capsys, "check", "--m-min", "6", "--m-max", "8",
        "--samples", "60", "--seed", "5", "--jobs", "1",
    )
    doc = json.loads(out)
    large = doc["tag_counts"].get("LargeEven", 0) + doc["tag_counts"].get("LargeOdd", 0)
    assert code == 1
    assert doc["mismatches"] == []
    assert large > 0 and len(doc["magnitude_violations"]) == large


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=fork_only)])
def test_check_reports_exactly_the_wrong_records(capsys, monkeypatch, jobs):
    # no honest mismatch exists, so make the closed form wrong on every fifth
    # record: a nonzero value negated, a zero one given a term
    records = list(charsum.sweep.sample_records(9, 6, 9, 203))
    bad = set(records[::5])
    real = charsum.sweep.closed_form

    def wrong_on_bad(inst, chi1, chi2):
        cf = real(inst, chi1, chi2)
        if (*inst, chi1.c, chi1.s, chi2.c, chi2.s) not in bad:
            return cf
        terms = tuple((e, -x) for e, x in cf.terms) or ((0, 1),)
        return ClosedForm(
            cf.case, cf.ring_exponent, terms,
            cf.magnitude_halves, cf.x0, cf.lambda_parity, cf.h, cf.scale_log2,
        )

    monkeypatch.setattr(charsum.sweep, "closed_form", wrong_on_bad)
    # blocks of 100 records, each fanned out at jobs = 2 (one term per
    # process), and a last block of 3
    monkeypatch.setattr(charsum.sweep, "_BLOCK", 100)
    monkeypatch.setattr(charsum.sweep, "FORK_TERMS", 1)
    want = sorted(r for r in records if r in bad)
    report = charsum.sweep.run_check(iter(records), jobs=jobs)
    assert report.instances_checked == 203
    assert report.mismatches == want
    assert report.magnitude_violations == []
    assert not report.ok()
    code, out = run_cli(
        capsys, "check", "--m-min", "6", "--m-max", "9",
        "--samples", "203", "--seed", "9", "--jobs", str(jobs),
    )
    assert code == 1
    assert json.loads(out)["mismatches"] == [list(r) for r in want]
    # phase runs of 16: a part holds several runs, and the mismatches of
    # every run are reported
    monkeypatch.setattr(charsum.sweep, "_PHASE", 16)
    report = charsum.sweep.run_check(iter(records), jobs=jobs)
    assert report.instances_checked == 203
    assert report.mismatches == want
    assert report.magnitude_violations == []


def test_check_flags_wrong_magnitude_in_every_phase_run(monkeypatch):
    # as test_check_flags_wrong_magnitude, over 200 records in runs of 16
    real = charsum.sweep.closed_form

    def doubled(inst, chi1, chi2):
        cf = real(inst, chi1, chi2)
        return cf._replace(terms=tuple((e, 2 * x) for e, x in cf.terms))

    monkeypatch.setattr(charsum.sweep, "closed_form", doubled)
    monkeypatch.setattr(charsum.sweep, "brute_terms", lambda *args: doubled(*args).terms)
    monkeypatch.setattr(charsum.sweep, "_PHASE", 16)
    report = charsum.sweep.run_check(charsum.sweep.sample_records(5, 6, 8, 200), jobs=1)
    large = report.tag_counts["LargeEven"] + report.tag_counts["LargeOdd"]
    assert report.mismatches == []
    assert large > 16 and len(report.magnitude_violations) == large


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=fork_only)])
def test_phase_runs_change_no_report_or_row(monkeypatch, jobs):
    # blocks of 150 records, each cut into two parts of 75 at jobs = 2 (one
    # term per process); runs of 64 split those parts, runs of 1 and 7 split
    # them everywhere
    records = list(charsum.sweep.sample_records(4, 3, 10, 333))
    monkeypatch.setattr(charsum.sweep, "_BLOCK", 150)
    monkeypatch.setattr(charsum.sweep, "FORK_TERMS", 1)
    outputs = []
    for phase in (charsum.sweep._PHASE, 1, 7):
        monkeypatch.setattr(charsum.sweep, "_PHASE", phase)
        report = charsum.sweep.run_check(iter(records), jobs=jobs)
        assert report.closed_seconds > 0 and report.brute_seconds > 0
        doc = report.to_json_dict()
        del doc["wall_time"]
        outputs.append((doc, _grid_text(iter(records), jobs)))
    doc, (_, counts) = outputs[0]
    assert doc["instances_checked"] == 333 and counts == (333, 0)
    assert len(doc["tag_counts"]) > 5
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("sink", ["check", "grid"])
def test_each_phase_run_sums_the_oracle_after_every_closed_form(monkeypatch, sink):
    # one process, one block: the calls come in runs of _PHASE records, closed
    # forms first; comparing record by record would give runs of one
    calls = []
    real_closed, real_brute = charsum.sweep.closed_form, charsum.sweep.brute_terms

    def closed(*args):
        calls.append("closed")
        return real_closed(*args)

    def brute(*args):
        calls.append("oracle")
        return real_brute(*args)

    monkeypatch.setattr(charsum.sweep, "closed_form", closed)
    monkeypatch.setattr(charsum.sweep, "brute_terms", brute)
    records = charsum.sweep.sample_records(9, 6, 9, 203)
    if sink == "check":
        assert charsum.sweep.run_check(records, jobs=1).ok()
    else:
        assert charsum.sweep.write_grid(io.StringIO(), records, 1) == (203, 0)
    phase = charsum.sweep._PHASE
    sizes = [min(phase, 203 - i) for i in range(0, 203, phase)]
    runs = [(name, len(list(group))) for name, group in itertools.groupby(calls)]
    assert runs == [(name, n) for n in sizes for name in ("closed", "oracle")]


@pytest.mark.parametrize("sink", ["check", "grid"])
@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=fork_only)])
def test_sweep_reads_at_most_one_block_ahead(monkeypatch, sink, jobs):
    # blocks of 64 records, each fanned out at jobs = 2 (one term per
    # process), and a last block of 32
    records = list(charsum.sweep.sample_records(9, 6, 9, 224))
    pulled = 0

    def counting():
        nonlocal pulled
        for rec in records:
            pulled += 1
            yield rec

    real = charsum.sweep._pool_map
    handed = []

    def watched(func, block, jobs):
        handed.append((pulled, block))
        return real(func, block, jobs)

    monkeypatch.setattr(charsum.sweep, "_BLOCK", 64)
    monkeypatch.setattr(charsum.sweep, "FORK_TERMS", 1)
    monkeypatch.setattr(charsum.sweep, "_pool_map", watched)
    if sink == "check":
        assert charsum.sweep.run_check(counting(), jobs=jobs).instances_checked == 224
    else:
        assert charsum.sweep.write_grid(io.StringIO(), counting(), jobs) == (224, 0)
    assert [block for _, block in handed] == [records[i : i + 64] for i in range(0, 224, 64)]
    for i, (n, _) in enumerate(handed):
        assert n <= (i + 1) * 64


def _readme_cli_examples() -> list[list[str]]:
    """The argument lists of the `charsum ...` lines in the README's CLI block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("charsum ")]


def test_readme_cli_examples_parse_and_pass_the_gates(monkeypatch, tmp_path):
    examples = _readme_cli_examples()
    assert [argv[0] for argv in examples] == ["eval", "check", "check", "bench", "grid"]
    for argv in examples:
        build_parser().parse_args(argv)
    # the sweeps themselves are stubbed: this holds the examples to the flag
    # checks and the size gate, which run before any record is compared
    monkeypatch.setattr(
        charsum.sweep, "run_check", lambda records, jobs, seed: CheckReport(seed, jobs)
    )
    monkeypatch.setattr(charsum.sweep, "write_grid", lambda fh, records, jobs: (0, 0))
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        if argv[0] in ("check", "grid"):
            assert main(argv) == 0, argv


def test_check_exhaustive_tiny(capsys):
    code, out = run_cli(
        capsys, "check", "--m-min", "3", "--m-max", "3",
        "--exhaustive", "--k-list", "1,2", "--jobs", "1",
    )
    doc = json.loads(out)
    assert code == 0
    # 4 characters each slot, 8 A, 4 odd B, 2 k
    assert doc["instances_checked"] == 16 * 8 * 4 * 2
    assert doc["mismatches"] == []


def test_bench_refuses_m_above_oracle_cap_before_timing(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("closed_form timed an instance the oracle refuses")

    monkeypatch.setattr(charsum.cli, "closed_form", never)
    code = main(["bench", "--m", "27"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: modulus exponent 27 exceeds cap 26\n"


def test_bench_smoke(capsys):
    code, out = run_cli(capsys, "bench", "--m", "10")
    doc = json.loads(out)
    assert code == 0
    assert doc["match"] is True
    assert doc["ratio"] >= 1.0
    assert doc["closed_form_seconds"] > 0


def test_grid_csv(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, out = run_cli(
        capsys, "grid", "--m", "5", "--out", str(out_path),
        "--A-list", "0,1,2,5,8", "--B-list", "1,2,7", "--k-list", "1,2",
        "--c1-list", "1,8", "--c2-list", "1,4", "--s1-list", "1", "--s2-list", "1,-1",
        "--jobs", "2",
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == GRID_HEADER
    assert len(lines) - 1 == 2 * 1 * 2 * 2 * 5 * 3 * 2 == json.loads(out)["rows"]
    for line in lines[1:]:
        assert ",true," in line
    zero_rows = [l for l in lines[1:] if ",Zero" in l]
    assert zero_rows and all(",," in l for l in zero_rows)  # empty magnitude field


def test_grid_counts_mismatches(tmp_path, capsys, monkeypatch):
    # no honest mismatch exists, so fake the oracle (zero): every nonzero row mismatches
    monkeypatch.setattr(charsum.sweep, "brute_terms", lambda inst, c1, c2: ())
    out_path = tmp_path / "grid.csv"
    code, out = run_cli(
        capsys, "grid", "--m", "5", "--out", str(out_path),
        "--A-list", "2,3", "--B-list", "1,2", "--k-list", "1",
        "--c1-list", "2", "--c2-list", "1", "--s1-list", "1", "--s2-list", "1", "--jobs", "1",
    )
    rows = out_path.read_text().splitlines()[1:]
    false_rows = sum(",false," in row for row in rows)
    assert code == 1
    assert 0 < false_rows < len(rows)
    assert json.loads(out)["mismatches"] == false_rows


def test_grid_io_error_exit_4(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(charsum.sweep, "_compare", _never_compare)
    code, _ = run_cli(
        capsys, "grid", "--m", "4", "--out", str(tmp_path / "missing" / "x.csv"),
        "--A-list", "2", "--B-list", "1", "--k-list", "1",
        "--c1-list", "1", "--c2-list", "1",
    )
    assert code == 4
