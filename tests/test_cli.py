import io
import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

import charsum.cli
import charsum.sweep
from charsum.cli import main
from charsum.cyclotomic import zero
from charsum.evaluator import ClosedForm
from charsum.sweep import GRID_HEADER


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
    # no honest mismatch exists, so fake the oracle to exercise the exit path
    monkeypatch.setattr(charsum.cli, "brute_force", lambda inst, c1, c2: zero(5))
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


def test_check_deterministic_across_jobs(capsys):
    # 203 records: not a multiple of the chunk count at 2 or 3 jobs
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


def test_grid_rows_identical_across_jobs(monkeypatch):
    # 203 records: not a multiple of the chunk count at 2 or 3 jobs
    records = list(charsum.sweep.sample_records(9, 6, 9, 203))
    want = _grid_text(records, 1)
    assert want[1] == (203, 0)
    assert want[0].count("\n") == 204 and want[0].startswith(GRID_HEADER + "\n")
    for jobs in (2, 3):
        assert _grid_text(iter(records), jobs) == want
    # blocks of 61 records split the chunks and leave a last block of 20
    monkeypatch.setattr(charsum.sweep, "_BLOCK", 61)
    for jobs in (1, 2, 3):
        assert _grid_text(iter(records), jobs) == want


def test_check_report_identical_across_blocks(monkeypatch):
    records = list(charsum.sweep.sample_records(9, 6, 9, 203))
    want = _check_doc(records, 1)
    assert want["instances_checked"] == 203
    monkeypatch.setattr(charsum.sweep, "_BLOCK", 61)
    for jobs in (1, 2, 3):
        assert _check_doc(iter(records), jobs) == want


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
    (["check", "--exhaustive", "--m-min", "7", "--m-max", "7"], "1.5e+10"),
    (["check", "--m-min", "26", "--m-max", "26", "--samples", "1000"], "3.36e+10"),
    (["grid", "--m", "12"], "5.04e+17"),
], ids=["check-exhaustive", "check-sampled", "grid"])
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
def test_pool_map_error_stops_every_child(func, exc, match):
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


def test_pool_map_starts_no_child_without_a_chunk(monkeypatch):
    started = []

    class InlineProcess:
        """Runs the child's share in this process and records the start."""

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
    # 64 records at jobs = 100 make 64 one-record chunks: 63 children, one chunk each
    assert charsum.sweep._pool_map(len, list(range(64)), 100) == [1] * 64
    assert started == [1] * 63


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
    monkeypatch.setattr(charsum.sweep, "brute_force", lambda *args: doubled(*args).value())
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
    # blocks of 100 records, each fanned out at jobs = 2, and a last block of 3
    monkeypatch.setattr(charsum.sweep, "_BLOCK", 100)
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
    # no honest mismatch exists, so fake the oracle: every nonzero row mismatches
    monkeypatch.setattr(charsum.sweep, "brute_force", lambda inst, c1, c2: zero(3))
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
