"""Tests of the benchmark's own helpers: the tail rule, self time from
spans, the tracer's wrappers, and the reference digests of two seeds.

Run from the root of a checkout:  python3 -m pytest bench/tests -q
"""

import pytest

import charsum.evaluator as ev
from charbench import stats, tracing, workloads
from charsum.characters import Character

SEEDS = (1, 2)


def test_tail_has_exactly_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 31)]
    value, pct, n = stats.tail(values)
    assert (value, n) == (20.0, 30)
    assert pct == pytest.approx(100 * 20 / 30)
    assert sum(v > value for v in values) == 10


def test_tail_ignores_input_order_and_needs_eleven_samples():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0]
    assert stats.tail(values) == (1.0, 100 / 11, 11)
    with pytest.raises(ValueError):
        stats.tail(values[:10])


def test_fold_subtracts_direct_children_only():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["leaf", 20, 30, 1],
        ["a", 50, 90, 0],
    ]
    agg = tracing.fold(spans)
    assert agg["root"] == [1, 100, 100 - 30 - 40]
    assert agg["a"] == [2, 70, 70 - 10]
    assert agg["leaf"] == [1, 10, 10]


def test_merge_adds_per_name():
    into = {"a": [1, 10, 5]}
    tracing.merge(into, {"a": [2, 20, 10], "b": [1, 1, 1]})
    assert into == {"a": [3, 30, 15], "b": [1, 1, 1]}


def test_tracer_counts_layers_of_a_large_evaluation_and_unwraps():
    original = ev.closed_form
    tracer = tracing.Tracer()
    tracing.install_evaluator(tracer)
    try:
        cf = ev.closed_form(ev.SumInstance(24, 2, 1, 1), Character(24, 1, 2), Character(24, 1, 1))
    finally:
        tracer.unwrap_all()
    assert ev.closed_form is original
    assert cf.case in (ev.CASE_LARGE_EVEN, ev.CASE_LARGE_ODD)
    assert tracer.calls("evaluator.closed_form") == 1
    assert tracer.calls("evaluator.derive") == 4
    assert tracer.calls("ring2adic.dlog5") == 2
    assert tracer.calls("ring2adic.five_pow_cofactor") == 4
    assert tracer.counters["solve.witnesses"] == 1
    total = tracer.total_s("evaluator.closed_form")
    self_sum = sum(tracer.self_s(name) for name in tracer.agg)
    assert self_sum == pytest.approx(total)


def test_dense_and_sparse_cli_values_give_the_same_terms():
    dense = {"ring_exponent": 4, "coeffs": [0, 3, 0, 0, -2, 0, 0, 0]}
    sparse = {"ring_exponent": 4, "terms": [[1, 3], [4, -2]]}
    assert stats.json_value_terms(dense) == stats.json_value_terms(sparse) == [(1, 3), (4, -2)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_stable_and_match_the_reference(name, seed):
    block = workloads.block_of(seed)
    first = workloads.GENERATORS[name](block)
    assert workloads.inputs_digest(first) == workloads.inputs_digest(workloads.GENERATORS[name](block))
    assert workloads.inputs_digest(first) == workloads.load_reference(name, block)["inputs"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_the_two_seeds_give_different_inputs(name):
    a, b = (workloads.GENERATORS[name](workloads.block_of(s)) for s in SEEDS)
    assert workloads.inputs_digest(a) != workloads.inputs_digest(b)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["closed-mix", "closed-deep", "cli-eval"])
def test_result_digests_match_the_reference(name, seed):
    """Every closed-mix and cli-eval item, and the closed-deep items cheap
    enough for a unit test (at most 2^10 solutions), reproduce their pinned
    digests."""
    block = workloads.block_of(seed)
    items = workloads.GENERATORS[name](block)
    expected = workloads.load_reference(name, block)["outputs"]
    assert len(expected) == len(items)
    checked = 0
    for item, want in zip(items, expected):
        rec = item[1] if name == "cli-eval" else item[0]
        if name == "closed-deep" and int(item[1].split("=")[1]) > 10:
            continue
        cf = ev.closed_form(*workloads._objects(rec))
        assert stats.digest(stats.closed_form_key(cf)) == want, rec
        checked += 1
    assert checked >= len(items) // 3
