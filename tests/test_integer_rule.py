"""Every integer argument of linalg, paving, rearrange and cli follows one rule: any
``numbers.Integral`` but ``bool``, used as a Python int; anything else, or
a value out of range, raises ``ValueError`` naming the argument.  Real
arguments follow the same rule with ``numbers.Real``, used as a Python
float.  Both rules test the exact type first, so subclasses and numpy
scalars take the ABC path and must give the same results."""

import enum
import json

import numpy as np
import pytest

from pavekit import cli
from pavekit.linalg import _integer, _real, random_projection
from pavekit.paving import (
    ScanConfig,
    brute_force_min,
    brute_force_min_vector,
    conjectureA_test,
    scan,
)
from pavekit.rearrange import (
    ZeroSumFamily,
    check_prefix_property,
    greedy_rearrange,
    partial_sum_bound_holds,
)

P = random_projection(5, 2, seed=1)
# six vectors summing to zero, so that 5 is the last entry of an order
FAMILY = ZeroSumFamily(np.vstack([np.eye(3), -np.eye(3)]))


def frame_json(p):
    return json.dumps(p.frame.rows.tolist())


def search_json(result):
    norm, signs = result
    return json.dumps([norm, signs.signs.tolist()])


def records_json(records):
    return json.dumps([dict(r.to_json_dict(), runtime_ms=0.0) for r in records])


def scan_config(**kw):
    return records_json(scan(ScanConfig(**{"n": 5, "rank": 2, "count": 2, "seed": 1, **kw})))


class Five(enum.IntEnum):
    FIVE = 5


class MyInt(int):
    pass


class MyFloat(float):
    pass


# (argument named in the message, the call with that argument set to x); 5 is
# a valid value of every argument.
CASES = {
    "random_projection n": ("n", lambda x: frame_json(random_projection(x, 2, 1))),
    "random_projection rank": ("rank", lambda x: frame_json(random_projection(5, x, 1))),
    "random_projection seed": ("seed", lambda x: frame_json(random_projection(5, 2, x))),
    "brute_force_min max_n": ("max_n", lambda x: search_json(brute_force_min(P, max_n=x))),
    "brute_force_min_vector max_n": (
        "max_n", lambda x: search_json(brute_force_min_vector(P, np.ones(5), max_n=x))),
    "conjectureA_test seed": ("seed", lambda x: records_json([conjectureA_test(P, seed=x)])),
    "conjectureA_test max_n": (
        "max_n", lambda x: records_json([conjectureA_test(P, seed=1, max_n=x)])),
    "ScanConfig n": ("n", lambda x: scan_config(n=x)),
    "ScanConfig rank": ("rank", lambda x: scan_config(rank=x)),
    "ScanConfig count": ("count", lambda x: scan_config(count=x)),
    "ScanConfig seed": ("seed", lambda x: scan_config(seed=x)),
    "ScanConfig max_n": ("max_n", lambda x: scan_config(max_n=x)),
    "check_prefix_property order entry": ("order entry", lambda x: json.dumps(
        check_prefix_property(FAMILY, [0, 1, 2, 3, 4, x]))),
    "partial_sum_bound_holds order entry": ("order entry", lambda x: json.dumps(
        partial_sum_bound_holds(FAMILY, [0, 1, 2, 3, 4, x]))),
    # count 1 runs inline whatever the worker count
    "scan workers": ("workers", lambda x: records_json(
        scan(ScanConfig(n=5, rank=2, count=1, seed=1), workers=x))),
}


@pytest.mark.parametrize("case", CASES)
def test_integer_arguments_follow_the_one_rule(case):
    name, call = CASES[case]
    for bad in (True, np.True_, 1.5, "3"):
        with pytest.raises(ValueError, match="^%s must be an integer, got " % name):
            call(bad)
    want = call(5)
    for five in (np.int64(5), Five.FIVE, MyInt(5)):
        assert call(five) == want


@pytest.mark.parametrize("value", [np.int64(5), Five.FIVE, MyInt(5)])
def test_the_integer_rule_returns_exactly_int(value):
    x = _integer("n", value, 0)
    assert type(x) is int and x == 5


@pytest.mark.parametrize("rule, kind", [(_integer, "an integer"), (_real, "a real number")])
def test_numpy_bools_are_refused_with_the_message_of_bools(rule, kind):
    args = (0,) if rule is _integer else ()
    messages = []
    for bad in (True, np.True_):
        with pytest.raises(ValueError) as info:
            rule("x", bad, *args)
        messages.append(str(info.value))
    assert messages == ["x must be %s, got %r" % (kind, bad) for bad in (True, np.True_)]


@pytest.mark.parametrize("make", [float, np.float64, MyFloat])
def test_the_real_rule_returns_exactly_float(make):
    x = _real("x", make(0.75))
    assert type(x) is float and x == 0.75


@pytest.mark.parametrize("make", [np.float64, MyFloat])
def test_real_scan_arguments_follow_the_one_rule(make):
    kw = {"n": 6, "rank": 3, "count": 3, "seed": 5, "mode": "balance"}
    want = ScanConfig(**kw, gamma=0.75, epsilon=0.3)
    got = ScanConfig(**kw, gamma=make(0.75), epsilon=make(0.3))
    assert type(got.gamma) is float and type(got.epsilon) is float
    assert got == want
    assert records_json(scan(got)) == records_json(scan(want))
    for bad in ({"gamma": True, "epsilon": 0.3}, {"gamma": 0.75, "epsilon": True}):
        with pytest.raises(ValueError, match="must be a real number, got True"):
            ScanConfig(**kw, **bad)


@pytest.mark.parametrize("make", [np.float64, MyFloat])
def test_sum_tolerance_follows_the_real_rule(make):
    vectors = np.vstack([np.eye(3), -np.eye(3)]) + 1e-12
    vectors[-1] -= 6e-12
    want = ZeroSumFamily(vectors, sum_tolerance=1e-9)
    got = ZeroSumFamily(vectors, sum_tolerance=make(1e-9))
    assert type(got.sum_tolerance) is float and got.sum_tolerance == want.sum_tolerance
    order = greedy_rearrange(want)
    assert greedy_rearrange(got) == order
    assert check_prefix_property(got, order) == check_prefix_property(want, order)
    assert partial_sum_bound_holds(got, order) == partial_sum_bound_holds(want, order)
    with pytest.raises(ValueError, match="^sum_tolerance must be a real number, got True"):
        ZeroSumFamily(vectors, sum_tolerance=True)


@pytest.mark.parametrize("args, name", [
    (["bruteforce", "--n", "6", "--rank", "2", "--seed", "-1"], "seed"),
    (["balance", "--n", "6", "--rank", "2", "--seed", "-1"], "seed"),
    (["scan", "--n", "6", "--rank", "-1", "--count", "2", "--seed", "1"], "rank"),
    (["bruteforce", "--n", "4", "--rank", "2", "--seed", "1", "--max-n", "-3"], "max_n"),
])
def test_out_of_range_flags_exit_1_naming_the_argument(args, name, capsys):
    assert cli.main(args) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "error: %s must be an integer >= 0, got -" % name in out.err
