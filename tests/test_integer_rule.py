"""Every integer argument of linalg, paving, rearrange and cli follows one rule: any
``numbers.Integral`` but ``bool``, used as a Python int; anything else, or
a value out of range, raises ``ValueError`` naming the argument."""

import json

import numpy as np
import pytest

from pavekit import cli
from pavekit.linalg import random_projection
from pavekit.paving import (
    ScanConfig,
    brute_force_min,
    brute_force_min_vector,
    conjectureA_test,
    scan,
)
from pavekit.rearrange import ZeroSumFamily, check_prefix_property, partial_sum_bound_holds

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
    for bad in (True, 1.5, "3"):
        with pytest.raises(ValueError, match="^%s must be an integer, got " % name):
            call(bad)
    assert call(np.int64(5)) == call(5)


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
