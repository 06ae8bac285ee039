"""The operation budget: what one verdict costs in draws and kernel calls.

`OP_BUDGET` counts, for `seminorm_induction_verdict` at seed 1, the
generator calls (`getrandbits`, `random`), the kernel calls that build
and reduce elements (`l0._reduced`, `l0.combine`, `math.lcm`) and the
records built (`records`: calls of the `__init__` that `_common.record`
installs, on every record class of the package).  The counts are
deterministic, so they guard a cost without the noise of a wall-time
run:

- the draws are pinned exactly: another count is another rng stream,
  and with it other sampled report bytes;
- a kernel or record count is a bound.  A change that lowers a count
  lowers its bound; one that raises it declares the rise in CHANGES.md
  with the counts before and after, and the reason.

The rows are the counterexample base at the benchmark's 30 samples and
the benchmark's seminorm base (`INDUCED_BASE` in
`perfbench/workloads.py`, read as a config) at its 10, and both bases at
the README's default of 200 samples.
"""

import ast
import random
from pathlib import Path

import pytest

from l0convex import CounterexampleFamily, l0, sampling
from l0convex.config import parse_config
from l0convex.topology import seminorm_induction_verdict

from test_faults import rebound
from test_record import package_records

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def benchmark_induced_base():
    """The base of the benchmark's `verify-induced` workload."""
    tree = ast.parse(WORKLOADS.read_text())
    literal = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "INDUCED_BASE"
    )
    return parse_config(f"base = {literal}\n")[0].base


BASES = {"not-induced": CounterexampleFamily, "induced": benchmark_induced_base}

# (base, samples) -> exact draw counts and kernel-call bounds
OP_BUDGET = {
    ("not-induced", 30): {
        "getrandbits": 10775,
        "random": 30,
        "_reduced": 515,
        "combine": 92,
        "lcm": 422,
        "records": 443,
    },
    ("induced", 10): {
        "getrandbits": 2066,
        "random": 45,
        "_reduced": 356,
        "combine": 245,
        "lcm": 182,
        "records": 46,
    },
    ("not-induced", 200): {
        "getrandbits": 70226,
        "random": 200,
        "_reduced": 3405,
        "combine": 602,
        "lcm": 2802,
        "records": 2823,
    },
    ("induced", 200): {
        "getrandbits": 39888,
        "random": 900,
        "_reduced": 6436,
        "combine": 4425,
        "lcm": 3298,
        "records": 616,
    },
}
DRAWS = ("getrandbits", "random")
KERNEL = ("_reduced", "combine", "lcm")  # each bound in `l0`, `lcm` from `math`
BOUNDS = (*KERNEL, "records")


def counting(name, counts):
    """A `rebound` version of `name` that counts its calls."""

    def version(right, calls):
        def count(*args):
            counts[name] += 1
            return right(*args)

        return count

    return version


def counting_records(monkeypatch, counts):
    """Every record class's `__init__` wrapped to count its calls."""
    for cls in package_records():
        init = cls.__init__

        def __init__(self, *args, _init=init, **kwargs):
            counts["records"] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", __init__)


def op_counts(monkeypatch, base, samples):
    counts = dict.fromkeys([*DRAWS, *BOUNDS], 0)

    class CountingRandom(random.Random):
        def getrandbits(self, k):
            counts["getrandbits"] += 1
            return super().getrandbits(k)

        def random(self):
            counts["random"] += 1
            return super().random()

    make_rng = sampling.make_rng

    def counting_rng(seed):
        rng = CountingRandom()
        rng.setstate(make_rng(seed).getstate())
        return rng

    monkeypatch.setattr(sampling, "make_rng", counting_rng)
    for name in KERNEL:
        rebound(l0, name, counting(name, counts))(monkeypatch, [])
    counting_records(monkeypatch, counts)
    assert seminorm_induction_verdict(base, seed=1, samples=samples).passed
    return counts


@pytest.mark.parametrize("row", OP_BUDGET, ids=[f"{b}-{n}" for b, n in OP_BUDGET])
def test_a_verdict_stays_within_its_op_budget(monkeypatch, row):
    name, samples = row
    base = BASES[name]()  # built before counting: parsing is not the verdict's cost
    counts = op_counts(monkeypatch, base, samples)
    budget = OP_BUDGET[row]
    assert {k: counts[k] for k in DRAWS} == {k: budget[k] for k in DRAWS}
    for k in BOUNDS:
        assert counts[k] <= budget[k], k
