"""The operation budget: what one verdict costs in draws and kernel calls.

`OP_BUDGET` counts, for `seminorm_induction_verdict` and for the seeded
`check` targets at seed 1, the generator calls (`getrandbits`,
`random`), the kernel calls that build and reduce elements
(`l0._reduced`, `l0.combine`, `math.lcm` and `math.gcd`) and the records
built (`records`: calls of the `__init__` that `_common.record`
installs, on every record class of the package).  The counts are
deterministic, so they guard a cost without the noise of a wall-time
run:

- the draws are pinned: another count is another rng stream, and with
  it other sampled report bytes;
- the kernel and record counts are pinned too, so no bound can go
  slack: a change that lowers a count must lower its entry, and one
  that raises it declares the rise in CHANGES.md with the counts before
  and after, and the reason.

The verdict rows are the counterexample base at the benchmark's 30
samples and the benchmark's seminorm base (`INDUCED_BASE` in
`perfbench/workloads.py`, read as a config) at its 10, and both bases at
the README's default of 200 samples.  The `check` rows run at 10
samples: `check base` on the default base, and `check axioms` and
`check roundtrip` on the seminorms of the benchmark's one-shot configs.
"""

import ast
import random
from pathlib import Path

import pytest

from l0convex import CounterexampleFamily, l0, sampling
from l0convex._cli_check import axioms_check
from l0convex.config import parse_config
from l0convex.syntax import parse_seminorm
from l0convex.topology import base_axioms_step, seminorm_induction_verdict

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


def verdict(base):
    return lambda samples: seminorm_induction_verdict(base, seed=1, samples=samples)


def seminorm_check(checker, literal):
    seminorm = parse_seminorm(literal)
    return lambda samples: checker(seminorm, samples, 1)


def runs():
    """Row name -> a function of the sample count whose result must pass.
    Each base and seminorm is built here, before counting: parsing is
    not a check's cost."""
    return {
        "not-induced": verdict(CounterexampleFamily()),
        "induced": verdict(benchmark_induced_base()),
        "check-base": lambda samples: base_axioms_step(CounterexampleFamily(), samples, 1),
        "check-axioms": seminorm_check(axioms_check, "sup[weighted({|2}), localized({1,3})]"),
        "check-roundtrip": seminorm_check(sampling.roundtrip_check, "localized({1})"),
    }


# (row, samples) -> exact draw, kernel-call and record counts
OP_BUDGET = {
    ("not-induced", 30): {
        "getrandbits": 10775,
        "random": 30,
        "_reduced": 519,
        "combine": 92,
        "lcm": 276,
        "gcd": 581,
        "records": 411,
    },
    ("induced", 10): {
        "getrandbits": 2066,
        "random": 45,
        "_reduced": 356,
        "combine": 245,
        "lcm": 182,
        "gcd": 367,
        "records": 44,
    },
    ("not-induced", 200): {
        "getrandbits": 70226,
        "random": 200,
        "_reduced": 3409,
        "combine": 602,
        "lcm": 1806,
        "gcd": 3482,
        "records": 2621,
    },
    ("induced", 200): {
        "getrandbits": 39888,
        "random": 900,
        "_reduced": 6436,
        "combine": 4425,
        "lcm": 3298,
        "gcd": 6447,
        "records": 614,
    },
    ("check-base", 10): {
        "getrandbits": 1390,
        "random": 0,
        "_reduced": 68,
        "combine": 22,
        "lcm": 16,
        "gcd": 73,
        "records": 8,
    },
    ("check-axioms", 10): {
        "getrandbits": 773,
        "random": 0,
        "_reduced": 112,
        "combine": 81,
        "lcm": 50,
        "gcd": 112,
        "records": 1,
    },
    ("check-roundtrip", 10): {
        "getrandbits": 265,
        "random": 5,
        "_reduced": 81,
        "combine": 50,
        "lcm": 30,
        "gcd": 81,
        "records": 2,
    },
}
DRAWS = ("getrandbits", "random")
KERNEL = ("_reduced", "combine", "lcm", "gcd")  # each bound in `l0`; `lcm`, `gcd` from `math`


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


def op_counts(monkeypatch, run, samples):
    counts = dict.fromkeys([*DRAWS, *KERNEL, "records"], 0)

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
    assert run(samples).passed
    return counts


@pytest.mark.parametrize("row", OP_BUDGET, ids=[f"{b}-{n}" for b, n in OP_BUDGET])
def test_a_verdict_stays_within_its_op_budget(monkeypatch, row):
    name, samples = row
    counts = op_counts(monkeypatch, runs()[name], samples)
    assert counts == OP_BUDGET[row]
