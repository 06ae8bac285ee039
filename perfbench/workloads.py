"""The benchmark's workloads and its correctness oracle.

Each workload is a cycle of CLI invocations built from the benchmark
seed; the program only ever sees the generated arguments and config
files.  Every expected value below is written out by hand from the
README's examples and from the definitions (dyadic atom masses, the
weighted seminorm), never computed with l0convex, so a defect in the
program cannot also change what counts as a correct answer.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

# Samples per verify invocation: large enough that the evidence steps
# take about two fifths of each invocation next to interpreter start-up,
# small enough that a 30 s run holds about the 100 invocations that a
# 90th percentile needs.
NOTINDUCED_SAMPLES = 30
INDUCED_SAMPLES = 10
CHECK_SAMPLES = 10

# Distinct CLI seeds per verify run; each is invoked several times so the
# byte-identical-report check has repeats to compare.
VERIFY_SEED_POOL = 40
CHECK_SEED_POOL = 3

# A base that exercises every seminorm shape: weighted with overrides,
# localized on a cofinite event, and a finite sup of both.
INDUCED_BASE = (
    "from_seminorms[weighted({1:2, 3:1/3 | 1}), localized(~{2}), "
    "sup[weighted({|1/2}), localized({1,4})]]"
)

Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Invocation:
    """One CLI call: `python -m l0convex.cli *args`, plus the config file
    (name, text) that the arguments refer to, if any."""

    args: tuple[str, ...]
    check: Check
    samples: Optional[int] = None
    config: Optional[tuple[str, str]] = None

    def key(self) -> tuple:
        """Invocations with equal keys must print byte-identical output."""
        return (self.args, self.config)

    def describe(self) -> dict:
        return {
            "args": list(self.args),
            "config": None if self.config is None else self.config[1],
            "samples": self.samples,
        }


# -- the oracle ----------------------------------------------------------------


def _report(code: int, out: str, expect_code: int = 0):
    if code != expect_code:
        return None, f"exit code {code}, expected {expect_code}"
    try:
        return json.loads(out), None
    except ValueError:
        return None, "stdout is not a JSON report"


def _sampled_steps(doc: dict, samples: int) -> Optional[str]:
    """Every step that states a sample count ran exactly the requested
    number, and at least one step did: a pass over zero samples is vacuous."""
    steps = doc.get("steps") or []
    if not steps:
        return "report has no steps"
    failed = [s.get("name") for s in steps if s.get("pass") is not True]
    if failed:
        return f"steps did not pass: {failed}"
    counts = [s["inputs"]["samples"] for s in steps if "samples" in s.get("inputs", {})]
    if not counts:
        return "no step states its sample count"
    wrong = [c for c in counts if c != samples]
    if wrong:
        return f"step sample counts {wrong}, requested {samples}"
    return None


def verify_check(verdict: str, samples: int) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        doc, error = _report(code, out)
        if error:
            return error
        if doc.get("verdict") != verdict:
            return f"verdict {doc.get('verdict')!r}, expected {verdict!r}"
        if doc.get("pass") is not True:
            return "report pass flag is not true"
        if doc.get("samples") != samples:
            return f"report samples {doc.get('samples')!r}, requested {samples}"
        return _sampled_steps(doc, samples)

    return check


def check_check(command: str, samples: Optional[int]) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        doc, error = _report(code, out)
        if error:
            return error
        if doc.get("command") != command or doc.get("pass") is not True:
            return f"expected a passing {command!r} report"
        if samples is None:
            return None
        return _sampled_steps(doc, samples)

    return check


def eval_check(expected: str) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}, expected 0"
        if out.strip() != expected:
            return f"printed {out.strip()!r}, expected {expected!r}"
        return None

    return check


def partition_check(code: int, out: str) -> Optional[str]:
    """`partition --from 3 --cells '[{1},{2}]'` on the dyadic space: atoms
    3, 4, ... carry 1/4 in total and the n-th tail cell {n+2} has 2**-(n+2)."""
    doc, error = _report(code, out)
    if error:
        return error
    if doc.get("pass") is not True or doc.get("tail_mass") != "1/4":
        return "expected a passing partition with tail mass 1/4"
    masses = doc.get("tail_cell_masses")
    if masses != [f"1/{2 ** (n + 2)}" for n in range(1, 21)]:
        return f"tail cell masses {masses!r} are not 1/8, 1/16, ..., 1/2**22"
    return None


# The README's `eval` examples, plus a weighted seminorm worked by hand:
# weight {|2} times |{1:-3 | 1/2}| is {1:6 | 1}.
EVAL_EXPECTED = (
    ("gauge m_plus_ball({|1}) {|5}", "{|0}"),
    ("contains ball(weighted({|1}); {|1}) {|1}", "true"),
    ("prob {1,3}", "5/8"),
    ("seminorm weighted({|2}) {1:-3 | 1/2}", "{1:6 | 1}"),
    ("glue ec[{|3} | {|5}] finite[{1}, ~{1}]", "{1:3 | 5}"),
)


# -- workloads -------------------------------------------------------------------


def _seeds(rng: random.Random, count: int) -> list[int]:
    return rng.sample(range(1, 1_000_000), count)


def _verify_notinduced(rng: random.Random) -> list[Invocation]:
    n = NOTINDUCED_SAMPLES
    return [
        Invocation(
            ("verify-counterexample", "--seed", str(s), "--samples", str(n)),
            verify_check("NotInduced", n),
            samples=n,
        )
        for s in _seeds(rng, VERIFY_SEED_POOL)
    ]


def _verify_induced(rng: random.Random) -> list[Invocation]:
    n = INDUCED_SAMPLES
    config = ("induced.cfg", f"base = {INDUCED_BASE}\n")
    return [
        Invocation(
            ("verify-counterexample", "--config", "induced.cfg", "--seed", str(s),
             "--samples", str(n)),
            verify_check("Induced", n),
            samples=n,
            config=config,
        )
        for s in _seeds(rng, VERIFY_SEED_POOL)
    ]


def _cli_oneshot(rng: random.Random) -> list[Invocation]:
    corpus = [Invocation(("eval", expr), eval_check(value)) for expr, value in EVAL_EXPECTED]
    corpus.append(
        Invocation(("partition", "--from", "3", "--cells", "[{1},{2}]"), partition_check)
    )
    corpus.append(
        Invocation(
            ("check", "cc", "--config", "cc.cfg"),
            check_check("check cc", None),
            config=(
                "cc.cfg",
                "set = m_plus_ball({|1})\nseq.diag = {|2}\n"
                "part.singletons_from = 1\nexpect = fail\n",
            ),
        )
    )
    n = CHECK_SAMPLES
    for target, config in (
        ("axioms", ("axioms.cfg", "seminorm = sup[weighted({|2}), localized({1,3})]\n")),
        ("roundtrip", ("roundtrip.cfg", "seminorm = localized({1})\n")),
    ):
        for s in _seeds(rng, CHECK_SEED_POOL):
            corpus.append(
                Invocation(
                    ("check", target, "--config", config[0], "--seed", str(s),
                     "--samples", str(n)),
                    check_check(f"check {target}", n),
                    samples=n,
                    config=config,
                )
            )
    return corpus


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random], list[Invocation]]
    traced_invocations: int  # how many scheduled invocations one traced pass runs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-notinduced", _verify_notinduced, 4),
        Workload("verify-induced", _verify_induced, 4),
        Workload("cli-oneshot", _cli_oneshot, 13),
    )
}


def schedule(corpus: list[Invocation], rng: random.Random) -> Iterator[Invocation]:
    """The corpus over and over, each pass in a fresh seeded order."""
    while True:
        yield from rng.sample(corpus, len(corpus))
