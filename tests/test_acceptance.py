"""Acceptance suite: one test per criterion, exact tolerances, seeded.

Each test prints a PASS/FAIL line (visible with pytest -s or in the
captured output) so the suite doubles as a human-readable scorecard.
"""

import json
import time
from fractions import Fraction

from l0convex import (
    CANONICAL,
    Ball,
    CounterexampleFamily,
    EcRv,
    EventSet,
    FiniteSup,
    FinitePartition,
    FromSeminorms,
    MPlusBall,
    Scale,
    Weighted,
    ZERO,
    ONE,
    base_axiom_witnesses,
    build_countable_partition,
    cc_failure_witness,
    closure_membership,
    contains,
    epslambda_membership,
    evaluate,
    gauge_closed_form,
    gauge_upper_certificate,
    hausdorff_report,
    leq_everywhere,
    lt_everywhere,
    relative_cc_check,
    reverse_partition_construct,
    sample_member,
    verify_certificate,
    EventuallyConstantSeq,
)
from l0convex import sampling
from l0convex.cli import main

from conftest import random_seminorm
from reference import random_positive_fraction

TOL = Fraction(1, 2**20)  # the certificate's tolerance, on its probe atoms
PROBES = tuple(range(1, 33))


def _report(number: int, label: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_gauge_degeneracy():
    rng = sampling.make_rng(101)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        eps = sampling.random_positive_ecrv(rng)
        x = sampling.random_ecrv(rng)
        target = MPlusBall(eps)
        ok = ok and gauge_closed_form(target, x) == ZERO
        cert = gauge_upper_certificate(target, x)
        ok = ok and verify_certificate(cert)
        ok = ok and all(cert.witness.value_at(j) <= TOL for j in PROBES)
        ok = ok and contains(Scale(cert.witness, target), x)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, f"100 degenerate gauges certified in {elapsed:.3f}s", ok)


def test_criterion_2_gauge_roundtrips():
    rng = sampling.make_rng(202)
    ok = True
    strict_cases = 0
    for _ in range(500):
        p = random_seminorm(rng)
        x = sampling.random_ecrv(rng)
        # the gauge of the unit ball of p reproduces p exactly
        unit = Ball((p,), ONE)
        ok = ok and gauge_closed_form(unit, x) == evaluate(p, x)
        # membership agreement on a ball of random radius
        u = Ball((p,), sampling.random_positive_ecrv(rng))
        probe = sample_member(u, rng) if rng.random() < 0.5 else sampling.random_ecrv(rng)
        g = gauge_closed_form(u, probe)
        ok = ok and contains(u, probe) == leq_everywhere(g, ONE)
        if lt_everywhere(g, ONE):
            strict_cases += 1
            ok = ok and contains(u, probe)
    ok = ok and strict_cases > 0
    _report(2, f"500 roundtrips exact ({strict_cases} strict-inclusion cases)", ok)


def test_criterion_3_base_axioms():
    rng = sampling.make_rng(303)
    ok = True
    for base in (CounterexampleFamily(), FromSeminorms((Weighted(ONE),))):
        for _ in range(50):
            eps = sampling.random_positive_ecrv(rng)
            delta = sampling.random_positive_ecrv(rng)
            report = base_axiom_witnesses(base, eps, delta, 200, seed=rng.randint(0, 2**31))
            ok = ok and report.passed
    _report(3, "50 radius pairs x 200 samples per inclusion, both base kinds", ok)


def test_criterion_4_m_is_properly_closed():
    rng = sampling.make_rng(404)
    base = CounterexampleFamily()
    ok = True
    for _ in range(100):
        outside = sampling.random_nonzero_tail_ecrv(rng)
        witness = closure_membership(base, outside)
        ok = ok and witness.excluded
        ok = ok and not contains(MPlusBall(witness.epsilon), outside)
        inside = sampling.random_finite_support_ecrv(rng)
        ok = ok and closure_membership(base, inside) is None
    _report(4, "100 separations outside M, 100 closure hits inside M", ok)


def test_criterion_5_hausdorff_diagnosis():
    rng = sampling.make_rng(505)
    nonzero = EcRv({1: 1}, 0)
    ok = all(
        contains(MPlusBall(sampling.random_positive_ecrv(rng)), nonzero)
        for _ in range(100)
    )
    report = hausdorff_report(FromSeminorms((Weighted(ONE),)), samples=200, seed=606)
    ok = ok and report.example["witness"] is None and report.held == 200
    _report(5, "witness in 100 sampled base sets; 200 pairs separated", ok)


def _random_finite_partition(rng):
    pool = list(range(1, 13))
    rng.shuffle(pool)
    cells = []
    used = []
    for _ in range(rng.randint(0, 3)):
        size = rng.randint(1, 3)
        cell, pool = pool[:size], pool[size:]
        cells.append(EventSet.finite(cell))
        used.extend(cell)
    cells.append(EventSet.cofinite_excluding(used))
    return FinitePartition(tuple(cells))


def test_criterion_6_forward_gluing():
    rng = sampling.make_rng(707)
    ok = True
    for _ in range(100):
        ball = Ball(
            (random_seminorm(rng),), sampling.random_positive_ecrv(rng)
        )
        part = _random_finite_partition(rng)
        members = [sample_member(ball, rng) for _ in range(part.cell_count)]
        seq = EventuallyConstantSeq(tuple(members), members[-1])
        report = relative_cc_check(ball, part, [seq])
        (entry,) = report.entries
        ok = ok and entry.precondition_ok and entry.glue_in_set
        ok = ok and entry.seminorm_identity_ok  # exact, zero tolerance
    _report(6, "100 finite gluings stay in the ball with exact seminorm identity", ok)


def test_criterion_7_contrapositive_witness():
    rng = sampling.make_rng(808)
    ok = True
    for _ in range(100):
        eps = sampling.random_positive_ecrv(rng)
        entry = cc_failure_witness(MPlusBall(eps), eps)
        ok = ok and entry.counterexample
    _report(7, "100 concatenation-failure witnesses validate", ok)


def test_criterion_8_reverse_construction():
    rng = sampling.make_rng(909)
    ok = True
    for i in range(50):
        if i % 2:
            u = MPlusBall(sampling.random_positive_ecrv(rng))
            x = sampling.random_ecrv(rng)
        else:
            u = Ball((Weighted(ONE),), sampling.random_positive_ecrv(rng))
            x = sample_member(u, rng) * Fraction(1, 2)  # strictly interior
        entry = reverse_partition_construct(u, x)
        ok = ok and entry.precondition_ok and entry.glue == x
    _report(8, "50 reverse constructions: every single-atom piece in the set, glue is the point", ok)


def test_criterion_9_partition_masses():
    prefixes = [
        ((), 1),
        ((EventSet.finite({1}),), 2),
        ((EventSet.finite({1}), EventSet.finite({2})), 3),
        ((EventSet.finite({1, 2}),), 3),
        ((EventSet.finite({1, 3}), EventSet.finite({2})), 4),
        ((EventSet.finite({1, 2, 3}),), 4),
        ((EventSet.finite({2}), EventSet.finite({1, 3}), EventSet.finite({4})), 5),
        ((EventSet.finite({1, 2, 3, 4}),), 5),
        (tuple(EventSet.finite({j}) for j in range(1, 6)), 6),
        ((EventSet.finite({1, 4}), EventSet.finite({2, 3, 5}), EventSet.finite({6})), 7),
    ]
    ok = True
    for cells, tail_start in prefixes:
        part = build_countable_partition(CANONICAL, cells, tail_start)
        remainder = CANONICAL.mass_from(tail_start)
        for n in range(1, 21):
            cell = part.cell(part.prefix_count + n)
            ok = ok and CANONICAL.probability(cell) == remainder / 2**n
            ok = ok and CANONICAL.probability(cell) > 0
    _report(9, "10 prefixes: tail-cell masses halve exactly for n <= 20", ok)


def test_criterion_10_epslambda_agreement():
    rng = sampling.make_rng(111)
    ok = True
    for _ in range(500):
        family = tuple(random_seminorm(rng) for _ in range(rng.randint(1, 3)))
        x = sampling.random_ecrv(rng)
        eps = random_positive_fraction(rng)
        lam = Fraction(rng.randint(1, 63), 64)
        # independent oracle: enumerate atoms, add the exact geometric tail
        norm = evaluate(FiniteSup(family), x)
        horizon = max([16, *norm.overrides])
        mass = sum(
            (
                CANONICAL.atom_mass(j)
                for j in range(1, horizon + 1)
                if norm.value_at(j) < eps
            ),
            Fraction(0),
        )
        if norm.tail < eps:
            mass += CANONICAL.mass_from(horizon + 1)
        ok = ok and epslambda_membership(family, eps, lam, x) == (mass > 1 - lam)
    _report(10, "500 neighborhood predicates agree with direct summation", ok)


def test_criterion_11_end_to_end_verdicts(tmp_path, capsys):
    ok = True

    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    for path in (first, second):
        code = main(
            ["verify-counterexample", "--samples", "40", "--seed", "12", "--json", str(path)]
        )
        ok = ok and code == 0
    capsys.readouterr()
    ok = ok and first.read_bytes() == second.read_bytes()
    verdict = json.loads(first.read_text())["verdict"]
    ok = ok and verdict == "NotInduced"

    families = [
        "from_seminorms[weighted({|1})]",
        "from_seminorms[localized({1}), weighted({|1})]",
        "from_seminorms[zero]",
    ]
    for family in families:
        config = tmp_path / "family.cfg"
        config.write_text(f"base = {family}\nsamples = 40\n")
        out_path = tmp_path / "family.json"
        code = main(
            ["verify-counterexample", "--config", str(config), "--json", str(out_path)]
        )
        capsys.readouterr()
        ok = ok and code == 0
        ok = ok and json.loads(out_path.read_text())["verdict"] == "Induced"

    _report(11, "NotInduced + 3x Induced verdicts, byte-identical reports", ok)
