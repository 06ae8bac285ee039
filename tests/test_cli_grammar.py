"""Grammar-driven inputs through `main()`: bad input exits 2, never 3.

The strategies below build text from the literal grammar in `syntax`'s
docstring, production by production, with small bounded values.  Some
of what they build is valid and some is not (atom 0, a negative weight,
a radius that is not strictly positive, partition cells that overlap or
leave atoms out, a translate, which has no gauge), so both exit 0 and
exit 2 are reached; an internal error, exit 3, never is.  The runs are
derandomized, so the suite sees the same examples every time.
"""

import contextlib
import io
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from l0convex.cli import main

GRAMMAR = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# rational   3  -1/2
integers = st.integers(-3, 9)
rationals = st.one_of(
    st.builds(str, integers), st.builds("{}/{}".format, integers, st.integers(1, 9))
)
positive_rationals = st.builds("{}/{}".format, st.integers(1, 9), st.integers(1, 9))
atoms = st.integers(1, 12)
event_atoms = st.sampled_from([*range(1, 13), 0])  # atom 0 is bad input


def joined(item, min_size=1, max_size=3):
    return st.lists(item, min_size=min_size, max_size=max_size).map(", ".join)


# ecrv       {1:3, 2:-1/2 | 0}   {|5}   {5}
def ecrv_literals(values):
    overrides = st.dictionaries(atoms, values, min_size=1, max_size=3).map(
        lambda d: ", ".join(f"{j}:{v}" for j, v in d.items())
    )
    return st.one_of(
        st.builds("{{|{}}}".format, values),
        st.builds("{{{}}}".format, values),
        st.builds("{{{} | {}}}".format, overrides, values),
    )


ecrvs = ecrv_literals(rationals)
radii = st.one_of(ecrv_literals(positive_rationals), ecrvs)  # often strictly positive
weights = st.one_of(ecrv_literals(st.builds(str, st.integers(0, 9))), ecrvs)  # often >= 0

# event      {1,3}   ~{2}   {}   ~{}
events = st.builds(
    "{}{{{}}}".format, st.sampled_from(["", "~"]), joined(st.builds(str, event_atoms), 0, 3)
)


# seminorm   zero   weighted({|2})   localized({2})   sup[s1, s2]
seminorms = st.recursive(
    st.one_of(
        st.just("zero"),
        st.builds("weighted({})".format, weights),
        st.builds("localized({})".format, events),
    ),
    lambda inner: st.builds("sup[{}]".format, joined(inner, 1, 2)),
    max_leaves=3,
)


# set        ball(s1, s2; {|1})   m_plus_ball({|1})
#            scale({|2}; S)   translate({|1}; S)   intersect[S1, S2]
def set_literals(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds("scale({}; {})".format, radii, inner),
            st.builds("translate({}; {})".format, ecrvs, inner),
            st.builds("intersect[{}]".format, joined(inner, 1, 2)),
        ),
        max_leaves=3,
    )


balls = st.builds("ball({}; {})".format, joined(seminorms, 1, 2), radii)
sets = set_literals(st.one_of(balls, st.builds("m_plus_ball({})".format, radii)))
ball_sets = set_literals(balls)

# sequence   ec[{|3}, {|5} | {|0}]   diag({|2})
ec_lists = st.builds("[{}| {}]".format, joined(ecrvs, 0, 2).map(lambda p: p and p + " "), ecrvs)
sequences = st.one_of(ec_lists.map("ec{}".format), st.builds("diag({})".format, ecrvs))


# partition  finite[{1}, ~{1}]   singletons_from(3)   singletons_from(3; {1}, {2})
def consecutive(sizes: list) -> tuple[list[str], int]:
    """Finite cells of these sizes that cover atoms 1..n in order, and n + 1."""
    bounds = [sum(sizes[:k]) for k in range(len(sizes) + 1)]
    cells = [", ".join(map(str, range(a + 1, b + 1))) for a, b in zip(bounds, bounds[1:])]
    return [f"{{{cell}}}" for cell in cells], bounds[-1] + 1


def finite_partition(prefix) -> str:
    cells, start = prefix
    rest = ", ".join(map(str, range(1, start)))
    return f"finite[{', '.join([*cells, f'~{{{rest}}}'])}]"


def singleton_tail(prefix) -> str:
    cells, start = prefix
    listed = "; " + ", ".join(cells) if cells else ""
    return f"singletons_from({start}{listed})"


prefixes = st.lists(st.integers(1, 3), max_size=3).map(consecutive)
tail_starts = st.integers(-1, 6)
partitions = st.one_of(
    prefixes.map(finite_partition),  # these two are valid
    prefixes.map(singleton_tail),
    st.builds("finite[{}]".format, joined(events, 1, 3)),
    st.builds("singletons_from({}; {})".format, tail_starts, joined(events, 1, 2)),
)


def cc_partition(prefix, tail: bool) -> str:
    """The same partitions as config keys: the cells of `finite_partition`,
    or the prefix cells of `singleton_tail` and the atom its tail starts at."""
    cells, start = prefix
    if not tail:
        return f"part.finite = {finite_partition(prefix).removeprefix('finite')}\n"
    listed = f"part.finite = [{', '.join(cells)}]\n" if cells else ""
    return f"part.singletons_from = {start}\n{listed}"


# base       counterexample   from_seminorms[s1, s2]
bases = st.one_of(
    st.just("counterexample"), st.builds("from_seminorms[{}]".format, joined(seminorms, 1, 2))
)


# weights    [[1, "1/2"], [2, 1/4]]
def space_lines(masses: list, quote: str) -> str:
    """Explicit masses for atoms 1..N and the tail coefficient that makes
    the total 1, which is bad input when it is not positive."""
    tail = (1 - sum(masses, Fraction(0))) * 2 ** len(masses)
    pairs = ", ".join(f"[{j}, {quote}{m}{quote}]" for j, m in enumerate(masses, start=1))
    return f"space.explicit = [{pairs}]\nspace.tail_coefficient = {quote}{tail}{quote}\n"


masses = st.builds(Fraction, st.integers(1, 3), st.integers(4, 9))
spaces = st.builds(space_lines, st.lists(masses, max_size=3), st.sampled_from(["", '"', "'"]))

expressions = st.one_of(
    st.builds("prob {}".format, events),
    st.builds("gauge {} {}".format, sets, ecrvs),
    st.builds("contains {} {}".format, sets, ecrvs),
    st.builds("seminorm {} {}".format, seminorms, ecrvs),
    st.builds("glue {} {}".format, sequences, partitions),
)


# Config texts, each with a command that reads every key it sets.  On
# valid input a sampled check holds and the verdict's steps pass, so
# these exit 0 or 2.
configs = st.one_of(
    st.tuples(st.just(("eval", "prob {1, 3}")), spaces),
    st.tuples(
        st.just(("verify-counterexample", "--samples", "2")),
        st.builds(
            "base = {}\nepsilon = {}\ndelta = {}\n".format,
            bases,
            radii,
            radii,
        ),
    ),
    st.tuples(
        st.just(("check", "base", "--samples", "2")),
        st.builds("seed = {}\nepsilon = {}\n".format, integers, radii),
    ),
    st.tuples(
        st.just(("check", "axioms", "--samples", "2")), seminorms.map("seminorm = {}\n".format)
    ),
    # the gauge of M + B_eps is zero, yet the set is not everything, so
    # a roundtrip on it fails: the counterexample's point, not a defect
    st.tuples(
        st.just(("check", "roundtrip", "--samples", "2")),
        st.one_of(seminorms.map("seminorm = {}\n".format), ball_sets.map("set = {}\n".format)),
    ),
    st.tuples(
        st.just(("partition",)),
        st.one_of(
            st.builds(cc_partition, prefixes, st.just(True)),
            st.builds(
                "part.finite = [{}]\npart.singletons_from = {}\n".format,
                joined(events, 1, 2),
                tail_starts,
            ),
        ),
    ),
)


cc_texts = st.builds(
    "set = {}\n{}\n{}".format,
    sets,
    st.one_of(ec_lists.map("seq.ec = {}".format), ecrvs.map("seq.diag = {}".format)),
    st.one_of(
        st.builds(cc_partition, prefixes, st.booleans()),
        joined(events, 1, 2).map("part.finite = [{}]\n".format),
    ),
)


def exit_code(argv, config_dir=None, text=None) -> int:
    """`main(argv)`'s exit code, its output dropped; with `text`, the
    command reads it as its config file."""
    if text is not None:
        config = config_dir / "run.cfg"
        config.write_text(text)
        argv = [*argv, "--config", str(config)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@GRAMMAR
@given(expressions)
def test_eval_expression_exits_0_or_2(expression):
    assert exit_code(["eval", expression]) in (0, 2)


@GRAMMAR
@given(configs)
def test_config_value_exits_0_or_2(tmp_path_factory, case):
    argv, text = case
    assert exit_code(argv, tmp_path_factory.getbasetemp(), text) in (0, 2)


@GRAMMAR
@given(cc_texts)
def test_cc_config_decides_its_outcome_or_exits_2(tmp_path_factory, text):
    """`check cc` exits 1 when the declared outcome is wrong, so it runs
    with both: exactly one holds, or the input is bad and both exit 2."""
    where = tmp_path_factory.getbasetemp()
    codes = [
        exit_code(["check", "cc"], where, f"{text}expect = {declared}\n")
        for declared in ("pass", "fail")
    ]
    assert sorted(codes) in ([0, 1], [2, 2])
