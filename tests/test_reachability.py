"""Every package function is run by some command, or is declared library-only.

One child process profiles the package (`sys.setprofile`, set before
`import l0convex`) while `cli.main()` runs every golden case but the two
200-sample ones, which enter the same functions, one command per
`cli._READS` row, the seminorm-base verify of `tests/test_imports.py`, and
a few edge inputs.  It prints each code object it entered under the
package.  The functions never entered, methods and nested functions
included, must be exactly `LIBRARY_ONLY`, each with a reason from
`REASONS`: a function that no input reaches is deleted or declared, and a
declared one that a command now runs, or that is gone, leaves the table.

To list the functions that no input reaches, each with its `file:line`:

    PYTHONPATH=src python tests/test_reachability.py
"""

import ast
import json
import sys
import tempfile
from pathlib import Path

import l0convex

import test_acceptance
from test_golden import CASES, arguments
from test_imports import COMMANDS, INDUCED, child

PACKAGE = Path(l0convex.__file__).resolve().parent

# Runs `cli.main()` on each argv of the JSON file `sys.argv[1]` under a
# profiler that records every code object entered, and prints the package
# modules' (module, first line) pairs of those code objects.
PROBE = """
import contextlib, io, json, sys
entered = set()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
import l0convex
from l0convex import cli
with open(sys.argv[1]) as runs:
    runs = json.load(runs)
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:  # --help and a bad command line
            pass
sys.setprofile(None)
home = l0convex.__path__[0]
print(json.dumps(sorted({
    (code.co_filename[len(home) + 1 : -3], code.co_firstlineno)
    for code in entered
    if code.co_filename.startswith(home)
})))
"""

# Inputs beyond the golden cases and the commands: the help text, a bad
# command line, a parse error, a space set by both keys, and a report
# file with a character past ASCII (an Arabic-Indic digit reads as 1).
EDGES = (
    ("--help",),
    ("verify-counterexample", "--samples"),
    ("eval", "prob {1"),
    ("eval", "prob {1}", "--config", "space.cfg"),
    ("eval", "prob {١}", "--json", "out.json"),
)
SPACE = 'space.explicit = [[1, "1/3"]]\nspace.tail_coefficient = 4/3\n'

README = "README library contract"
FROZEN = "immutability guard"
COPY = "copy and pickle"
ENTRY = "process entry: `run()`, which `TestProcessEntry` runs in children"
BENCH = "benchmark hook: `perfbench/test_perfbench.py` reads it"
# and "acceptance criterion N", for a function that `test_criterion_N_*`
# of `tests/test_acceptance.py` runs
REASONS = {README, FROZEN, COPY, ENTRY, BENCH}

# "module:qualname" -> why no command runs it
LIBRARY_ONLY = {
    "__init__:__dir__": README,
    "_common:record.<locals>.__repr__": README,
    "_common:record.<locals>.__hash__": README,
    "_common:_frozen_setattr": FROZEN,
    "_common:_frozen_delattr": FROZEN,
    "_common:EventSet.__reduce__": COPY,
    "_common:EventSet.__contains__": README,
    "_common:EventSet.difference": README,
    "_common:EventSet.issubset": README,
    "_common:EvidenceStep.__reduce__": COPY,
    "_library:epslambda_membership": "acceptance criterion 10",
    "_syntax_extra:parse_sequence": README,
    "_syntax_extra:parse_partition": README,
    "cli:__getattr__": BENCH,
    "cli:run": ENTRY,
    "concatenation:reverse_partition_construct": "acceptance criterion 8",
    "l0:EcRv.__setattr__": FROZEN,
    "l0:EcRv.__delattr__": FROZEN,
    "l0:EcRv.__reduce__": COPY,
    "l0:EcRv.overrides": README,
    "l0:EcRv.tail": README,
    "l0:EcRv.value_at": README,
    "l0:EcRv.values": README,
    "l0:EcRv.__hash__": README,
    "l0:EcRv.__rsub__": README,
    "l0:EcRv.__neg__": README,
    "measure:DiscreteSpace.__setattr__": FROZEN,
    "measure:DiscreteSpace.__delattr__": FROZEN,
    "measure:DiscreteSpace.__reduce__": COPY,
    "measure:DiscreteSpace.explicit": README,
    "measure:DiscreteSpace.tail_coefficient": README,
    "measure:DiscreteSpace.atom_mass": README,
    "measure:DiscreteSpace.mass_from": README,
    "measure:DiscreteSpace.probability": README,
    "measure:DiscreteSpace.__eq__": README,
    "measure:DiscreteSpace.__hash__": README,
    "measure:DiscreteSpace.__repr__": README,
    "sampling:Tally.__reduce__": COPY,
    "syntax:parse_rational": README,
    "syntax:parse_ecrv": README,
    "syntax:parse_event": README,
    "syntax:parse_seminorm": README,
    "syntax:parse_set": README,
}


def functions() -> dict[str, tuple[str, set[int]]]:
    """Each function of the package, methods and nested functions too:
    "module:qualname" -> (its `file:line`, the lines its code object may
    start on: the `def` line and, if decorated, the first decorator's)."""
    found = {}

    def walk(node, module, prefix):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{module}:{prefix}{item.name}"
                lines = {item.lineno, *(d.lineno for d in item.decorator_list[:1])}
                assert name not in found, f"{name} is defined twice"
                found[name] = (f"src/l0convex/{module}.py:{item.lineno}", lines)
                walk(item, module, f"{prefix}{item.name}.<locals>.")
            elif isinstance(item, ast.ClassDef):
                walk(item, module, f"{prefix}{item.name}.")
            else:
                walk(item, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


def runs(directory: Path) -> list[list[str]]:
    """Every argv the probe runs, with its config files written to `directory`."""
    golden = [arguments(name) for name in CASES if not name.endswith("_200")]
    commands = []
    for i, (argv, config, _) in enumerate([*COMMANDS.values(), INDUCED]):
        if config is not None:
            path = directory / f"{i}.cfg"
            path.write_text(config)
            argv = (*argv, "--config", str(path))
        commands.append(list(argv))
    (directory / "space.cfg").write_text(SPACE)
    return [*golden, *commands, *map(list, EDGES)]


def unreached(directory: Path) -> dict[str, str]:
    """Each package function no run enters, with its `file:line`."""
    (directory / "runs.json").write_text(json.dumps(runs(directory)))
    result = child(PROBE, "runs.json", cwd=directory)
    assert result.returncode == 0, result.stderr
    entered = {}
    for module, line in json.loads(result.stdout):
        entered.setdefault(module, set()).add(line)
    return {
        name: where
        for name, (where, lines) in functions().items()
        if not lines & entered.get(name.split(":")[0], set())
    }


def drift(found: dict[str, str]) -> list[str]:
    """One line per function no run enters that the table does not declare,
    and one per declared entry that a run enters or that names no function."""
    every = functions()
    lines = [
        f"{found[name]}: {name} is run by no command; declare it or delete it"
        for name in sorted(found.keys() - LIBRARY_ONLY.keys())
    ]
    for name in sorted(LIBRARY_ONLY.keys() - found.keys()):
        if name in every:
            lines.append(f"{every[name][0]}: {name} is run by a command; undeclare it")
        else:
            lines.append(f"tests/test_reachability.py: {name} names no function; undeclare it")
    return lines


def test_every_reason_is_a_declared_one():
    criteria = {
        f"acceptance criterion {name.split('_')[2]}"
        for name in vars(test_acceptance)
        if name.startswith("test_criterion_")
    }
    assert set(LIBRARY_ONLY.values()) - REASONS - criteria == set()


def test_every_unreached_function_is_declared(tmp_path):
    assert drift(unreached(tmp_path)) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        found = unreached(Path(directory))

    def place(name):
        path, line = found[name].rsplit(":", 1)
        return path, int(line)

    for name in sorted(found, key=place):
        print(f"{found[name]}: {name}  [{LIBRARY_ONLY.get(name, 'undeclared')}]")
    for line in drift(found):
        if "undeclare it" in line:
            print(line)
    print(f"{len(found)} functions run by no command", file=sys.stderr)
