"""Command-line front end.

Commands:

    verify-counterexample    run the full evidence pipeline for the
                             configured neighborhood base
    eval EXPR                evaluate one expression exactly
    check TARGET             axioms | roundtrip | cc | base
    partition                build and verify a halving-mass partition

The JSON report goes to stdout (and to --json PATH if given); one
human-readable line per step goes to stderr.  Exit codes: 0 all checks
pass, 1 a check failed, 2 usage or config error (a --json path that
cannot be opened among them), 3 internal error, 4 the output cannot be
written (stdout is closed, its reader left, or writing stdout or the
--json file fails).  A stderr that is closed or cannot be written loses
its lines and changes no exit code.
"""

from __future__ import annotations

import _thread
import atexit
import os
import sys
from types import SimpleNamespace

from . import sets, syntax, topology
from ._common import UsageError
from .config import ConfigError, RunConfig, parse_config

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import NoReturn

# The package binds the evidence modules and `syntax` lazily, so a one-shot
# command runs only the ones its branch calls into, and `syntax` only when
# it parses or formats a literal.  The `eval`, `check` and `partition`
# handlers live in `_cli_eval`, `_cli_check` and `_cli_partition`, which
# `main` imports only in the branch that runs them.  The benchmark's tracer
# self-test reads `l0convex.cli.gauge_closed_form`, resolved on first use.
_EVIDENCE_NAMES = {"gauge_closed_form": sets}


def __getattr__(name: str):
    if name not in _EVIDENCE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_EVIDENCE_NAMES[name], name)


SCHEMA = 3

# The inputs each command reads, per target for check and per operation
# for eval; `--name` is both that flag and the config key `name`.  A command
# takes a flag exactly when one of its rows reads it, an input outside the
# row that runs is rejected rather than ignored, and a report has a `seed`
# or `samples` key exactly when its row reads that input.
_READS = {
    "verify-counterexample": "--seed --samples base epsilon delta",
    "check axioms": "--seed --samples seminorm",
    "check roundtrip": "--seed --samples seminorm set",
    "check cc": "set seq.ec seq.diag part.finite part.singletons_from expect",
    "check base": "--seed --samples base epsilon delta",
    "eval prob": "space.explicit space.tail_coefficient",
    "eval gauge": "",
    "eval contains": "",
    "eval seminorm": "",
    "eval glue": "",
    "partition": "space.explicit space.tail_coefficient part.finite part.singletons_from",
}


def _flags(command: str) -> list[str]:
    """The flags some row of `command` reads, in the order its rows first
    name them (so every usage line lists --seed before --samples)."""
    rows = [reads for row, reads in _READS.items() if row.split()[0] == command]
    return [*dict.fromkeys(name for name in " ".join(rows).split() if name[:2] == "--")]


# -- output ------------------------------------------------------------------

# What `json.dumps` writes for each ASCII character it escapes: a short
# escape where JSON has one, else `\\u00XX`.
_ESCAPES = {n: f"\\u{n:04x}" for n in (*range(32), 127)} | {
    ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')
}


def _quoted(text: str) -> str:
    """`text` as `json.dumps` writes a string: in ASCII, with every
    character past it as the `\\uXXXX` of its UTF-16 code units."""
    text = text.translate(_ESCAPES)
    if not text.isascii():
        text = "".join([c if c.isascii() else _code_units(c) for c in text])
    return f'"{text}"'


def _code_units(c: str) -> str:
    units = c.encode("utf-16-be", "surrogatepass").hex()
    return "".join(["\\u" + units[i : i + 4] for i in range(0, len(units), 4)])


def _json(value, indent: str = "\n") -> str:
    """`json.dumps(value, sort_keys=True, indent=2)`, byte for byte, for
    what a report holds: dicts with string keys, lists, tuples, strings,
    ints, booleans and None.  Anything else, a float or a set too, raises
    TypeError."""
    if value is None or value is True or value is False:
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, str):
        return _quoted(value)
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        brackets, items = "[]", [_json(item, inner) for item in value]
    elif isinstance(value, dict) and all(type(key) is str for key in value):
        brackets = "{}"
        items = [f"{_quoted(key)}: {_json(value[key], inner)}" for key in sorted(value)]
    else:
        raise TypeError(f"a report holds no {type(value).__name__} like {value!r:.40}")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


class _OutputFailed(Exception):
    """Writing stdout or the --json report file failed with the OSError
    that is its `__cause__`."""


def _write_stdout(text: str) -> None:
    """Write `text` to stdout and flush it, or raise `_OutputFailed`.

    The bytes go to stdout's binary layer until every one is out: with
    PYTHONUNBUFFERED set that layer is the raw file, which may take only
    part of a write, and the text layer would drop the rest silently.
    On a failure stdout is pointed at the null device, so the flush at
    exit, `run()`'s or the interpreter's, finds nothing left to fail on.
    """
    out = sys.stdout
    try:
        binary = getattr(out, "buffer", None)
        if binary is None:  # an in-memory text stream, such as io.StringIO
            out.write(text)
            return
        out.flush()  # text written earlier goes first
        data = memoryview(text.encode(out.encoding, out.errors))
        while data:
            data = data[binary.write(data) or 0 :]  # None: a non-blocking file took nothing
        binary.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        raise _OutputFailed() from exc


def _note(line: str) -> None:
    """Write `line` to stderr, or lose it if stderr cannot take it.

    A stderr closed at the start (`2>&-`) is None, where `print` would
    write to stdout and corrupt the report; one that cannot be written
    raises OSError.  Neither changes the exit code the run earned."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(line + "\n")
        except OSError:
            pass


def _emit(report: dict, json_path: str | None) -> None:
    """Write the report: stdout, then the --json file, then one line per
    step on stderr.  The file is opened before stdout gets a byte, so a
    path that cannot be opened is bad input (exit 2) with stdout empty;
    a failure to write or close it is an output failure (exit 4)."""
    text = ""
    if json_path or "value" not in report:  # eval prints the value alone
        text = _json(report) + "\n"
    handle = open(json_path, "w") if json_path else None
    try:
        _write_stdout(report["value"] + "\n" if "value" in report else text)
    except _OutputFailed:
        if handle is not None:
            handle.close()  # nothing was written to it, so this cannot fail
        raise
    if handle is not None:
        try:
            with handle:  # closed on the way out, even when a write failed
                handle.write(text)
        except OSError as exc:
            raise _OutputFailed() from exc
    for step in report.get("steps", ()):
        tag = "PASS" if step["pass"] else "FAIL"
        _note(f"{tag}  {step['name']}")
    if "verdict" in report:
        _note(f"verdict: {report['verdict']}")


def _load_config(args) -> tuple[RunConfig, dict]:
    """The run's config, once every given input is one its row reads, and
    the report header: the schema, plus `seed` and `samples` if read."""
    text = ""
    if args.config:
        with open(args.config, "rb") as handle:
            data = handle.read()
        try:  # UTF-8, a leading byte order mark skipped
            text = data.decode("utf-8").removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8: {exc.reason} at byte {exc.start}") from None
    config, keys = parse_config(text)
    run = args.command
    if run == "check":
        run += f" {args.target}"
    elif run == "eval":
        run += f" {syntax.Parser(args.expression).word()}"  # an unknown operation reads nothing
    reads = [name.lstrip("-") for name in _READS.get(run, "").split()]
    given = [flag for flag in _flags(args.command) if getattr(args, flag[2:]) is not None]
    for name in [*given, *keys]:
        if name.lstrip("-") not in reads:
            shown = name if name[:2] == "--" else repr(name)
            listing = f"only {', '.join(reads)}" if reads else "no flag or config key"
            raise ConfigError(f"{shown} would be ignored: {run} reads {listing}")
    flags = {flag[2:]: getattr(args, flag[2:]) for flag in given}
    config = RunConfig(**{**vars(config), **flags})  # a flag wins over its config key
    # zero samples would make every sampled step pass vacuously
    if config.samples < 1:
        raise ConfigError(f"samples must be at least 1, got {config.samples}")
    header = {"schema": SCHEMA}
    header.update((key, getattr(config, key)) for key in ("seed", "samples") if key in reads)
    return config, header


# -- verify-counterexample ---------------------------------------------------


def cmd_verify(args, config: RunConfig, header: dict) -> dict:
    verdict = topology.seminorm_induction_verdict(
        config.base, config.seed, config.samples, config.epsilon, config.delta
    )
    report = {
        **header,
        "command": "verify-counterexample",
        "verdict": "NotInduced" if verdict.verdict == "not_induced" else "Induced",
        "steps": [step.to_json() for step in verdict.steps],
        "pass": verdict.passed,
    }
    if verdict.family is not None:
        report["family"] = [syntax.format_seminorm(s) for s in verdict.family]
    return report


# -- entry point -------------------------------------------------------------


# Each command's positional argument as its usage line shows it, empty
# where the command takes none; a command that takes one must be given
# it.  `check` takes one of its `_READS` targets.
_POSITIONAL = {
    "verify-counterexample": "",
    "eval": "EXPRESSION",
    "check": "TARGET",
    "partition": "",
}
_TARGETS = [row[6:] for row in _READS if row[:6] == "check "]


def _options(command: str) -> dict[str, str]:
    """Each flag `command` takes, with the attribute that holds its value."""
    extra = {"--from": "tail_start", "--cells": "cells"} if command == "partition" else {}
    return {"--config": "config", "--json": "json", **extra} | {f: f[2:] for f in _flags(command)}


def _is_flag(word: str) -> bool:
    # as in argparse: `-` alone and a negative number such as `-5` are values
    return word[:1] == "-" and word != "-" and not word[1:2].isdecimal()


def _refuse(message: str) -> NoReturn:
    _note(f"l0convex: error: {message}")
    raise SystemExit(2)


# A flag's integer, in the config's grammar: an optional '-', then digits.
def _integer(flag: str, text: str) -> int:
    if text.removeprefix("-").isdecimal():
        return int(text)
    _refuse(f"argument {flag}: expected an integer, got {text!r}")


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read the command line: a command, its positional argument and its
    flags, each given at most once by its full name, as `--name value` or
    `--name=value`.  Bad usage exits 2 after an `l0convex: error:` line;
    `-h` or `--help` prints every command with its flags and exits 0."""
    if "-h" in argv or "--help" in argv:
        lines = []
        for command, shown in _POSITIONAL.items():
            flags = [f"[{flag} {flag[2:].upper()}]" for flag in _options(command)]
            lines.append(" ".join([f"l0convex {command} {shown}".rstrip(), *flags]))
        lines.append(" ".join(["TARGET:", *_TARGETS]))
        _write_stdout("".join(line + "\n" for line in lines))
        raise SystemExit(0)
    command = argv[0] if argv else ""
    if command not in _POSITIONAL:
        _refuse(f"expected a command ({', '.join(_POSITIONAL)}), got {command!r}")
    # every attribute a handler reads; None where the command line is silent
    names = "expression target tail_start cells config json seed samples"
    args = SimpleNamespace(command=command, **dict.fromkeys(names.split()))
    options, extras = _options(command), []
    positional = _POSITIONAL[command].lower()
    words = iter(argv[1:])
    for word in words:
        flag, equals, value = word.partition("=")
        if not _is_flag(word):
            if not positional or getattr(args, positional) is not None:
                extras.append(word)
            elif positional == "target" and word not in _TARGETS:
                choices = ", ".join(_TARGETS)
                _refuse(f"argument target: invalid choice: {word!r} (choose from {choices})")
            else:
                setattr(args, positional, word)
        elif flag not in options:
            extras.append(word)  # an abbreviation too: a flag is named in full
        elif getattr(args, options[flag]) is not None:
            _refuse(f"argument {flag}: given twice")
        else:
            if not equals:
                value = next(words, None)
                if value is None or _is_flag(value):
                    _refuse(f"argument {flag}: expected one argument")
            if flag in ("--from", *_flags(command)):
                value = _integer(flag, value)
            setattr(args, options[flag], value)
    if positional and getattr(args, positional) is None:
        _refuse(f"the following arguments are required: {positional}")
    if extras:
        _refuse(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _run(args) -> int:
    """Run the command: each group's handler returns its report, which
    `_emit` writes out."""
    config, header = _load_config(args)
    command = args.command
    if command == "eval":
        from . import _cli_eval

        report = _cli_eval.cmd_eval(args, config, header)
    elif command == "check":
        from . import _cli_check

        report = _cli_check.cmd_check(args, config, header)
    elif command == "partition":
        from . import _cli_partition

        report = _cli_partition.cmd_partition(args, config, header)
    else:
        report = cmd_verify(args, config, header)
    _emit(report, args.json)
    return 0 if report.get("pass", True) else 1


def main(argv=None) -> int:
    if sys.stdout is None:  # started with stdout closed (`>&-`)
        _note("error: stdout is closed, so no output can be written")
        return 4
    try:
        return _run(parse_args(sys.argv[1:] if argv is None else argv))
    except _OutputFailed as failed:
        # a reader that left gets no message, any other failure one line
        if not isinstance(failed.__cause__, BrokenPipeError):
            _note(f"error: {failed.__cause__}")
        return 4
    except Exception as exc:
        # bad input: the package's input errors, a file named on the
        # command line that cannot be opened, and an integer past Python's
        # digit limit, which can be neither read nor printed (its
        # ValueError names `sys.set_int_max_str_digits`, which a shell user
        # reaches through the environment)
        if isinstance(exc, (UsageError, OSError)) or "int_max_str_digits" in str(exc):
            knob = "the PYTHONINTMAXSTRDIGITS environment variable"
            _note(f"error: {exc}".replace("sys.set_int_max_str_digits()", knob))
            return 2
        # a defect in the program, never "a check failed"
        _note(f"internal error: {type(exc).__name__}: {exc}")
        return 3


def run() -> NoReturn:
    """The process entry: `main()`, then the end of the process with its code.

    Once the report is out nothing reads the modules, functions and
    classes the run loaded, so `run()` skips the interpreter's teardown:
    it runs the `atexit` hooks once, flushes stdout and stderr (losing
    what a closed or failing stderr cannot take) and ends the process
    with `os._exit`.  It exits the normal way, by `SystemExit`, when
    something watches the process: a tracer or a profiler
    (`sys.settrace`, `sys.setprofile` or a `sys.monitoring` tool, as
    coverage and cProfile attach), whose hooks and files need the full
    exit, or a thread besides the main one, which the normal exit waits
    for.  So it does when stdout cannot take what a hook wrote: the
    interpreter's exit reports that, with code 120.  `main()` never
    ends the process.
    """
    code = main()
    tools = getattr(sys, "monitoring", None)  # 3.12 on, with the tool ids 0 to 5
    if (
        sys.gettrace() or sys.getprofile() or tools and any(map(tools.get_tool, range(6)))
        or _thread._count()
    ):
        sys.exit(code)
    atexit._run_exitfuncs()
    try:
        sys.stdout and sys.stdout.flush()  # None: closed at the start
    except OSError:
        sys.exit(code)
    try:
        sys.stderr.flush()
    except (AttributeError, OSError):
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
