"""README.md's examples and flag table, checked against the program.

Each ```console block of the README is a terminal session. The blocks run in
order, in one directory:

- `$ cat FILE` shows a file. A file that no earlier command wrote is made
  with the lines shown; one that a command wrote is compared with them.
- `$ symcast ARGS` runs cli.main(ARGS) in-process. Its standard output, then
  its standard error, are compared with the lines shown, as a terminal shows
  them; a last `> FILE` writes standard output to FILE instead.
- `$ echo $?` shows the exit status of the command before it. A command that
  no `$ echo $?` follows must exit 0.

In a comparison, a `...` line matches any run of lines, or none. The
README's ```python block runs after the sessions, in the same directory.
"""

import argparse
import contextlib
import io
import math
import re
import shlex
from pathlib import Path

import pytest

from symcast.cli import _FIELDS, build_parser, main
from symcast.config import LearnerConfig

from conftest import CARBUS

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(text: str, language: str) -> list[list[str]]:
    """The lines of each ```language block of text, in order."""
    bodies = re.findall(rf"^```{language}\n(.*?)\n```$", text, re.M | re.S)
    return [body.split("\n") for body in bodies]


def session(text: str) -> list[tuple[str, list[str]]]:
    """Each `$ ` command of the console blocks of text, with the lines shown after it."""
    steps = []
    for block in blocks(text, "console"):
        assert block[0].startswith("$ "), f"a console block starts with a command, not {block[0]!r}"
        for line in block:
            if line.startswith("$ "):
                steps.append((line[2:], []))
            else:
                steps[-1][1].append(line)
    return steps


def shows(shown: list[str], text: str) -> bool:
    """Whether text is the shown lines, each `...` line standing for any run of lines."""
    pattern = "".join(r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in shown)
    return re.fullmatch(pattern, text) is not None


def run_symcast(argv: list[str]) -> tuple[int, str, str]:
    """cli.main's exit status, standard output and standard error on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def run_readme(text: str) -> None:
    """Run text's sessions, then its Python block, here; AssertionError names a difference."""
    status = 0
    for command, shown in session(text):
        words = shlex.split(command)
        if words == ["echo", "$?"]:
            assert shown == [str(status)], f"the command before `$ echo $?` exits {status}"
            status = 0
            continue
        assert status == 0, f"a command exits {status}, and no `$ echo $?` shows it"
        if words[0] == "cat":
            (path,) = map(Path, words[1:])
            if not path.exists():
                assert "..." not in shown, f"`$ {command}` makes the file, so it shows it all"
                path.write_text("".join(line + "\n" for line in shown), encoding="utf-8")
                continue
            actual = path.read_text(encoding="utf-8")
        elif words[0] == "symcast":
            target = words[-1] if words[-2:-1] == [">"] else None
            status, out, err = run_symcast(words[1:-2] if target else words[1:])
            if target:
                Path(target).write_text(out, encoding="utf-8", newline="")
            actual = ("" if target else out) + err
        else:
            raise AssertionError(f"`$ {command}` is no command this test runs")
        assert shows(shown, actual), f"`$ {command}` shows a text that differs from:\n{actual}"
    assert status == 0, f"the last command exits {status}, and no `$ echo $?` shows it"
    for code in blocks(text, "python"):
        exec(compile("\n".join(code), str(README), "exec"), {})


def test_the_examples_run_as_shown(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_readme(README.read_text(encoding="utf-8"))


def test_each_command_and_the_library_have_an_example():
    text = README.read_text(encoding="utf-8")
    commands = {command.split()[1] for command, _ in session(text)
                if command.startswith("symcast ")}
    assert {"encode", "predict", "report"} <= commands
    assert blocks(text, "python")


@pytest.mark.parametrize("old,new", [
    ("final_mape_percent: 80.000000", "final_mape_percent: 80.000001"),  # a command's output
    ("3,test,5,5.000000,5,1,4,400.000000,-2.000000",  # the excerpt of the trace written
     "3,test,5,5.000000,5,1,4,400.000000,-3.000000"),
])
def test_an_altered_line_is_caught(tmp_path, monkeypatch, old, new):
    monkeypatch.chdir(tmp_path)
    text = README.read_text(encoding="utf-8")
    assert old in text
    with pytest.raises(AssertionError, match="differs"):
        run_readme(text.replace(old, new, 1))


def flag_table(text: str) -> dict[str, tuple[list[str], str, str]]:
    """Each row of the README's flag table: flag -> (commands, default, values)."""
    rows = re.findall(r"^\| `(--[a-z-]+)` \| (.+?) \| (.+?) \| (.+?) \| .+ \|$", text, re.M)
    table = {flag: (commands.split(", "), default.strip("`"), values)
             for flag, commands, default, values in rows}
    assert len(table) == len(rows), "a flag has two rows"
    return table


def options() -> dict[str, tuple[list[str], argparse.Action]]:
    """Each option of each command's parser but --help: flag -> (commands, action)."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found: dict[str, tuple[list[str], argparse.Action]] = {}
    for command, subparser in commands.choices.items():
        for action in subparser._actions:
            for flag in set(action.option_strings) - {"-h", "--help"}:
                found.setdefault(flag, ([], action))[0].append(command)
    return found


def probes(values: str, bounds: dict[str, int]) -> tuple[list[str], list[str]]:
    """Texts that a values cell says a setting takes, and texts it says the setting refuses.

    `(a, b)` is a real range without its ends, `a..b` an integer range with them,
    and a word in backquotes a value taken as it is; a bound may be a name in bounds.
    """
    interval = re.fullmatch(r"\((.+), (.+)\)", values)
    if interval:
        low, high = map(float, interval.groups())
        return [repr(math.nextafter(low, high)), repr(math.nextafter(high, low))], \
            [repr(low), repr(high), "nan"]
    taken, refused = [], []
    for term in values.split(", "):
        if ".." in term:
            low, high = (bounds[end] if end in bounds else int(end) for end in term.split(".."))
            taken += [str(low), str(high)]
            refused += [str(low - 1), str(high + 1), f"{low}.5"]
        else:
            taken.append(term.strip("`"))
            refused.append(term.strip("`") + "x")
    return taken, refused


def test_the_flag_table_matches_the_parser(tmp_path, monkeypatch):
    """Its rows are the commands' options, with their defaults and their validators' ranges."""
    table, found = flag_table(README.read_text(encoding="utf-8")), options()
    assert sorted(table) == sorted(found)
    monkeypatch.chdir(tmp_path)
    Path("vehicles.txt").write_text("".join(row + "\n" for row in CARBUS), encoding="utf-8")
    bounds = {"rows": len(CARBUS), "population": LearnerConfig().population_size,
              "2^63-1": 2**63 - 1}
    for flag, (commands, action) in found.items():
        row_commands, default, values = table[flag]
        assert row_commands == commands, flag
        assert (default == "required") == action.required, flag
        assert (default == "off") == (action.nargs == 0), flag
        if action.dest not in _FIELDS:
            continue
        _, parse, owner, field, _ = _FIELDS[action.dest]
        if action.nargs == 0:
            assert owner._field_defaults[field] is False, flag
            continue
        assert parse(default) == owner._field_defaults[field], flag
        taken, refused = probes(values, bounds)
        for text in taken + refused:
            status, _, err = run_symcast(["predict", "--input", "vehicles.txt",
                                          "--out", "trace.csv", f"{flag}={text}"])
            assert (status == 2) == (text in refused), f"{flag} {text}: exits {status} {err}"
            if status == 2:
                assert f"(from flag {flag})" in err, err
