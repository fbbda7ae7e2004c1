"""Unrun-line gate: the lines of src/symcast/ that no tier-1 test runs.

Run from the root of the repository (it is not part of the pytest suite):

    python3 tests/unrun.py    # about twice as long as the untraced suite

The repository has no coverage tool, so the script is its own. Before
symcast is imported it installs a sys.settrace line tracer for the frames
whose code lives in src/symcast/, then runs the tier-1 suite in this
process through pytest.main, with Hypothesis seeded so that each run draws
the same examples. A module's executable lines are the lines that its
compiled code, and every code object nested in it, names through
co_lines. Each executable line that no test ran is printed, as
file:line, whether EXPECTED holds it, and the line's text.

EXPECTED holds the lines that no test here can run, each entry a text of
whole lines that must occur exactly once in its file, with the reason. The
exit status is 1 when the suite fails, when a line no test ran lies in no
entry, when an entry's text does not occur exactly once (the code moved:
update the entry) or when every line of an entry ran (drop the entry).
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "symcast"


class Unrun(NamedTuple):
    file: str
    text: str  # whole lines, newlines included
    why: str


EXPECTED = [
    Unrun("src/symcast/cli.py",
          '        with open(os.devnull, "wb") as devnull:\n'
          "            os.dup2(devnull.fileno(), sys.stdout.fileno())\n"
          "        return 1\n",
          "a closed pipe is met only in the CLI process that "
          "test_a_closed_output_pipe_stops_quietly spawns, which is not traced"),
    Unrun("src/symcast/cli.py", "    sys.exit(main())\n",
          "runs only as `python -m symcast.cli`, in a spawned process"),
    Unrun("src/symcast/tracetext.py",
          "            raise TraceFormatError(first_line + low, str(exc)) from exc\n"
          "        raise\n",
          "_parse_block's last raise is for a block that fails while none of its rows fails "
          "alone; each check of _parse_rows is per row, so no input reaches it"),
]


def executable_lines(path: Path) -> set[int]:
    """The line numbers the compiled module and each code object nested in it name."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module starts at line 0
        stack += [const for const in code.co_consts if isinstance(const, types.CodeType)]
    return lines


def run_traced_suite() -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit status on the tier-1 suite, and the lines it ran of each package file."""
    # One flag per line, set in place, and one tracer function for every frame: the
    # tracer allocates nothing that lasts, which the suite's tracemalloc tests would
    # count against the code they measure.
    flags = {str(path): bytearray(path.read_text(encoding="utf-8").count("\n") + 2)
             for path in PACKAGE.glob("*.py")}

    def trace_lines(frame, event, arg):
        if event == "line":
            flags[frame.f_code.co_filename][frame.f_lineno] = 1
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in flags else None

    os.chdir(ROOT)  # so that pytest, too, names src/ by its resolved path
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(trace_calls)
    try:
        import pytest

        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              "--hypothesis-seed=0", "tests"])
    finally:
        sys.settrace(None)
    return int(status), {Path(name): {line for line, flag in enumerate(lines) if flag}
                         for name, lines in flags.items()}


def main() -> int:
    status, ran = run_traced_suite()
    problems = [] if status == 0 else [f"the suite exits {status}"]
    origin = Path(os.path.realpath(sys.modules["symcast"].__file__)).parent
    if origin != PACKAGE:
        problems.append(f"symcast was imported from {origin}, not {PACKAGE}")

    expected: dict[tuple[str, int], Unrun] = {}
    for entry in EXPECTED:
        source = (ROOT / entry.file).read_text(encoding="utf-8")
        if source.count(entry.text) != 1:
            problems.append(f"{entry.file}: {entry.text!r} occurs {source.count(entry.text)} "
                            "times, expected once")
            continue
        first = source[:source.index(entry.text)].count("\n") + 1
        for line in range(first, first + entry.text.count("\n")):
            expected[entry.file, line] = entry

    still_unrun = set()
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        file = str(path.relative_to(ROOT))
        texts = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran[path]):
            entry = expected.get((file, line))
            still_unrun.add(entry)
            print(f"{file}:{line:<5} {'expected' if entry else 'UNRUN':9} {texts[line - 1].strip()}")
            if entry is None:
                problems.append(f"{file}:{line} runs in no test and is not in EXPECTED")
    for entry in set(expected.values()) - still_unrun:
        problems.append(f"{entry.file}: every line of {entry.text!r} ran: drop the entry")
    for problem in problems:
        print("error:", problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
