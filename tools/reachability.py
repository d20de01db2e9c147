"""Which lines of the package does no bundled config and no ``verify`` run?

Imports ``invariant_guard`` under a ``sys.settrace`` line tracer, runs
through ``cli.main`` each bundled config (``sweep`` for
``sweep_advection``, ``run`` for the rest) into a temporary output root
and ``verify`` at seed 0, and lists, file by file, the executable lines of
``src/invariant_guard`` that never ran, one range per line with the text
of its first line.  A line is executable when some code object compiled
from its file starts an instruction on it.  A code object stops being
traced once every line of it has run, which keeps the hot loops near full
speed.

Run from anywhere:  python tools/reachability.py
It takes about 15 s on a 2-core machine and stays out of the tier-1 tests.
The last line is the summary: executed and executable line counts.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import types
import warnings
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "invariant_guard"


def code_lines(code, nested=False):
    """The lines ``code`` starts an instruction on, with those of the code
    objects nested in it when ``nested``."""
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        if nested:
            todo.extend(c for c in code.co_consts
                        if isinstance(c, types.CodeType))
    return lines


class LineTracer:
    """Records the lines each package file ran."""

    def __init__(self):
        self.seen = {}        # file name -> lines run
        self.remaining = {}   # code object -> its lines not yet run

    def on_call(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(str(PACKAGE)):
            return None
        left = self.remaining.get(code)
        if left is None:
            left = self.remaining[code] = code_lines(code)
        self._ran(frame)
        return self.on_line if left else None

    def on_line(self, frame, event, arg):
        if event == "line":
            self._ran(frame)
        return self.on_line if self.remaining[frame.f_code] else None

    def _ran(self, frame):
        line = frame.f_lineno
        self.remaining[frame.f_code].discard(line)
        self.seen.setdefault(frame.f_code.co_filename, set()).add(line)


def _ranges(lines):
    """Sorted ``lines`` as (first, last) runs of consecutive numbers."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return runs


def main():
    sys.path.insert(0, str(PACKAGE.parent))
    tracer = LineTracer()
    sys.settrace(tracer.on_call)
    try:
        from invariant_guard import cli
        with tempfile.TemporaryDirectory(prefix="reachability-") as tmp, \
                warnings.catch_warnings(), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            for path in sorted((PACKAGE / "configs").glob("*.cfg")):
                command = "sweep" if path.stem == "sweep_advection" else "run"
                cli.main(["--output-root", tmp, command,
                          str(cli.bundled_config(path.stem))])
            verify = Path(tmp) / "verify.cfg"
            verify.write_text("[verify]\nseed = 0\n")
            cli.main(["verify", str(verify)])
    finally:
        sys.settrace(None)
    executable = run = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = code_lines(compile(path.read_text(), str(path), "exec"),
                           nested=True)
        unrun = lines - tracer.seen.get(str(path), set())
        executable += len(lines)
        run += len(lines) - len(unrun)
        text = path.read_text().split("\n")
        for first, last in _ranges(unrun):
            span = f"{first}" if first == last else f"{first}-{last}"
            print(f"{path.relative_to(REPO)}:{span}: "
                  f"{text[first - 1].strip()}")
    print(f"{run} of {executable} executable lines ran; "
          f"{executable - run} did not")
    return 0


if __name__ == "__main__":
    sys.exit(main())
