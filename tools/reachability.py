#!/usr/bin/env python3
"""The reachability ledger: which statement lines of ``src/repro`` does
the traffic reach, which do only the tests reach, which does nothing reach.

Three forms, all run from the repository root::

    python tools/reachability.py record OUT.json -- repro fleet --sf 0.01
    python tools/reachability.py run tools/reachability_set_a.txt A_DIR
    python tools/reachability.py report A_DIR B_DIR > benchmarks/results/reachability.json

``record`` runs one command *in this process* under a line recorder
(``sys.settrace`` + ``threading.settrace``; only frames whose file is under
``src/repro`` are traced) and writes the lines it executed.  The command is
a module name (``repro``, ``repro.analysis``, ``pytest``) or a script path
(``examples/quickstart.py``, ``perfbench/run.py``) followed by its
arguments, exactly as after ``python -m`` / ``python``.  ``run`` records
every line of a command list, one fresh interpreter per command.
``report`` compiles every module, takes the statement lines of every
function body from the bytecode line table, and classifies each as reached
by a workload recording (set A), by a test recording only (set B), or by
neither.

Stdlib only, because ``coverage`` is not installed everywhere this runs.
Note for anyone adding a command: a tool that calls ``sys.settrace(None)``
around the code it runs (``pytest-benchmark`` did) blinds the recorder.
"""

from __future__ import annotations

import json
import re
import runpy
import shlex
import subprocess
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

_CO_OPTIMIZED = 0x1  # set on function bodies, clear on module and class bodies
_FOLDED = ("<lambda>", "<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")


def statement_lines(code: CodeType) -> set[int]:
    """The lines of ``code`` that produce a line event when executed: its
    bytecode line table without the ``def`` (or first decorator) line,
    which a call passes without one.  A lambda or comprehension starts on
    its own first line and keeps it.  Docstrings compile to no
    instruction, so they are not in the table."""
    lines = {line for _start, _end, line in code.co_lines() if line is not None}
    if code.co_name not in _FOLDED:
        lines.discard(code.co_firstlineno)
    return lines


# -- record ---------------------------------------------------------------------


class Recorder:
    """Collects ``(file, line)`` for every line event under ``src/repro``.

    A code object stops being traced once every line of its line table has
    been seen, so saturated hot functions cost one dictionary lookup per
    call instead of one callback per line.
    """

    def __init__(self):
        self._prefix = str(PACKAGE) + "/"
        self._pending: dict[CodeType, set[int] | None] = {}
        self.hits: dict[str, set[int]] = {}

    def _start(self, code: CodeType) -> set[int] | None:
        if not code.co_filename.startswith(self._prefix):
            return None
        self.hits.setdefault(code.co_filename, set())
        return statement_lines(code)

    def global_trace(self, frame, event, arg):
        code = frame.f_code
        try:
            pending = self._pending[code]
        except KeyError:
            pending = self._pending[code] = self._start(code)
        if not pending:
            return None
        seen = self.hits[code.co_filename]

        def local_trace(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                seen.add(line)
                pending.discard(line)
            return local_trace

        return local_trace

    def install(self) -> None:
        threading.settrace(self.global_trace)
        sys.settrace(self.global_trace)

    def uninstall(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def dump(self, out: Path, command: list[str]) -> None:
        lines = {
            str(Path(name).relative_to(SRC)): sorted(seen)
            for name, seen in sorted(self.hits.items())
        }
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"command": command, "lines": lines}) + "\n")


def record(out: Path, command: list[str]) -> int:
    target, args = command[0], command[1:]
    sys.path[:0] = [str(ROOT), str(SRC)]
    sys.argv = [target, *args]
    recorder = Recorder()
    recorder.install()
    status = 0
    try:
        if target.endswith(".py"):
            runpy.run_path(target, run_name="__main__")
        else:
            runpy.run_module(target, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        recorder.uninstall()
        recorder.dump(out, command)
    return status


def run(command_list: Path, out_dir: Path) -> int:
    """Record every command of the list into ``out_dir/NN.json``."""
    commands = [
        shlex.split(line)
        for line in command_list.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    status = 0
    for index, command in enumerate(commands):
        out = out_dir / f"{index:02d}.json"
        print(f"[{index + 1}/{len(commands)}] {' '.join(command)}", file=sys.stderr, flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "record", str(out), "--", *command],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
        )
        if proc.returncode != 0:
            print(f"  exit status {proc.returncode}", file=sys.stderr)
            status = 1
    return status


# -- report ---------------------------------------------------------------------


def function_lines(path: Path) -> dict[str, set[int]]:
    """Statement lines per function of one module; the lambdas and
    comprehensions inside a function count as part of it."""
    functions: dict[str, set[int]] = {}

    def visit(code: CodeType, owner: str | None) -> None:
        if code.co_flags & _CO_OPTIMIZED:
            if owner is None or code.co_name not in _FOLDED:
                owner = code.co_qualname
            functions.setdefault(owner, set()).update(statement_lines(code))
        for const in code.co_consts:
            if isinstance(const, CodeType):
                visit(const, owner)

    visit(compile(path.read_text(), str(path), "exec"), None)
    return functions


def load_hits(directory: Path) -> dict[str, set[int]]:
    hits: dict[str, set[int]] = {}
    for recording in sorted(directory.glob("*.json")):
        for name, lines in json.loads(recording.read_text())["lines"].items():
            hits.setdefault(name, set()).update(lines)
    return hits


_KEYS = ("lines", "workload", "tests_only", "neither")


def report(a_dir: Path, b_dir: Path) -> str:
    workload, tests = load_hits(a_dir), load_hits(b_dir)
    totals = dict.fromkeys(_KEYS, 0)
    modules = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        name = str(path.relative_to(SRC))
        by_a, by_b = workload.get(name, set()), tests.get(name, set())
        functions = {}
        for function, lines in sorted(function_lines(path).items()):
            if lines:
                in_a = len(lines & by_a)
                in_b_only = len((lines & by_b) - by_a)
                functions[function] = [len(lines), in_a, in_b_only, len(lines) - in_a - in_b_only]
        if functions:
            sums = dict(zip(_KEYS, map(sum, zip(*functions.values()))))
            modules[name] = {**sums, "functions": functions}
            for key in _KEYS:
                totals[key] += sums[key]
    document = {
        "what": "statement lines inside function bodies under src/repro: reached by a "
        "workload recording (set A), by a test recording only (set B), by neither; "
        "per function [lines, workload, tests_only, neither]; tools/reachability.py",
        # Line tables differ between interpreter versions: `lines` is only
        # comparable under the minor version that wrote it.
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "totals": totals,
        "modules": modules,
    }
    # One function per line keeps the committed artifact diffable.
    return re.sub(r"\[\s+(\d+),\s+(\d+),\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2, \3, \4]",
                  json.dumps(document, indent=1)) + "\n"


def main(argv: list[str]) -> int:
    if len(argv) >= 4 and argv[0] == "record" and argv[2] == "--":
        return record(Path(argv[1]).resolve(), argv[3:])
    if len(argv) == 3 and argv[0] == "run":
        return run(Path(argv[1]), Path(argv[2]).resolve())
    if len(argv) == 3 and argv[0] == "report":
        sys.stdout.write(report(Path(argv[1]), Path(argv[2])))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
