"""The executable lines of ``src/amplab`` that Tier-1 never runs, from an in-process line trace.

coverage.py is not a dependency, so this runs the suite under ``sys.settrace``
(and ``threading.settrace``, for the worker threads of the trial grid) with a
tracer that records line events in ``src/amplab`` frames only. A line counts
as executable when some code object compiled from the file maps an
instruction to it. The script then prints one ``file:line: source`` per
executable line that never ran, and a last line with the totals; it exits
with pytest's status. Child processes (the CLI and benchmark subprocess
tests) are not traced, so a line that only they run shows up here as well.
The standard library's ``trace`` does not fit: it caches its ignore decision
per module basename, so with ``--ignore-dir`` for site-packages it drops
``amplab/__init__.py`` (a site-packages ``__init__`` is seen first) and lets
numpy's or hypothesis's ``errors``/``linalg`` decide for amplab's files.
Not collected by pytest; from the repository root:

    PYTHONPATH=src python tests/line_trace.py
"""

import collections
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "amplab")


def executable_lines(path):
    """The line numbers that code compiled from path maps an instruction to."""
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)  # None, or 0 for a module's prologue
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def main():
    prefix = PACKAGE + os.sep
    seen = collections.defaultdict(set)  # filename -> line numbers that ran

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    os.chdir(ROOT)
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["--continue-on-collection-errors", "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = executable_lines(path)
        with open(path, encoding="utf-8") as f:
            source = f.read().splitlines()
        total += len(lines)
        for line in sorted(lines - seen[path]):
            missed += 1
            print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines in src/amplab never ran (pytest exit status {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
