"""Line ledger: run pytest and list every line of src/periods/ it never executed.

Usage: PYTHONPATH=src python tests/line_ledger.py [pytest args]

The tracer is set before `periods` is imported, so module-level lines count.
Only this process is traced: a test that runs the CLI in a subprocess reaches
no line.  It prints file:line: source for each executable line (from
co_lines(), nested code objects included) that no test reached, and exits
nonzero if there is one or if pytest failed.  Tier-1 runs about four times
slower under it.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "periods"
hits = {}  # source path -> executed line numbers
tracers = {}  # co_filename -> its line tracer, None outside PACKAGE


def _tracer(name):
    path = Path(name).resolve()
    if path.parent != PACKAGE:
        return None
    seen = hits.setdefault(path, set())

    def _local(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return _local

    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in tracers:
        tracers[name] = _tracer(name)
    return tracers[name]


def _lines(code):
    yield from (line for _, _, line in code.co_lines() if line)  # 0: a module's RESUME
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _lines(const)


sys.settrace(_global)
status = pytest.main(sys.argv[1:])
sys.settrace(None)
missing = 0
for path in sorted(PACKAGE.glob("*.py")):
    source = path.read_text()
    lines = source.splitlines()
    for line in sorted(set(_lines(compile(source, str(path), "exec"))) - hits.get(path, set())):
        missing += 1
        print("%s:%d: %s" % (path.relative_to(ROOT), line, lines[line - 1].strip()))
print("line ledger: %d unexecuted line(s) in %s" % (missing, PACKAGE.relative_to(ROOT)))
sys.exit(1 if missing or status else 0)
