"""The package surface: every public name in src/periods/ has a user.

A public module-level name (a def, a class or an assignment not starting
with "_") must be read somewhere in src/periods/ outside its own definition
(a command, another function, another module) or in the benchmark under
bench/, whose library requests name their function as a string.  A public
method or property of a class must be read the same way, outside its own
def: in another member of its class or anywhere beyond it.  A name that only
tests read belongs in the tests, as an oracle or not at all.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# names kept without a caller in src/ or bench/, each for one reason; none now
ALLOWED = {}


def _reads(node, strings=False):
    """Identifiers that node reads: names, attributes, imports (and strings)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def _defines(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _unused_public_names():
    bench = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        bench |= _reads(ast.parse(path.read_text()), strings=True)
    tops = [(path.stem, node)
            for path in sorted((ROOT / "src" / "periods").glob("*.py"))
            for node in ast.parse(path.read_text()).body]
    reads = [_reads(node) for _, node in tops]
    unused = []
    for i, (module, node) in enumerate(tops):
        # (label, name, the reads of its class's other members)
        members = [(name, name, set()) for name in _defines(node)]
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    rest = set().union(*(_reads(s) for s in node.body if s is not item))
                    members.append(("%s.%s" % (node.name, item.name), item.name, rest))
        for label, name, rest in members:
            if name.startswith("_") or name in bench or name in rest:
                continue
            if not any(name in r for j, r in enumerate(reads) if j != i):
                unused.append("%s.%s" % (module, label))
    return unused


def test_every_public_name_has_a_user():
    unused = [n for n in _unused_public_names() if n.rpartition(".")[2] not in ALLOWED]
    assert unused == []


def test_the_allowlist_is_still_needed():
    unused = {n.rpartition(".")[2] for n in _unused_public_names()}
    assert set(ALLOWED) <= unused


def test_cli_import_loads_no_dataclasses_or_inspect():
    # the value types are plain classes and named tuples: importing
    # dataclasses pulled in inspect, ast, dis and tokenize at every start
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = ("import sys; before = set(sys.modules); import periods.cli; "
             "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=False)
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr
