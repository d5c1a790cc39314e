"""Fail when a function defined in src/cihom is never called.

Two modes share one ``sys.setprofile`` hook, which records every Python call
and needs no coverage package.  Each lists every function and method
defined in ``src/cihom`` (nested ones included) that was never reached,
directly or through other code, and fails unless each one is allowed.

The tier-1 suite, as a pytest plugin:

    PYTHONPATH=src:tools python -m pytest -q --continue-on-collection-errors -p call_coverage

The hook is installed again before each test phase (setup, call, teardown),
because a test may set and clear a profile hook of its own.  Calls made in
a subprocess are not seen.  Only ``ALLOWED`` and the ``__repr__``s may go
uncalled.

The user surface, run as a script:

    PYTHONPATH=src python tools/call_coverage.py

Here nothing but the command line (``cihom.cli.main``) drives cihom: every
catalog entry over two fields and every ``tests/data/*.ci`` script, each in
both formats, bad flags and bad scripts, the pushforward of a torsion
module, a generator shift past the term-code range, the five searches on
the four fixture rings, and ``check`` of every statement.  Each run's exit
code is checked too.  A function that only tests call shows up here, so
``USER_ALLOWED`` is a little wider than ``ALLOWED``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pathlib
import sys
import tempfile
import threading

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "cihom"

# Functions a run need not call: a __repr__ serves a person at a prompt, and
# Polynomial.__hash__ keeps polynomials hashable beside their __eq__.
ALLOWED = frozenset({"polynomials.Polynomial.__hash__"})
# No command takes the rational field's zero, the other half of the interface
# whose prime-field half is reached.  No command reaches the oracle either,
# so every function in oracle.py and linalg.py is allowed there as well.
USER_ALLOWED = ALLOWED | {"fields.RationalField.zero"}
USER_ALLOWED_MODULES = ("oracle.", "linalg.")

_called: set = set()
_missing: list = []


def _record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _called.add((code.co_filename, code.co_firstlineno, code.co_name))


def _install():
    sys.setprofile(_record)
    threading.setprofile(_record)


def _defined():
    """(file, first line, name) -> dotted name of every function in src/cihom.
    The first line is the first decorator's, as in ``co_firstlineno``."""
    found = {}

    def walk(node, filename, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found[(filename, first, child.name)] = name
                walk(child, filename, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, filename, prefix + child.name + ".")
            else:
                walk(child, filename, prefix)

    for path in sorted(SOURCE.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), str(path), path.stem + ".")
    return found


def uncalled(allowed=ALLOWED, modules=()) -> list:
    """Dotted names of the functions defined in src/cihom that were never
    called and are not allowed to be: not in ``allowed``, not in one of the
    ``modules`` (dotted prefixes) and not a ``__repr__``."""
    called = {(os.path.realpath(f), line, name) for f, line, name in _called}
    return sorted(name for key, name in _defined().items()
                  if key not in called and name not in allowed
                  and not name.startswith(modules) and not name.endswith(".__repr__"))


# -- the tier-1 suite, as a pytest plugin -------------------------------------------

@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    _install()
    yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    _install()
    yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    _install()
    yield


def pytest_sessionfinish(session, exitstatus):
    sys.setprofile(None)
    threading.setprofile(None)
    _missing[:] = uncalled()
    if _missing and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    terminalreporter.section("call coverage of src/cihom")
    if _missing:
        terminalreporter.line(f"{len(_missing)} function(s) never called:")
        for name in _missing:
            terminalreporter.line(f"  {name}")
    else:
        terminalreporter.line(f"each of the {len(_defined())} functions is called, "
                              "or is a __repr__ or allowed")


# -- the user surface, as a script --------------------------------------------------

# The four fixture rings of cihom.catalog, declared in a script.
_RINGS = """\
ring N = quotient(field=f32003, vars=[x,y], ideal=[x*y])
ring N3 = quotient(field=f32003, vars=[x,y,z], ideal=[x*y])
ring R = quotient(field=f32003, vars=[x,y,z,u], ideal=[x*y, z*u])
ring Q = quotient(field=f32003, vars=[x,y,w,z], ideal=[x*w - y*z], minimal_primes=[[x*w - y*z]])
"""
# Two pairs of modules: over k[x,y,z,u]/(xy, zu) and over the quadric.
_PAIRS = _RINGS + """\
module M = coker(R, shifts=[0], matrix=[[y, u]])
module P = coker(R, shifts=[0,0,0], matrix=[[0, u], [-z, x], [y, 0]])
module A = coker(Q, shifts=[0,0], matrix=[[x, y], [z, w]])
module B = coker(Q, shifts=[0], matrix=[[x, z]])
"""
# Statements that have no default for a parameter they read.
_NEEDS_PARAMETERS = {"3.15"}
# Scripts that must fail, with their exit codes: an unknown command, a parse
# error at an option, a statement that takes one module given two, an
# unknown statement, a statement without a parameter it needs, the
# pushforward of a torsion module and a shift past the term-code range.
_BAD_SCRIPTS = (
    (_PAIRS + "frobnicate M\n", 2),
    (_PAIRS + "resolve M steps=0\n", 2),
    (_PAIRS + "check 4.3 on (M, P)\n", 2),
    (_PAIRS + "check 9.99 on (M)\n", 2),
    (_PAIRS + "check 3.15 on (M, P)\n", 2),
    (_PAIRS + "module K = coker(N, shifts=[0], matrix=[[x, y]])\npushforward K\n", 3),
    (_PAIRS + "module H = coker(R, shifts=[3000000000], matrix=[[y, u]])\n"
     "resolve H steps=1\n", 3),
)
# The expected exit code of each tests/data script that is not 0.
_DATA_EXIT = {"mixed_degree_column.ci": 2, "repeated_declaration_key.ci": 2}


def _user_runs(tmp: pathlib.Path) -> list:
    """(argv, expected exit code) of each command-line run of the user-surface
    driver; the scripts it runs are written to ``tmp``."""
    from cihom.catalog import catalog_ids
    from cihom.search import KNOWN_QUESTIONS
    from cihom.theorems import INSTANCE_SHAPES, PARAMETER_READERS, known_statements

    searches = "".join(f"search {q} with (ring={r}, samples=3, seed=1, max_gens=2, max_deg=1)\n"
                       for q in KNOWN_QUESTIONS for r in ("N", "N3", "R", "Q"))
    # each statement on (M, P) with its defaults, then on (A, B) with every
    # parameter it reads
    checks = ""
    for sid in known_statements():
        params = "".join(f", {key}=1" for key, readers in PARAMETER_READERS.items()
                         if sid in readers)
        for m, n, opts in (("M", "P", ""), ("A", "B", params)):
            if sid not in _NEEDS_PARAMETERS or opts:
                pair = f"{m}, {n}" if INSTANCE_SHAPES[sid] == "(M, N)" else m
                checks += f"check {sid} on ({pair}{opts})\n"
    scripts = [(str(p), _DATA_EXIT.get(p.name, 0))
               for p in sorted((ROOT / "tests" / "data").glob("*.ci"))]
    for i, (text, code) in enumerate(((_RINGS + searches, 0), (_PAIRS + checks, 0),
                                      *_BAD_SCRIPTS)):
        path = tmp / f"s{i}.ci"
        path.write_text(text)
        scripts.append((str(path), code))
    runs = [(["--example", eid, "--field", field, "--format", fmt], 0)
            for eid in catalog_ids() for field in ("f32003", "rational")
            for fmt in ("json", "text")]
    runs += [(["--script", path, "--format", fmt], code)
             for path, code in scripts for fmt in ("json", "text")]
    runs += [([], 2), (["--example", "9.99"], 2), (["--example", "4.4", "--steps", "0"], 2),
             (["--example", "4.4", "--format", "xml"], 2),
             (["--example", "4.4", "--field", "f4"], 2),
             (["--script", str(tmp / "missing.ci")], 2)]
    return runs


def _exit_code(argv) -> int:
    """cihom's exit code on ``argv``, its output discarded."""
    from cihom.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as stop:   # argparse refuses a flag
            return stop.code


def user_surface() -> int:
    """Run the user-surface driver under the hook; print the runs whose exit
    code was not the expected one and the functions never reached."""
    _install()
    with tempfile.TemporaryDirectory() as tmp:
        wrong = [(argv, code, got) for argv, code in _user_runs(pathlib.Path(tmp))
                 if (got := _exit_code(argv)) != code]
    sys.setprofile(None)
    threading.setprofile(None)
    missing = uncalled(USER_ALLOWED, USER_ALLOWED_MODULES)
    for argv, code, got in wrong:
        print(f"cihom {' '.join(argv)}: exit {got}, expected {code}")
    if missing:
        print(f"{len(missing)} function(s) no command reaches:")
        for name in missing:
            print(f"  {name}")
    else:
        print(f"each of the {len(_defined())} functions is reached by a command, "
              "or is a __repr__ or allowed")
    return 1 if wrong or missing else 0


if __name__ == "__main__":
    sys.exit(user_surface())
