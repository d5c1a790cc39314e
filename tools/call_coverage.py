"""Pytest plugin: fail the run when a function defined in src/cihom is never called.

Run the whole tier-1 suite under it:

    PYTHONPATH=src:tools python -m pytest -q --continue-on-collection-errors -p call_coverage

A ``sys.setprofile`` hook records every Python call.  It is installed again
before each test phase (setup, call, teardown), because a test may set and
clear a profile hook of its own.  At the end of the session every function
and method defined in ``src/cihom`` (nested ones included) that no test
reached, directly or through other code, is listed, and the run fails
unless each of them is in ``ALLOWED``.  Calls made in a subprocess are not
seen.  It needs no coverage package.
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys
import threading

import pytest

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cihom"

# Functions a run need not call: a __repr__ serves a person at a prompt, and
# Polynomial.__hash__ keeps polynomials hashable beside their __eq__.
ALLOWED = frozenset({"polynomials.Polynomial.__hash__"})

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


def uncalled() -> list:
    """Dotted names of the functions defined in src/cihom that were never
    called and are not allowed to be."""
    called = {(os.path.realpath(f), line, name) for f, line, name in _called}
    return sorted(name for key, name in _defined().items()
                  if key not in called and name not in ALLOWED
                  and not name.endswith(".__repr__"))


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
