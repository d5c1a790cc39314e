"""Command-line interface: scripts, catalog examples, reports.

Exit codes: 0 all checks pass, 1 some expectation failed, 2 usage, parse or
input error (inhomogeneous data, operands over different rings, a field tag
that names no field), 3 an internal guardrail fired (a degree beyond the
Groebner engine's term-code range) or a hypothesis is missing (an
uncertified ring, a torsion input), 4 an internal invariant failed (an
engine fault, not bad input).

A run loads only the modules its commands use.  An ``--example`` run loads
the engine, ``catalog``, ``reports``, ``inputs`` and this module; a script
also loads ``dsl``; a ``check`` line loads ``theorems``, a ``search`` line
``search``, and ``pushforward`` or ``quasilift`` ``constructions``.  Each of
those four imports sits in the branch that runs it, and the errors mapped
to exit codes, like the least values the bound flags read, come from
``cihom.inputs`` or from modules every run loads.
``tests/test_oracle.py::test_importing_cihom_does_not_load_the_oracle``
checks which modules a run loads.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .catalog import UnknownExampleError, catalog_ids, run_example
from .fields import FieldError
from .groebner import TermCodeRangeError
from .homology import ext_profile, tor_profile
from .inputs import (_OPTION_MINIMUM, InstanceShapeError, InvalidSplitError, ParseError,
                     UnknownTheoremError)
from .polynomials import GradedViolationError, IncompatibleOperandsError, InvariantError
from .reports import emit_json, emit_text, make_document
from .resolutions import (InsufficientWindowError, betti_table, default_betti_window,
                          detect_periodicity, module_complexity, resolve)
from .rings import HypothesisMissingError, MinimalPrimesMismatchError, UnitIdealError


def _at_least(key):
    """An argparse type: an integer no smaller than the script option
    ``key``'s minimum."""
    lo = _OPTION_MINIMUM[key]

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {text}")
        return value
    return parse


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cihom",
        description="Graded homological algebra over complete intersection "
                    "quotient rings: resolutions, Betti numbers, Tor/Ext, "
                    "pushforwards, statement checks.")
    ap.add_argument("--script", metavar="FILE", help="session script to execute")
    ap.add_argument("--example", metavar="ID",
                    help=f"run a catalog example ({', '.join(catalog_ids())})")
    ap.add_argument("--format", choices=["text", "json"],
                    help="output format (default: env CIHOM_FORMAT, else text)")
    ap.add_argument("--field", default="f32003",
                    help="coefficient field tag: f32003 (default), fP, rational")
    ap.add_argument("--steps", type=_at_least("steps"), default=None,
                    help="default resolution step bound")
    ap.add_argument("--tor-bound", type=_at_least("tor_bound"), default=6,
                    help="default Tor/Ext index bound")
    ap.add_argument("--degree-bound", type=_at_least("degree_bound"), default=8,
                    help="default graded Hilbert degree bound")
    ap.add_argument("--seed", type=_at_least("seed"), default=1, help="default search seed")
    return ap


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads, built once per process."""
    return build_arg_parser()


def _steps(cmd: dict, defaults: dict, M) -> int:
    """Resolution length: the command's steps=, else --steps, else a
    ring-dependent default."""
    steps = cmd.get("steps")
    if steps is None:
        steps = defaults.get("steps")
    if steps is None:
        steps = default_betti_window(M.ring)
    return steps


def _run_command(cmd: dict, session, defaults: dict) -> dict:
    kind = cmd["command"]
    tor_bound = cmd.get("bound", defaults["tor_bound"])
    degree_bound = cmd.get("degree_bound", defaults["degree_bound"])
    if kind == "example":
        data = run_example(cmd["id"], field_tag=defaults["field"],
                           bounds={"steps": defaults.get("steps"),
                                   "degree_bound": degree_bound})
        return {"kind": "example", "title": cmd["id"], "data": data}
    if kind == "resolve":
        M = session.modules[cmd["module"]]
        steps = _steps(cmd, defaults, M)
        res = resolve(M, steps=steps, over=cmd.get("over", "quotient"))
        data = {"module": M.label, "ring": M.ring.label,
                "betti": betti_table(res),
                "terminated": res.terminated,
                "minimal": res.minimality_certificate()}
        if res.steps_computed() >= 6:
            data["periodicity"] = detect_periodicity(res)
        return {"kind": "resolve", "title": M.label, "data": data}
    if kind == "betti":
        M = session.modules[cmd["module"]]
        steps = _steps(cmd, defaults, M)
        res = resolve(M, steps=steps)
        cx = module_complexity(M, window=steps)
        return {"kind": "betti", "title": M.label,
                "data": {"module": M.label, "betti": betti_table(res),
                         "complexity": cx}}
    if kind == "tor":
        M = session.modules[cmd["module"]]
        N = session.modules[cmd["argument"]]
        prof = tor_profile(M, N, tor_bound, degree_bound,
                           side=cmd.get("side", "left"))
        return {"kind": "tor", "title": f"{M.label},{N.label}",
                "data": {"tor_profile": prof.as_dict()}}
    if kind == "ext":
        M = session.modules[cmd["module"]]
        N = session.modules[cmd["argument"]]
        entries = ext_profile(M, N, tor_bound, degree_bound)
        return {"kind": "ext", "title": f"{M.label},{N.label}",
                "data": {"module": M.label, "argument": N.label,
                         "entries": [e.as_dict() for e in entries]}}
    if kind == "profile":
        M = session.modules[cmd["module"]]
        data = {"module": M.label, "ring": M.ring.label,
                "profile": M.module_profile(),
                "torsion_free": M.is_torsion_free(), "reflexive": M.satisfies_serre(2),
                "nonfree_locus_codim": str(M.nonfree_locus_codim()),
                "maximal_cohen_macaulay": M.is_maximal_cohen_macaulay()}
        if M.ring.has_minimal_primes:
            data["rank_profile"] = M.rank_profile()
        return {"kind": "profile", "title": M.label, "data": data}
    if kind == "pushforward":
        from . import pushforward   # deferred: loads constructions
        M = session.modules[cmd["module"]]
        pf = pushforward(M)
        return {"kind": "pushforward", "title": M.label,
                "data": {**pf.as_dict(),
                         "pushforward_module": pf.M1.minimalize().describe()}}
    if kind == "quasilift":
        from . import quasi_lifting   # deferred: loads constructions
        M = session.modules[cmd["module"]]
        ql = quasi_lifting(M, cmd["f"])
        return {"kind": "quasilift", "title": M.label, "data": ql.as_dict()}
    if kind == "check":
        from . import check_theorem   # deferred: loads theorems
        mods = [session.modules[m] for m in cmd["modules"]]
        M = mods[0]
        N = mods[1] if len(mods) > 1 else None
        params = {k: v for k, v in cmd.items()
                  if k not in ("command", "id", "modules", "bound", "degree_bound")}
        rep = check_theorem(cmd["id"], M, N, tor_bound=tor_bound,
                            degree_bound=degree_bound, **params)
        return {"kind": "check", "title": cmd["id"],
                "data": {"theorem_reports": [rep.as_dict()]}}
    if kind == "search":
        from . import SearchConfig, counterexample_search   # deferred: loads search
        opts = {k: v for k, v in cmd.items() if k not in ("command", "id", "ring")}
        cfg = SearchConfig(session.rings[cmd["ring"]], cmd["id"],
                           **{"seed": defaults["seed"], **opts})
        log = counterexample_search(cfg)
        return {"kind": "search", "title": cmd["id"], "data": log}
    raise ValueError(f"unhandled command {kind!r}")


def _failed(result: dict) -> bool:
    """A catalog entry with a failed expectation, or a check whose verdict
    is ``fails`` (unmet hypotheses read ``hypotheses-unmet``, not ``fails``)."""
    data = result["data"]
    if result["kind"] == "example":
        return not data["pass"]
    if result["kind"] == "check":
        return data["theorem_reports"][0]["conclusion"].get("verdict") == "fails"
    return False


def main(argv=None) -> int:
    ap = _arg_parser()
    args = ap.parse_args(argv)
    fmt = args.format or os.environ.get("CIHOM_FORMAT", "text")
    if fmt not in ("text", "json"):   # the variable is checked like the flag
        ap.error(f"CIHOM_FORMAT: invalid choice: {fmt!r} (choose from 'text', 'json')")
    if not args.script and not args.example:
        ap.print_usage(sys.stderr)
        print("cihom: provide --script FILE or --example ID", file=sys.stderr)
        return 2

    bounds = {"steps": args.steps, "tor_bound": args.tor_bound,
              "degree_bound": args.degree_bound, "seed": args.seed}
    defaults = {"field": args.field, **bounds}
    session = None
    commands = [{"command": "example", "id": args.example}] if args.example else []
    try:
        if args.script:
            from .dsl import parse_session   # deferred: loads dsl
            try:
                with open(args.script, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as err:
                print(f"cihom: cannot read script: {err}", file=sys.stderr)
                return 2
            session = parse_session(text)
            commands += session.commands
        results = [_run_command(cmd, session, defaults) for cmd in commands]
        document = make_document(results, args.field, bounds)
        out = emit_json(document) if fmt == "json" else emit_text(document)
    except ParseError as err:
        print(f"cihom: parse error: {err}", file=sys.stderr)
        return 2
    except (UnknownExampleError, UnknownTheoremError, InstanceShapeError,
            InvalidSplitError) as err:
        print(f"cihom: {err}", file=sys.stderr)
        return 2
    except (GradedViolationError, IncompatibleOperandsError, FieldError,
            InsufficientWindowError, UnitIdealError, MinimalPrimesMismatchError) as err:
        print(f"cihom: input error: {err}", file=sys.stderr)
        return 2
    except TermCodeRangeError as err:
        print(f"cihom: guardrail: {err}", file=sys.stderr)
        return 3
    except HypothesisMissingError as err:
        print(f"cihom: hypothesis missing: {err}", file=sys.stderr)
        return 3
    except InvariantError as err:
        print(f"cihom: internal error: {err}", file=sys.stderr)
        return 4

    sys.stdout.write(out)
    return 1 if any(_failed(r) for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
