"""Command-line interface.

Exit codes follow the usual triage convention: 0 when everything the
invocation asserted holds, 1 when a computation ran but produced failures
(failed verification checks, per-case sweep errors, a hypothesis check that
rejects the symbol), and 2 for usage errors (bad flags, unparsable
expressions, maps that are not disk self-maps, functions or derivatives that
are not finite at a grid point or at the origin, unreadable files).  All error text goes to
stderr prefixed with ``blochlab: error:`` so callers can grep for it.

An optional INI config file (``--config`` or the BLOCHLAB_CONFIG environment
variable, see :mod:`blochlab.config`) supplies default grid resolution and
thresholds for the point subcommands.  ``sweep`` specs are self-contained
JSON files and ignore the config file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import Config, ConfigError, load_config
from .criteria import (
    CriterionKind,
    FieldSet,
    MapFields,
    PHI_BOUNDARY_KINDS,
    PreconditionFailed,
    SymbolFields,
    TAIL_SHELLS,
    THEOREMS,
    classify,
)
from .diskgeom import NotASelfMap, NotFiniteOnGrid, make_grid
from .exprdsl import ExprError, analytic
from .harness import ExperimentSpec, run_classification, to_csv, to_json
from .operators import OperatorKind, bloch_seminorm, commutator_seminorm, hinf_norm
from .verify import SUITES, run_suite

ERROR_PREFIX = "blochlab: error:"

_CRITERIA = {kind.value: kind for kind in PHI_BOUNDARY_KINDS | {CriterionKind.LG}}
_COMMUTATORS = {"I": OperatorKind.COMMUTATOR_I, "J": OperatorKind.COMMUTATOR_J}


class UsageError(Exception):
    """Input that never made it to a computation (exit code 2)."""


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _parse_grid_flag(text: str | None, fallback: tuple[int, int]) -> tuple[int, int]:
    if text is None:
        return fallback
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--grid expects K,A (e.g. 14,64), got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError(f"--grid expects two integers, got {text!r}") from exc


def _grid_for(args, config: Config):
    max_shell, base_angular = _parse_grid_flag(
        getattr(args, "grid", None),
        (config.grid.max_shell, config.grid.base_angular),
    )
    try:
        return make_grid(max_shell, base_angular)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _analytic(source: str):
    try:
        return analytic(source)
    except ExprError as exc:
        raise UsageError(f"cannot parse {source!r}: {exc}") from exc


def _symbol(source: str, grid) -> SymbolFields:
    try:
        return SymbolFields.validated(_analytic(source), grid)
    except NotFiniteOnGrid as exc:
        raise UsageError(f"{source!r}: {exc}") from exc


def _pair(args, grid) -> FieldSet:
    """The validated sides of ``--phi`` (a side of no map without it) and ``--g``, joined."""
    map_side = MapFields(None, grid)
    if args.phi is not None:
        try:
            map_side = MapFields.validated(_analytic(args.phi), grid)
        except NotASelfMap as exc:
            raise UsageError(f"{args.phi!r} is not a disk self-map: {exc}") from exc
    return FieldSet.from_sides(map_side, _symbol(args.g, grid))


def _print_report(report, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(to_json(report.to_dict()))
        return
    print(f"criterion {report.kind.value} (shells of |{report.bucket_by}|):")
    print(f"  sup value            {report.sup_value:.17g}")
    print(f"  attained near z =    {_fmt_complex(report.arg_sup)}")
    print(f"  boundary limsup est. {report.boundary_limsup_estimate:.17g}")
    if report.vacuous_boundary:
        print("  boundary limit set empty at this resolution (vacuous)")
    tail = ", ".join(f"k={k}: {s:.6g}" for k, s in report.shell_sups[-TAIL_SHELLS:])
    print(f"  last shell sups      {tail}")


# --------------------------------------------------------------------------
# subcommand handlers


def _cmd_norm(args, config) -> int:
    """``seminorm`` and ``hinf``: ``args.estimator`` on the samples of ``--f``, printed as ``args.label``."""
    grid = _grid_for(args, config)
    side = _symbol(args.f, grid)
    est = args.estimator(side.g, grid, side)
    print(f"{args.label} estimate {est.value:.17g} "
          f"(attained near z = {_fmt_complex(est.arg)})")
    return 0


def _cmd_criterion(args, config) -> int:
    grid = _grid_for(args, config)
    kind = _CRITERIA[args.kind]
    if args.phi is None and kind in PHI_BOUNDARY_KINDS:
        raise UsageError(f"criterion {args.kind} needs --phi")
    _print_report(_pair(args, grid).report(kind), args.json)
    return 0


def _cmd_classify(args, config) -> int:
    grid = _grid_for(args, config)
    if args.thm not in THEOREMS:
        raise UsageError(
            f"unknown theorem id {args.thm!r}; expected one of {sorted(THEOREMS)}"
        )
    spec = THEOREMS[args.thm]
    if spec.needs_phi and args.phi is None:
        raise UsageError(f"{args.thm} requires --phi")
    fields = _pair(args, grid)
    try:
        verdict = classify(args.thm, fields.phi, fields.g, grid, config.thresholds, fields)
    except PreconditionFailed as exc:
        print(f"{ERROR_PREFIX} {exc}", file=sys.stderr)
        return 1
    if args.json:
        sys.stdout.write(to_json(verdict.to_dict()))
    else:
        print(f"{verdict.theorem_id}: {verdict.conclusion.value}")
        print(f"  statement: {spec.summary}")
        for note in verdict.notes:
            print(f"  note: {note}")
        for report in verdict.evidence:
            _print_report(report, False)
    return 0


def _cmd_commutator(args, config) -> int:
    grid = _grid_for(args, config)
    fields = _pair(args, grid)
    est = commutator_seminorm(
        _COMMUTATORS[args.kind], fields.phi, fields.g, _symbol(args.f, grid).g, grid, fields
    )
    print(f"commutator-{args.kind} seminorm estimate {est.value:.17g} "
          f"(attained near z = {_fmt_complex(est.arg)})")
    return 0


def _cmd_verify(args, config) -> int:
    try:
        results = run_suite(args.suite, args.filter)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failed += not res.passed
        print(f"{status}  [{res.suite}] {res.name}: {res.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_sweep(args, config) -> int:
    try:
        spec = ExperimentSpec.from_json_file(args.spec)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load spec {args.spec!r}: {exc}") from exc
    report = run_classification(spec)
    out = Path(args.out)
    if {".csv": "csv", ".json": "json"}.get(out.suffix, spec.output) == "csv":
        out.write_text(to_csv(report))
    else:
        out.write_text(to_json(report.to_dict()))
    errors = [case for case in report.cases if case.error is not None]
    print(f"wrote {len(report.cases)} cases to {out} "
          f"({len(errors)} errors, {report.elapsed_seconds:.2f}s)")
    for case in errors:
        print(f"{ERROR_PREFIX} case {case.theorem_id}/{case.phi}/{case.g}: "
              f"{case.error}", file=sys.stderr)
    return 1 if errors else 0


# --------------------------------------------------------------------------
# parser assembly


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochlab",
        description="Numerical checks for composition/integral-type commutators "
        "on holomorphic function spaces of the unit disk.",
    )
    parser.add_argument(
        "--config",
        metavar="PATH",
        help="INI file with [grid]/[thresholds] defaults "
        "(fallback: BLOCHLAB_CONFIG env var)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seminorm", help="Bloch seminorm of an expression")
    p.add_argument("--f", required=True, metavar="EXPR")
    p.add_argument("--grid", metavar="K,A", help="max shell K, base angular count A")
    p.set_defaults(handler=_cmd_norm, estimator=bloch_seminorm, label="bloch seminorm")

    p = sub.add_parser("hinf", help="sup-norm estimate of an expression")
    p.add_argument("--f", required=True, metavar="EXPR")
    p.add_argument("--grid", metavar="K,A")
    p.set_defaults(handler=_cmd_norm, estimator=hinf_norm, label="sup norm")

    p = sub.add_parser("criterion", help="sample one criterion field over the grid")
    p.add_argument("--kind", required=True, choices=sorted(_CRITERIA))
    p.add_argument("--phi", metavar="EXPR", help="self-map (required for KI/KJ/KJlog)")
    p.add_argument("--g", required=True, metavar="EXPR")
    p.add_argument("--grid", metavar="K,A")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(handler=_cmd_criterion)

    p = sub.add_parser("classify", help="reduce one named statement to a verdict")
    p.add_argument("--thm", required=True, metavar="ID",
                   help=f"one of {', '.join(sorted(THEOREMS))}")
    p.add_argument("--phi", metavar="EXPR")
    p.add_argument("--g", required=True, metavar="EXPR")
    p.add_argument("--grid", metavar="K,A")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("commutator", help="commutator seminorm for a concrete f")
    p.add_argument("--kind", required=True, choices=sorted(_COMMUTATORS))
    p.add_argument("--phi", required=True, metavar="EXPR")
    p.add_argument("--g", required=True, metavar="EXPR")
    p.add_argument("--f", required=True, metavar="EXPR")
    p.add_argument("--grid", metavar="K,A")
    p.set_defaults(handler=_cmd_commutator)

    p = sub.add_parser("verify", help="run the named verification checks")
    p.add_argument("--suite", default="all", choices=("all",) + SUITES)
    p.add_argument("--filter", metavar="NAME", help="substring filter on check names")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("sweep", help="classify a panel from a JSON spec file")
    p.add_argument("--spec", required=True, metavar="FILE.json")
    p.add_argument("--out", required=True, metavar="FILE.csv|FILE.json")
    p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        return args.handler(args, config)
    except (UsageError, ConfigError) as exc:
        print(f"{ERROR_PREFIX} {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
