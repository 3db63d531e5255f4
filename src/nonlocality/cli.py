"""Batch command-line front end.

Four subcommands: `reproduce` tabulates every headline constant against its
expected value, `verify-rti` runs randomized reverse-triangle-inequality
campaigns plus the extremal-family grid, `box` analyzes a box JSON file, and
`bounds` prints the universal determinism floor. Reports are JSON (default)
or CSV with fixed columns, byte-identical for identical (command, config,
seed). Exit codes: 0 when every checked row passes, 1 when some checked row
fails, 2 on usage or input errors (a ValueError or OSError, a bad
$NONLOCAL_SEED included), 3 on an internal failure (any other exception, a
numpy LinAlgError included: an exhausted simplex budget, a failed
certificate, an unbounded LP, a box too large to pad or a bug), reported on
stderr as `internal error: ...` with no report.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from .bounds import binary_bob_bounds, optimize_mu, universal_fod_bound
from .boxes import (
    BellFunctional,
    Box,
    bell_value,
    chsh_functional,
    maximally_mixed_box,
    pr_box,
    quantum_box,
    tsirelson_realization,
)
from .decomp import bell_bound_from_fod, cf_exact, fod_exact
from .rti import extremal_grid, rti_campaign

SEED_ENV_VAR = "NONLOCAL_SEED"
CSV_COLUMNS = ("name", "paper_value", "computed", "tolerance", "pass", "provenance")


def report_row(
    name: str,
    computed: float,
    paper_value: float | None = None,
    tolerance: float | None = None,
    provenance: str = "derived",
    checked: bool | None = None,
    passed: bool | None = None,
    note: str = "",
) -> dict:
    """One report line. When a paper value is given and the row is checked,
    pass means |computed - paper_value| <= tolerance; an explicit `passed`
    overrides (for campaign rows whose check is not a plain difference)."""
    if checked is None:
        checked = passed is not None or paper_value is not None
    if passed is None and checked:
        passed = abs(computed - paper_value) <= tolerance
    return {
        "name": name,
        "paper_value": paper_value,
        "computed": computed,
        "tolerance": tolerance,
        "pass": passed if checked else None,
        "provenance": provenance,
        "checked": checked,
        "note": note,
    }


def _render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report["rows"]:
        writer.writerow(
            [
                row["name"],
                "" if row["paper_value"] is None else repr(row["paper_value"]),
                repr(row["computed"]),
                "" if row["tolerance"] is None else repr(row["tolerance"]),
                "" if row["pass"] is None else str(row["pass"]).lower(),
                row["provenance"],
            ]
        )
    return buf.getvalue()


def _assemble(command: str, config: dict, rows: list, details: dict | None = None) -> dict:
    checked = [r for r in rows if r["checked"]]
    report = {
        "command": command,
        "config": config,
        "rows": rows,
        "summary": {
            "rows": len(rows),
            "checked": len(checked),
            "passed": sum(1 for r in checked if r["pass"]),
            "all_pass": all(r["pass"] for r in checked),
        },
    }
    if details:
        report["details"] = details
    return report


def _emit(report: dict, out: str | None, fmt: str) -> int:
    text = _render_csv(report) if fmt == "csv" else _render_json(report)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    return 0 if report["summary"]["all_pass"] else 1


def cmd_reproduce(args) -> int:
    opt = optimize_mu()
    chsh = universal_fod_bound(2, 2, 2)
    binary = binary_bob_bounds(k=2)
    mixed_fod, _ = fod_exact(maximally_mixed_box(pr_box().scenario))
    pr = pr_box()
    pr_fod, _ = fod_exact(pr)
    pr_cf, _ = cf_exact(pr)
    rho, alice, bob = tsirelson_realization()
    singlet_value = bell_value(chsh_functional(), quantum_box(rho, alice, bob))
    half_note = "in-text value is twice the theorem form; recorded, not matched"

    rows = [
        report_row("mu0", opt.mu, (5.0 + math.sqrt(17.0)) / 2.0, 1e-10, "paper"),
        report_row("f_mu0", opt.value, 0.1134, 1e-4, "paper"),
        report_row("chsh_fod_floor", chsh.theorem_form, 3.5438e-3, 1e-6, "paper"),
        report_row(
            "beta_chsh_universal",
            bell_bound_from_fod(4.0, 2.0, chsh.theorem_form),
            3.9929,
            1e-4,
            "paper",
        ),
        report_row(
            "chsh_fod_floor_paper_example",
            chsh.theorem_form,
            7.0875e-3,
            1e-6,
            "paper",
            checked=False,
            note=half_note,
        ),
        report_row(
            "beta_chsh_paper_example",
            bell_bound_from_fod(4.0, 2.0, chsh.theorem_form),
            3.9858,
            1e-4,
            "paper",
            checked=False,
            note=half_note,
        ),
        report_row(
            "classical_rough_chsh",
            bell_bound_from_fod(4.0, 2.0, 0.25),
            3.5,
            1e-8,
            "paper",
        ),
        report_row("binary_bob_fod_constant", binary.fod_constant, 0.10961, 5e-4, "paper"),
        report_row("binary_bob_cf_constant", binary.cf_constant, 0.1123, 5e-4, "paper"),
        report_row(
            "beta_chsh_fod_bound",
            bell_bound_from_fod(4.0, 2.0, binary.fod_bound),
            3.9452,
            1e-4,
            "paper",
        ),
        report_row(
            "beta_chsh_cf_bound",
            bell_bound_from_fod(4.0, 2.0, binary.cf_bound),
            3.9439,
            1e-4,
            "paper",
        ),
        report_row("fod_maximally_mixed_chsh", mixed_fod, 0.25, 1e-12, "trivial"),
        report_row("fod_pr_box", pr_fod, 0.0, 1e-12, "paper"),
        report_row("cf_pr_box", pr_cf, 0.0, 1e-9, "derived"),
        report_row("chsh_singlet_value", singlet_value, 2.0 * math.sqrt(2.0), 1e-6, "paper"),
    ]
    config = {"seed": args.seed, "format": args.format}
    return _emit(_assemble("reproduce", config, rows), args.out, args.format)


def cmd_verify_rti(args) -> int:
    rows = []
    for commuting in (False, True):
        kind = "commuting" if commuting else "general"
        for summary in rti_campaign(args.dims, args.l, args.trials, args.seed, commuting):
            rows.append(
                report_row(
                    f"rti_{kind}_dim{summary.dim}_l{summary.l}",
                    summary.min_slack,
                    provenance="derived",
                    passed=summary.violations == 0,
                    note=f"trials={summary.trials} violations={summary.violations}",
                )
            )

    tightness_slack, identity_residual = extremal_grid([0.05 * i for i in range(1, 20)])
    rows.append(
        report_row(
            "extremal_tightness_min_slack",
            tightness_slack,
            provenance="derived",
            passed=tightness_slack >= -1e-12,
            note="min over r of mixture_gap^2 - 2 member_gap",
        )
    )
    rows.append(
        report_row(
            "extremal_gap_identity",
            identity_residual,
            provenance="derived",
            passed=identity_residual <= 1e-10,
            note="max |measured - closed form| over the r grid",
        )
    )
    config = {
        "seed": args.seed,
        "trials": args.trials,
        "dims": args.dims,
        "l": args.l,
        "format": args.format,
    }
    return _emit(_assemble("verify-rti", config, rows), args.out, args.format)


def _parse_ops(text: str, functional_path: str | None) -> list:
    ops = text.split(",")
    for i, name in enumerate(ops):
        if name not in ("ns", "fod", "cf", "bell"):
            raise ValueError(f"unknown box operation {name!r}")
        if name in ops[:i]:
            raise ValueError(f"box operation {name!r} given more than once")
    if "bell" in ops and functional_path is None:
        raise ValueError("bell needs a functional: --functional PATH")
    if "bell" not in ops and functional_path is not None:
        raise ValueError(f"--functional {functional_path!r} is read only by the bell op")
    return ops


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cmd_box(args) -> int:
    ops = _parse_ops(args.ops, args.functional)
    box = Box.from_dict(_load_json(args.path))
    rows = []
    details = {}
    for op in ops:
        if op == "ns":
            ns = box.ns_report
            rows.append(
                report_row(
                    "ns_max_violation",
                    ns.max_violation,
                    provenance="derived",
                    passed=ns.passed,
                    note=ns.location or "",
                )
            )
        elif op == "fod":
            value, strategy = fod_exact(box)
            rows.append(
                report_row(
                    "fod",
                    value,
                    provenance="derived",
                    note=f"alice={list(strategy.alice)} bob={list(strategy.bob)}",
                )
            )
        elif op == "cf":
            value, decomposition = cf_exact(box)
            rows.append(report_row("cf", value, provenance="derived"))
            details["cf_decomposition"] = decomposition.to_dict()
        elif op == "bell":
            functional = BellFunctional.from_dict(_load_json(args.functional))
            rows.append(
                report_row("bell_value", bell_value(functional, box), provenance="derived")
            )
            rows.append(
                report_row(
                    "bell_algebraic_max", functional.algebraic_max, provenance="derived"
                )
            )
            rows.append(
                report_row(
                    "bell_deterministic_max",
                    functional.deterministic_max,
                    provenance="derived",
                )
            )
    config = {"seed": args.seed, "path": args.path, "ops": ops, "format": args.format}
    return _emit(_assemble("box", config, rows, details), args.out, args.format)


def cmd_bounds(args) -> int:
    bound = universal_fod_bound(args.k, args.l1, args.l2)
    rows = [
        report_row("theorem_form", bound.theorem_form, provenance="derived"),
        report_row("proof_form", bound.proof_form, provenance="derived"),
        report_row(
            "proof_form_le_theorem_form",
            bound.theorem_form - bound.proof_form,
            provenance="derived",
            passed=bound.proof_form <= bound.theorem_form + 1e-15,
            note="the all-l form never exceeds the mixed form",
        ),
    ]
    if args.beta_alg is not None or args.beta_det is not None:
        if args.beta_alg is None or args.beta_det is None:
            raise ValueError("--beta-alg and --beta-det must be given together")
        rows.append(
            report_row(
                "bell_bound",
                bell_bound_from_fod(args.beta_alg, args.beta_det, bound.theorem_form),
                provenance="derived",
                note="ceiling beta_alg - c (beta_alg - beta_det) at the theorem floor",
            )
        )
    config = {
        "seed": args.seed,
        "k": args.k,
        "l1": args.l1,
        "l2": args.l2,
        "beta_alg": args.beta_alg,
        "beta_det": args.beta_det,
        "format": args.format,
    }
    return _emit(_assemble("bounds", config, rows), args.out, args.format)


def _int_list(text: str) -> list:
    """A nonempty comma-separated list of distinct integers; empty tokens are
    skipped."""
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise argparse.ArgumentTypeError(f"{value} given more than once in {text!r}")
    return values


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default: $NONLOCAL_SEED or 0)")
    parser.add_argument("--out", default=None, help="write the report to this path instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), default="json")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and its defaults are immutable, so every call shares it."""
    parser = argparse.ArgumentParser(
        prog="nonlocality",
        description="Determinism fractions, reverse triangle inequality, and Bell-value bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="tabulate every headline constant against its expected value")
    _add_common(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("verify-rti", help="randomized reverse-triangle-inequality campaigns")
    p.add_argument("--trials", type=int, default=1000, help="trials per (dim, l) cell")
    p.add_argument("--dims", type=_int_list, default=(2, 3, 4), help="comma-separated dimensions")
    p.add_argument("--l", type=_int_list, default=(2, 3), help="comma-separated ensemble sizes")
    _add_common(p)
    p.set_defaults(func=cmd_verify_rti)

    p = sub.add_parser("box", help="analyze a box JSON file")
    p.add_argument("path", help="box JSON file")
    p.add_argument("--ops", default="ns", help="comma list from ns,fod,cf,bell")
    p.add_argument("--functional", default=None, help="Bell functional JSON file for the bell op")
    _add_common(p)
    p.set_defaults(func=cmd_box)

    p = sub.add_parser("bounds", help="universal determinism floor for (k, l1, l2)")
    p.add_argument("k", type=int, help="Alice outcome count")
    p.add_argument("l1", type=int, help="first Bob measurement outcome count")
    p.add_argument("l2", type=int, help="second Bob measurement outcome count")
    p.add_argument("--beta-alg", type=float, default=None, help="algebraic Bell maximum")
    p.add_argument("--beta-det", type=float, default=None, help="deterministic Bell maximum")
    _add_common(p)
    p.set_defaults(func=cmd_bounds)
    return parser


def _validate(args) -> None:
    if args.seed is None:
        raw = os.environ.get(SEED_ENV_VAR) or "0"  # set but empty counts as unset
        try:
            args.seed = int(raw)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR}={raw!r} is not an integer") from None
    if getattr(args, "trials", 1) < 1:
        raise ValueError("trials must be at least 1")
    if any(not 2 <= d <= 16 for d in getattr(args, "dims", [2])):
        raise ValueError("dims must lie in [2, 16]")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
        return args.func(args)
    except Exception as exc:
        # LinAlgError is a ValueError, but it comes from the numerics, not the input
        if isinstance(exc, (ValueError, OSError)) and not isinstance(exc, np.linalg.LinAlgError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
