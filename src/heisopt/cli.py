"""Command-line front end: generate, solve, round, certify, reproduce.

Subcommands map one-to-one onto the library modules so each stage can be
exercised and benchmarked on its own:

  gen           write a generated instance file
  solve         run the moment relaxation, write vectors and a report
  round         round a saved solution with either scheme
  exact         exact lambda_max and best-product oracles
  ratio-tables  theoretical approximation constants and CSV curves
  reduce        rewrite an instance in diagonal-coefficient form
  pipeline      solve + round + optional oracles in one report

Reports are JSON with sorted keys, no timestamps, and seeded randomness
throughout, so identical invocations produce byte-identical files.
Exit codes: 0 success, 2 parse/usage error (a solution whose header value
is not its vectors' objective included), 3 solver non-convergence (the
relaxation's dual gap still open at MAX_SWEEPS; report still written),
4 oracle limit exceeded or instance too large for memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

from .instance import Instance, ParseError, generate, parse_instance_file, serialize_instance
from .moment_sdp import (
    SolverConfig,
    check_feasibility,
    parse_moment_solution,
    sdp_objective,
    serialize_moment_solution,
    solve_moment_sdp,
)
from .oracle import OracleLimitError, best_product_state, check_qubits, exact_max_eigenvalue
from .pauli import reduce_instance
from .ratio_numerics import approx_ratio_axis, approx_ratio_bfv, curve_to_csv
from .rounding import bfv_round, gw_axis_round, projection_family

__all__ = ["RatioReport", "run_pipeline", "reproduce_constants", "main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NONCONVERGED = 3
EXIT_LIMIT = 4


@dataclass(frozen=True)
class RatioReport:
    """Everything one pipeline run certifies about one instance."""

    label: str
    n: int
    m: int
    scheme: str
    sdp_value: float
    sdp_upper_bound: float
    rounded_energy: float
    certified_ratio: float
    trials: int
    seed: int
    restarts: int
    solver_converged: bool
    lambda_max: float | None = None
    oracle_method: str | None = None
    best_product_energy: float | None = None
    true_ratio: float | None = None
    product_ratio: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def _default_seed(args_seed: int | None) -> int:
    if args_seed is not None:
        return args_seed
    env = os.environ.get("HEIS_DEFAULT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ParseError(f"HEIS_DEFAULT_SEED is not an integer: {env!r}") from exc
    return 0


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def run_pipeline(
    inst: Instance,
    scheme: str = "bfv",
    trials: int = 100,
    seed: int = 0,
    restarts: int = 1,
    oracle: bool = False,
) -> RatioReport:
    """Solve the relaxation, round it, optionally attach exact references.

    An unknown scheme, trials < 1 and a bfv run on an instance that is not
    family-uniform raise ValueError before the solve, and an oracle run
    above the exact oracle's qubit limit raises OracleLimitError there too.
    """
    if scheme not in ("bfv", "axis"):
        raise ValueError(f"unknown rounding scheme {scheme!r}: expected 'bfv' or 'axis'")
    if trials < 1:
        raise ValueError("need at least one trial")
    if scheme == "bfv":
        projection_family(inst)
    if oracle:
        check_qubits(inst)
    cfg = SolverConfig(restarts=restarts, seed=seed)
    sol = solve_moment_sdp(inst, cfg)
    rounder = bfv_round if scheme == "bfv" else gw_axis_round
    outcome = rounder(inst, sol, trials=trials, seed=seed)

    lam = method = best_prod = true_ratio = prod_ratio = None
    if oracle:
        exact = exact_max_eigenvalue(inst)
        lam = exact.lambda_max
        method = exact.method
        best_prod = best_product_state(inst, seed=seed).energy
        if lam > 0:
            true_ratio = outcome.energy / lam
            prod_ratio = best_prod / lam

    return RatioReport(
        label=inst.label,
        n=inst.n,
        m=inst.m,
        scheme=scheme,
        sdp_value=sol.value,
        sdp_upper_bound=sol.diagnostics.upper_bound,
        rounded_energy=outcome.energy,
        certified_ratio=outcome.energy / sol.value if sol.value != 0 else 0.0,
        trials=trials,
        seed=seed,
        restarts=sol.diagnostics.restarts,
        solver_converged=sol.diagnostics.converged,
        lambda_max=lam,
        oracle_method=method,
        best_product_energy=best_prod,
        true_ratio=true_ratio,
        product_ratio=prod_ratio,
    )


def _curves(step: float):
    """(scheme, r, curve) for the six ratio curves at one grid step.

    A generator, so that a caller holds one curve's samples at a time.
    """
    for scheme, fn in (("bfv", approx_ratio_bfv), ("axis", approx_ratio_axis)):
        for r in (1, 2, 3):
            yield scheme, r, fn(r, step=step)


def _constant_row(scheme: str, r: int, step: float, curve) -> dict:
    t_star, ratio = curve.minimum
    return {"scheme": scheme, "r": r, "step": step, "ratio": ratio, "t_star": t_star}


def reproduce_constants(steps: tuple[float, ...] = (0.01, 1e-4)) -> list[dict]:
    """Approximation constants for both schemes and all ranks, per grid step."""
    return [
        _constant_row(scheme, r, step, curve)
        for step in steps
        for scheme, r, curve in _curves(step)
    ]


def _constants_table(rows: list[dict]) -> str:
    lines = ["scheme r step ratio t_star"]
    for row in rows:
        lines.append(
            f"{row['scheme']} {row['r']} {row['step']:.17g} "
            f"{row['ratio']:.17g} {row['t_star']:.17g}"
        )
    return "\n".join(lines) + "\n"


def _cmd_gen(args) -> int:
    seed = _default_seed(args.seed)
    params = {k: getattr(args, k) for k in ("n", "n1", "n2", "p") if getattr(args, k) is not None}
    if args.kind != "single_edge":
        params["weights"] = args.weights
    inst = generate(args.kind, seed=seed, family=tuple(args.family), **params)
    _write(args.out, serialize_instance(inst))
    return EXIT_OK


def _cmd_solve(args) -> int:
    seed = _default_seed(args.seed)
    inst = parse_instance_file(args.instance)
    sol = solve_moment_sdp(inst, SolverConfig(seed=seed))
    _write(args.out, serialize_moment_solution(sol))
    feas = check_feasibility(sol)
    diag = sol.diagnostics
    report = {
        "converged": diag.converged,
        "feasible": feas.passed,
        "label": inst.label,
        "max_norm_deviation": feas.max_norm_deviation,
        "max_orthogonality_deviation": feas.max_orthogonality_deviation,
        "rank": diag.rank,
        "restarts": diag.restarts,
        "sdp_upper_bound": diag.upper_bound,
        "sdp_value": sol.value,
        "total_sweeps": diag.total_sweeps,
    }
    sys.stderr.write(json.dumps(report, sort_keys=True) + "\n")
    return EXIT_OK if diag.converged else EXIT_NONCONVERGED


def _cmd_round(args) -> int:
    seed = _default_seed(args.seed)
    inst = parse_instance_file(args.instance)
    with open(args.solution) as fh:
        sol = parse_moment_solution(fh.read())
    value = sdp_objective(inst, sol)
    if abs(sol.value - value) > 1e-9 * max(1.0, abs(sol.value), abs(value)):
        raise ValueError(f"solution header value {sol.value!r} is not its vectors' objective {value!r}")
    rounder = bfv_round if args.scheme == "bfv" else gw_axis_round
    outcome = rounder(inst, sol, trials=args.trials, seed=seed)
    payload = {
        "energy": outcome.energy,
        "label": inst.label,
        "per_trial_energies": outcome.trial_energies.tolist(),
        "scheme": args.scheme,
        "sdp_value": sol.value,
        "seed": outcome.seed,
        "trials_run": outcome.trials_run,
    }
    _write(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def _cmd_exact(args) -> int:
    if args.restarts < 1:
        raise ValueError("need at least one restart")
    seed = _default_seed(args.seed)
    inst = parse_instance_file(args.instance)
    exact = exact_max_eigenvalue(inst)
    search = best_product_state(inst, restarts=args.restarts, seed=seed)
    payload = {
        "best_product_energy": search.energy,
        "label": inst.label,
        "lambda_max": exact.lambda_max,
        "method": exact.method,
        "product_ratio": search.energy / exact.lambda_max if exact.lambda_max else None,
        "residual": exact.residual,
        "restarts_used": search.restarts_used,
        "search_capped": search.capped,
        "search_sweeps": search.sweeps,
    }
    _write(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def _cmd_ratio_tables(args) -> int:
    # each --grid-step curve gives its row and its CSV; then the paper's 1e-4
    # rows, unless --grid-step is 1e-4 already
    rows = []
    for scheme, r, curve in _curves(args.grid_step):
        rows.append(_constant_row(scheme, r, args.grid_step, curve))
        if args.csv_dir is not None:
            os.makedirs(args.csv_dir, exist_ok=True)
            _write(os.path.join(args.csv_dir, f"{scheme}_r{r}.csv"), curve_to_csv(curve))
    if args.grid_step != 1e-4:
        rows += reproduce_constants(steps=(1e-4,))
    _write(args.out, _constants_table(rows))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    inst = parse_instance_file(args.instance)
    reduced, unitary, mode = reduce_instance(inst)
    _write(args.out, serialize_instance(reduced))
    meta = {
        "mode": mode,
        "offset": reduced.offset,
        "unitary_imag": [[float(x) for x in row] for row in unitary.u.imag],
        "unitary_real": [[float(x) for x in row] for row in unitary.u.real],
    }
    meta_path = (args.out + ".meta.json") if args.out not in (None, "-") else None
    if meta_path is None:
        sys.stderr.write(json.dumps(meta, sort_keys=True) + "\n")
    else:
        with open(meta_path, "w") as fh:
            fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    seed = _default_seed(args.seed)
    inst = parse_instance_file(args.instance)
    report = run_pipeline(
        inst,
        scheme=args.scheme,
        trials=args.trials,
        seed=seed,
        oracle=(args.oracle == "on"),
    )
    _write(args.out, report.to_json())
    return EXIT_OK if report.solver_converged else EXIT_NONCONVERGED


def _add_common(p, *, seed=True, out=True):
    if seed:
        p.add_argument("--seed", type=int, default=None, help="PRNG seed (default: HEIS_DEFAULT_SEED or 0)")
    if out:
        p.add_argument("--out", default=None, help="output path ('-' or omitted: stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="heisopt", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("kind", choices=["single_edge", "complete", "cycle", "bipartite", "random_gnp"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n1", type=int, default=None)
    p.add_argument("--n2", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--family", type=int, nargs=3, default=(1, 1, 1), metavar=("A", "B", "C"))
    p.add_argument("--weights", choices=["unit", "uniform"], default="unit")
    _add_common(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("solve", help="run the moment relaxation")
    p.add_argument("instance")
    _add_common(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("round", help="round a saved solution to a product state")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--scheme", choices=["bfv", "axis"], default="bfv")
    p.add_argument("--trials", type=int, default=100)
    _add_common(p)
    p.set_defaults(fn=_cmd_round)

    p = sub.add_parser("exact", help="exact eigenvalue and product-state oracles")
    p.add_argument("instance")
    p.add_argument("--restarts", type=int, default=50, help="random starts of the product-state search")
    _add_common(p)
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("ratio-tables", help="theoretical approximation constants")
    p.add_argument("--grid-step", type=float, default=0.01)
    p.add_argument("--csv-dir", default=None, help="also write per-curve CSV files here")
    _add_common(p, seed=False)
    p.set_defaults(fn=_cmd_ratio_tables)

    p = sub.add_parser("reduce", help="rewrite an instance with diagonal coefficients")
    p.add_argument("instance")
    _add_common(p, seed=False)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("pipeline", help="solve, round, and certify in one run")
    p.add_argument("instance")
    p.add_argument("--scheme", choices=["bfv", "axis"], default="bfv")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--oracle", choices=["on", "off"], default="off")
    _add_common(p)
    p.set_defaults(fn=_cmd_pipeline)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (OracleLimitError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_LIMIT
    except (ValueError, OSError) as exc:
        # ParseError is a ValueError; OSError covers unreadable and missing paths
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
