import json
import os
import subprocess
import sys

import pytest

import heisopt
from heisopt.cli import main, reproduce_constants

# The child interpreter imports the same heisopt as this process.
_PKG_ROOT = os.path.dirname(os.path.dirname(heisopt.__file__))


def run_cli(args, env_extra=None, timeout=None):
    env = dict(os.environ)
    env.pop("HEIS_DEFAULT_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_PKG_ROOT, env.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "heisopt", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def cycle_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "c5.txt"
    assert main(["gen", "cycle", "--n", "5", "--family", "1", "1", "1", "--out", str(path)]) == 0
    return str(path)


def test_gen_writes_parseable_instance(tmp_path):
    out = tmp_path / "inst.txt"
    rc = main(["gen", "random_gnp", "--n", "6", "--p", "0.5", "--seed", "3", "--out", str(out)])
    assert rc == 0
    from heisopt import parse_instance_file

    inst = parse_instance_file(str(out))
    assert inst.n == 6
    assert inst.label == "random_gnp-n6-seed3"


def test_solve_then_round(tmp_path, cycle_file, capsys):
    sol_path = tmp_path / "c5.sol"
    rc = main(["solve", cycle_file, "--out", str(sol_path)])
    assert rc == 0
    diag = json.loads(capsys.readouterr().err)
    assert sorted(diag) == [
        "converged",
        "feasible",
        "label",
        "max_norm_deviation",
        "max_orthogonality_deviation",
        "rank",
        "sdp_upper_bound",
        "sdp_value",
        "total_sweeps",
    ]
    assert diag["rank"] == 5  # n = 5: min(n, ceil(sqrt(2n)) + 1)
    round_path = tmp_path / "round.json"
    rc = main(
        ["round", cycle_file, str(sol_path), "--scheme", "bfv", "--trials", "25", "--out", str(round_path)]
    )
    assert rc == 0
    payload = json.loads(round_path.read_text())
    assert payload["trials_run"] == 25
    assert len(payload["per_trial_energies"]) == 25
    assert payload["energy"] == max(payload["per_trial_energies"])
    assert payload["energy"] <= payload["sdp_value"] + 1e-9


def test_exact_subcommand(tmp_path, cycle_file):
    out = tmp_path / "exact.json"
    rc = main(["exact", cycle_file, "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["lambda_max"] == pytest.approx(12.472135955, abs=1e-6)
    assert payload["method"] == "lanczos"
    assert payload["best_product_energy"] <= payload["lambda_max"] + 1e-9


def test_exact_reports_whether_its_search_hit_the_cap(tmp_path, cycle_file, monkeypatch):
    from heisopt import oracle

    out = tmp_path / "exact.json"
    args = ["exact", cycle_file, "--restarts", "4", "--out", str(out)]
    assert main(args) == 0
    payload = json.loads(out.read_text())
    assert payload["search_capped"] == 0
    assert payload["search_sweeps"] > 0 and payload["search_sweeps"] % 4 == 0
    # one sweep per restart: every restart still gains at its only check
    monkeypatch.setattr(oracle, "_MAX_SWEEPS", 1)
    assert main(args) == 0
    payload = json.loads(out.read_text())
    assert payload["search_capped"] == payload["restarts_used"] == 4
    assert payload["search_sweeps"] == 4


def test_pipeline_report_fields(tmp_path, cycle_file):
    out = tmp_path / "report.json"
    rc = main(
        ["pipeline", cycle_file, "--scheme", "axis", "--trials", "50", "--oracle", "on", "--out", str(out)]
    )
    assert rc == 0
    rep = json.loads(out.read_text())
    for key in (
        "label",
        "scheme",
        "sdp_value",
        "sdp_upper_bound",
        "rounded_energy",
        "certified_ratio",
        "lambda_max",
        "best_product_energy",
        "true_ratio",
        "seed",
        "trials",
        "solver_converged",
    ):
        assert key in rep
    assert rep["certified_ratio"] == pytest.approx(rep["rounded_energy"] / rep["sdp_value"])
    # the SDP value upper-bounds lambda_max, so the certified ratio is a
    # valid lower bound on the true ratio
    assert rep["certified_ratio"] <= rep["rounded_energy"] / rep["lambda_max"] + 1e-12
    assert rep["sdp_value"] >= rep["lambda_max"] - 1e-6
    assert rep["sdp_upper_bound"] >= rep["lambda_max"]
    assert rep["sdp_upper_bound"] >= rep["best_product_energy"]


def test_pipeline_deterministic_bytes(tmp_path, cycle_file):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["pipeline", cycle_file, "--scheme", "bfv", "--trials", "40", "--seed", "5"]
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_env_seed_matches_flag(tmp_path, cycle_file):
    a = run_cli(["pipeline", cycle_file, "--trials", "10", "--out", "-"], env_extra={"HEIS_DEFAULT_SEED": "42"})
    b = run_cli(["pipeline", cycle_file, "--trials", "10", "--seed", "42", "--out", "-"])
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_flag_overrides_env_seed(tmp_path, cycle_file):
    a = run_cli(
        ["pipeline", cycle_file, "--trials", "10", "--seed", "1", "--out", "-"],
        env_extra={"HEIS_DEFAULT_SEED": "42"},
    )
    b = run_cli(["pipeline", cycle_file, "--trials", "10", "--seed", "1", "--out", "-"])
    assert json.loads(a.stdout)["seed"] == 1
    assert a.stdout == b.stdout


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("this is not an instance\n")
    assert main(["solve", str(bad)]) == 2
    assert main(["solve", str(tmp_path / "missing.txt")]) == 2
    assert main(["solve", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "args, missing",
    [(["cycle"], "'n'"), (["bipartite", "--n1", "2"], "'n2'"), (["random_gnp", "--n", "5"], "'p'")],
)
def test_gen_names_a_missing_size(args, missing, capsys):
    assert main(["gen", *args]) == 2
    assert missing in capsys.readouterr().err


def test_round_rejects_duplicate_solution_rows(tmp_path):
    # Qubit 1's rows repeated as (1, 2) leave two zero vectors, and rounding
    # such a point would redraw forever: the parser must refuse the file.
    inst = tmp_path / "edge.txt"
    assert main(["gen", "single_edge", "--family", "1", "1", "0", "--out", str(inst)]) == 0
    good = tmp_path / "edge.sol"
    assert main(["solve", str(inst), "--out", str(good)]) == 0
    header, *rows = good.read_text().splitlines()
    bad = tmp_path / "bad.sol"
    bad.write_text("\n".join([header, *rows[:3], *[rows[5]] * 3]) + "\n")
    proc = run_cli(["round", str(inst), str(bad)], timeout=60)
    assert proc.returncode == 2
    assert "appears twice" in proc.stderr


def test_round_checks_the_header_value(tmp_path, capsys):
    inst = tmp_path / "c8.txt"
    assert main(["gen", "cycle", "--n", "8", "--family", "1", "1", "0", "--out", str(inst)]) == 0
    sol = tmp_path / "c8.sol"
    assert main(["solve", str(inst), "--out", str(sol)]) == 0
    header, *rows = sol.read_text().splitlines()
    n, value = header.split()[0], float(header.split()[1])
    assert value == pytest.approx(24.0, abs=1e-9)
    out = tmp_path / "round.json"
    assert main(["round", str(inst), str(sol), "--trials", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["sdp_value"] == value
    # an edited header is refused beyond a relative tolerance of 1e-9
    for edited, rc in ((value * (1 + 1e-11), 0), (value * (1 + 5e-9), 2), (999.0, 2)):
        sol.write_text("\n".join([f"{n} {edited!r}", *rows]) + "\n")
        assert main(["round", str(inst), str(sol), "--trials", "5", "--out", str(out)]) == rc
    assert "header value 999.0" in capsys.readouterr().err


def test_solve_exits_4_before_building_a_coupling_too_large_for_memory(tmp_path, monkeypatch, capsys):
    from heisopt import _backend, _kernels

    inst = tmp_path / "c300.txt"
    assert main(["gen", "cycle", "--n", "300", "--out", str(inst)]) == 0
    calls = []
    monkeypatch.setattr(_kernels, "colour_classes", lambda *args: calls.append(1))
    # one XYZ block's A and its class slices, 2n^2 doubles, and the (n, 3, 3n)
    # solution, 9n^2 doubles
    need = 88 * 300**2
    monkeypatch.setattr(_backend, "available_bytes", lambda: need - 1)
    for cmd in ("solve", "pipeline"):
        assert main([cmd, str(inst), "--out", str(tmp_path / "out")]) == 4
        assert f"needs {need} bytes but only {need - 1} bytes are available" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize(
    "text, expect",
    [
        ("2 1\n0 1 0 1 1 1\n", 0.0),  # zero weight
        ("2 1\n0 1 1 0 0 0\n", 1.0),  # identity only
        ("3 2\n0 1 1 1 1 1\n0 1 1 -1 -1 -1\n", 2.0),  # a cancelling pair
    ],
    ids=["zero-weight", "identity-only", "cancelling-pair"],
)
def test_instances_with_no_coupling_solve_and_pipeline(tmp_path, text, expect):
    # H = wsum I, so the relaxation, its bound and lambda_max all equal wsum
    inst = tmp_path / "flat.txt"
    inst.write_text(text)
    assert main(["solve", str(inst), "--out", str(tmp_path / "flat.sol")]) == 0
    out = tmp_path / "report.json"
    assert main(["pipeline", str(inst), "--scheme", "axis", "--oracle", "on", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["sdp_value"] == rep["sdp_upper_bound"] == expect
    assert rep["lambda_max"] == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_oracle_limit_exit_code(tmp_path):
    big = tmp_path / "big.txt"
    rc = main(["gen", "cycle", "--n", "22", "--out", str(big)])
    assert rc == 0
    assert main(["exact", str(big)]) == 4


def test_ratio_tables_output(tmp_path):
    out = tmp_path / "tables.txt"
    csv_dir = tmp_path / "curves"
    rc = main(["ratio-tables", "--out", str(out), "--csv-dir", str(csv_dir)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split() == ["scheme", "r", "step", "ratio", "t_star"]
    assert len(lines) == 1 + 12  # 2 schemes x 3 ranks x 2 steps
    assert sorted(os.listdir(csv_dir)) == [
        "axis_r1.csv",
        "axis_r2.csv",
        "axis_r3.csv",
        "bfv_r1.csv",
        "bfv_r2.csv",
        "bfv_r3.csv",
    ]


@pytest.mark.parametrize("step", ["2", "1", "0.5"])
def test_ratio_tables_refuses_coarse_grid_step(tmp_path, step, capsys):
    out = tmp_path / "tables.txt"
    assert main(["ratio-tables", "--grid-step", step, "--out", str(out)]) == 2
    assert "fewer than 21" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("step", [0.02, 1e-4])
def test_ratio_tables_evaluates_each_curve_once(tmp_path, monkeypatch, step):
    from heisopt import cli
    from heisopt.ratio_numerics import approx_ratio_axis, approx_ratio_bfv, curve_to_csv

    calls = []
    for name in ("approx_ratio_bfv", "approx_ratio_axis"):
        def counting(r, step, _fn=getattr(cli, name), _name=name):
            calls.append((_name, r, step))
            return _fn(r, step=step)

        monkeypatch.setattr(cli, name, counting)
    out, csv_dir = tmp_path / "tables.txt", tmp_path / "curves"
    args = ["ratio-tables", "--grid-step", repr(step), "--out", str(out), "--csv-dir", str(csv_dir)]
    assert main(args) == 0
    steps = (step,) if step == 1e-4 else (step, 1e-4)  # the 1e-4 rows once
    assert len(calls) == len(set(calls)) == 6 * len(steps)
    monkeypatch.undo()
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 6 * len(steps)
    assert out.read_text() == cli._constants_table(reproduce_constants(steps))
    for scheme, fn in (("bfv", approx_ratio_bfv), ("axis", approx_ratio_axis)):
        for r in (1, 2, 3):
            csv = (csv_dir / f"{scheme}_r{r}.csv").read_text()
            assert csv == curve_to_csv(fn(r, step=step))


def test_reproduce_constants_reruns_identical():
    rows1 = reproduce_constants()
    rows2 = reproduce_constants()
    assert rows1 == rows2
    assert len(rows1) == 12


def test_reduce_subcommand(tmp_path):
    src = tmp_path / "edge.txt"
    assert main(["gen", "single_edge", "--family", "1", "0", "1", "--out", str(src)]) == 0
    dst = tmp_path / "reduced.txt"
    assert main(["reduce", str(src), "--out", str(dst)]) == 0
    meta = json.loads((tmp_path / "reduced.txt.meta.json").read_text())
    assert meta["mode"] in ("projection", "symmetric")
    from heisopt import parse_instance_file

    red = parse_instance_file(str(dst))
    assert red.n == 2


def test_console_entry_point(cycle_file):
    res = run_cli(["ratio-tables"])
    assert res.returncode == 0
    assert res.stdout.startswith("scheme r step ratio t_star")


def test_oracle_pipeline_runs_one_product_search(monkeypatch):
    # the solve runs no product search; the oracle's reference is one search
    from heisopt import Edge, Instance, cli, moment_sdp, oracle

    calls = []
    for mod in (moment_sdp, cli):
        def counting(*args, _search=mod.best_product_state, _name=mod.__name__, **kwargs):
            calls.append(_name)
            return _search(*args, **kwargs)

        monkeypatch.setattr(mod, "best_product_state", counting)
    inst = Instance(
        n=4,
        edges=(Edge(0, 1, 1.0, 0.5, -0.2, 1.0), Edge(1, 2, 0.7, 1, 1, 1), Edge(2, 3, 1.0, 0, 0.3, -1)),
    )
    for seed in (0, 3):
        calls.clear()
        report = cli.run_pipeline(inst, scheme="axis", trials=20, seed=seed, oracle=True)
        assert calls == ["heisopt.cli"]
        assert report.best_product_energy == oracle.best_product_state(inst, seed=seed).energy


def test_pipeline_refuses_bad_arguments_before_solving(monkeypatch):
    from heisopt import Edge, Instance, cli

    calls = []
    solve = cli.solve_moment_sdp

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_moment_sdp", counting)
    xyz = Instance(n=3, edges=(Edge(0, 1, 1.0, 1, 1, 1), Edge(1, 2, 0.5, 1, 1, 1)))
    mixed = Instance(n=3, edges=(Edge(0, 1, 1.0, 1, 1, 1), Edge(1, 2, 0.5, 1, 0, 1)))
    bad = [
        (xyz, dict(scheme="BFV"), "unknown rounding scheme"),
        (xyz, dict(scheme="gw"), "unknown rounding scheme"),
        (xyz, dict(trials=0), "at least one trial"),
        (mixed, dict(scheme="axis", trials=-3), "at least one trial"),
        (mixed, dict(scheme="bfv"), "family-uniform"),
        (xyz, dict(restarts=0), "one ascent"),
        (xyz, dict(restarts=2), "one ascent"),
    ]
    for inst, kwargs, message in bad:
        with pytest.raises(ValueError, match=message):
            cli.run_pipeline(inst, **kwargs)
    big = Instance(n=21, edges=(Edge(0, 20, 1.0, 1, 1, 1),))
    with pytest.raises(cli.OracleLimitError, match="limit of 20 qubits"):
        cli.run_pipeline(big, scheme="axis", trials=5, oracle=True)
    assert calls == []
    assert cli.run_pipeline(mixed, scheme="axis", trials=5).scheme == "axis"
    assert cli.run_pipeline(xyz, scheme="bfv", trials=5).scheme == "bfv"
    assert len(calls) == 2


def test_exact_refuses_zero_restarts_before_eigensolve(cycle_file, monkeypatch, capsys):
    from heisopt import cli

    calls = []
    monkeypatch.setattr(cli, "exact_max_eigenvalue", lambda inst: calls.append(1))
    assert main(["exact", cycle_file, "--restarts", "0"]) == 2
    assert "at least one restart" in capsys.readouterr().err
    assert calls == []


def test_exact_exits_4_when_lanczos_memory_is_short(cycle_file, monkeypatch, capsys):
    from heisopt import _backend

    monkeypatch.setattr(_backend, "available_bytes", lambda: 1024)
    assert main(["exact", cycle_file]) == 4
    assert "bytes are available" in capsys.readouterr().err


def test_pipeline_report_independent_of_blas_threads(tmp_path):
    # the sweeps run through BLAS gemm; its thread count must not change a bit
    inst = tmp_path / "g40.txt"
    gen = ["gen", "random_gnp", "--n", "40", "--p", "0.3", "--family", "1", "1", "1", "--seed", "5"]
    assert main([*gen, "--out", str(inst)]) == 0
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        res = run_cli(
            ["pipeline", str(inst), "--trials", "200", "--seed", "3", "--out", str(out)],
            env_extra={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
        )
        assert res.returncode == 0, res.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_bound_covers_optimum_of_unconverged_solve(tmp_path, capsys):
    # here the ascent stops at 22.4999992813, below the relaxation optimum
    # 22.5; the dual bound must not
    inst = tmp_path / "g7.txt"
    assert main(["gen", "random_gnp", "--n", "7", "--p", "0.5", "--seed", "11", "--out", str(inst)]) == 0
    out = tmp_path / "report.json"
    assert main(["pipeline", str(inst), "--trials", "60", "--seed", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["sdp_upper_bound"] >= 22.5
    capsys.readouterr()
    assert main(["solve", str(inst), "--seed", "2", "--out", str(tmp_path / "g7.sol")]) == 0
    assert json.loads(capsys.readouterr().err)["sdp_upper_bound"] >= 22.5


def test_capped_solve_warns_once_and_exits_3(tmp_path, cycle_file, monkeypatch, caplog, capsys):
    import logging

    from heisopt import moment_sdp

    monkeypatch.setattr(moment_sdp, "MAX_SWEEPS", 1)
    for cmd in ("solve", "pipeline"):
        out = tmp_path / f"{cmd}.out"
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="heisopt"):
            assert main([cmd, cycle_file, "--out", str(out)]) == 3
        assert [r.getMessage().split(";")[0] for r in caplog.records] == [
            "moment relaxation: stopped at max_sweeps=1"
        ]
        assert out.stat().st_size > 0
    assert json.loads(capsys.readouterr().err)["converged"] is False
    assert json.loads(out.read_text())["solver_converged"] is False
