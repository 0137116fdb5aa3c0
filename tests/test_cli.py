import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandlab.cli import _COMMANDS as _CLI_COMMANDS
from bandlab.cli import (_MODEL_ENDS, _SCHEMA, FLOW_TOL, ConfigError,
                         _Interval, _Key, build_profile, main, parse_config)
from bandlab.profiles import wegner_gamma_max
from bandlab.spectral import stieltjes_m


def write_config(path, **overrides):
    base = {
        "model": {"type": "translation_invariant", "d": 1, "W": 5, "n": 5,
                  "kernel": "uniform", "cutoff": 1},
        "spectral": {"E": 0.0, "eta": 0.5, "epsilon0": 0.2,
                     "t_values": "0.5,0.9"},
        "mc": {"replicas": 5, "master_seed": 20260809, "parallelism": 1},
        "output": {"directory": str(path.parent / "out")},
    }
    for sec, kv in overrides.items():
        base.setdefault(sec, {}).update(kv)
    lines = []
    for sec, kv in base.items():
        lines.append(f"[{sec}]")
        for k, v in kv.items():
            lines.append(f"{k} = {v}")
        lines.append("")
    path.write_text("\n".join(lines))
    return str(path)


def read_json(outdir, name):
    with open(os.path.join(outdir, name), encoding="utf-8") as fh:
        return json.load(fh)


class TestConfigParsing:
    def test_defaults_filled(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c.ini"))
        assert cfg["checks"]["deloc_window"] == 1.5
        assert cfg["spectral"]["t_values"] == (0.5, 0.9)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[model]\ntype = mean_field\nW = 3\nn = 3\nbogus = 1\n")
        with pytest.raises(ConfigError):
            parse_config(str(p))

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[model]\ntype = mean_field\nW = 3\nn = 3\n[junk]\na=1\n")
        with pytest.raises(ConfigError):
            parse_config(str(p))

    def test_missing_required(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[model]\ntype = mean_field\nW = 3\n")
        with pytest.raises(ConfigError):
            parse_config(str(p))

    def test_zero_replicas_rejected(self, tmp_path):
        p = write_config(tmp_path / "c.ini", mc={"replicas": 0})
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_threads_env_default(self, tmp_path, monkeypatch):
        p = tmp_path / "c.ini"
        p.write_text("[model]\ntype = mean_field\nW = 3\nn = 3\n")
        monkeypatch.setenv("BANDLAB_THREADS", "6")
        cfg = parse_config(str(p))
        assert cfg["mc"]["parallelism"] == 6

    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    def test_bad_threads_env_exit_2_naming_it(self, value, tmp_path,
                                              monkeypatch, capsys):
        p = tmp_path / "c.ini"
        p.write_text("[model]\ntype = mean_field\nW = 3\nn = 3\n")
        monkeypatch.setenv("BANDLAB_THREADS", value)
        assert main(["validate", "--config", str(p),
                     "--out", str(tmp_path / "out")]) == 2
        assert "config error: BANDLAB_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_threads_default_is_usable_cores(self, tmp_path, monkeypatch):
        p = tmp_path / "c.ini"
        p.write_text("[model]\ntype = mean_field\nW = 3\nn = 3\n")
        monkeypatch.delenv("BANDLAB_THREADS", raising=False)
        cfg = parse_config(str(p))
        assert cfg["mc"]["parallelism"] == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("cores, threads", [(3, 3), (None, 1)])
    def test_threads_default_without_sched_getaffinity(
            self, cores, threads, tmp_path, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity: the default is
        # the CPU count, or 1 where even that is unknown
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        monkeypatch.delenv("BANDLAB_THREADS", raising=False)
        p = tmp_path / "c.ini"
        p.write_text("[model]\ntype = mean_field\nW = 3\nn = 3\n")
        assert parse_config(str(p))["mc"]["parallelism"] == threads
        assert main(["flow", "--config", str(p),
                     "--out", str(tmp_path / "out")]) == 0

    def test_config_not_utf8_exits_2_naming_the_file(self, tmp_path, capsys):
        p = tmp_path / "c.ini"
        p.write_bytes(b"\xff\xfe[model]\ntype = mean_field\nW = 3\nn = 3\n")
        out = tmp_path / "out"
        assert main(["validate", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config {p} is not UTF-8")
        assert not out.exists()

    def test_build_profile_types(self, tmp_path):
        for kind in ("translation_invariant", "mean_field", "block_flat",
                     "wegner_orbital"):
            p = write_config(tmp_path / f"{kind}.ini",
                             model={"type": kind, "W": 3, "n": 5})
            prof = build_profile(parse_config(p))
            assert prof.row_sum_deviation() < 1e-12


class TestExitCodes:
    def test_validate_pass(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini")
        assert main(["validate", "--config", cfg]) == 0
        rep = read_json(str(tmp_path / "out"), "validate.json")
        assert rep["pass"] is True
        assert rep["validation"]["fullness"] == pytest.approx(5 / 11)

    def test_validate_mean_field_fails_interaction(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", model={"type": "mean_field"})
        assert main(["validate", "--config", cfg]) == 1
        rep = read_json(str(tmp_path / "out"), "validate.json")
        assert rep["validation"]["lambda2"] == 0.0

    def test_validate_even_w_parity_schema_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", model={"W": 4})
        assert main(["validate", "--config", cfg]) == 2
        assert "set [checks] parity = false" in capsys.readouterr().err
        assert not (tmp_path / "out" / "validate.json").exists()

    def test_unknown_key_exit_2(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[model]\ntype = mean_field\nW = 3\nn = 3\nnope = 2\n")
        assert main(["validate", "--config", str(p)]) == 2

    # tolerances are constants of bandlab.cli, not config keys
    @pytest.mark.parametrize("section,key", [
        ("checks", "tolerance_scale"), ("output", "formats"),
        *(("checks", key) for key in (
            "locallaw_tol", "diffusion_sigma", "diffusion_rel",
            "deloc_log_power", "decay_factor", "same_charge_decay",
            "ward_tol", "ward_gate", "kloop_dt", "kloop_tol", "que_c",
            "eps_inter", "p_samples"))])
    def test_removed_key_exit_2(self, section, key, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", **{section: {key: "1"}})
        assert main(["validate", "--config", cfg]) == 2
        assert f"unknown key '{key}' in section [{section}]" \
            in capsys.readouterr().err

    def test_tolerance_scale_flag_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini")
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--config", cfg, "--tolerance-scale", "2"])
        assert exc.value.code == 2

    def test_zero_replicas_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", mc={"replicas": 0})
        assert main(["locallaw", "--config", cfg]) == 2

    def test_missing_config_exit_2(self):
        assert main(["locallaw"]) == 2

    def test_out_is_a_regular_file_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini")
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["flow", "--config", cfg, "--out", str(taken)]) == 2
        assert "output error" in capsys.readouterr().err

    def test_unwritable_report_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini")
        (tmp_path / "out" / "flow.json").mkdir(parents=True)
        assert main(["flow", "--config", cfg]) == 2
        assert "output error" in capsys.readouterr().err

    def test_replicas_override_validation(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini")
        assert main(["locallaw", "--config", cfg, "--replicas", "0"]) == 2

    @pytest.mark.parametrize("route", ["config", "override"])
    def test_negative_seed_exit_2(self, route, tmp_path, capsys):
        # SeedSequence refuses a negative seed, which would fail every
        # replica and exit 1 as a failed check
        seed = {"master_seed": -3} if route == "config" else {}
        cfg = write_config(tmp_path / "c.ini", mc=seed)
        extra = ["--seed", "-3"] if route == "override" else []
        assert main(["locallaw", "--config", cfg, *extra]) == 2
        name = "[mc] master_seed" if route == "config" else "--seed"
        assert f"{name} = -3 must lie in [0, {2**64 - 1}]" \
            in capsys.readouterr().err
        assert not (tmp_path / "out" / "locallaw.json").exists()

    @pytest.mark.parametrize("route", ["config", "override"])
    @pytest.mark.parametrize("seed, code", [(2**64, 2), (2**64 - 1, 0)])
    def test_seed_is_a_u64(self, route, seed, code, tmp_path, capsys):
        # --help documents a U64: 2^64 exits 2 and writes no report, and
        # 2^64 - 1 runs and is recorded as given
        cfg = write_config(tmp_path / "c.ini", mc={"master_seed": seed}
                           if route == "config" else {})
        extra = ["--seed", str(seed)] if route == "override" else []
        assert main(["locallaw", "--config", cfg, *extra]) == code
        out = tmp_path / "out" / "locallaw.json"
        if code == 2:
            name = "[mc] master_seed" if route == "config" else "--seed"
            assert f"{name} = {seed} must lie in [0, {2**64 - 1}]" \
                in capsys.readouterr().err
            assert not out.exists()
        else:
            assert read_json(str(out.parent), out.name)["master_seed"] == seed

    @pytest.mark.parametrize("kind", ["translation_invariant",
                                      "wegner_orbital", "block_flat"])
    def test_arithmetic_overflow_exit_2(self, kind, tmp_path, capsys):
        # eta = 1e-300 overflows the diffusion scale (W^d ell^d eta)^-2
        cfg = write_config(tmp_path / "c.ini",
                           model={"type": kind, "W": 3, "n": 8},
                           spectral={"eta": 1e-300})
        assert main(["diffusion", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text,value", [
        ("1", True), ("yes", True), (" TRUE ", True), ("On", True),
        ("0", False), ("no", False), ("False", False), ("off ", False)])
    def test_boolean_spellings(self, text, value, tmp_path):
        cfg = write_config(tmp_path / "c.ini", checks={"parity": text})
        assert parse_config(cfg)["checks"]["parity"] is value

    def test_block_flat_default_weight_at_d2_names_the_key(self, tmp_path,
                                                              capsys):
        # the default neighbor_weight = 0.25 is the d = 2 limit 1/(2d)
        cfg = write_config(tmp_path / "c.ini",
                           model={"type": "block_flat", "d": 2, "W": 3,
                                  "n": 5})
        assert main(["validate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "[model] neighbor_weight = 0.25" in err
        assert "1/(2d)) = [0, 0.25)" in err and "d = 2" in err
        cfg = write_config(tmp_path / "ok.ini",
                           model={"type": "block_flat", "d": 2, "W": 3,
                                  "n": 5, "neighbor_weight": 0.1})
        assert main(["validate", "--config", cfg]) in (0, 1)

    # the three commands that need a boundary value m(E); locallaw,
    # diffusion and que take E as given
    @pytest.mark.parametrize("command", ["flow", "theta", "kloop"])
    @pytest.mark.parametrize("E", [2.5, -1.9500000000000002, 1.95])
    def test_bulk_guard_names_E_and_its_bound(self, command, E, tmp_path,
                                              capsys):
        cfg = write_config(tmp_path / "c.ini", spectral={"E": E})
        out = tmp_path / "out"
        code = main([command, "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        if E == 1.95:  # |E| = 2 - kappa lies inside the guard
            assert code in (0, 1) and "bulk guard" not in err
            return
        assert code == 2
        assert f"config error: [spectral] E = {E!r} lies outside the bulk " \
               "guard |E| <= 2 - kappa = 1.95" in err
        assert not out.exists()

    def test_bad_boolean_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", checks={"parity": "maybe"})
        assert main(["validate", "--config", cfg]) == 2
        assert "not a boolean: 'maybe'" in capsys.readouterr().err

    @pytest.mark.parametrize("section,values,name", [
        ("spectral", {"kappa": -1, "E": 2.5}, "[spectral] kappa = -1"),
        ("spectral", {"kappa": 5}, "[spectral] kappa = 5"),
        ("spectral", {"epsilon0": 1.5}, "[spectral] epsilon0 = 1.5"),
        ("model", {"type": "wegner_orbital", "wegner_alpha": "nan"},
         "[model] wegner_alpha must be finite"),
        ("model", {"type": "wegner_orbital", "wegner_gamma": "inf"},
         "[model] wegner_gamma must be finite"),
        ("model", {"type": "block_flat", "neighbor_weight": "nan"},
         "[model] neighbor_weight must be finite")])
    def test_out_of_range_float_names_the_key(self, section, values, name,
                                              tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", **{section: values})
        assert main(["flow", "--config", cfg]) == 2
        assert f"config error: {name}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_commands_run_on_numpy_alone(tmp_path):
    """theta, kloop, diffusion, deloc and que never import scipy."""
    cfg = write_config(tmp_path / "c.ini", model={"W": 3, "n": 5},
                       mc={"replicas": 2})
    script = ("import sys\n"
              "from bandlab.cli import main\n"
              "codes = [main([c, '--config', sys.argv[1]])\n"
              "         for c in ('theta', 'kloop', 'diffusion', 'deloc',\n"
              "                   'que')]\n"
              "print(codes, 'scipy' in sys.modules)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", script, cfg], env=env,
                         capture_output=True, text=True, check=True)
    codes, scipy_loaded = run.stdout.strip().splitlines()[-1].rsplit(" ", 1)
    assert all(c in (0, 1) for c in json.loads(codes))
    assert scipy_loaded == "False"


_THETA_FILES = [f"theta_decay_{pair}_t{t}.{ext}" for pair in ("pm", "pp")
                for t in ("0.5", "0.9") for ext in ("csv", "dat", "gp")]


@pytest.mark.parametrize("command,files", [
    ("validate", []),
    ("flow", []),
    ("theta", _THETA_FILES),
    ("kloop", ["kloop_residuals.csv"]),
    ("locallaw", ["locallaw_blocks.csv", "locallaw_blocks.dat",
                  "locallaw_blocks.gp"]),
    ("diffusion", ["diffusion_pairs.csv", "diffusion_profile.dat",
                   "diffusion_profile.gp"]),
    ("deloc", []),
    ("que", []),
])
def test_each_command_writes_its_files(command, files, tmp_path):
    cfg = write_config(tmp_path / "c.ini", model={"W": 3, "n": 5},
                       mc={"replicas": 2})
    out = tmp_path / "run"
    assert main([command, "--config", cfg, "--out", str(out)]) in (0, 1)
    assert sorted(os.listdir(out)) == sorted([f"{command}.json", *files])


class TestDeterministicCommands:
    def test_flow(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini")
        assert main(["flow", "--config", cfg]) == 0
        rep = read_json(str(tmp_path / "out"), "flow.json")
        assert rep["m_identity_residual"] < FLOW_TOL

    def test_theta(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini",
                           model={"n": 15}, spectral={"t_values": "0.5"})
        assert main(["theta", "--config", cfg]) == 0
        out = str(tmp_path / "out")
        assert os.path.exists(os.path.join(out, "theta_decay_pm_t0.5.csv"))
        assert os.path.exists(os.path.join(out, "theta_decay_pm_t0.5.dat"))
        assert os.path.exists(os.path.join(out, "theta_decay_pm_t0.5.gp"))
        rep = read_json(out, "theta.json")
        assert rep["pass"] is True

    def test_theta_writes_each_flow_time_apart(self, tmp_path):
        # 0.3 and 0.3000001 agree to 6 significant digits, so a name with
        # 6 digits gives the second flow time's curves the first one's files
        cfg = write_config(tmp_path / "c.ini", model={"n": 9},
                           spectral={"t_values": "0.3,0.3000001"})
        assert main(["theta", "--config", cfg]) in (0, 1)
        out = tmp_path / "out"
        assert len(read_json(str(out), "theta.json")["results"]) == 4
        assert sorted(p.name for p in out.glob("theta_decay_*.csv")) == [
            f"theta_decay_{pair}_t{t}.csv" for pair in ("pm", "pp")
            for t in ("0.3", "0.3000001")]

    def test_theta_solves_each_propagator_once(self, tmp_path, monkeypatch):
        import bandlab.deterministic as det

        thetas, solve_shapes = [], []
        theta, solve = det.theta, det.theta_entrywise

        def counting_theta(*args, **kwargs):
            thetas.append(args)
            return theta(*args, **kwargs)

        def sized_solve(S, *args, **kwargs):
            solve_shapes.append(S.shape)
            return solve(S, *args, **kwargs)

        monkeypatch.setattr(det, "theta", counting_theta)
        monkeypatch.setattr(det, "theta_entrywise", sized_solve)
        cfg = write_config(tmp_path / "c.ini",
                           spectral={"t_values": "0.5,0.9"})
        # at W = 5, n = 5 no (+,-) tail has two points to fit, so the
        # verdict fails; the solve counts do not depend on it
        assert main(["theta", "--config", cfg]) == 1
        # per flow time, one block propagator for Theta(+,-) and one for
        # Theta(+,+)
        assert len(thetas) == 2 * 2
        # each propagator's coupling is real at E = 0, so it is one stack
        # of 3 solves, each W^d x W^d: momentum 0 and one of each pair
        # {p, -p} of the n = 5 block momenta
        assert solve_shapes == [(3, 5, 5)] * (2 * 2)

    def test_theta_never_assembles_the_profile(self, tmp_path, monkeypatch):
        from bandlab.profiles import VarianceProfile

        def refuse(self):
            raise AssertionError("theta assembled the N x N profile")

        monkeypatch.setattr(VarianceProfile, "assemble", refuse)
        cfg = write_config(tmp_path / "c.ini", spectral={"t_values": "0.5"})
        # exit 1, not a traceback: the (+,-) tail fit is empty at W=5, n=5
        assert main(["theta", "--config", cfg]) == 1

    def test_theta_fails_without_a_tail_fit(self, tmp_path):
        # at W = 3, n = 3 every tail fit, (+,-) and (+,+), is empty (decay
        # length 0), which bounds nothing
        cfg = write_config(tmp_path / "c.ini", model={"W": 3, "n": 3})
        assert main(["theta", "--config", cfg]) == 1
        rep = read_json(str(tmp_path / "out"), "theta.json")
        for pair in ([1, -1], [1, 1]):
            rows = [r for r in rep["results"] if r["pair"] == pair]
            assert rows and all(r["decay_length"] == 0.0 and not r["pass"]
                                for r in rows)
        assert rep["pass"] is False

    def test_kloop(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini")
        assert main(["kloop", "--config", cfg]) == 0
        rep = read_json(str(tmp_path / "out"), "kloop.json")
        ward_rows = [r for r in rep["rows"] if r[0] == "ward"]
        assert len(ward_rows) == 6
        assert all(r[2] < 1e-9 for r in ward_rows)

    def test_kloop_builds_each_loop_calculator_once(self, tmp_path,
                                                    monkeypatch):
        # the centre calculator serves the Ward, K^(2), cyclic and both
        # flow checks; only the two flow-shifted calculators per step add
        # resolvents
        import bandlab.deterministic as det

        solve, sizes = det.theta_entrywise, []

        def sized_solve(S, *args, **kwargs):
            sizes.append(S.shape)
            return solve(S, *args, **kwargs)

        monkeypatch.setattr(det, "theta_entrywise", sized_solve)
        cfg = write_config(tmp_path / "c.ini", model={"W": 7, "n": 8})
        assert main(["kloop", "--config", cfg]) == 0
        # one stack of momentum solves of size W = 7 per resolvent or
        # propagator: the centre's two resolvents (m m-bar, and m^2 =
        # m-bar^2 at E = 0), four flow-shifted resolvents, and two theta
        # propagators, one per coupling (the same two). Every coupling is
        # real, so each stack holds 5 of the n = 8 momenta: 0, 4 and one
        # of each pair {p, -p}
        assert sizes == [(5, 7, 7)] * (2 + 4 + 2)

    def test_kloop_never_goes_n_by_n(self, tmp_path, monkeypatch):
        import bandlab.deterministic as det
        from bandlab.profiles import VarianceProfile

        def refuse(self):
            raise AssertionError("kloop assembled the N x N profile")

        solve, shapes = det.theta_entrywise, set()

        def sized_solve(S, *args, **kwargs):
            shapes.add(S.shape)
            return solve(S, *args, **kwargs)

        monkeypatch.setattr(VarianceProfile, "assemble", refuse)
        monkeypatch.setattr(det, "theta_entrywise", sized_solve)
        cfg = write_config(tmp_path / "c.ini",
                           model={"d": 2, "W": 3, "n": 3})
        assert main(["kloop", "--config", cfg]) in (0, 1)
        # stacks of momentum solves of size W^d = 9: at E = 0 every
        # coupling is real, so 5 of the n^d = 9 momenta, one of each pair
        # {p, -p} and p = 0
        assert shapes == {(5, 9, 9)}

    def test_kloop_runs_at_the_d2_reference_config(self, tmp_path):
        # the order-3 block sums at N = 2025 take 2.6 MB
        cfg = write_config(tmp_path / "c.ini", model={
            "d": 2, "W": 5, "n": 9, "cutoff": 2})
        assert main(["kloop", "--config", cfg]) in (0, 1)
        rep = read_json(str(tmp_path / "out"), "kloop.json")
        assert len(rep["rows"]) == 10

    def test_kloop_runs_at_the_readme_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", model={"W": 33, "n": 15},
                           spectral={"t_values": "0.3,0.9"})
        assert main(["kloop", "--config", cfg]) in (0, 1)
        rep = read_json(str(tmp_path / "out"), "kloop.json")
        assert len(rep["rows"]) == 10

    @pytest.mark.parametrize("model, t", [
        ({"W": 33, "n": 15}, "0.3,0.9"),
        ({"d": 2, "W": 5, "n": 9, "cutoff": 2}, "0.9"),
        ({"W": 7, "n": 8}, "0.3,0.9")], ids=["readme", "d2", "L56"])
    def test_kloop_rows_and_verdicts(self, model, t, tmp_path):
        # every row in its order, and every one passes
        cfg = write_config(tmp_path / "c.ini", model=model,
                           spectral={"t_values": t})
        assert main(["kloop", "--config", cfg]) == 0
        rep = read_json(str(tmp_path / "out"), "kloop.json")
        assert [(r[0], r[1], r[4]) for r in rep["rows"]] == [
            ("ward", s, "pass") for s in ("+-", "-+", "++-", "+--", "--+",
                                          "-++")] + [
            ("k2_theta_consistency", "all pairs", "pass"),
            ("cyclic_invariance", "++-", "pass"),
            ("flow_derivative", "dt=0.001", "pass"),
            ("flow_derivative", "dt=0.0005", "pass")]

    def test_kloop_checks_k2_against_theta(self, tmp_path, monkeypatch):
        # a propagator off by 1e-9 relative must fail the K^(2) check alone
        from bandlab import deterministic as det
        theta = det.theta
        monkeypatch.setattr(det, "theta",
                            lambda *a: theta(*a) * (1 + 1e-9))
        cfg = write_config(tmp_path / "c.ini")
        assert main(["kloop", "--config", cfg]) == 1
        rep = read_json(str(tmp_path / "out"), "kloop.json")
        failed = [r[0] for r in rep["rows"] if r[4] == "FAIL"]
        assert failed == ["k2_theta_consistency"]

    @pytest.mark.parametrize("E, pairs", [
        (0.3, [(1, 1), (1, -1), (-1, -1)]),
        # m is imaginary at E = 0, so m^2 = conj(m)^2 too
        (0.0, [(1, 1), (1, -1)]),
    ])
    def test_kloop_solves_one_theta_per_coupling(self, E, pairs, tmp_path,
                                                 monkeypatch):
        # (+,-) and (-,+) share the coupling m conj(m), so the K^(2) check
        # solves one propagator for both
        from bandlab import deterministic as det
        theta, solved = det.theta, []

        def counted(profile, t, c):
            solved.append(c)
            return theta(profile, t, c)

        monkeypatch.setattr(det, "theta", counted)
        cfg = write_config(tmp_path / "c.ini", spectral={"E": E})
        assert main(["kloop", "--config", cfg]) == 0
        m = stieltjes_m(E)
        assert solved == [det.charge_m(m, a) * det.charge_m(m, b)
                          for a, b in pairs]

    def test_kloop_checks_cyclic_invariance(self, tmp_path, monkeypatch):
        # the +-+ loop, which no Ward row reads, off by 1e-9 relative must
        # fail the cyclic check alone
        from bandlab import deterministic as det
        khat = det.KLoopCalculator.khat_tensor

        def off(self, charges):
            out = khat(self, charges)
            if charges == (1, -1, 1):
                out = out * (1 + 1e-9)
            return out

        monkeypatch.setattr(det.KLoopCalculator, "khat_tensor", off)
        cfg = write_config(tmp_path / "c.ini")
        assert main(["kloop", "--config", cfg]) == 1
        rep = read_json(str(tmp_path / "out"), "kloop.json")
        failed = [r for r in rep["rows"] if r[4] == "FAIL"]
        assert [r[0] for r in failed] == ["cyclic_invariance"]
        assert failed[0][2] == pytest.approx(1e-9, rel=1e-3)

    def test_csv_float_precision(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", spectral={"t_values": "0.5"})
        main(["theta", "--config", cfg])
        text = open(os.path.join(str(tmp_path / "out"),
                                 "theta_decay_pm_t0.5.csv")).read()
        # 17 significant digits on at least one value
        assert any(len(tok.split(".")[-1].rstrip("0")) >= 14
                   for tok in text.split(",") if "." in tok)


class _Reads(dict):
    """A config section that records which keys are read."""

    def __init__(self, section, seen):
        super().__init__(section)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)


def test_readme_config_block_matches_the_schema(tmp_path):
    # the README's config block names every schema key, section by
    # section, and shows every default the schema has
    import configparser

    readme = (Path(__file__).resolve().parent.parent
              / "README.md").read_text(encoding="utf-8")
    assert readme.count("```ini\n") == 1
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    cp.read_string(block)
    assert {sec: set(cp[sec]) for sec in cp.sections()} == \
        {sec: set(keys) for sec, keys in _SCHEMA.items()}
    path = tmp_path / "readme.ini"
    path.write_text(block, encoding="utf-8")
    cfg = parse_config(str(path))
    shown = {(sec, key): cfg[sec][key] for sec, keys in _SCHEMA.items()
             for key, spec in keys.items() if spec.default is not None}
    assert shown == {(sec, key): spec.default
                     for sec, keys in _SCHEMA.items()
                     for key, spec in keys.items()
                     if spec.default is not None}


def test_every_schema_key_is_read(tmp_path, monkeypatch):
    import bandlab.cli as cli
    seen = {sec: set() for sec in _SCHEMA}
    parse = cli.parse_config

    def recording_parse(path):
        return {sec: _Reads(keys, seen[sec])
                for sec, keys in parse(path).items()}

    monkeypatch.setattr(cli, "parse_config", recording_parse)
    runs = [("translation_invariant", c) for c in _CLI_COMMANDS
            if c != "report"]
    runs += [(kind, "validate") for kind in ("wegner_orbital", "block_flat")]
    for i, (kind, command) in enumerate(runs):
        cfg = write_config(tmp_path / f"c{i}.ini", model={"type": kind},
                           mc={"replicas": 2})
        assert main([command, "--config", cfg]) in (0, 1)
    unread = {(sec, key) for sec, keys in _SCHEMA.items() for key in keys
              if key not in seen[sec]}
    assert not unread


class TestMonteCarloCommands:
    def test_locallaw_small(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini")
        code = main(["locallaw", "--config", cfg])
        rep = read_json(str(tmp_path / "out"), "locallaw.json")
        assert code == 0
        assert rep["ward_violations"] == 0
        assert rep["pass"] is True
        assert os.path.exists(os.path.join(str(tmp_path / "out"),
                                           "locallaw_blocks.csv"))

    @pytest.mark.parametrize("command", ["locallaw", "diffusion"])
    def test_nan_ward_residual_is_a_violation(self, command, tmp_path,
                                              monkeypatch):
        # ward_violations counts replicas: of five, one has a NaN residual
        # and two are above the gate
        import bandlab.montecarlo as mc

        residuals = iter([1e-16, float("nan"), 1e-3, 1e-16, 1.0])
        monkeypatch.setattr(mc, "ward_gate_residual",
                            lambda gf: next(residuals))
        cfg = write_config(tmp_path / "c.ini", mc={"replicas": 5})
        assert main([command, "--config", cfg]) == 1
        rep = read_json(str(tmp_path / "out"), f"{command}.json")
        assert rep["completed"] == 5
        assert rep["ward_violations"] == 3
        assert rep["pass"] is False

    @pytest.mark.parametrize("command", ["locallaw", "diffusion"])
    def test_every_ward_residual_nan_is_a_violation(self, command, tmp_path,
                                                    monkeypatch):
        import bandlab.montecarlo as mc

        monkeypatch.setattr(mc, "ward_gate_residual",
                            lambda gf: float("nan"))
        cfg = write_config(tmp_path / "c.ini", mc={"replicas": 3})
        assert main([command, "--config", cfg]) == 1
        rep = read_json(str(tmp_path / "out"), f"{command}.json")
        assert rep["ward_violations"] == rep["completed"] == 3
        assert rep["pass"] is False

    def test_non_hermitian_H_trips_the_ward_gate(self, tmp_path,
                                                 monkeypatch):
        # failing control: i 1e-6 on the diagonal leaves H in the band, so
        # green solves it to its residual, but H is no longer Hermitian and
        # the Ward identity fails in every replica
        import bandlab.montecarlo as mc

        draw = mc.sample_H

        def perturbed(band, rng, out=None):
            # the replica draws into H's layer rows
            H = draw(band, rng, out=out)
            H.data[band.diag] += 1e-6j
            return H

        cfg = write_config(tmp_path / "c.ini", mc={"replicas": 3})
        assert main(["locallaw", "--config", cfg]) == 0
        assert read_json(str(tmp_path / "out"),
                         "locallaw.json")["ward_violations"] == 0
        monkeypatch.setattr(mc, "sample_H", perturbed)
        assert main(["locallaw", "--config", cfg]) == 1
        rep = read_json(str(tmp_path / "out"), "locallaw.json")
        assert rep["failures"] == []
        assert rep["ward_violations"] == rep["completed"] == 3
        assert rep["pass"] is False

    @pytest.mark.parametrize("command", ["locallaw", "diffusion"])
    def test_corrupted_pivot_inverse_fails_every_replica(self, command,
                                                         tmp_path,
                                                         monkeypatch):
        # failing control: pivot inverses off by a relative 1e-6 must trip
        # green's residual gate in every replica; nothing else in bandlab
        # calls np.linalg.inv
        import numpy as np

        inverse = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv",
                            lambda P: inverse(P) * (1 + 1e-6))
        cfg = write_config(tmp_path / "c.ini", mc={"replicas": 2})
        assert main([command, "--config", cfg]) == 1
        rep = read_json(str(tmp_path / "out"), f"{command}.json")
        assert rep["completed"] == 0
        assert [r for r, _ in rep["failures"]] == [0, 1]
        assert all(msg.startswith("GreenSolveError: resolvent residual")
                   for _, msg in rep["failures"])
        assert rep["pass"] is False

    @pytest.mark.parametrize("command", ["locallaw", "diffusion", "deloc",
                                         "que"])
    def test_one_failed_replica_fails_the_command(self, command, tmp_path,
                                                  monkeypatch):
        # failing control: the config passes when every replica completes;
        # deloc's bound is vacuous at W = 5, n = 5, so it runs at d = 2
        import bandlab.montecarlo as mc

        model = {"d": 2, "W": 3, "n": 5, "cutoff": 2} \
            if command == "deloc" else {}
        cfg = write_config(tmp_path / "c.ini", model=model,
                           mc={"replicas": 4})
        assert main([command, "--config", cfg]) == 0
        original = getattr(mc, f"{command}_replica_fn")

        def failing_factory(*args, **kwargs):
            fn, reducers = original(*args, **kwargs)

            def replica(index, rng):
                if index == 0:
                    raise mc.GreenSolveError("injected failure")
                return fn(index, rng)
            return replica, reducers

        monkeypatch.setattr(mc, f"{command}_replica_fn", failing_factory)
        assert main([command, "--config", cfg]) == 1
        rep = read_json(str(tmp_path / "out"), f"{command}.json")
        assert rep["completed"] == rep["replicas"] - 1 == 3
        assert rep["failures"] == [[0, "GreenSolveError: injected failure"]]
        assert rep["pass"] is False

    def test_locallaw_determinism_across_parallelism(self, tmp_path):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        c1 = write_config(tmp_path / "c1.ini", mc={"parallelism": 1},
                          output={"directory": str(out1)})
        c2 = write_config(tmp_path / "c2.ini", mc={"parallelism": 4},
                          output={"directory": str(out2)})
        assert main(["locallaw", "--config", c1]) == 0
        assert main(["locallaw", "--config", c2]) == 0
        b1 = open(out1 / "locallaw.json", "rb").read()
        b2 = open(out2 / "locallaw.json", "rb").read()
        assert b1 == b2

    def test_seed_override_changes_report(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini")
        main(["locallaw", "--config", cfg])
        rep1 = read_json(str(tmp_path / "out"), "locallaw.json")
        main(["locallaw", "--config", cfg, "--seed", "7"])
        rep2 = read_json(str(tmp_path / "out"), "locallaw.json")
        assert rep1["master_seed"] == 20260809
        assert rep2["master_seed"] == 7
        assert rep1["block_residual_max_mean"] != \
            rep2["block_residual_max_mean"]

    @pytest.mark.parametrize("command", ["locallaw", "diffusion", "deloc",
                                         "que"])
    def test_stream_version_and_parallelism_byte_identity(self, command,
                                                          tmp_path):
        import bandlab.montecarlo as mc

        reports = []
        for par in (1, 8):
            out = tmp_path / f"par{par}"
            cfg = write_config(tmp_path / f"par{par}.ini",
                               mc={"replicas": 9, "parallelism": par},
                               output={"directory": str(out)})
            assert main([command, "--config", cfg]) in (0, 1)
            reports.append((out / f"{command}.json").read_bytes())
        assert reports[0] == reports[1]
        rep = json.loads(reports[0])
        assert rep["stream_version"] == mc.STREAM_VERSION == 3

    def test_no_replica_solves_an_n_by_n_system(self, tmp_path,
                                                monkeypatch):
        import numpy as np

        shapes, solve, inv = [], np.linalg.solve, np.linalg.inv

        def sized_solve(A, B):
            shapes.append(A.shape)
            return solve(A, B)

        def sized_inv(A):
            shapes.append(A.shape)
            return inv(A)

        monkeypatch.setattr(np.linalg, "solve", sized_solve)
        monkeypatch.setattr(np.linalg, "inv", sized_inv)
        cfg = write_config(tmp_path / "c.ini", model={"W": 33, "n": 15},
                           spectral={"eta": 0.2}, mc={"replicas": 1})
        assert main(["locallaw", "--config", cfg]) in (0, 1)
        assert read_json(str(tmp_path / "out"), "locallaw.json")[
            "completed"] == 1
        # the README lattice (N = 495) is a ring of 15 layers of one block
        # row each: every solve and every inverse is one layer, 33 x 33
        assert shapes and set(shapes) == {(33, 33)}

    @pytest.mark.parametrize("command", ["deloc", "que"])
    def test_no_replica_calls_eigh(self, command, tmp_path, monkeypatch):
        # deloc's eigenpairs come from zheevr in numpy's OpenBLAS, que's
        # from the layer ring, whose Rayleigh-Ritz steps are small
        import numpy as np

        import bandlab.montecarlo as mc

        lib = mc._openblas()
        if lib is None or lib.zheevr is None or lib.zhetrf is None:
            pytest.skip("numpy's OpenBLAS lacks LAPACKE_zheevr or zhetrf")
        eigh = np.linalg.eigh

        def refuse(a, *args, **kwargs):
            if len(a) == 495:
                raise AssertionError(f"{command} called an N x N "
                                     f"np.linalg.eigh")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        cfg = write_config(tmp_path / "c.ini", model={"W": 33, "n": 15},
                           spectral={"eta": 0.2}, mc={"replicas": 2})
        assert main([command, "--config", cfg]) in (0, 1)
        rep = read_json(str(tmp_path / "out"), f"{command}.json")
        assert rep["completed"] == 2 and rep["failures"] == []

    @pytest.mark.parametrize("command", ["locallaw", "diffusion", "deloc",
                                         "que"])
    def test_never_assembles_the_profile(self, command, tmp_path,
                                         monkeypatch):
        from bandlab.profiles import VarianceProfile

        def refuse(self):
            raise AssertionError(f"{command} assembled the N x N profile")

        monkeypatch.setattr(VarianceProfile, "assemble", refuse)
        cfg = write_config(tmp_path / "c.ini", mc={"replicas": 2})
        assert main([command, "--config", cfg]) in (0, 1)
        rep = read_json(str(tmp_path / "out"), f"{command}.json")
        assert rep["completed"] == 2

    def test_diffusion_small(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", mc={"replicas": 100})
        code = main(["diffusion", "--config", cfg])
        rep = read_json(str(tmp_path / "out"), "diffusion.json")
        assert code == 0
        assert rep["breaches"] == []
        assert os.path.exists(os.path.join(str(tmp_path / "out"),
                                           "diffusion_pairs.csv"))

    def test_deloc_localized_control_fails(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini",
                           model={"type": "mean_field", "W": 1, "n": 30},
                           mc={"replicas": 3})
        assert main(["deloc", "--config", cfg]) == 1
        rep = read_json(str(tmp_path / "out"), "deloc.json")
        assert rep["vacuous_bound"] is True
        assert rep["sup_norm_sq_max"] >= 0.5

    def test_que_runs(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", mc={"replicas": 3})
        code = main(["que", "--config", cfg])
        assert code in (0, 1)
        rep = read_json(str(tmp_path / "out"), "que.json")
        assert "overlap_dev_sq_max" in rep
        assert 0 <= rep["empty_windows"] <= rep["completed"]

    @pytest.mark.parametrize("fault", ["drop", "duplicate"])
    def test_deloc_count_check_fails_a_lost_pair(self, fault, tmp_path,
                                                 monkeypatch):
        # failing control: zheevr with one windowed pair dropped or
        # repeated still passes the probe, but not the inertia count
        import numpy as np

        import bandlab.montecarlo as mc

        lib = mc._openblas()
        if lib is None or lib.zheevr is None:
            pytest.skip("numpy's OpenBLAS has no LAPACKE_zheevr")
        solve = mc._zheevr

        def faulty(lib, a, out):
            w, z = solve(lib, a, out)
            i = int(np.argmin(np.abs(w)))
            keep = np.r_[:i, i + 1:len(w)] if fault == "drop" \
                else np.r_[:i + 1, i:len(w)]
            return w[keep], z[:, keep]

        cfg = write_config(tmp_path / "c.ini", mc={"replicas": 2})
        main(["deloc", "--config", cfg])
        assert read_json(str(tmp_path / "out"), "deloc.json")[
            "completed"] == 2
        monkeypatch.setattr(mc, "_zheevr", faulty)
        assert main(["deloc", "--config", cfg]) == 1
        rep = read_json(str(tmp_path / "out"), "deloc.json")
        assert rep["completed"] == 0
        off = -1 if fault == "drop" else 1
        assert all(msg.startswith("EigenSolveError: zheevr found ")
                   and msg.endswith(f"the inertia counts {count}")
                   and f"found {count + off} eigenvalues" in msg
                   for _, msg in rep["failures"]
                   for count in [int(msg.rsplit(" ", 1)[1])])

    def test_que_with_pairs_is_byte_identical_across_parallelism(
            self, tmp_path, monkeypatch):
        # que_epsilon = -1 puts a few pairs in every window, and every
        # replica runs shift-invert from its fixed start block: at N = 25
        # the crossover would take every pair from zheevr, so it is moved
        import bandlab.montecarlo as mc

        monkeypatch.setattr(mc, "_ALL_PAIRS_SHARE", 1.0)
        reports = []
        for par in (1, 2, 8):
            out = tmp_path / f"par{par}"
            cfg = write_config(tmp_path / f"par{par}.ini",
                               mc={"replicas": 6, "parallelism": par},
                               checks={"que_epsilon": -1},
                               output={"directory": str(out)})
            assert main(["que", "--config", cfg]) in (0, 1)
            reports.append((out / "que.json").read_bytes())
        assert reports[0] == reports[1] == reports[2]
        rep = json.loads(reports[0])
        assert rep["completed"] == 6 and rep["empty_windows"] == 0

    def test_deloc_is_byte_identical_across_parallelism(self, tmp_path):
        # each deloc worker thread draws into its own H, which zheevr
        # overwrites; a short switch interval makes the workers interleave,
        # which a buffer shared between them would not survive
        reports = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for par in (1, 2, 8):
                out = tmp_path / f"par{par}"
                cfg = write_config(tmp_path / f"par{par}.ini",
                                   model={"W": 15, "n": 9},
                                   mc={"replicas": 12, "parallelism": par},
                                   output={"directory": str(out)})
                assert main(["deloc", "--config", cfg]) in (0, 1)
                reports.append((out / "deloc.json").read_bytes())
        finally:
            sys.setswitchinterval(interval)
        assert reports[0] == reports[1] == reports[2]
        rep = json.loads(reports[0])
        assert rep["completed"] == 12 and rep["failures"] == []

    def test_que_all_windows_empty_is_vacuous(self, tmp_path):
        # a window of half-width W^-30 eta0 holds no eigenvalue
        cfg = write_config(tmp_path / "c.ini", mc={"replicas": 3},
                           checks={"que_epsilon": 30})
        assert main(["que", "--config", cfg]) == 1
        rep = read_json(str(tmp_path / "out"), "que.json")
        assert rep["vacuous_bound"] is True
        assert rep["empty_windows"] == rep["completed"] == 3
        assert rep["mean_window_count"] == 0.0
        assert rep["pass"] is False

    def test_deloc_all_windows_empty_is_vacuous(self, tmp_path):
        # at N = 495 the bound is not vacuous, but a window of half-width
        # 1e-9 holds no eigenvalue, so there is nothing to bound
        cfg = write_config(tmp_path / "c.ini", model={"W": 33, "n": 15},
                           mc={"replicas": 3},
                           checks={"deloc_window": 1e-9})
        assert main(["deloc", "--config", cfg]) == 1
        rep = read_json(str(tmp_path / "out"), "deloc.json")
        assert rep["threshold"] < 1.0
        assert rep["mean_window_count"] == 0.0
        assert rep["vacuous_bound"] is True
        assert rep["pass"] is False

    @pytest.mark.parametrize("command", ["locallaw", "diffusion", "deloc",
                                         "que"])
    def test_all_replicas_failed_exits_1(self, command, tmp_path,
                                         monkeypatch):
        import bandlab.montecarlo as mc

        def failing(S, rng, out=None):
            raise RuntimeError("injected sampling failure")

        monkeypatch.setattr(mc, "sample_H", failing)
        cfg = write_config(tmp_path / "c.ini", mc={"replicas": 2})
        assert main([command, "--config", cfg]) == 1
        rep = read_json(str(tmp_path / "out"), f"{command}.json")
        assert rep["command"] == command
        assert rep["replicas"] == 2 and rep["completed"] == 0
        assert [r for r, _ in rep["failures"]] == [0, 1]
        assert rep["pass"] is False

    @pytest.fixture
    def blas_threads(self):
        """(get, set) of numpy's OpenBLAS thread count, restored after."""
        import bandlab.montecarlo as mc

        lib = mc._openblas()
        if lib is None:
            pytest.skip("numpy has no bundled OpenBLAS")
        get, set_ = lib.get_threads, lib.set_threads
        before = get()
        yield get, set_
        set_(before)

    # kloop's Ward rows, k2_theta_consistency and cyclic_invariance at the
    # d = 2 step config moved with the ambient thread count
    @pytest.mark.parametrize("command,model,spectral", [
        ("locallaw", {"W": 15, "n": 15}, {}),
        ("deloc", {"W": 15, "n": 15}, {}),
        ("kloop", {"d": 2, "W": 5, "n": 9, "cutoff": 2},
         {"t_values": "0.9"})], ids=["locallaw", "deloc", "kloop"])
    def test_reports_ignore_ambient_blas_threads(self, command, model,
                                                 spectral, tmp_path,
                                                 blas_threads):
        get, set_ = blas_threads
        reports = []
        for threads in (2, 1):
            out = tmp_path / f"blas{threads}"
            cfg = write_config(tmp_path / f"blas{threads}.ini",
                               model=model, spectral=spectral,
                               mc={"replicas": 4, "parallelism": 2},
                               output={"directory": str(out)})
            set_(threads)
            assert main([command, "--config", cfg]) in (0, 1)
            assert get() == threads
            reports.append((out / f"{command}.json").read_bytes())
        assert reports[0] == reports[1]

    def test_blas_threads_pinned_and_restored_when_replicas_fail(
            self, tmp_path, monkeypatch, blas_threads):
        import bandlab.montecarlo as mc

        get, set_ = blas_threads
        inside = []

        def failing(S, rng, out=None):
            inside.append(get())
            raise RuntimeError("injected sampling failure")

        monkeypatch.setattr(mc, "sample_H", failing)
        cfg = write_config(tmp_path / "c.ini", mc={"replicas": 2})
        set_(2)
        assert main(["locallaw", "--config", cfg]) == 1
        assert inside == [1, 1]
        assert get() == 2

    def test_report_aggregates(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini")
        main(["flow", "--config", cfg])
        main(["validate", "--config", cfg])
        code = main(["report", "--out", str(tmp_path / "out")])
        assert code == 0
        rep = read_json(str(tmp_path / "out"), "report.json")
        assert {e["command"] for e in rep["entries"]} >= {"flow", "validate"}

    def test_report_flags_failure(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", model={"type": "mean_field"})
        main(["validate", "--config", cfg])
        assert main(["report", "--out", str(tmp_path / "out")]) == 1

    def test_report_of_no_command_report_fails(self, tmp_path, capsys):
        # a directory that holds no command's report has nothing to pass
        out = tmp_path / "out"
        out.mkdir()
        (out / "note.json").write_text('"pass"')
        assert main(["report", "--out", str(out)]) == 1
        rep = read_json(str(out), "report.json")
        assert rep["entries"] == [] and rep["pass"] is False
        assert f"{str(out)!r} holds no command report" in \
            capsys.readouterr().err

    def test_report_skips_non_object_json(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini")
        assert main(["flow", "--config", cfg]) == 0
        out = tmp_path / "out"
        (out / "note.json").write_text('"pass"')
        (out / "list.json").write_text("[1, 2]")
        assert main(["report", "--out", str(out)]) == 0
        rep = read_json(str(out), "report.json")
        assert [e["file"] for e in rep["entries"]] == ["flow.json"]


# ---- exit-code contract fuzz -------------------------------------------------

_COMMANDS = tuple(sorted(_CLI_COMMANDS))
_NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1,
                 max_size=8)
# keys whose value must parse as a number, a boolean or a number list
_TYPED_KEYS = tuple((sec, key) for sec, keys in _SCHEMA.items()
                    for key, spec in keys.items() if spec.parse is not str)


def _ini(sections):
    lines = []
    for sec, kv in sections.items():
        lines.append(f"[{sec}]")
        lines += [f"{k} = {v}" for k, v in kv.items()]
    return "\n".join(lines) + "\n"


def _run(text, command):
    """Exit code of ``command`` on config ``text``, and its report, or None
    when the command wrote no file at all."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out")
        code = main([command, "--config", path, "--out", out])
        if not (os.path.isdir(out) and os.listdir(out)):
            return code, None
        return code, read_json(out, f"{command}.json")


def _valid_model():
    d1 = st.fixed_dictionaries({"d": st.just(1),
                                "W": st.sampled_from([1, 3, 5]),
                                "n": st.sampled_from([3, 4, 5])})
    d2 = st.fixed_dictionaries({"d": st.just(2),
                                "W": st.sampled_from([1, 3]),
                                "n": st.just(3)})
    return st.tuples(st.sampled_from(["translation_invariant",
                                      "wegner_orbital", "block_flat",
                                      "mean_field"]),
                     st.one_of(d1, d2)).map(
        lambda kv: {"type": kv[0], **kv[1], "neighbor_weight": 0.1})


def _base():
    return {"model": {"type": "translation_invariant", "W": 3, "n": 5},
            "mc": {"replicas": 2, "parallelism": 1}}


def _window_base():
    return {**_base(),
            "model": {"type": "translation_invariant", "W": 5, "n": 6}}


@st.composite
def _malformed(draw):
    """Tiny config text with exactly one schema violation; the values
    outside a key's domain come from the table, in TestSchemaDomains."""
    sections = _base()
    kind = draw(st.sampled_from(["section", "key", "value", "type",
                                 "header"]))
    if kind == "section":
        sections[draw(_NAMES.filter(lambda s: s not in _SCHEMA))] = {"a": 1}
    elif kind == "key":
        sec = draw(st.sampled_from(sorted(_SCHEMA)))
        key = draw(_NAMES.filter(lambda k: k not in _SCHEMA[sec]))
        sections.setdefault(sec, {})[key] = 1
    elif kind == "value":
        sec, key = draw(st.sampled_from(_TYPED_KEYS))
        sections.setdefault(sec, {})[key] = draw(
            st.sampled_from(["", "x", "1..5", "0x1g", "one,two"]))
    elif kind == "type":
        del sections["model"]["type"]
    else:
        return _ini(sections).split("\n", 1)[1]
    return _ini(sections)


_DIAGONAL = _ini({**_base(), "model": {**_base()["model"], "cutoff": 0}})


def _wegner(**model):
    return {"type": "wegner_orbital", "d": 1, "W": 3, "n": 5, **model}


# alpha outside [0, 1/(2d)], or gamma with a negative ripple factor
# 1 + gamma cos(pi k/W), |k| < W, or a zero one at k = 0: gamma outside
# (-1, 1/cos(pi/W)] for W >= 2. gamma = -1 exited 2 as "rows are not
# normalizable", a message that names no key
_WEGNER_OUT_OF_RANGE = [
    _wegner(d=2, wegner_alpha=0.3), _wegner(d=2, wegner_alpha=0.2500001),
    _wegner(wegner_alpha=-0.1), _wegner(wegner_alpha=0.6),
    _wegner(wegner_gamma=3), _wegner(wegner_gamma=-1.5),
    _wegner(wegner_gamma=-1.0000001), _wegner(W=5, wegner_gamma=1.25),
    _wegner(d=2, W=1, wegner_gamma=-1.5), _wegner(wegner_gamma=-1)]


class TestExitCodeContract:
    @settings(max_examples=40, deadline=None)
    @given(text=_malformed(), command=st.sampled_from(_COMMANDS))
    # an empty flow-time list made kloop raise IndexError
    @example(text=_ini({**_base(), "spectral": {"t_values": ""}}),
             command="kloop")
    # E = nan parsed, and que failed both replicas and exited 1
    @example(text=_ini({**_base(), "spectral": {"E": "nan"}}),
             command="que")
    # each of these parsed, and every replica failed in LAPACK with exit 1:
    # zheevr found 0 eigenvalues in the window, the inertia counts -26
    @example(text=_ini({**_window_base(), "checks": {"deloc_window": -1.5}}),
             command="deloc")
    # and LAPACKE_zhetrf failed with info -4
    @example(text=_ini({**_window_base(), "checks": {"deloc_window": "nan"}}),
             command="deloc")
    @example(text=_ini({**_window_base(), "checks": {"que_epsilon": "nan"}}),
             command="que")
    # flow times outside (0, 1) parsed: kloop passed at t = 1.2, and theta
    # wrote its t = 0.5 files before it failed at t = 1.0
    @example(text=_ini({**_base(), "spectral": {"t_values": "1.2"}}),
             command="kloop")
    @example(text=_ini({**_base(), "spectral": {"t_values": "0.5, 1.0"}}),
             command="theta")
    # kappa and epsilon0 outside (0, 2) and (0, 1) parsed: flow passed at
    # an energy outside the spectrum, theta refused E = 0 as outside the
    # bulk guard, and validate passed at epsilon0 = 1.5
    @example(text=_ini({**_base(), "spectral": {"kappa": -1, "E": 2.5}}),
             command="flow")
    @example(text=_ini({**_base(), "spectral": {"kappa": 5}}),
             command="theta")
    @example(text=_ini({**_base(), "spectral": {"epsilon0": 1.5}}),
             command="validate")
    @example(text=_ini({**_base(), "spectral": {"epsilon0": 1.5}}),
             command="flow")
    # a non-finite [model] float reached the builders: wegner_alpha = nan
    # failed as "V must be symmetric" and flow passed
    @example(text=_ini({**_base(), "model": {**_base()["model"],
                                             "type": "wegner_orbital",
                                             "wegner_alpha": "nan"}}),
             command="flow")
    # these reached the builder, which refused them as "negative entries
    # are not allowed", a message that names no key
    @example(text=_ini({**_base(), "model": _wegner(d=2, wegner_alpha=0.3)}),
             command="validate")
    @example(text=_ini({**_base(), "model": _wegner(wegner_alpha=-0.1)}),
             command="validate")
    @example(text=_ini({**_base(), "model": _wegner(wegner_gamma=3)}),
             command="validate")
    @example(text=_ini({**_base(), "model": _wegner(wegner_gamma=-1.5)}),
             command="validate")
    # cutoff 0 built a diagonal profile, and validate and locallaw exited 1
    @example(text=_DIAGONAL, command="validate")
    @example(text=_DIAGONAL, command="locallaw")
    def test_malformed_config_exits_2(self, text, command):
        assert _run(text, command) == (2, None)

    @pytest.mark.parametrize("model", _WEGNER_OUT_OF_RANGE)
    def test_out_of_range_wegner_key_is_named(self, model, capsys):
        assert _run(_ini({**_base(), "model": model}), "validate") == (2, None)
        key = "wegner_alpha" if "wegner_alpha" in model else "wegner_gamma"
        assert f"config error: [model] {key}" in capsys.readouterr().err

    # each exits 2 before writing anything: the first two as config errors,
    # the last two in the builder (cutoff*W overlaps its periodic image;
    # block_flat cannot separate the +-1 offsets at n = 2)
    @pytest.mark.parametrize("model", [
        _wegner(d=2, wegner_alpha=0.3), _wegner(wegner_gamma=3),
        {"type": "translation_invariant", "W": 5, "n": 2},
        {"type": "block_flat", "W": 5, "n": 2}])
    @pytest.mark.parametrize("command", ["validate", "locallaw"])
    def test_refused_run_leaves_no_out_directory(self, model, command,
                                                 tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", model=model)
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    # on Z_2 the offsets +e_i and -e_i coincide, and on Z_1 both are 0, so
    # a nearest-neighbor model would lose half its coupling blocks
    @pytest.mark.parametrize("kind", ["wegner_orbital", "block_flat"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [1, 2])
    def test_nearest_neighbor_models_refuse_n_below_3(self, kind, d, n,
                                                      tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini",
                           model={"type": kind, "d": d, "W": 3, "n": n,
                                  "neighbor_weight": 0.1})
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 2
        assert (f"need n >= 3 to separate the +-e_i offsets, got n = {n}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_refused_run_keeps_an_existing_out_directory(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        cfg = write_config(tmp_path / "c.ini",
                           model={"type": "block_flat", "W": 5, "n": 2})
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 2
        assert out.is_dir() and not any(out.iterdir())

    @settings(max_examples=30, deadline=None)
    @given(model=_valid_model(),
           command=st.sampled_from(_COMMANDS).filter(lambda c: c != "report"))
    def test_tiny_valid_config_exits_0_or_1(self, model, command):
        sections = _base()
        sections["model"] = model
        code, rep = _run(_ini(sections), command)
        assert code in (0, 1)
        assert rep["pass"] is (code == 0)


# ---- the schema's domains ----------------------------------------------------

def _undeclared(schema) -> list:
    """Keys whose domain is neither allowed values, an interval nor any
    text: the CLI could not check them."""
    return [f"[{sec}] {key}" for sec, keys in schema.items()
            for key, spec in keys.items()
            if spec.domain is not str
            and not (isinstance(spec.domain, tuple) and spec.domain)]


def _step(x, toward, parse):
    """The value next to ``x`` toward ``toward``: one ulp for a float key,
    one for an integer key."""
    if parse is int:
        return x + (1 if toward > x else -1)
    return float(np.nextafter(float(x), toward))


def _text(value, parse) -> str:
    return str(value) if parse is int else repr(float(value))


def _domain_values(spec, model) -> tuple:
    """(refused, accepted) values of one key at [model] ``model``: each
    open finite end and one step inside it, each closed end and one step
    past it, nan and the infinities for a float, and for allowed values one
    outside them and each of them."""
    dom, parse = spec.domain, spec.parse
    if dom is str:
        return [], []
    if not isinstance(dom, _Interval):
        if parse is int:
            return [min(dom) - 1, max(dom) + 1], list(dom)
        if parse is str:
            return ["not_" + "_".join(dom)], list(dom)
        return ["maybe"], ["true", "false"]
    refused = [] if parse is int else ["nan", "inf", "-inf"]
    accepted = []
    for end, closed, outward in ((dom.lo, dom.brackets[0] == "[", -np.inf),
                                 (dom.hi, dom.brackets[1] == "]", np.inf)):
        if isinstance(end, str):
            end = _MODEL_ENDS[end](model)
        if not math.isfinite(end):
            continue
        inside, outside = (end, _step(end, outward, parse)) if closed \
            else (_step(end, -outward, parse), end)
        refused.append(_text(outside, parse))
        accepted.append(_text(inside, parse))
    return refused, accepted


# each key's domain at two models, so ends that read d or W move
_DOMAIN_MODELS = ({"d": 1, "W": 3}, {"d": 2, "W": 4})


def _domain_cases(schema, refused: bool) -> list:
    cases = []
    for model in _DOMAIN_MODELS:
        for sec, keys in schema.items():
            for key, spec in keys.items():
                values = _domain_values(spec, model)[0 if refused else 1]
                cases += [pytest.param(
                    sec, key, value, model,
                    id=f"{sec}.{key}={value}@d{model['d']}W{model['W']}")
                    for value in values]
    return cases


def _domain_config(tmp_path, sec, key, value, model, model_type=None):
    """A valid tiny config with ``[sec] key = value``, under the model type
    that the key's domain holds for."""
    sections = {"model": {"type": model_type or _SCHEMA[sec][key].model_type
                          or "translation_invariant", **model, "n": 5,
                          "neighbor_weight": 0.1},
                "mc": {"replicas": 2, "parallelism": 1}}
    if key == "t_values":
        value = f"0.5, {value}"
    sections.setdefault(sec, {})[key] = value
    path = tmp_path / "c.ini"
    path.write_text(_ini(sections), encoding="utf-8")
    return str(path)


class TestSchemaDomains:
    def test_every_key_declares_a_domain(self):
        assert _undeclared(_SCHEMA) == []

    def test_a_key_without_a_domain_is_caught(self):
        # failing control: a synthetic key that declares no domain
        synthetic = _Key(float, 1.0, None)
        schema = {**_SCHEMA,
                  "checks": {**_SCHEMA["checks"], "synthetic": synthetic}}
        assert _undeclared(schema) == ["[checks] synthetic"]

    @pytest.mark.parametrize("sec,key,value,model",
                             _domain_cases(_SCHEMA, refused=True))
    def test_value_outside_its_domain_exits_2_naming_the_key(
            self, sec, key, value, model, tmp_path, capsys):
        cfg = _domain_config(tmp_path, sec, key, value, model)
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 2
        assert f"[{sec}] {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sec,key,value,model",
                             _domain_cases(_SCHEMA, refused=False))
    def test_value_at_its_domain_end_parses(self, sec, key, value, model,
                                            tmp_path):
        cfg = parse_config(_domain_config(tmp_path, sec, key, value, model))
        parse = _SCHEMA[sec][key].parse
        want = parse(f"0.5, {value}") if key == "t_values" else parse(value)
        assert cfg[sec][key] == want

    @pytest.mark.parametrize("sec,key,value,model", [
        case for case in _domain_cases(_SCHEMA, refused=True)
        if _SCHEMA[case.values[0]][case.values[1]].model_type
        and case.values[2] not in ("nan", "inf", "-inf")])
    def test_domain_holds_only_under_its_model_type(self, sec, key, value,
                                                    model, tmp_path):
        other = "mean_field"
        cfg = parse_config(_domain_config(tmp_path, sec, key, value, model,
                                          model_type=other))
        assert cfg["model"]["type"] == other

    @pytest.mark.parametrize("model_type", _SCHEMA["model"]["type"].domain)
    @pytest.mark.parametrize("sec,key", [
        (sec, key) for sec, keys in _SCHEMA.items()
        for key, spec in keys.items()
        if isinstance(spec.domain, _Interval) and spec.parse is not int])
    def test_float_is_finite_under_every_model_type(self, sec, key,
                                                    model_type, tmp_path):
        for value in ("nan", "inf", "-inf"):
            path = _domain_config(tmp_path, sec, key, value,
                                  _DOMAIN_MODELS[0], model_type=model_type)
            with pytest.raises(ConfigError, match=re.escape(
                    f"[{sec}] {key} must be finite")):
                parse_config(path)

    @pytest.mark.parametrize("W", range(1, 65))
    def test_wegner_gamma_end_is_the_ripple_predicate(self, W, tmp_path):
        # gamma is accepted exactly when every ripple factor
        # 1 + gamma cos(pi k/W), |k| < W, rounds to >= 0 and 1 + gamma > 0;
        # 1/cos(pi/W) alone misses that verdict one ulp from the end
        def ripple_ok(gamma):
            factors = 1 + gamma * np.cos(np.pi * np.arange(1 - W, W) / W)
            return not (factors.min() < 0 or 1 + gamma <= 0)

        # (no cosine is negative at W <= 2, so there is no upper end)
        ends = [-1.0, 1 / math.cos(math.pi / W),
                wegner_gamma_max(W) if W > 2 else 1e300]
        gammas = {float(np.nextafter(e, t)) for e in ends
                  for t in (-np.inf, np.inf)} | set(ends)
        path = tmp_path / "c.ini"
        for gamma in sorted(gammas):
            path.write_text(_ini({"model": {
                "type": "wegner_orbital", "W": W, "n": 5,
                "wegner_gamma": repr(gamma)}}), encoding="utf-8")
            try:
                parse_config(str(path))
                accepted = True
            except ConfigError as exc:
                assert "[model] wegner_gamma" in str(exc)
                accepted = False
            assert accepted is ripple_ok(gamma), (W, gamma)

    @pytest.mark.parametrize("command", sorted(set(_COMMANDS) - {"report"}))
    def test_unknown_kernel_exits_2_for_every_command(self, command,
                                                      tmp_path, capsys):
        # flow builds no profile and ignored the kernel, exiting 0
        cfg = write_config(tmp_path / "c.ini", model={"kernel": "bogus"})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "config error: [model] kernel = 'bogus' must be one of" \
            in capsys.readouterr().err
        assert not out.exists()
