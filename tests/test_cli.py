import json
import os

import pytest

from bandlab.cli import ConfigError, build_profile, main, parse_config


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
        assert cfg["checks"]["locallaw_tol"] == 5.0
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

    def test_validate_even_w_parity_schema_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", model={"W": 4})
        assert main(["validate", "--config", cfg]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[model]\ntype = mean_field\nW = 3\nn = 3\nnope = 2\n")
        assert main(["validate", "--config", str(p)]) == 2

    def test_zero_replicas_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", mc={"replicas": 0})
        assert main(["locallaw", "--config", cfg]) == 2

    def test_missing_config_exit_2(self):
        assert main(["locallaw"]) == 2

    def test_replicas_override_validation(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini")
        assert main(["locallaw", "--config", cfg, "--replicas", "0"]) == 2


class TestDeterministicCommands:
    def test_flow(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini")
        assert main(["flow", "--config", cfg]) == 0
        rep = read_json(str(tmp_path / "out"), "flow.json")
        assert rep["m_identity_residual"] < 1e-12

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
        for entry in rep["results"]:
            assert entry["invariants"]["transposition"] < 1e-12

    def test_theta_solves_each_propagator_once(self, tmp_path, monkeypatch):
        import bandlab.deterministic as det

        solves = []
        original = det.theta_entrywise

        def counting(*args, **kwargs):
            solves.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(det, "theta_entrywise", counting)
        cfg = write_config(tmp_path / "c.ini",
                           spectral={"t_values": "0.5,0.9"})
        assert main(["theta", "--config", cfg]) == 0
        # per flow time, one LU solve for Theta(+,-) and one for Theta(+,+)
        assert len(solves) == 2 * 2

    def test_kloop(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini")
        assert main(["kloop", "--config", cfg]) == 0
        rep = read_json(str(tmp_path / "out"), "kloop.json")
        ward_rows = [r for r in rep["rows"] if r[0] == "ward"]
        assert len(ward_rows) == 6
        assert all(r[2] < 1e-9 for r in ward_rows)

    def test_csv_float_precision(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", spectral={"t_values": "0.5"})
        main(["theta", "--config", cfg])
        text = open(os.path.join(str(tmp_path / "out"),
                                 "theta_decay_pm_t0.5.csv")).read()
        # 17 significant digits on at least one value
        assert any(len(tok.split(".")[-1].rstrip("0")) >= 14
                   for tok in text.split(",") if "." in tok)


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

    @pytest.mark.parametrize("command", ["locallaw", "diffusion", "deloc",
                                         "que"])
    def test_all_replicas_failed_exits_1(self, command, tmp_path,
                                         monkeypatch):
        import bandlab.montecarlo as mc

        def failing(S, rng):
            raise RuntimeError("injected sampling failure")

        monkeypatch.setattr(mc, "sample_H", failing)
        cfg = write_config(tmp_path / "c.ini", mc={"replicas": 2})
        assert main([command, "--config", cfg]) == 1
        rep = read_json(str(tmp_path / "out"), f"{command}.json")
        assert rep["command"] == command
        assert rep["replicas"] == 2 and rep["completed"] == 0
        assert [r for r, _ in rep["failures"]] == [0, 1]
        assert rep["pass"] is False

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
