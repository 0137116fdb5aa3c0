"""Batch front end: config-driven experiments with JSON/CSV/plot reports.

Config files are INI ("key = value" under sections); unknown sections or
keys are hard errors. Exit codes: 0 all requested checks pass, 1 a check
failed (the report names the breaching cell) or no Monte Carlo replica
completed, 2 config/schema error. Each command returns its report; ``main``
writes it as ``<command>.json``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import deterministic as det
from . import montecarlo as mc
from . import profiles as prof
from . import spectral as spec
from .lattice import BlockLattice
from .reporting import digest, write_csv, write_json, write_plot_data

__all__ = ["main", "parse_config", "build_profile", "ConfigError",
           "AllReplicasFailed"]


class ConfigError(Exception):
    """Schema violation in a config file or CLI arguments."""


class AllReplicasFailed(Exception):
    """No replica of a Monte Carlo command completed; carries its report."""

    def __init__(self, report):
        super().__init__(f"all {report['replicas']} replicas failed")
        self.report = report


def _parse_bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_floats(text):
    return tuple(float(v) for v in str(text).split(",") if v.strip())


_SCHEMA = {
    "model": {
        "type": (str, None),
        "d": (int, 1),
        "W": (int, None),
        "n": (int, None),
        "kernel": (str, "uniform"),
        "cutoff": (int, 1),
        "neighbor_weight": (float, 0.25),
        "wegner_alpha": (float, 0.05),
        "wegner_gamma": (float, 0.5),
    },
    "spectral": {
        "E": (float, 0.0),
        "eta": (float, 0.1),
        "kappa": (float, 0.05),
        "epsilon0": (float, 0.2),
        "t_values": (_parse_floats, (0.3, 0.9)),
    },
    "mc": {
        "replicas": (int, 50),
        "master_seed": (int, 20260809),
        "parallelism": (int, None),
    },
    "checks": {
        "tolerance_scale": (float, 1.0),
        "parity": (_parse_bool, True),
        "eps_inter": (float, 0.1),
        "p_samples": (int, 64),
        "locallaw_tol": (float, 5.0),
        "deloc_log_power": (float, 3.0),
        "deloc_window": (float, 1.5),
        "diffusion_sigma": (float, 3.0),
        "diffusion_rel": (float, 0.1),
        "decay_factor": (float, 3.0),
        "same_charge_decay": (float, 3.0),
        "contraction_factor": (float, 10.0),
        "ward_tol": (float, 1e-9),
        "kloop_dt": (float, 1e-3),
        "kloop_tol": (float, 1e-4),
        "ward_gate": (float, 1e-10),
        "que_c": (float, 0.5),
        "que_epsilon": (float, 0.1),
    },
    "output": {
        "directory": (str, "out"),
        "formats": (str, "json,csv,gnuplot"),
    },
}

_MODEL_TYPES = ("translation_invariant", "wegner_orbital", "block_flat",
                "mean_field")


def parse_config(path: str) -> dict:
    """Parse and schema-validate an INI config; unknown keys are errors."""
    import configparser

    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keys are case-sensitive (W vs w)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    cfg = {sec: {k: v for k, (_, v) in keys.items()}
           for sec, keys in _SCHEMA.items()}
    for sec in cp.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
        for key, raw in cp.items(sec):
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown key '{key}' in section [{sec}]")
            parser, _ = _SCHEMA[sec][key]
            try:
                cfg[sec][key] = parser(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for [{sec}] {key} = {raw!r}: {exc}") from exc
    _check_required(cfg)
    return cfg


def _check_required(cfg):
    model = cfg["model"]
    if model["type"] is None:
        raise ConfigError("[model] type is required")
    if model["type"] not in _MODEL_TYPES:
        raise ConfigError(f"[model] type must be one of {_MODEL_TYPES}")
    for key in ("W", "n"):
        if model[key] is None:
            raise ConfigError(f"[model] {key} is required")
        if model[key] < 1:
            raise ConfigError(f"[model] {key} must be >= 1")
    if model["d"] not in (1, 2):
        raise ConfigError("[model] d must be 1 or 2")
    if cfg["mc"]["replicas"] < 1:
        raise ConfigError("[mc] replicas must be >= 1")
    if cfg["mc"]["parallelism"] is None:
        env = os.environ.get("BANDLAB_THREADS", "").strip()
        cfg["mc"]["parallelism"] = int(env) if env else 1
    if cfg["mc"]["parallelism"] < 1:
        raise ConfigError("[mc] parallelism must be >= 1")


def canonical_config(cfg: dict) -> dict:
    """Config as embedded in reports: scheduling/output location excluded."""
    out = {sec: dict(keys) for sec, keys in cfg.items()}
    out["mc"].pop("parallelism", None)
    out["output"].pop("directory", None)
    return out


def build_profile(cfg) -> prof.VarianceProfile:
    model = cfg["model"]
    lat = BlockLattice(d=model["d"], W=model["W"], n=model["n"])
    kind = model["type"]
    if kind == "mean_field":
        return prof.mean_field_profile(lat)
    if kind == "translation_invariant":
        kernel = prof.KERNELS.get(model["kernel"])
        if kernel is None:
            raise ConfigError(f"unknown kernel {model['kernel']!r}")
        return prof.build_translation_invariant(lat, kernel, model["cutoff"],
                                                name=model["kernel"])
    if kind == "block_flat":
        return prof.block_flat_profile(lat, model["neighbor_weight"])
    # wegner_orbital: non-flat potential block with parity-symmetric ripple
    W, d = lat.W, lat.d
    wd = lat.block_volume
    gamma = model["wegner_gamma"]
    axes = np.arange(W)
    ripple = np.ones((wd, wd))
    for ax in range(d):
        o1 = axes.reshape([-1 if i == ax else 1 for i in range(d)])
        flat1 = np.broadcast_to(o1, (W,) * d).ravel()
        s = flat1[:, None] + flat1[None, :]
        ripple = ripple * (1.0 + gamma * np.cos(np.pi * (s - W + 1) / W))
    alpha = model["wegner_alpha"]
    base = (1.0 - 2 * d * alpha) / wd
    V = base * ripple
    flat = np.full((wd, wd), alpha / wd)
    A = {}
    for ax in range(d):
        for sign in (1, -1):
            coord = [0] * d
            coord[ax] = sign % lat.n
            A[lat.block_index(tuple(coord))] = flat
    return prof.build_wegner_orbital(lat, V, A)


def _formats(cfg):
    return {f.strip() for f in cfg["output"]["formats"].split(",")}


def _base_report(cfg, command, profile=None):
    canon = canonical_config(cfg)
    rep = {
        "command": command,
        "config": canon,
        "config_digest": digest(canon),
    }
    if profile is not None:
        rep["profile_digest"] = digest(prof.profile_to_text(profile))
    return rep


# ---- commands -------------------------------------------------------------------------


def cmd_validate(cfg, outdir):
    model = cfg["model"]
    check_parity = cfg["checks"]["parity"]
    if check_parity and model["W"] % 2 == 0:
        raise ConfigError(
            "parity check requires odd W; set [checks] parity = false "
            "or use an odd band width")
    profile = build_profile(cfg)
    report = prof.validate(profile, eps_inter=cfg["checks"]["eps_inter"],
                           p_samples=cfg["checks"]["p_samples"],
                           check_parity=check_parity)
    passed = (report.doubly_stochastic and report.symmetric
              and report.fullness > 0
              and (report.parity_ok or not check_parity)
              and report.interaction_ok)
    rep = _base_report(cfg, "validate", profile)
    rep.update({"validation": report.to_dict(), "pass": bool(passed)})
    lines = [f"profile: {profile.builder}  d={model['d']} W={model['W']} "
             f"n={model['n']}"]
    for key, val in report.to_dict().items():
        lines.append(f"  {key}: {val}")
    lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
    with open(os.path.join(outdir, "validate.txt"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return rep


def _flow_m(cfg):
    """Boundary m(E) at the configured energy (flow convention, |m| = 1)."""
    E = cfg["spectral"]["E"]
    if abs(E) > 2 - cfg["spectral"]["kappa"]:
        raise ConfigError("E outside the bulk guard")
    return spec.stieltjes_m(complex(E, 0.0))


def cmd_theta(cfg, outdir):
    profile = build_profile(cfg)
    lat = profile.lattice
    S = profile.assemble()
    lam = math.sqrt(prof.interaction_strength(profile))
    mE = _flow_m(cfg)
    factor = cfg["checks"]["decay_factor"] * cfg["checks"]["tolerance_scale"]
    same_cap = cfg["checks"]["same_charge_decay"]
    results = []
    passed = True
    fmts = _formats(cfg)
    for t in cfg["spectral"]["t_values"]:
        St = t * S
        ell = spec.ell_t(lam, t, lat.n)
        for pair in ((1, -1), (1, 1)):
            th = det.theta(lat, St, pair, mE)
            decay = det.theta_decay_report(lat, th, ell)
            fd = det.finite_difference_report(lat, th, lam, t) \
                if pair == (1, -1) else None
            inv = det.propagator_invariants(lat, th)
            name = f"{'pm' if pair == (1, -1) else 'pp'}_t{t:g}"
            if "csv" in fmts:
                write_csv(os.path.join(outdir, f"theta_decay_{name}.csv"),
                          ["distance", "value_re", "value_im", "abs",
                           "fit_prediction"], decay.to_csv_rows())
            if "gnuplot" in fmts:
                write_plot_data(os.path.join(outdir, f"theta_decay_{name}.dat"),
                                ["distance", "abs", "fit"],
                                [(r, a, p_) for (r, _, _, a, p_)
                                 in decay.to_csv_rows()],
                                script_title=f"theta decay {name}")
            entry = {
                "pair": list(pair), "t": t, "ell_t": ell,
                "decay_length": decay.decay_length,
                "fit_slope": decay.fit_slope,
                "monotone_ok": decay.monotone_ok,
                "invariants": inv,
            }
            if pair == (1, -1):
                ok = decay.decay_length <= factor * ell
                entry["bound"] = factor * ell
                entry["fd_max_first_ratio"] = fd.max_first_ratio
                entry["fd_max_second_ratio"] = fd.max_second_ratio
            else:
                ok = decay.decay_length <= same_cap
                entry["bound"] = same_cap
            entry["pass"] = bool(ok)
            passed = passed and ok
            results.append(entry)
    rep = _base_report(cfg, "theta", profile)
    rep.update({"lambda": lam, "results": results, "pass": bool(passed)})
    return rep


def cmd_kloop(cfg, outdir):
    profile = build_profile(cfg)
    lat = profile.lattice
    S = profile.assemble()
    mE = _flow_m(cfg)
    t = cfg["spectral"]["t_values"][0]
    St = t * S
    eta_t = (1 - t) * mE.imag
    ward_tol = cfg["checks"]["ward_tol"] * cfg["checks"]["tolerance_scale"]
    rows = []
    passed = True
    calc = det.KLoopCalculator(lat, St, mE)

    # Ward identities for every admissible signature of orders 2 and 3
    for charges in [(1, -1), (-1, 1),
                    (1, 1, -1), (1, -1, -1), (-1, -1, 1), (-1, 1, 1)]:
        res = det.ward_residual(lat, St, mE, eta_t, charges, calc=calc)
        ok = res < ward_tol
        passed = passed and ok
        rows.append(("ward", "".join("+" if c > 0 else "-" for c in charges),
                     res, ward_tol, "pass" if ok else "FAIL"))

    # K^(2): recursion path against the theta path
    ktheta_dev = 0.0
    for pair in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        dev = float(np.abs(calc.k_tensor(pair, via="recursion")
                           - calc.k_tensor(pair, via="theta")).max())
        ktheta_dev = max(ktheta_dev, dev)
    ok = ktheta_dev < 1e-12
    passed = passed and ok
    rows.append(("k2_theta_consistency", "all pairs", ktheta_dev, 1e-12,
                 "pass" if ok else "FAIL"))

    # shift invariance of the entrywise loop
    sig = (1, 1, -1)
    t1 = calc.khat_tensor(sig)
    t2 = calc.khat_tensor((1, -1, 1))
    shift_dev = float(np.abs(t1 - t2.transpose(2, 0, 1)).max())
    ok = shift_dev < 1e-12
    passed = passed and ok
    rows.append(("shift_invariance", "++-", shift_dev, 1e-12,
                 "pass" if ok else "FAIL"))

    # flow-derivative residual, second-order in dt
    dt = cfg["checks"]["kloop_dt"]
    tol = cfg["checks"]["kloop_tol"] * cfg["checks"]["tolerance_scale"]
    r_full = det.kloop_flow_derivative_residual(lat, St, mE, (1, -1), dt)
    r_half = det.kloop_flow_derivative_residual(lat, St, mE, (1, -1), dt / 2)
    ok = r_full < tol and r_half < r_full / 3.0
    passed = passed and ok
    rows.append(("flow_derivative", f"dt={dt:g}", r_full, tol,
                 "pass" if ok else "FAIL"))
    rows.append(("flow_derivative", f"dt={dt / 2:g}", r_half, r_full / 3.0,
                 "pass" if ok else "FAIL"))

    if "csv" in _formats(cfg):
        write_csv(os.path.join(outdir, "kloop_residuals.csv"),
                  ["check", "detail", "residual", "tolerance", "status"],
                  rows)
    rep = _base_report(cfg, "kloop", profile)
    rep.update({
        "t": t, "eta_t": eta_t,
        "rows": [list(r) for r in rows],
        "pass": bool(passed),
    })
    return rep


def cmd_flow(cfg, outdir):
    sp = cfg["spectral"]
    z = complex(sp["E"], sp["eta"])
    params = spec.select_parameters(z, sp["epsilon0"], kappa=sp["kappa"])
    r1, r2 = params.identity_residuals()
    mE = params.m_target
    ts = np.linspace(params.t_i, 1.0, 100, endpoint=False)
    invariance = max(abs(1 + spec.flow_point(params, t) * mE + t * mE * mE)
                     for t in ts)
    ratio = [spec.flow_point(params, t).imag / (1 - t) for t in ts]
    ratio_dev = float(np.ptp(ratio))
    passed = r1 < 1e-12 and r2 < 1e-12 and invariance < 1e-12 \
        and ratio_dev < 1e-12
    rep = _base_report(cfg, "flow")
    rep.update({
        "z": {"re": z.real, "im": z.imag},
        "t_i": params.t_i, "t_f": params.t_f, "E_target": params.E_target,
        "m_identity_residual": r1, "z_identity_residual": r2,
        "m_invariance_residual": float(invariance),
        "eta_ratio_deviation": ratio_dev,
        "pass": bool(passed),
    })
    return rep


def _run_ensemble(cfg, rep, fn, reducers):
    """Run the command's replicas and add their counts to ``rep``.

    Raises AllReplicasFailed with ``rep`` marked failing when no replica
    completed, since there is then no estimate to check.
    """
    config = mc.SampleConfig(master_seed=cfg["mc"]["master_seed"],
                             replicas=cfg["mc"]["replicas"],
                             parallelism=cfg["mc"]["parallelism"])
    result = mc.run_ensemble(config, fn, reducers)
    rep.update({"replicas": result.replicas, "completed": result.completed,
                "failures": result.failures,
                "master_seed": config.master_seed})
    if not result.completed:
        rep["pass"] = False
        raise AllReplicasFailed(rep)
    return result


def cmd_locallaw(cfg, outdir):
    profile = build_profile(cfg)
    lat = profile.lattice
    S = profile.assemble()
    sp = cfg["spectral"]
    z = complex(sp["E"], sp["eta"])
    m = spec.stieltjes_m(z)
    lam = math.sqrt(prof.interaction_strength(profile))
    ell = spec.ell_of_eta(lam, sp["eta"], lat.n)
    scale = 1.0 / mc.law_scale(lat, lam, sp["eta"])
    tol = cfg["checks"]["locallaw_tol"] * cfg["checks"]["tolerance_scale"]

    rep = _base_report(cfg, "locallaw", profile)
    rep.update({
        "z": {"re": z.real, "im": z.imag},
        "m": {"re": m.real, "im": m.imag},
        "lambda": lam, "ell": ell, "scale": scale, "tolerance": tol,
    })
    fn, reducers = mc.locallaw_replica_fn(lat, S, z,
                                          ward_tol=cfg["checks"]["ward_gate"])
    result = _run_ensemble(cfg, rep, fn, reducers)
    block_mean = result.mean("block_residual")
    block_stderr = result.stderr("block_residual")
    entry_mean_max = float(result.mean("entry_sq").max())
    block_max = float(block_mean.max())
    ward_violations = int(result.max("ward_violation"))

    normalized_block = block_max / scale
    normalized_entry = entry_mean_max / scale
    passed = (normalized_block <= tol and normalized_entry <= tol
              and ward_violations == 0 and not result.failures)
    rep.update({
        "block_residual_max_mean": block_max,
        "block_residual_normalized": normalized_block,
        "entry_sq_max_mean": entry_mean_max,
        "entry_sq_normalized": normalized_entry,
        "ward_residual_max": float(result.max("ward_residual")),
        "ward_violations": ward_violations,
        "pass": bool(passed),
    })
    fmts = _formats(cfg)
    rows = [(a, block_mean[a], block_stderr[a], block_mean[a] / scale)
            for a in range(lat.block_count)]
    if "csv" in fmts:
        write_csv(os.path.join(outdir, "locallaw_blocks.csv"),
                  ["block", "mean_residual", "stderr", "normalized"], rows)
    if "gnuplot" in fmts:
        write_plot_data(os.path.join(outdir, "locallaw_blocks.dat"),
                        ["block", "mean_residual", "stderr"],
                        [(r[0], r[1], r[2]) for r in rows],
                        script_title="local law block residuals")
    return rep


def cmd_deloc(cfg, outdir):
    profile = build_profile(cfg)
    lat = profile.lattice
    S = profile.assemble()
    lam2 = prof.interaction_strength(profile)
    window = cfg["checks"]["deloc_window"]
    estar = spec.eta_star(lat.W, math.sqrt(lam2), lat.N, lat.d)
    threshold = (math.log(lat.N) ** cfg["checks"]["deloc_log_power"]) \
        * estar * cfg["checks"]["tolerance_scale"]
    vacuous = not math.isfinite(threshold) or threshold >= 1.0

    rep = _base_report(cfg, "deloc", profile)
    rep.update({
        "window": window,
        "eta_star": estar if math.isfinite(estar) else "inf",
        "threshold": threshold if math.isfinite(threshold) else "inf",
        "vacuous_bound": bool(vacuous),
    })
    fn, reducers = mc.deloc_replica_fn(lat, S, (-window, window))
    result = _run_ensemble(cfg, rep, fn, reducers)
    sup_max = float(result.max("sup_norm_sq"))
    passed = (not vacuous) and sup_max <= threshold and not result.failures
    rep.update({
        "sup_norm_sq_max": sup_max,
        "mean_window_count": float(result.mean("window_count")),
        "pass": bool(passed),
    })
    return rep


def cmd_diffusion(cfg, outdir):
    profile = build_profile(cfg)
    lat = profile.lattice
    S = profile.assemble()
    sp = cfg["spectral"]
    z = complex(sp["E"], sp["eta"])
    sig_mult = cfg["checks"]["diffusion_sigma"]
    rel = cfg["checks"]["diffusion_rel"] * cfg["checks"]["tolerance_scale"]
    lam = math.sqrt(prof.interaction_strength(profile))
    scale = mc.law_scale(lat, lam, abs(z.imag)) ** (-2.0)
    mcount = lat.block_count

    rep = _base_report(cfg, "diffusion", profile)
    rep.update({
        "z": {"re": z.real, "im": z.imag},
        "cells": mcount * mcount,
        "normalization_scale": scale,
    })
    pred_abs2, pred_gg = mc.diffusion_predictions(lat, S, z)
    fn, reducers = mc.diffusion_replica_fn(lat, S, z,
                                           ward_tol=cfg["checks"]["ward_gate"])
    result = _run_ensemble(cfg, rep, fn, reducers)
    mean_abs2, se_abs2 = result.mean("abs2").real, result.stderr("abs2")
    mean_gg, se_gg = result.mean("gg"), result.stderr("gg")
    ward_violations = int(result.max("ward_violation"))

    breaches = []
    rows = []
    for a in range(mcount):
        for b in range(mcount):
            dev1 = abs(mean_abs2[a, b] - pred_abs2[a, b])
            tol1 = max(sig_mult * se_abs2[a, b], rel * abs(pred_abs2[a, b]))
            dev2 = abs(mean_gg[a, b] - pred_gg[a, b])
            tol2 = max(sig_mult * se_gg[a, b], rel * abs(pred_gg[a, b]))
            ok = dev1 <= tol1 and dev2 <= tol2
            if not ok:
                breaches.append({"a": a, "b": b,
                                 "dev_abs2": float(dev1), "tol_abs2": float(tol1),
                                 "dev_gg": float(dev2), "tol_gg": float(tol2)})
            rows.append((a, b, mean_abs2[a, b], se_abs2[a, b],
                         pred_abs2[a, b], dev1, tol1,
                         mean_gg[a, b].real, mean_gg[a, b].imag,
                         se_gg[a, b], pred_gg[a, b].real,
                         pred_gg[a, b].imag,
                         dev2, tol2, "pass" if ok else "FAIL"))
    passed = not breaches and ward_violations == 0 and not result.failures
    rep.update({
        "ward_residual_max": float(result.max("ward_residual")),
        "ward_violations": ward_violations,
        "max_normalized_abs2": float((np.abs(mean_abs2 - pred_abs2)
                                      / scale).max()),
        "max_normalized_gg": float((np.abs(mean_gg - pred_gg) / scale).max()),
        "breaches": breaches,
        "pass": bool(passed),
    })
    fmts = _formats(cfg)
    if "csv" in fmts:
        write_csv(os.path.join(outdir, "diffusion_pairs.csv"),
                  ["a", "b", "mean_abs2", "stderr_abs2", "pred_abs2",
                   "dev_abs2", "tol_abs2", "mean_gg_re", "mean_gg_im",
                   "stderr_gg", "pred_gg_re", "pred_gg_im", "dev_gg",
                   "tol_gg", "status"], rows)
    if "gnuplot" in fmts:
        diag = [(lat.block_distance(0, b), mean_abs2[0, b],
                 pred_abs2[0, b]) for b in range(mcount)]
        write_plot_data(os.path.join(outdir, "diffusion_profile.dat"),
                        ["block_distance", "mc_mean", "prediction"],
                        sorted(diag), script_title="quantum diffusion profile")
    return rep


def cmd_que(cfg, outdir):
    profile = build_profile(cfg)
    lat = profile.lattice
    S = profile.assemble()
    sp = cfg["spectral"]
    lam = math.sqrt(prof.interaction_strength(profile))
    if lat.d == 1:
        eta0 = lat.W * lam / lat.N**1.5
    else:
        eta0 = lam * lat.W ** (lat.d / 2) / lat.N
    half = lat.W ** (-cfg["checks"]["que_epsilon"]) * eta0
    window = (sp["E"] - half, sp["E"] + half)
    c = cfg["checks"]["que_c"]
    threshold = lat.W ** (lat.d - c) / lat.N

    rep = _base_report(cfg, "que", profile)
    rep.update({"window": list(window), "eta0": eta0, "c": c,
                "threshold": threshold})
    fn, reducers = mc.que_replica_fn(lat, S, window)
    result = _run_ensemble(cfg, rep, fn, reducers)
    dev_sq_max = float(result.max("overlap_dev_sq"))
    passed = dev_sq_max <= threshold * cfg["checks"]["tolerance_scale"] \
        and not result.failures
    rep.update({
        "overlap_dev_sq_max": dev_sq_max,
        "mean_window_count": float(result.mean("window_count")),
        "pass": bool(passed),
    })
    return rep


def cmd_report(cfg, outdir):
    import json as _json

    if not os.path.isdir(outdir):
        raise ConfigError(f"output directory {outdir!r} does not exist")
    entries = []
    passed = True
    for name in sorted(os.listdir(outdir)):
        if not name.endswith(".json") or name == "report.json":
            continue
        with open(os.path.join(outdir, name), encoding="utf-8") as fh:
            data = _json.load(fh)
        if "pass" in data:
            entries.append({"file": name, "command": data.get("command"),
                            "pass": data["pass"]})
            passed = passed and bool(data["pass"])
    for e in entries:
        print(f"{e['file']}: {'PASS' if e['pass'] else 'FAIL'}")
    return {"command": "report", "entries": entries, "pass": bool(passed)}


_COMMANDS = {
    "validate": cmd_validate,
    "theta": cmd_theta,
    "kloop": cmd_kloop,
    "flow": cmd_flow,
    "locallaw": cmd_locallaw,
    "deloc": cmd_deloc,
    "diffusion": cmd_diffusion,
    "que": cmd_que,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bandlab",
        description="Random band matrix laboratory: deterministic theory "
                    "checks and seeded Monte Carlo experiments.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=False,
                        help="INI config file (required except for 'report')")
    parser.add_argument("--seed", type=int, default=None,
                        help="override [mc] master_seed")
    parser.add_argument("--replicas", type=int, default=None,
                        help="override [mc] replicas")
    parser.add_argument("--out", default=None,
                        help="override [output] directory")
    parser.add_argument("--tolerance-scale", type=float, default=None,
                        help="override [checks] tolerance_scale")
    args = parser.parse_args(argv)

    try:
        if args.config is None:
            if args.command != "report":
                raise ConfigError("--config is required for this command")
            cfg = {sec: {k: v for k, (_, v) in keys.items()}
                   for sec, keys in _SCHEMA.items()}
            cfg["mc"]["parallelism"] = 1
            cfg["model"].update({"type": "mean_field", "W": 1, "n": 1})
        else:
            cfg = parse_config(args.config)
        if args.seed is not None:
            cfg["mc"]["master_seed"] = args.seed
        if args.replicas is not None:
            if args.replicas < 1:
                raise ConfigError("--replicas must be >= 1")
            cfg["mc"]["replicas"] = args.replicas
        if args.out is not None:
            cfg["output"]["directory"] = args.out
        if args.tolerance_scale is not None:
            cfg["checks"]["tolerance_scale"] = args.tolerance_scale
        outdir = cfg["output"]["directory"]
        if args.command != "report":
            os.makedirs(outdir, exist_ok=True)
        rep = _COMMANDS[args.command](cfg, outdir)
    except AllReplicasFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        rep = exc.report
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"refusing oversized computation: {exc}", file=sys.stderr)
        return 2
    except (prof.ProfileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_json(os.path.join(outdir, f"{args.command}.json"), rep)
    code = 0 if rep["pass"] else 1
    if args.command != "report":
        status = "PASS" if code == 0 else "FAIL"
        print(f"{args.command}: {status}")
        if code != 0 and rep.get("breaches"):
            b = rep["breaches"][0]
            print(f"  first breaching cell: block pair ({b['a']}, {b['b']})",
                  file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
