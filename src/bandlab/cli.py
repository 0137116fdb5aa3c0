"""Batch front end: config-driven experiments with JSON/CSV/plot reports.

Config files are INI ("key = value" under sections); unknown sections or
keys are hard errors. Exit codes: 0 all requested checks pass, 1 a check
failed (the report names the breaching cell) or no Monte Carlo replica
completed, 2 config/schema error or an output path that cannot be written.
Each command returns its report; ``main`` writes it as ``<command>.json``.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys
from typing import NamedTuple

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
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[
            str(text).strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _parse_floats(text):
    values = tuple(float(v) for v in str(text).split(",") if v.strip())
    if not values:
        raise ValueError("expected at least one number")
    return values


class _Interval(NamedTuple):
    """lo < v < hi, <= at an end that ``brackets`` closes; an end may be a
    ``_MODEL_ENDS`` name, read off [model] d or W."""
    lo: object
    hi: object
    brackets: str = "()"


class _Key(NamedTuple):
    """A key's parser, default (None: required) and domain, which holds under
    ``model_type`` or every type: allowed values, an interval, or str."""
    parse: object
    default: object
    domain: object
    model_type: str | None = None


_MODEL_ENDS = {"1/(2d)": lambda model: 1 / (2 * model["d"]),
               "1/cos(pi/W)": lambda model: prof.wegner_gamma_max(model["W"])}
_COUNT, _FINITE = _Interval(1, math.inf, "[)"), _Interval(-math.inf, math.inf)

_SCHEMA = {
    "model": {
        "type": _Key(str, None, ("translation_invariant", "wegner_orbital",
                                 "block_flat", "mean_field")),
        "d": _Key(int, 1, (1, 2)),
        "W": _Key(int, None, _COUNT),
        "n": _Key(int, None, _COUNT),
        "kernel": _Key(str, "uniform", tuple(prof.KERNELS),
                       "translation_invariant"),
        "cutoff": _Key(int, 1, _COUNT),  # below 1 it reaches no other site
        # the 2d neighbor blocks leave the diagonal block 1 - 2d*weight
        "neighbor_weight": _Key(float, 0.25, _Interval(0, "1/(2d)", "[)"),
                                "block_flat"),
        "wegner_alpha": _Key(float, 0.05, _Interval(0, "1/(2d)", "[]"),
                             "wegner_orbital"),
        # the factor 1 + gamma at k = 0 scales V's off-diagonal entries, or
        # V itself at W = 1: no normalisation lifts them from zero
        "wegner_gamma": _Key(float, 0.5, _Interval(-1, "1/cos(pi/W)", "(]"),
                             "wegner_orbital"),
    },
    "spectral": {
        "E": _Key(float, 0.0, _FINITE),
        "eta": _Key(float, 0.1, _Interval(0, math.inf)),
        # the bulk guard |E| <= 2 - kappa needs 0 < kappa < 2, and the
        # flow's t_i = (1 - epsilon0) t_f needs 0 < epsilon0 < 1
        "kappa": _Key(float, 0.05, _Interval(0, 2)),
        "epsilon0": _Key(float, 0.2, _Interval(0, 1)),
        "t_values": _Key(_parse_floats, (0.3, 0.9), _Interval(0, 1)),
    },
    "mc": {
        "replicas": _Key(int, 50, _COUNT),
        "master_seed": _Key(int, 20260809, _Interval(0, 2**64 - 1, "[]")),
        "parallelism": _Key(int, None, _COUNT),
    },
    "checks": {
        "parity": _Key(_parse_bool, True, (True, False)),
        "deloc_window": _Key(float, 1.5, _Interval(0, math.inf)),
        "que_epsilon": _Key(float, 0.1, _FINITE),
    },
    "output": {"directory": _Key(str, "out", str)},
}


def _defaults() -> dict:
    """Every schema key at its default value (None where it is required)."""
    return {sec: {k: key.default for k, key in keys.items()}
            for sec, keys in _SCHEMA.items()}


def parse_config(path: str) -> dict:
    """Parse and schema-validate an INI config; unknown keys are errors."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keys are case-sensitive (W vs w)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    cfg = _defaults()
    for sec in cp.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
        for key, raw in cp.items(sec):
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown key '{key}' in section [{sec}]")
            try:
                cfg[sec][key] = _SCHEMA[sec][key].parse(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for [{sec}] {key} = {raw!r}: {exc}") from exc
    names = {}
    if cfg["mc"]["parallelism"] is None:
        names["parallelism"] = "BANDLAB_THREADS"
        env = os.environ.get("BANDLAB_THREADS", "").strip()
        try:
            cfg["mc"]["parallelism"] = int(env) if env else _usable_cores()
        except ValueError:
            raise ConfigError(f"BANDLAB_THREADS = {env!r} is not an integer") \
                from None
    for sec, keys in _SCHEMA.items():
        for key in keys:
            _check(sec, key, cfg[sec][key], cfg["model"], names.get(key))
    return cfg


def _usable_cores() -> int:
    """The cores this process may use; macOS and Windows cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check(sec, key, value, model, name=None):
    """Refuse a value of ``[sec] key`` outside the key's domain, naming the
    key, or ``name`` where a flag or a variable gave the value."""
    spec, name = _SCHEMA[sec][key], name or f"[{sec}] {key}"
    if value is None:
        raise ConfigError(f"{name} is required")
    values = value if isinstance(value, tuple) else (value,)
    # every float is finite, whatever the model type
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        raise ConfigError(f"{name} must be finite")
    dom = spec.domain
    if dom is str or spec.model_type not in (None, model["type"]):
        return
    if not isinstance(dom, _Interval):
        if value not in dom:
            raise ConfigError(f"{name} = {value!r} must be one of {dom}")
        return
    lo, hi = (_MODEL_ENDS[e](model) if isinstance(e, str) else e
              for e in dom[:2])
    left, right = dom.brackets
    shown = f"{left}{lo!r}, {hi!r}{right}"
    if (lo, hi) != dom[:2]:
        shown = (f"{left}{dom.lo}, {dom.hi}{right} = {shown} at "
                 f"d = {model['d']}, W = {model['W']}")
    for v in values:
        if not ((lo <= v if left == "[" else lo < v)
                and (v <= hi if right == "]" else v < hi)):
            raise ConfigError(f"{name} = {v!r} must lie in {shown}")


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
        return prof.build_translation_invariant(
            lat, prof.KERNELS[model["kernel"]], model["cutoff"],
            name=model["kernel"])
    if kind == "block_flat":
        return prof.block_flat_profile(lat, model["neighbor_weight"])
    return prof.wegner_orbital_profile(lat, model["wegner_alpha"],
                                       model["wegner_gamma"])


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
    profile = build_profile(cfg)
    report = prof.validate(profile, check_parity=cfg["checks"]["parity"])
    # parity_ok is True when parity is not checked
    passed = (report.doubly_stochastic and report.fullness > 0
              and report.parity_ok and report.interaction_ok)
    rep = _base_report(cfg, "validate", profile)
    rep.update({"validation": dataclasses.asdict(report),
                "pass": bool(passed)})
    return rep


def _flow_m(cfg):
    """Boundary m(E) at the configured energy (flow convention, |m| = 1);
    flow, theta and kloop refuse an E outside the bulk guard."""
    E, kappa = cfg["spectral"]["E"], cfg["spectral"]["kappa"]
    if abs(E) > 2 - kappa:
        raise ConfigError(f"[spectral] E = {E!r} lies outside the bulk guard "
                          f"|E| <= 2 - kappa = {2 - kappa!r}")
    return spec.stieltjes_m(complex(E, 0.0))


# theta's bounds on the tail-fit decay length: DECAY_FACTOR * ell_t for
# (+,-), SAME_CHARGE_DECAY blocks for (+,+)
DECAY_FACTOR = 3.0
SAME_CHARGE_DECAY = 3.0


def cmd_theta(cfg, outdir):
    profile = build_profile(cfg)
    lat = profile.lattice
    lam = math.sqrt(prof.interaction_strength(profile))
    mE = _flow_m(cfg)
    results = []
    passed = True
    for t in cfg["spectral"]["t_values"]:
        ell = spec.ell_t(lam, t, lat.n)
        for pair in ((1, -1), (1, 1)):
            th = det.theta(profile, t, pair, mE)
            decay = det.theta_decay_report(lat, th, ell)
            fd = det.finite_difference_report(lat, th, lam, t) \
                if pair == (1, -1) else None
            # repr(t) tells apart flow times that agree to 6 digits
            name = f"{'pm' if pair == (1, -1) else 'pp'}_t{t!r}"
            write_csv(os.path.join(outdir, f"theta_decay_{name}.csv"),
                      ["distance", "value_re", "value_im", "abs",
                       "fit_prediction"], decay.to_csv_rows())
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
            }
            # an empty tail fit (decay length 0) bounds nothing
            if pair == (1, -1):
                # nor does a rising tail
                ok = (0 < decay.decay_length <= DECAY_FACTOR * ell
                      and decay.monotone_ok)
                entry["bound"] = DECAY_FACTOR * ell
                entry["fd_max_first_ratio"] = fd.max_first_ratio
                entry["fd_max_second_ratio"] = fd.max_second_ratio
            else:
                ok = 0 < decay.decay_length <= SAME_CHARGE_DECAY
                entry["bound"] = SAME_CHARGE_DECAY
            entry["pass"] = bool(ok)
            passed = passed and ok
            results.append(entry)
    rep = _base_report(cfg, "theta", profile)
    rep.update({"lambda": lam, "results": results, "pass": bool(passed)})
    return rep


# kloop's tolerances: the Ward identities; the K^(2)-Theta consistency and
# the cyclic invariance, which hold up to rounding; and the flow-derivative
# residual at step KLOOP_DT, which halving the step must cut by more than
# KLOOP_HALVING_GAIN (second order gives 4)
WARD_TOL = 1e-9
LOOP_IDENTITY_TOL = 1e-12
FLOW_TOL = 1e-12    # flow's identities, m's invariance and Im z_t / (1 - t)
KLOOP_DT = 1e-3
KLOOP_TOL = 1e-4
KLOOP_HALVING_GAIN = 3.0


def cmd_kloop(cfg, outdir):
    profile = build_profile(cfg)
    lat = profile.lattice
    mE = _flow_m(cfg)
    t = cfg["spectral"]["t_values"][0]
    eta_t = (1 - t) * mE.imag
    calc = det.KLoopCalculator(
        lat, {off: t * blk for off, blk in profile.blocks.items()}, mE)
    rows = []

    def check(name, detail, residual, tol, ok=None):
        ok = residual < tol if ok is None else ok
        rows.append((name, detail, residual, tol, "pass" if ok else "FAIL"))

    # Ward identities for every admissible signature of orders 2 and 3
    for charges in [(1, -1), (-1, 1),
                    (1, 1, -1), (1, -1, -1), (-1, -1, 1), (-1, 1, 1)]:
        check("ward", "".join("+" if c > 0 else "-" for c in charges),
              det.ward_residual(calc, eta_t, charges), WARD_TOL)

    # K^(2): the loop recursion against the block-Fourier propagator. Theta
    # depends on the pair only through its coupling, so pairs of equal
    # couplings share one solve: the mixed pairs' m conj(m) and conj(m) m
    # are the same double, and at E = 0 so are m^2 and conj(m)^2
    ktheta_dev, closed = 0.0, {}
    for pair in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        mm = det.charge_m(mE, pair[0]) * det.charge_m(mE, pair[1])
        if mm not in closed:
            closed[mm] = mm * det.theta(profile, t, pair, mE) \
                / lat.block_volume
        dev = float(np.abs(calc.k_tensor(pair) - closed[mm]).max())
        ktheta_dev = max(ktheta_dev, dev)
    check("k2_theta_consistency", "all pairs", ktheta_dev, LOOP_IDENTITY_TOL)

    # cyclic invariance, K(++-)[0, a_2, a_3] = K(+-+)[a_2, a_3, 0]: the two
    # sides come from different recursion paths
    lhs = calc.k_tensor((1, 1, -1))[0]
    rhs = calc.k_tensor((1, -1, 1))[..., 0]
    scale = max(np.abs(lhs).max(), np.abs(rhs).max())
    check("cyclic_invariance", "++-",
          float(np.abs(lhs - rhs).max() / scale), LOOP_IDENTITY_TOL)

    # flow-derivative residual, second-order in dt
    r_full = det.kloop_flow_derivative_residual(calc, (1, -1), KLOOP_DT)
    r_half = det.kloop_flow_derivative_residual(calc, (1, -1), KLOOP_DT / 2)
    half_tol = r_full / KLOOP_HALVING_GAIN
    ok = r_full < KLOOP_TOL and r_half < half_tol
    check("flow_derivative", f"dt={KLOOP_DT:g}", r_full, KLOOP_TOL, ok)
    check("flow_derivative", f"dt={KLOOP_DT / 2:g}", r_half, half_tol, ok)

    write_csv(os.path.join(outdir, "kloop_residuals.csv"),
              ["check", "detail", "residual", "tolerance", "status"], rows)
    rep = _base_report(cfg, "kloop", profile)
    rep.update({
        "t": t, "eta_t": eta_t,
        "rows": [list(r) for r in rows],
        "pass": all(r[4] == "pass" for r in rows),
    })
    return rep


def cmd_flow(cfg, outdir):
    sp = cfg["spectral"]
    _flow_m(cfg)  # the bulk guard
    z = complex(sp["E"], sp["eta"])
    params = spec.select_parameters(z, sp["epsilon0"], kappa=sp["kappa"])
    r1, r2 = params.identity_residuals()
    mE = params.m_target
    ts = np.linspace(params.t_i, 1.0, 100, endpoint=False)
    invariance = max(abs(1 + spec.flow_point(params, t) * mE + t * mE * mE)
                     for t in ts)
    ratio = [spec.flow_point(params, t).imag / (1 - t) for t in ts]
    ratio_dev = float(np.ptp(ratio))
    passed = all(r < FLOW_TOL for r in (r1, r2, invariance, ratio_dev))
    rep = _base_report(cfg, "flow")
    rep.update({
        "z": z, "t_i": params.t_i, "t_f": params.t_f,
        "E_target": params.E_target,
        "m_identity_residual": r1, "z_identity_residual": r2,
        "m_invariance_residual": float(invariance),
        "eta_ratio_deviation": ratio_dev,
        "pass": bool(passed),
    })
    return rep


def _ensemble(cfg, command, profile, replica_fn, head, arg):
    """Run ``command``'s replicas, ``replica_fn(band, arg)`` on the band of
    ``profile``; return its report, holding ``head`` and the replica counts,
    and the ensemble's result.

    Raises AllReplicasFailed with the report marked failing when no replica
    completed, since there is then no estimate to check.
    """
    rep = _base_report(cfg, command, profile)
    rep.update(head)
    config = mc.SampleConfig(master_seed=cfg["mc"]["master_seed"],
                             replicas=cfg["mc"]["replicas"],
                             parallelism=cfg["mc"]["parallelism"])
    result = mc.run_ensemble(config, *replica_fn(mc.build_band(profile), arg))
    rep.update({"replicas": result.replicas, "completed": result.completed,
                "failures": result.failures,
                "master_seed": config.master_seed,
                "stream_version": mc.STREAM_VERSION})
    if not result.completed:
        rep["pass"] = False
        raise AllReplicasFailed(rep)
    return rep, result


def _verdict(rep, result, ok, fields):
    """Add ``fields`` to the report and its verdict: ``ok``, and a failed
    replica fails the command."""
    rep.update(fields)
    rep["pass"] = bool(ok and not result.failures)
    return rep


# per-replica Ward residual gate of locallaw and diffusion
WARD_GATE = 1e-10


def _ward_tally(result) -> dict:
    """The largest Ward residual, and the count of replicas above
    ``WARD_GATE`` (NaN counts)."""
    ward = result.values["ward_residual"]
    return {"ward_residual_max": float(ward.max()),
            "ward_violations": int((~(ward <= WARD_GATE)).sum())}


def _window_tally(result) -> tuple:
    """Mean window count, empty windows, and whether no window held an
    eigenvalue, which leaves nothing to bound."""
    counts = result.values["window_count"]
    return float(counts.mean()), int((counts == 0).sum()), not counts.any()


# bound on the block and entry residuals in units of 1/(W^d ell^d eta)
LOCALLAW_TOL = 5.0


def cmd_locallaw(cfg, outdir):
    profile = build_profile(cfg)
    lat = profile.lattice
    sp = cfg["spectral"]
    z = complex(sp["E"], sp["eta"])
    lam = math.sqrt(prof.interaction_strength(profile))
    scale = 1.0 / mc.law_scale(lat, lam, sp["eta"])
    rep, result = _ensemble(
        cfg, "locallaw", profile, mc.locallaw_replica_fn,
        {"z": z, "m": spec.stieltjes_m(z), "lambda": lam,
         "ell": spec.ell_of_eta(lam, sp["eta"], lat.n), "scale": scale,
         "tolerance": LOCALLAW_TOL, "ward_gate": WARD_GATE}, z)
    block_mean = result.mean("block_residual")
    block_stderr = result.stderr("block_residual")
    rows = [(a, block_mean[a], block_stderr[a], block_mean[a] / scale)
            for a in range(lat.block_count)]
    write_csv(os.path.join(outdir, "locallaw_blocks.csv"),
              ["block", "mean_residual", "stderr", "normalized"], rows)
    write_plot_data(os.path.join(outdir, "locallaw_blocks.dat"),
                    ["block", "mean_residual", "stderr"],
                    [(r[0], r[1], r[2]) for r in rows],
                    script_title="local law block residuals")
    block_max = float(block_mean.max())
    entry_max = float(result.mean("entry_sq").max())
    ward = _ward_tally(result)
    ok = (block_max / scale <= LOCALLAW_TOL
          and entry_max / scale <= LOCALLAW_TOL
          and ward["ward_violations"] == 0)
    return _verdict(rep, result, ok, {
        "block_residual_max_mean": block_max,
        "block_residual_normalized": block_max / scale,
        "entry_sq_max_mean": entry_max,
        "entry_sq_normalized": entry_max / scale,
        **ward,
    })


# deloc's bound on the windowed sup-norms: (log N)^DELOC_LOG_POWER eta_*
DELOC_LOG_POWER = 3.0


def cmd_deloc(cfg, outdir):
    profile = build_profile(cfg)
    lat = profile.lattice
    lam = math.sqrt(prof.interaction_strength(profile))
    window = cfg["checks"]["deloc_window"]
    estar = spec.eta_star(lat.W, lam, lat.N, lat.d)
    threshold = (math.log(lat.N) ** DELOC_LOG_POWER) * estar
    vacuous = not math.isfinite(threshold) or threshold >= 1.0
    rep, result = _ensemble(
        cfg, "deloc", profile, mc.deloc_replica_fn,
        {"window": window, "eta_star": estar, "threshold": threshold,
         "vacuous_bound": vacuous}, (-window, window))
    sup_max = float(result.values["sup_norm_sq"].max())
    mean_count, _, no_window = _window_tally(result)
    vacuous = vacuous or no_window
    return _verdict(rep, result, not vacuous and sup_max <= threshold, {
        "vacuous_bound": vacuous, "sup_norm_sq_max": sup_max,
        "mean_window_count": mean_count,
    })


# diffusion's tolerance per block-pair cell:
# max(DIFFUSION_SIGMA * stderr, DIFFUSION_REL * |prediction|)
DIFFUSION_SIGMA = 3.0
DIFFUSION_REL = 0.1


def cmd_diffusion(cfg, outdir):
    profile = build_profile(cfg)
    lat = profile.lattice
    sp = cfg["spectral"]
    z = complex(sp["E"], sp["eta"])
    lam = math.sqrt(prof.interaction_strength(profile))
    scale = mc.law_scale(lat, lam, abs(z.imag)) ** (-2.0)
    mcount = lat.block_count
    pred_abs2, pred_gg = mc.diffusion_predictions(profile, z)
    rep, result = _ensemble(
        cfg, "diffusion", profile, mc.diffusion_replica_fn,
        {"z": z, "cells": mcount * mcount, "normalization_scale": scale,
         "sigma": DIFFUSION_SIGMA, "rel": DIFFUSION_REL,
         "ward_gate": WARD_GATE}, z)
    mean_abs2, se_abs2 = result.mean("abs2").real, result.stderr("abs2")
    mean_gg, se_gg = result.mean("gg"), result.stderr("gg")
    ward = _ward_tally(result)

    def cell_tol(se, pred):
        return max(DIFFUSION_SIGMA * se, DIFFUSION_REL * abs(pred))

    breaches = []
    rows = []
    for a in range(mcount):
        for b in range(mcount):
            dev1 = abs(mean_abs2[a, b] - pred_abs2[a, b])
            tol1 = cell_tol(se_abs2[a, b], pred_abs2[a, b])
            dev2 = abs(mean_gg[a, b] - pred_gg[a, b])
            tol2 = cell_tol(se_gg[a, b], pred_gg[a, b])
            ok = dev1 <= tol1 and dev2 <= tol2
            if not ok:
                breaches.append({"a": a, "b": b, "dev_abs2": float(dev1),
                                 "tol_abs2": float(tol1),
                                 "dev_gg": float(dev2), "tol_gg": float(tol2)})
            rows.append((a, b, mean_abs2[a, b], se_abs2[a, b],
                         pred_abs2[a, b], dev1, tol1,
                         mean_gg[a, b].real, mean_gg[a, b].imag,
                         se_gg[a, b], pred_gg[a, b].real,
                         pred_gg[a, b].imag,
                         dev2, tol2, "pass" if ok else "FAIL"))
    write_csv(os.path.join(outdir, "diffusion_pairs.csv"),
              ["a", "b", "mean_abs2", "stderr_abs2", "pred_abs2",
               "dev_abs2", "tol_abs2", "mean_gg_re", "mean_gg_im",
               "stderr_gg", "pred_gg_re", "pred_gg_im", "dev_gg",
               "tol_gg", "status"], rows)
    diag = [(lat.block_distance(0, b), mean_abs2[0, b], pred_abs2[0, b])
            for b in range(mcount)]
    write_plot_data(os.path.join(outdir, "diffusion_profile.dat"),
                    ["block_distance", "mc_mean", "prediction"],
                    sorted(diag), script_title="quantum diffusion profile")
    return _verdict(rep, result, not (breaches or ward["ward_violations"]), {
        **ward,
        "max_normalized_abs2": float((np.abs(mean_abs2 - pred_abs2)
                                      / scale).max()),
        "max_normalized_gg": float((np.abs(mean_gg - pred_gg) / scale).max()),
        "breaches": breaches,
    })


# que's bound on the overlap deviations: W^(d - QUE_C) / N
QUE_C = 0.5


def que_window(profile, E: float, epsilon: float) -> tuple:
    """((E - h, E + h), eta0): que's window about E, h = W^-epsilon eta0,
    with eta0 = W lambda / N^1.5 at d = 1 and lambda W^(d/2) / N above."""
    lat = profile.lattice
    lam = math.sqrt(prof.interaction_strength(profile))
    if lat.d == 1:
        eta0 = lat.W * lam / lat.N**1.5
    else:
        eta0 = lam * lat.W ** (lat.d / 2) / lat.N
    half = lat.W ** (-epsilon) * eta0
    return (E - half, E + half), eta0


def cmd_que(cfg, outdir):
    profile = build_profile(cfg)
    lat = profile.lattice
    window, eta0 = que_window(profile, cfg["spectral"]["E"],
                              cfg["checks"]["que_epsilon"])
    threshold = lat.W ** (lat.d - QUE_C) / lat.N
    rep, result = _ensemble(
        cfg, "que", profile, mc.que_replica_fn,
        {"window": window, "eta0": eta0, "c": QUE_C, "threshold": threshold},
        window)
    dev_sq_max = float(result.values["overlap_dev_sq"].max())
    mean_count, empty, vacuous = _window_tally(result)
    return _verdict(rep, result, not vacuous and dev_sq_max <= threshold, {
        "overlap_dev_sq_max": dev_sq_max, "mean_window_count": mean_count,
        "empty_windows": empty, "vacuous_bound": vacuous,
    })


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
        if isinstance(data, dict) and "pass" in data:
            entries.append({"file": name, "command": data.get("command"),
                            "pass": data["pass"]})
            passed = passed and bool(data["pass"])
    for e in entries:
        print(f"{e['file']}: {'PASS' if e['pass'] else 'FAIL'}")
    if not entries:
        print(f"report: {outdir!r} holds no command report", file=sys.stderr)
    return {"command": "report", "entries": entries,
            "pass": bool(passed and entries)}


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
                        help="override [mc] master_seed, a U64")
    parser.add_argument("--replicas", type=int, default=None,
                        help="override [mc] replicas")
    parser.add_argument("--out", default=None,
                        help="override [output] directory")
    args = parser.parse_args(argv)

    made = None
    try:
        if args.config is None:
            if args.command != "report":
                raise ConfigError("--config is required for this command")
            cfg = _defaults()
        else:
            cfg = parse_config(args.config)
        for sec, key, flag in (("mc", "master_seed", "seed"),
                               ("mc", "replicas", "replicas"),
                               ("output", "directory", "out")):
            if (value := getattr(args, flag)) is not None:
                _check(sec, key, value, cfg["model"], f"--{flag}")
                cfg[sec][key] = value
        outdir = cfg["output"]["directory"]
        if args.command != "report" and not os.path.isdir(outdir):
            os.makedirs(outdir)
            made = outdir
        # on one BLAS thread no report's bits depend on the machine's cores
        with mc._single_threaded_blas():
            try:
                rep = _COMMANDS[args.command](cfg, outdir)
            except AllReplicasFailed as exc:
                print(f"error: {exc}", file=sys.stderr)
                rep = exc.report
        write_json(os.path.join(outdir, f"{args.command}.json"), rep)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"refusing oversized computation: {exc}", file=sys.stderr)
        return 2
    except (prof.ProfileError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    finally:  # a refused run removes the empty directory it made
        if made and not os.listdir(made):
            os.rmdir(made)
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
