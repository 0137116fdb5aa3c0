"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``criterion NN [PASS|FAIL]`` line (run pytest with -s
to see them live). Monte Carlo criteria are pinned to master seed 20260809.
"""

import json
import time

import numpy as np
import pytest

from bandlab import (BlockLattice, KLoopCalculator, VarianceProfile,
                     build_translation_invariant, flow_point,
                     kloop_flow_derivative_residual, select_parameters,
                     stieltjes_m, theta)
from bandlab import cli
from bandlab.cli import main as cli_main
from bandlab.profiles import KERNELS, _affine_blocks
from oracles import random_walk_kernel, random_walk_theta

MASTER_SEED = 20260809


def report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    line = f"criterion {num:02d} [{tag}] {desc}{suffix}"
    print(line)
    assert ok, line


def test_c01_self_consistency_grid():
    t0 = time.perf_counter()
    worst = 0.0
    for E in np.linspace(-1.9, 1.9, 100):
        for eta in np.geomspace(1e-3, 3.0, 100):
            z = complex(E, eta)
            m = stieltjes_m(z)
            worst = max(worst, abs(1 + z * m + m * m))
    elapsed = time.perf_counter() - t0
    report(1, "exact self-consistency |1+zm+m^2| < 1e-13 on 100x100 grid",
           worst < 1e-13 and elapsed < 1.0,
           f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_c02_parameter_selection_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-1.9, 1.9), rng.uniform(1e-3, 2.0))
        p = select_parameters(z, epsilon0=0.2)
        r1, r2 = p.identity_residuals()
        worst = max(worst, r1, r2)
    elapsed = time.perf_counter() - t0
    report(2, f"parameter-selection identities < {cli.FLOW_TOL:g} for 100 "
           "bulk z", worst < cli.FLOW_TOL and elapsed < 1.0,
           f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_c03_flow_invariance():
    rng = np.random.default_rng(MASTER_SEED + 1)
    worst = 0.0
    for _ in range(10):
        z = complex(rng.uniform(-1.8, 1.8), rng.uniform(0.01, 1.5))
        p = select_parameters(z, epsilon0=rng.uniform(0.1, 0.6))
        mE = p.m_target
        for t in np.linspace(p.t_i, 1.0, 100, endpoint=False):
            zt = flow_point(p, t)
            worst = max(worst, abs(1 + zt * mE + t * mE * mE))
    report(3, f"flow invariance residual < {cli.FLOW_TOL:g} along 10 "
           "trajectories", worst < cli.FLOW_TOL, f"max residual {worst:.2e}")


# Criteria 4-6 and 10-15 run the CLI commands and check the canonical
# reports they write, so each experiment's observable, scale, tolerance and
# verdict are defined once, in bandlab.cli; 11-15 run on the README lattice
# (d=1, W=33, n=15).
_CONFIG = """\
[model]
type = {type}
d = {d}
W = {W}
n = {n}
kernel = uniform
cutoff = 1

[spectral]
E = {E}
eta = {eta}
t_values = {t_values}

[mc]
replicas = {replicas}
master_seed = {seed}
parallelism = {parallelism}

[output]
directory = {outdir}
"""


def run_command(workdir, command, type="translation_invariant", d=1, W=33,
                n=15, E=0.0, eta=0.1, t_values=(0.3, 0.9), replicas=50,
                parallelism=4, checks=None):
    """Run one CLI command; return its exit code, report bytes and seconds.
    ``checks`` holds the config's ``[checks]`` keys, if any."""
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / "config.ini"
    text = _CONFIG.format(type=type, d=d, W=W, n=n, E=E, eta=eta,
                          t_values=",".join(map(repr, t_values)),
                          replicas=replicas, seed=MASTER_SEED,
                          parallelism=parallelism, outdir=workdir / "out")
    if checks:
        text += "[checks]\n" + "".join(f"{key} = {value}\n"
                                       for key, value in checks.items())
    cfg.write_text(text)
    t0 = time.perf_counter()
    code = cli_main([command, "--config", str(cfg)])
    elapsed = time.perf_counter() - t0
    return code, (workdir / "out" / f"{command}.json").read_bytes(), elapsed


def test_c04_profile_validation(tmp_path):
    W = 5
    _, raw, _ = run_command(tmp_path / "band", "validate", W=W, n=5)
    rep = json.loads(raw)["validation"]
    _, raw, _ = run_command(tmp_path / "mean_field", "validate",
                            type="mean_field", W=W, n=5)
    lam2_mf = json.loads(raw)["validation"]["lambda2"]
    ok = (rep["row_sum_deviation"] < 1e-12
          and abs(rep["fullness"] - W / (2 * W + 1)) < 1e-12
          and rep["parity_checked"] and rep["parity_ok"]
          and lam2_mf == 0.0)
    report(4, "uniform-band validation values and mean-field lambda^2 = 0",
           ok, f"fullness {rep['fullness']:.12f}, "
               f"rowdev {rep['row_sum_deviation']:.1e}")


def _kloop_rows(workdir, **model):
    """kloop's (check, detail, residual, tolerance, status) rows, and the
    command's seconds."""
    _, raw, elapsed = run_command(workdir, "kloop", **model)
    return json.loads(raw)["rows"], elapsed


def test_c05_k2_theta_consistency(tmp_path):
    rows, elapsed = _kloop_rows(tmp_path, W=5, n=5, t_values=(0.7,))
    worst = max(r[2] for r in rows if r[0] == "k2_theta_consistency")
    report(5, "K^(2) recursion vs W^-d m m' Theta (block Fourier), all pairs",
           worst < cli.LOOP_IDENTITY_TOL and elapsed < 5.0,
           f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_c06_ward_identity(tmp_path):
    worst, elapsed = 0.0, 0.0
    for d, W, n in [(1, 5, 5), (2, 3, 3)]:
        rows, seconds = _kloop_rows(tmp_path / f"d{d}", d=d, W=W, n=n,
                                    E=0.3, t_values=(0.7,))
        worst = max(worst, *(r[2] for r in rows if r[0] == "ward"))
        elapsed += seconds
    report(6, f"Ward identity residual < {cli.WARD_TOL:g} for n=2,3 at d=1 "
              f"and d=2",
           worst < cli.WARD_TOL and elapsed < 60.0,
           f"max residual {worst:.2e}, {elapsed:.1f}s")


# c07 stays a library call: kloop's blocks are t S, and c07's are
# t_f S + (t - t_f) S_E
def test_c07_kloop_flow_equation():
    lat = BlockLattice(d=1, W=3, n=3)
    prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
    t_f, t = 0.8, 0.6
    m = stieltjes_m(0.3)
    calc = KLoopCalculator(lat, _affine_blocks(lat, prof.blocks, t_f, t - t_f),
                           m)
    dt, gain = cli.KLOOP_DT, cli.KLOOP_HALVING_GAIN
    r1 = kloop_flow_derivative_residual(calc, (1, -1), dt)
    r2 = kloop_flow_derivative_residual(calc, (1, -1), dt / 2)
    ok = r1 < cli.KLOOP_TOL and r2 <= r1 / gain
    report(7, f"K-loop flow equation: dt={dt:g} residual < "
              f"{cli.KLOOP_TOL:g}, halving gains {gain:g}x",
           ok, f"r(dt)={r1:.2e}, r(dt/2)={r2:.2e}, ratio {r1 / r2:.2f}")


def test_c08_random_walk_representation():
    lat = BlockLattice(d=1, W=5, n=25)
    prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
    worst_res, worst_row = 0.0, 0.0
    for t in (0.5, 0.9):
        c_ker = 0.5 * lat.W * (t * prof.block_at(0).min())
        th = theta(prof, t, 1.0).real
        K = random_walk_kernel(prof, t, c_ker)
        res = np.abs(th - random_walk_theta(K, t, c_ker)).max()
        worst_res = max(worst_res, float(res / np.abs(th).max()))
        worst_row = max(worst_row, float(np.abs(K.sum(axis=1) - 1).max()))
    ok = worst_res < 1e-8 and worst_row < 1e-10
    report(8, "random-walk representation of Theta at t=0.5, 0.9",
           ok, f"residual {worst_res:.2e}, row-sum dev {worst_row:.2e}")


def test_c09_evolution_kernel_contraction():
    lat = BlockLattice(d=1, W=5, n=15)
    prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
    params = select_parameters(0.0 + 0.3j, 0.2)
    mE = params.m_target
    t_i, t_f = params.t_i, params.t_f
    pairs = [(t_i, t_f), (t_i, (t_i + t_f) / 2), (0.55 * t_f, 0.9 * t_f),
             (0.85 * t_f, t_f), (0.8 * t_f, 0.95 * t_f)]
    rng = np.random.default_rng(MASTER_SEED + 2)
    worst = 0.0
    for s, t in pairs:
        # t_f S + (t - t_f) S_E, which flows to t_f S at time t_f
        St = VarianceProfile(lat, _affine_blocks(lat, prof.blocks, t_f,
                                                 t - t_f))
        # the order-2 kernel U_{s,t} A = L A R^T, with L and R the factors
        # I + (t - s) m m' Theta of the charge pairs (+,-) and (-,+)
        eye = np.eye(lat.n)
        L = eye + (t - s) * mE * np.conj(mE) * theta(St, 1.0, mE * np.conj(mE))
        R = eye + (t - s) * np.conj(mE) * mE * theta(St, 1.0, mE * np.conj(mE))
        bound = ((1 - s) / (1 - t)) ** 2
        for _ in range(100):
            A = rng.standard_normal((lat.n, lat.n))
            out = L @ A @ R.T
            worst = max(worst, float(np.abs(out).max()
                                     / (bound * np.abs(A).max())))
    report(9, "evolution-kernel contraction constant <= 10 over 5 (s,t) pairs",
           worst <= 10.0, f"realized constant {worst:.3f}")


@pytest.fixture(scope="module")
def locallaw_runs(tmp_path_factory):
    """Local-law runs at parallelism 1 and 8, for criteria 11, 14 and 15."""
    root = tmp_path_factory.mktemp("locallaw")
    return {par: run_command(root / f"par{par}", "locallaw", parallelism=par)
            for par in (1, 8)}


@pytest.fixture(scope="module")
def diffusion_run(tmp_path_factory):
    """The quantum-diffusion experiment (criteria 13 and 14)."""
    code, raw, elapsed = run_command(tmp_path_factory.mktemp("diffusion"),
                                     "diffusion", eta=0.2, replicas=200)
    return code, json.loads(raw), elapsed


def test_c10_theta_decay(tmp_path):
    code, raw, _ = run_command(tmp_path, "theta", W=5, n=25)
    results = json.loads(raw)["results"]
    ok = code == 0 and len(results) == 4 and all(e["pass"] for e in results)
    details = [f"{'pm' if e['pair'] == [1, -1] else 'pp'} t={e['t']:g}: "
               f"xi={e['decay_length']:.3f} <= {e['bound']:.2f}"
               for e in results]
    report(10, f"Theta decay: (+,-) on scale <= {cli.DECAY_FACTOR:g}*ell_t, "
               f"same charge <= {cli.SAME_CHARGE_DECAY:g}",
           ok, "; ".join(details))


def test_c11_local_law(locallaw_runs):
    code, raw, _ = locallaw_runs[1]
    rep = json.loads(raw)
    elapsed = max(t for _, _, t in locallaw_runs.values())
    block_norm = rep["block_residual_normalized"]
    entry_norm = rep["entry_sq_normalized"]
    tol = rep["tolerance"]
    # the command's own verdict covers the Ward gate too
    ok = code == 0 and rep["pass"] and block_norm <= tol \
        and entry_norm <= tol and not rep["failures"] and elapsed < 300
    report(11, f"local law: normalized block and entry residuals <= "
               f"{cli.LOCALLAW_TOL:g}",
           ok, f"block {block_norm:.2f}, entry {entry_norm:.2f}, "
               f"tolerance {tol:g}, {elapsed:.0f}s")


def test_c12_delocalization(tmp_path):
    t0 = time.perf_counter()
    code, raw, _ = run_command(tmp_path / "band", "deloc", replicas=20)
    rep = json.loads(raw)
    # W=1 is diagonal: its eigenvectors are localized, the bound inverts
    _, raw, _ = run_command(tmp_path / "control", "deloc", type="mean_field",
                            W=1, n=495, replicas=3, parallelism=1)
    control = json.loads(raw)["sup_norm_sq_max"]
    elapsed = time.perf_counter() - t0
    sup_max, threshold = rep["sup_norm_sq_max"], rep["threshold"]
    # the command's own verdict covers a vacuous bound too
    ok = code == 0 and rep["pass"] and sup_max <= threshold \
        and control >= 0.5 and elapsed < 300
    report(12, f"delocalization: sup-norms <= (log N)^{cli.DELOC_LOG_POWER:g} "
               f"eta_*, W=1 inversion",
           ok, f"max {sup_max:.4f} <= {threshold:.4f}, control {control:.2f}, "
               f"{elapsed:.0f}s")


def test_que_control_localized_fails(tmp_path):
    # W=3 on the README's N = 495: eigenvectors localize on a few blocks, so
    # their block masses miss the share W/N by far more than the threshold.
    # que_epsilon = -3 widens the window to hold pairs in every replica;
    # at W=1 the window is empty in 2 of 3 replicas, which fails the
    # verdict for vacuity instead of localization
    code, raw, _ = run_command(tmp_path, "que", W=3, n=165, replicas=3,
                               parallelism=1, checks={"que_epsilon": -3})
    rep = json.loads(raw)
    assert code == 1 and rep["pass"] is False and rep["failures"] == []
    assert rep["vacuous_bound"] is False and rep["empty_windows"] == 0
    assert rep["overlap_dev_sq_max"] > rep["threshold"]


def test_c13_quantum_diffusion(diffusion_run):
    code, rep, elapsed = diffusion_run
    # the command's own verdict covers the Ward gate too
    ok = code == 0 and rep["pass"] and not rep["breaches"] \
        and not rep["failures"] and elapsed < 900
    report(13, f"quantum diffusion: every block pair within "
               f"max({cli.DIFFUSION_SIGMA:g}se, {cli.DIFFUSION_REL:.0%})",
           ok, f"breaching cells {len(rep['breaches'])}/{rep['cells']}, "
               f"{elapsed:.0f}s")


def test_c14_ward_gate(locallaw_runs, diffusion_run):
    reports = [json.loads(locallaw_runs[1][1]), diffusion_run[1]]
    violations = sum(r["ward_violations"] for r in reports)
    worst = max(r["ward_residual_max"] for r in reports)
    gates = {r["ward_gate"] for r in reports}
    report(14, f"per-sample Ward gate: zero violations at {cli.WARD_GATE:g}",
           violations == 0 and gates == {cli.WARD_GATE},
           f"worst per-sample residual {worst:.2e}")


def test_c15_determinism(locallaw_runs):
    codes = [code for code, _, _ in locallaw_runs.values()]
    outputs = [raw for _, raw, _ in locallaw_runs.values()]
    identical = outputs[0] == outputs[1]
    # byte-identical also means semantically identical
    parsed = json.loads(outputs[0])
    elapsed = sum(t for _, _, t in locallaw_runs.values())
    report(15, "determinism: parallelism 1 vs 8 give byte-identical JSON",
           codes == [0, 0] and identical and parsed["pass"],
           f"{len(outputs[0])} bytes, {elapsed:.0f}s")


# Controls of the Monte Carlo verdicts: each runs its criterion's command
# on the README lattice with a defect of a size fixed from theory before
# the first run, and the verdict must fail for that defect's reason.

# locallaw with m(z) taken at E + 1.5: at z = 0.1i the bias |m(1.5 + 0.1i)
# - m(0.1i)| = 0.77 alone reads 8.3 in units of 1 / (W ell eta), above the
# tolerance 5
LOCALLAW_CONTROL_SHIFT = 1.5
# diffusion with both predictions scaled by 1 + 0.5: five times the
# relative tolerance on every cell
DIFFUSION_CONTROL_SCALE = 0.5


def test_locallaw_control_shifted_energy_fails(tmp_path, monkeypatch):
    from bandlab import montecarlo as mc

    monkeypatch.setattr(
        mc, "stieltjes_m",
        lambda z: stieltjes_m(z + LOCALLAW_CONTROL_SHIFT))
    code, raw, _ = run_command(tmp_path, "locallaw")
    rep = json.loads(raw)
    assert code == 1 and rep["pass"] is False
    assert rep["block_residual_normalized"] > rep["tolerance"]
    assert rep["ward_violations"] == 0 and rep["failures"] == []


def test_diffusion_control_scaled_predictions_fail(tmp_path, monkeypatch):
    from bandlab import montecarlo as mc

    predictions = mc.diffusion_predictions

    def scaled(profile, z):
        return tuple((1 + DIFFUSION_CONTROL_SCALE) * p
                     for p in predictions(profile, z))

    monkeypatch.setattr(mc, "diffusion_predictions", scaled)
    code, raw, _ = run_command(tmp_path, "diffusion", eta=0.2, replicas=200)
    rep = json.loads(raw)
    assert code == 1 and rep["pass"] is False
    assert rep["breaches"]
    assert rep["ward_violations"] == 0 and rep["failures"] == []
