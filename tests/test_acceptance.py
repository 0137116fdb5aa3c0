"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``criterion NN [PASS|FAIL]`` line (run pytest with -s
to see them live). Monte Carlo criteria are pinned to master seed 20260809.
"""

import json
import time

import numpy as np
import pytest

from bandlab import (BlockLattice, KLoopCalculator,
                     build_translation_invariant, ell_t,
                     evolution_kernel_apply, flow_point,
                     interaction_strength, kloop_flow_derivative_residual,
                     mean_field_matrix, mean_field_profile,
                     random_walk_representation, select_parameters,
                     stieltjes_m, theta, theta_decay_report, validate,
                     ward_residual)
from bandlab.cli import main as cli_main
from bandlab.profiles import KERNELS

MASTER_SEED = 20260809


def report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    line = f"criterion {num:02d} [{tag}] {desc}{suffix}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def band_5_5():
    lat = BlockLattice(d=1, W=5, n=5)
    return lat, build_translation_invariant(lat, KERNELS["uniform"], 1)


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
    report(2, "parameter-selection identities < 1e-12 for 100 bulk z",
           worst < 1e-12 and elapsed < 1.0,
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
    report(3, "flow invariance residual < 1e-12 along 10 trajectories",
           worst < 1e-12, f"max residual {worst:.2e}")


def test_c04_profile_validation(band_5_5):
    lat, prof = band_5_5
    rep = validate(prof)
    mf = mean_field_profile(lat)
    lam2_mf = interaction_strength(mf)
    ok = (rep.row_sum_deviation < 1e-12
          and abs(rep.fullness - lat.W / (2 * lat.W + 1)) < 1e-12
          and rep.parity_checked and rep.parity_ok
          and lam2_mf == 0.0)
    report(4, "uniform-band validation values and mean-field lambda^2 = 0",
           ok, f"fullness {rep.fullness:.12f}, rowdev {rep.row_sum_deviation:.1e}")


def test_c05_k2_theta_consistency(band_5_5):
    lat, prof = band_5_5
    t0 = time.perf_counter()
    St = 0.7 * prof.assemble()
    m = stieltjes_m(0.0)
    calc = KLoopCalculator(lat, St, m)
    worst = 0.0
    for pair in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        dev = np.abs(calc.k_tensor(pair, via="recursion")
                     - calc.k_tensor(pair, via="theta")).max()
        worst = max(worst, float(dev))
    elapsed = time.perf_counter() - t0
    report(5, "K^(2) recursion path vs W^-d m m' Theta path, all pairs",
           worst < 1e-12 and elapsed < 5.0,
           f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_c06_ward_identity(band_5_5):
    t0 = time.perf_counter()
    m = stieltjes_m(0.3)
    t = 0.7
    worst = 0.0
    for lat_spec in [(1, 5, 5), (2, 3, 3)]:
        lat = BlockLattice(*lat_spec)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        St = t * prof.assemble()
        eta_t = (1 - t) * m.imag
        calc = KLoopCalculator(lat, St, m)
        for charges in [(1, -1), (-1, 1), (1, 1, -1), (1, -1, -1),
                        (-1, -1, 1), (-1, 1, 1)]:
            r = ward_residual(lat, St, m, eta_t, charges, calc=calc)
            worst = max(worst, r)
    elapsed = time.perf_counter() - t0
    report(6, "Ward identity residual < 1e-9 for n=2,3 at d=1 and d=2",
           worst < 1e-9 and elapsed < 60.0,
           f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_c07_kloop_flow_equation():
    lat = BlockLattice(d=1, W=3, n=3)
    prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
    t_f, t = 0.8, 0.6
    St = t_f * prof.assemble() + (t - t_f) * mean_field_matrix(lat)
    m = stieltjes_m(0.3)
    r1 = kloop_flow_derivative_residual(lat, St, m, (1, -1), 1e-3)
    r2 = kloop_flow_derivative_residual(lat, St, m, (1, -1), 5e-4)
    ok = r1 < 1e-4 and r2 <= r1 / 3
    report(7, "K-loop flow equation: dt=1e-3 residual < 1e-4, halving gains 3x",
           ok, f"r(dt)={r1:.2e}, r(dt/2)={r2:.2e}, ratio {r1 / r2:.2f}")


def test_c08_random_walk_representation():
    lat = BlockLattice(d=1, W=5, n=25)
    prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
    S = prof.assemble()
    worst_res, worst_row = 0.0, 0.0
    for t in (0.5, 0.9):
        St = t * S
        c_ker = 0.5 * lat.W * St[:lat.W, :lat.W].min()
        rep = random_walk_representation(lat, St, c_ker)
        worst_res = max(worst_res, rep.residual)
        worst_row = max(worst_row, float(np.abs(rep.K.sum(axis=1) - 1).max()))
    ok = worst_res < 1e-8 and worst_row < 1e-10
    report(8, "random-walk representation of Theta at t=0.5, 0.9",
           ok, f"residual {worst_res:.2e}, row-sum dev {worst_row:.2e}")


def test_c09_evolution_kernel_contraction():
    lat = BlockLattice(d=1, W=5, n=15)
    prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
    S = prof.assemble()
    se = mean_field_matrix(lat)
    params = select_parameters(0.0 + 0.3j, 0.2)
    mE = params.m_target
    t_i, t_f = params.t_i, params.t_f
    pairs = [(t_i, t_f), (t_i, (t_i + t_f) / 2), (0.55 * t_f, 0.9 * t_f),
             (0.85 * t_f, t_f), (0.8 * t_f, 0.95 * t_f)]
    rng = np.random.default_rng(MASTER_SEED + 2)
    worst = 0.0
    for s, t in pairs:
        St = t_f * S + (t - t_f) * se
        thetas = {p: theta(lat, St, p, mE)
                  for p in [(1, 1), (1, -1), (-1, 1), (-1, -1)]}
        bound = ((1 - s) / (1 - t)) ** 2
        for _ in range(100):
            A = rng.standard_normal((lat.n, lat.n))
            out = evolution_kernel_apply(lat, s, t, (1, -1), mE, thetas, A)
            worst = max(worst, float(np.abs(out).max()
                                     / (bound * np.abs(A).max())))
    report(9, "evolution-kernel contraction constant <= 10 over 5 (s,t) pairs",
           worst <= 10.0, f"realized constant {worst:.3f}")


def test_c10_theta_decay():
    lat = BlockLattice(d=1, W=5, n=25)
    prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
    lam = np.sqrt(interaction_strength(prof))
    S = prof.assemble()
    m = stieltjes_m(0.0)
    ok = True
    details = []
    for t in (0.3, 0.9):
        ell = ell_t(lam, t, lat.n)
        pm = theta_decay_report(lat, theta(lat, t * S, (1, -1), m), ell)
        pp = theta_decay_report(lat, theta(lat, t * S, (1, 1), m), ell)
        ok = ok and 0 < pm.decay_length <= 3 * ell and pm.monotone_ok
        ok = ok and pp.decay_length <= 3.0
        details.append(f"t={t}: xi_pm={pm.decay_length:.2f} vs ell={ell:.2f},"
                       f" xi_pp={pp.decay_length:.2f}")
    report(10, "Theta decay: (+,-) on scale <= 3*ell_t, same charge <= 3",
           ok, "; ".join(details))


# Criteria 11-15 run the CLI commands on the README lattice (d=1, W=33,
# n=15) and check the canonical reports they write, so each experiment's
# observable, scale and tolerance are defined once, in bandlab.cli.
_CONFIG = """\
[model]
type = {type}
d = 1
W = {W}
n = {n}
kernel = uniform
cutoff = 1

[spectral]
E = 0.0
eta = {eta}

[mc]
replicas = {replicas}
master_seed = {seed}
parallelism = {parallelism}

[output]
directory = {outdir}
"""


def run_command(workdir, command, type="translation_invariant", W=33, n=15,
                eta=0.1, replicas=50, parallelism=4):
    """Run one CLI command; return its exit code, report bytes and seconds."""
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / "config.ini"
    cfg.write_text(_CONFIG.format(type=type, W=W, n=n, eta=eta,
                                  replicas=replicas, seed=MASTER_SEED,
                                  parallelism=parallelism,
                                  outdir=workdir / "out"))
    t0 = time.perf_counter()
    code = cli_main([command, "--config", str(cfg)])
    elapsed = time.perf_counter() - t0
    return code, (workdir / "out" / f"{command}.json").read_bytes(), elapsed


@pytest.fixture(scope="module")
def locallaw_runs(tmp_path_factory):
    """Local-law runs at parallelism 1 and 8, for criteria 11, 14 and 15."""
    root = tmp_path_factory.mktemp("locallaw")
    return {par: run_command(root / f"par{par}", "locallaw", parallelism=par)
            for par in (1, 8)}


@pytest.fixture(scope="module")
def diffusion_run(tmp_path_factory):
    """The quantum-diffusion experiment (criteria 13 and 14)."""
    _, raw, elapsed = run_command(tmp_path_factory.mktemp("diffusion"),
                                  "diffusion", eta=0.2, replicas=200)
    return json.loads(raw), elapsed


def test_c11_local_law(locallaw_runs):
    rep = json.loads(locallaw_runs[1][1])
    elapsed = max(t for _, _, t in locallaw_runs.values())
    block_norm = rep["block_residual_normalized"]
    entry_norm = rep["entry_sq_normalized"]
    tol = rep["tolerance"]
    ok = block_norm <= tol and entry_norm <= tol and not rep["failures"] \
        and elapsed < 300
    report(11, "local law: normalized block and entry residuals <= 5",
           ok, f"block {block_norm:.2f}, entry {entry_norm:.2f}, "
               f"tolerance {tol:g}, {elapsed:.0f}s")


def test_c12_delocalization(tmp_path):
    t0 = time.perf_counter()
    _, raw, _ = run_command(tmp_path / "band", "deloc", replicas=20)
    rep = json.loads(raw)
    # W=1 is diagonal: its eigenvectors are localized, the bound inverts
    _, raw, _ = run_command(tmp_path / "control", "deloc", type="mean_field",
                            W=1, n=495, replicas=3, parallelism=1)
    control = json.loads(raw)["sup_norm_sq_max"]
    elapsed = time.perf_counter() - t0
    sup_max, threshold = rep["sup_norm_sq_max"], rep["threshold"]
    ok = sup_max <= threshold and control >= 0.5 and elapsed < 300
    report(12, "delocalization: sup-norms <= (log N)^3 eta_*, W=1 inversion",
           ok, f"max {sup_max:.4f} <= {threshold:.4f}, control {control:.2f}, "
               f"{elapsed:.0f}s")


def test_c13_quantum_diffusion(diffusion_run):
    rep, elapsed = diffusion_run
    ok = not rep["breaches"] and not rep["failures"] and elapsed < 900
    report(13, "quantum diffusion: every block pair within max(3se, 10%)",
           ok, f"breaching cells {len(rep['breaches'])}/{rep['cells']}, "
               f"{elapsed:.0f}s")


def test_c14_ward_gate(locallaw_runs, diffusion_run):
    reports = [json.loads(locallaw_runs[1][1]), diffusion_run[0]]
    violations = sum(r["ward_violations"] for r in reports)
    worst = max(r["ward_residual_max"] for r in reports)
    report(14, "per-sample Ward gate: zero violations at 1e-10",
           violations == 0, f"worst per-sample residual {worst:.2e}")


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
