"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Shared Monte Carlo products are computed once per session; every tolerance
is pinned here, not configurable.
"""
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from thzra import analytics, channel, cli, protocol, validation
from thzra.params import (Experiment, FadingParams, GammaAbsorption,
                          MisalignmentParams, ProtocolConfig, ThzLinkParams)

import reference

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
K_SET = (2, 5, 10, 20, 40)
TRIALS = 5000


def report(criterion, passed, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def base_experiment():
    link = ThzLinkParams(f_hz=300e9, d_m=100.0, gain_tx=316227.766,
                         gain_rx=316227.766, k_t=0.1, k_r=0.1,
                         avg_snr=10 ** 4.5)
    return Experiment(link=link, absorption=GammaAbsorption(k=3, beta=10.0),
                      fading=FadingParams(alpha=2.0, eta=1.0, kappa=0.0, mu=1),
                      misalignment=MisalignmentParams(rho=4.0),
                      protocol=ProtocolConfig(trials=TRIALS, seed=1))


@pytest.fixture(scope="module")
def sim_results():
    """5000-trial batch per (scheme, K), shared by criteria 1-3."""
    exp = base_experiment()
    out = {}
    for scheme in ("ftp", "atp"):
        for k in K_SET:
            e = exp.with_protocol(scheme=scheme, n_total=k, gamma_qos=0.0,
                                  trials=TRIALS, seed=100 + k)
            stats, _ = protocol.run_batch(e)
            out[(scheme, k)] = stats
    return out


def test_criterion_1_delay_vs_series(sim_results):
    worst = 0.0
    ok = True
    for scheme in ("ftp", "atp"):
        for k in K_SET:
            exact, _ = validation.exact_delay_energy(scheme, k)
            rel = abs(sim_results[(scheme, k)].mean_delay - exact) / exact
            worst = max(worst, rel)
            ok &= rel < 0.02
    report(1, ok, f"simulated mean delay vs exact series, worst rel err "
                  f"{worst:.4f} < 0.02 over FTP/ATP, K in {K_SET}")


def test_criterion_2_energy_vs_series(sim_results):
    worst = 0.0
    ok = True
    for scheme in ("ftp", "atp"):
        for k in K_SET:
            _, exact = validation.exact_delay_energy(scheme, k)
            rel = abs(sim_results[(scheme, k)].mean_transmissions - exact) / exact
            worst = max(worst, rel)
            ok &= rel < 0.02
    report(2, ok, f"simulated mean transmissions vs exact series, worst rel "
                  f"err {worst:.4f} < 0.02 over FTP/ATP, K in {K_SET}")


def test_criterion_3_headline_ratios(sim_results):
    delay_ratio = (sim_results[("ftp", 10)].mean_delay
                   / sim_results[("atp", 10)].mean_delay)
    energy_ratio = (sim_results[("atp", 40)].mean_transmissions
                    / sim_results[("ftp", 40)].mean_transmissions)
    gain = 1.0 - analytics.energy_ftp(1000) / analytics.delay_atp(1000)
    ok = (1.6 <= delay_ratio <= 2.0 and 1.35 <= energy_ratio <= 1.65
          and abs(gain - 1.0 / math.e) <= 0.05)
    report(3, ok, f"FTP/ATP delay ratio K=10: {delay_ratio:.3f} in [1.6,2.0]; "
                  f"ATP/FTP energy ratio K=40: {energy_ratio:.3f} in "
                  f"[1.35,1.65]; energy gain K=1000: {gain:.4f} vs 1/e "
                  f"{1/math.e:.4f} +- 0.05")


def test_criterion_4_bound_sweep_exhaustive():
    kmax = 10_000
    atp = reference.delay_atp_prefix(kmax)
    fails = []
    for K in range(3, kmax + 1):
        d_atp = float(atp[K - 1])
        d_ftp = analytics.delay_ftp(K)
        e_ftp = analytics.energy_ftp(K)
        lo, up = analytics.delay_bounds_ftp(K)
        if not lo < d_ftp < up:
            fails.append((K, "ftp_delay"))
        lo, up = analytics.delay_bounds_atp(K)
        if not lo <= d_atp <= up:
            fails.append((K, "atp_delay"))
        lo, up = analytics.energy_bounds_ftp(K)
        if not lo < e_ftp < up:
            fails.append((K, "ftp_energy"))
        lo, up = analytics.delay_bounds_atp(K)
        if not lo <= d_atp <= up:
            fails.append((K, "atp_energy"))
        lo, up = analytics.energy_gap_bounds(K)
        if not lo < d_atp - e_ftp < up:
            fails.append((K, "energy_gap"))
    report(4, not fails,
           f"all five brackets hold for every K in 3..10000 "
           f"(failures: {fails[:5] if fails else 'none'})")


def test_criterion_5_scaling_constants():
    ks = sorted(set(np.logspace(3, 4, 7).astype(int)))
    atp_pre = reference.delay_atp_prefix(max(ks))
    devs = {}
    ok = True
    for name, vals in (
            ("ftp/(K log K)",
             [analytics.delay_ftp(K) / (K * math.log(K)) for K in ks]),
            ("atp/(K e)", [float(atp_pre[K - 1]) / (K * math.e) for K in ks])):
        arr = np.asarray(vals)
        center = 0.5 * (arr.max() + arr.min())
        dev = float(np.max(np.abs(arr / center - 1.0)))
        devs[name] = dev
        ok &= dev < 0.05
    report(5, ok, "scaling ratios stay within 5% of a constant on "
                  f"K in [1e3,1e4]: max deviations {devs}")


def test_criterion_6_sampler_fidelity():
    n = 100_000
    exp = base_experiment()
    # misalignment vs its integrated law
    hp = channel.sample_misalignment(4.0, np.random.default_rng(61), n)
    rep_mis = validation.ks_compare(
        hp, lambda x: reference.misalignment_cdf(x, 4.0))
    # path gain histogram vs the analytic density's law
    hl = channel.sample_path_gain(exp.absorption, exp.link,
                                  np.random.default_rng(62), n)
    rep_hl = validation.chi_square_compare(
        hl, lambda x: channel.path_gain_cdf(x, exp.absorption, exp.link))
    # alpha-mu reduction of the fading sampler
    fp = FadingParams(alpha=2.6, eta=1.0, kappa=0.0, mu=2, r_hat=1.0)
    hf = channel.sample_fading(fp, np.random.default_rng(63), n)
    y = (hf / fp.r_hat) ** fp.alpha * fp.mu
    rep_hf = validation.ks_compare(y, lambda x: special.gammainc(fp.mu, x))
    ok = rep_mis.passed and rep_hl.passed and rep_hf.passed
    report(6, ok, f"misalignment KS {rep_mis.statistic:.5f} < "
                  f"{rep_mis.threshold:.5f}; path-gain chi2 p "
                  f"{rep_hl.p_value:.3f} > 0.01; alpha-mu KS "
                  f"{rep_hf.statistic:.5f} < {rep_hf.threshold:.5f} at n=1e5")


def test_criterion_7_no_fading_closed_form_equivalence():
    exp = replace(base_experiment(),
                  fading=FadingParams(enabled=False))
    gamma_th = 10 ** 0.5
    grid = [25, 27, 29, 31, 33, 35, 37, 39, 41, 43]
    n = 1_000_000
    curve = reference.outage_count(exp, gamma_th, grid, n, seed=71)
    worst_sigma = 0.0
    ok = True
    for db, phat in zip(curve.gamma_bar_db, curve.p_out):
        q = analytics.OutageQuery(gamma_th, 10 ** (db / 10.0), exp.link.k_h)
        p = analytics.cdf_snr_no_fading(q, exp.absorption,
                                        exp.misalignment.rho, exp.link)
        se = math.sqrt(max(p * (1.0 - p), 1e-300) / n)
        sig = abs(phat - p) / se
        worst_sigma = max(worst_sigma, sig)
        ok &= sig <= 3.0
    report(7, ok, f"Monte Carlo outage (fading off) vs closed form on a "
                  f"10-point grid at 1e6 draws/point: worst deviation "
                  f"{worst_sigma:.2f} binomial SE <= 3")


def test_criterion_8_diversity_order():
    gamma_th = 10 ** 0.5
    base = replace(base_experiment(),
                   link=replace(base_experiment().link, k_t=0.0, k_r=0.0))
    n = 2_000_000

    # set A: (alpha mu/2, rho/2, z/2) = (1, 2, 4.343), minimum 1 (fading)
    z_a = base.absorption.z_for(base.link)
    eff_a = analytics.diversity_order(2.0, 1.0, 4.0, z_a).effective
    grid_a = [38, 42, 46, 50, 54, 58]
    fit_a = reference.slope_fit(
        reference.outage_count(base, gamma_th, grid_a, n, seed=11))

    # set B: k=1, beta=60 -> z = 1.4477, minimum z/2 = 0.7238 (path loss)
    exp_b = replace(base, absorption=GammaAbsorption(k=1.0, beta=60.0))
    z_b = exp_b.absorption.z_for(exp_b.link)
    eff_b = analytics.diversity_order(2.0, 1.0, 4.0, z_b).effective
    fit_b = reference.slope_fit(
        reference.outage_count(exp_b, gamma_th, [45, 51, 57, 63, 69, 75], n,
                               seed=12))

    # invariance: k 3->1 at fixed beta (z unchanged), rho 4->6; min stays 1
    exp_k = replace(base, absorption=GammaAbsorption(k=1.0, beta=10.0))
    fit_k = reference.slope_fit(
        reference.outage_count(exp_k, gamma_th, grid_a, n, seed=11))
    exp_r = replace(base, misalignment=MisalignmentParams(rho=6.0))
    fit_r = reference.slope_fit(
        reference.outage_count(exp_r, gamma_th, grid_a, n, seed=11))

    ok_a = abs(fit_a.slope - eff_a) / eff_a < 0.15
    ok_b = abs(fit_b.slope - eff_b) / eff_b < 0.15
    ok_k = abs(fit_a.slope - fit_k.slope) <= 2.0 * (fit_a.stderr + fit_k.stderr)
    ok_r = abs(fit_a.slope - fit_r.slope) <= 2.0 * (fit_a.stderr + fit_r.stderr)
    report(8, ok_a and ok_b and ok_k and ok_r,
           f"slopes: set A {fit_a.slope:.3f} vs {eff_a:.3f}, set B "
           f"{fit_b.slope:.3f} vs {eff_b:.4f} (both within 15%); invariance "
           f"|dA-dK|={abs(fit_a.slope-fit_k.slope):.4f}, "
           f"|dA-dR|={abs(fit_a.slope-fit_r.slope):.4f} within 2(se+se)")


def test_criterion_9_composite_channel_properties():
    exp = base_experiment()          # fading on, k_h = 0.1414
    n = 1_000_000
    rng = lambda s: np.random.default_rng(s)
    g = channel.draw_snr_batch(exp, n, rng(91), rng(92), rng(93))
    ceiling = exp.link.snr_ceiling
    grid = np.logspace(-3, math.log10(ceiling * 0.999), 40)
    cdf = np.array([(g < x).mean() for x in grid])
    monotone = bool(np.all(np.diff(cdf) >= 0.0))
    supported = bool(g.min() >= 0.0 and g.max() < ceiling)

    # stochastic degradation as mean absorption grows (coupled seeds)
    heavy = replace(exp, absorption=GammaAbsorption(k=3, beta=25.0))
    gh = channel.draw_snr_batch(heavy, n, rng(91), rng(92), rng(93))
    probe = np.logspace(-2, 1.5, 12)
    degraded = bool(np.all([(gh < x).mean() >= (g < x).mean() for x in probe]))

    # collapse to the no-fading closed form when fading disabled
    nf = replace(exp, fading=FadingParams(enabled=False))
    gnf = channel.draw_snr_batch(nf, n, rng(94), rng(95), rng(96))
    collapse = True
    for gamma_th in (0.5, 3.16, 10.0):
        q = analytics.OutageQuery(gamma_th, exp.link.avg_snr, exp.link.k_h)
        p = analytics.cdf_snr_no_fading(q, exp.absorption,
                                        exp.misalignment.rho, exp.link)
        se = math.sqrt(p * (1 - p) / n)
        collapse &= abs(float((gnf < gamma_th).mean()) - p) <= 3 * se
    ok = monotone and supported and degraded and collapse
    report(9, ok, f"composite-channel CDF monotone={monotone}, support in "
                  f"[0, 1/k_h^2)={supported} (max {g.max():.2f} < "
                  f"{ceiling:.1f}), degrades with heavier absorption="
                  f"{degraded}, collapses to no-fading closed form={collapse}")


def test_criterion_10_hoeffding_concentration():
    K, n_per, n_batches = 5, 100, 1000
    exp = base_experiment()
    d_exact, e_exact = validation.exact_delay_energy("atp", K)
    dev_d = np.empty(n_batches)
    dev_e = np.empty(n_batches)
    for b in range(n_batches):
        e = exp.with_protocol(scheme="atp", n_total=K, gamma_qos=0.0,
                              trials=n_per, seed=500_000 + b)
        st, _ = protocol.run_batch(e)
        dev_d[b] = abs(st.mean_delay - d_exact)
        dev_e[b] = abs(st.mean_transmissions - e_exact)
    ok = True
    details = []
    for kind, dev in (("delay", dev_d), ("energy", dev_e)):
        for target in (0.9, 0.5, 0.2, 0.1, 0.05):
            if kind == "delay":
                eps = math.sqrt(n_per * math.log(2.0 / target) / 2.0)
            else:
                eps = math.sqrt(n_per * (n_per - 1) ** 2
                                * math.log(2.0 / target) / 2.0)
            freq = float(np.mean(dev > eps))
            bound = reference.hoeffding_bound(eps, n_per, kind)
            ok &= freq <= bound
            details.append(f"{kind}@eps={eps:.1f}: {freq:.3f}<={bound:.3f}")
    report(10, ok, f"deviation frequencies never exceed the concentration "
                   f"bounds over {n_batches} batches ({details[0]}, "
                   f"{details[-1]})")


def test_criterion_11_determinism(tmp_path):
    cfg_text = CONFIG.read_text().replace("n_users = 2,5,10,20,40",
                                          "n_users = 2,5")
    cfg = tmp_path / "det.cfg"
    cfg.write_text(cfg_text)
    pairs = []
    for cmd, extra in (("simulate", ["--trials", "300", "--dump-trials"]),
                       ("analyze", []),
                       ("sweep", [])):
        if cmd == "sweep":
            scfg = tmp_path / "sweep.cfg"
            scfg.write_text((CONFIG.parent / "sweep_outage.cfg").read_text()
                            .replace("outage_draws = 2000000",
                                     "outage_draws = 50000"))
            use_cfg = scfg
        else:
            use_cfg = cfg
        runs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{cmd}_{tag}"
            code = cli.main([cmd, "--config", str(use_cfg), "--seed", "17",
                             "--out", str(out)] + extra)
            assert code == 0
            runs.append(sorted(p for p in out.rglob("*.csv")))
        for a, b in zip(*runs):
            pairs.append((f"{cmd}/{a.name}", a.read_bytes() == b.read_bytes()))
    ok = all(same for _, same in pairs)
    report(11, ok, f"rerun with identical config+seed gives byte-identical "
                   f"CSVs for {len(pairs)} files across simulate/analyze/sweep"
                   f"{'' if ok else ': ' + str([n for n, s in pairs if not s])}")
