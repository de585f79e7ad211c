"""Release acceptance suite: one test per criterion, each printing a
pass/fail line and asserting at the criterion's stated tolerance."""

import math
import time

import numpy as np
from mpmath import mp

from betamix.cli import main as cli_main
from betamix.concentration import (
    MomentInputs,
    calibrate_corollary,
    calibrate_laplace_constant,
    corollary_bound,
    empirical_laplace,
    empirical_tail_grid,
    laplace_bound,
    make_fspec,
    truncate,
    unbounded_bound,
)
from betamix.mixing import (
    FiniteChain,
    FiniteJointDistribution,
    alpha_exact,
    beta_exact,
    davydov_check,
    fit_geometric_decay,
    ibragimov_check,
    markov_beta_lag,
)
from betamix.processes import (
    ContractiveChainSpec,
    Far1Spec,
    FunctionalPath,
    PsiSpec,
    estimate_chain_mixing,
    uniform_grid,
)
from betamix.regression import (
    KernelSpec,
    RegressionFit,
    dynamic_forecast_experiment,
    estimate_small_ball,
    m_constant,
)
from oracles import partition_beta, random_joint, random_transition
from test_concentration import corollary_oracle, laplace_oracle, unbounded_oracle

mp.dps = 50
SEED = 20250810


def _report(name: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_exact_inequality_suite():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    failures = []
    for i in range(200):
        m, ell = (int(v) for v in rng.integers(2, 6, size=2))
        table = random_joint(rng, m, ell)
        joint = FiniteJointDistribution(table)
        a, b = alpha_exact(joint), beta_exact(joint)
        if abs(b - partition_beta(table)) > 1e-12:
            failures.append(f"beta oracle mismatch at joint {i}")
        if not (a <= 0.25 + 1e-12 and 2 * a <= b + 1e-12 and b <= 1 + 1e-12):
            failures.append(f"ordering violated at joint {i}")
        h = rng.normal(0.0, 2.0, size=(m, ell))
        for p in (1.5, 2.0, 3.0, math.inf):
            if not davydov_check(joint, h, p).holds:
                failures.append(f"davydov p={p} failed at joint {i}")
    for i in range(100):
        m = int(rng.integers(2, 5))
        chain = FiniteChain.from_transition(random_transition(rng, m))
        n = int(rng.integers(2, 5))
        lags = np.sort(rng.choice(np.arange(1, 9), size=n, replace=False))
        funcs = [rng.uniform(0.0, 2.0, size=m) for _ in range(n)]
        if not ibragimov_check(chain, funcs, lags).holds:
            failures.append(f"ibragimov failed at chain {i}")
    elapsed = time.monotonic() - start
    _report(
        "criterion-1 exact-inequality suite",
        not failures and elapsed < 30.0,
        failures[0] if failures else f"{elapsed:.1f}s, 200 joints + 100 chains",
    )


def test_criterion_2_geometric_mixing_recovery():
    start = time.monotonic()
    transition = np.array([[0.9, 0.1], [0.2, 0.8]])
    chain = FiniteChain.from_transition(transition)
    lags = list(range(1, 13))
    betas = [markov_beta_lag(chain, n) for n in lags]
    fit = fit_geometric_decay(lags, betas)
    lam2 = float(sorted(np.abs(np.linalg.eigvals(transition)))[0])
    target = -math.log(lam2)
    elapsed = time.monotonic() - start
    ok = fit.r_squared > 0.99 and abs(fit.kappa1 - target) <= 0.05 * target and elapsed < 1.0
    _report(
        "criterion-2 geometric mixing recovery",
        ok,
        f"kappa1={fit.kappa1:.6f} target={target:.6f} r2={fit.r_squared:.6f} {elapsed:.2f}s",
    )


def _admissible_laplace_draw(rng):
    while True:
        kappa0 = float(rng.uniform(0.1, 5.0))
        kappa1 = float(rng.uniform(0.05, 2.0))
        a_min = max(14.0, 2.0 * kappa1)
        a = float(a_min * rng.uniform(1.0, 8.0))
        c = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(0.5, 5.0))
        cap = min(min(1.0, kappa1) / 2.0, kappa1 / (4.0 * math.log(a)))
        gamma = float(rng.uniform(0.05, 1.0)) * cap / b
        exponent = c * gamma**2 * b**2 * a * math.log(a) + gamma * b * a / math.log(a)
        if gamma > 0 and exponent < 250.0:
            return dict(kappa0=kappa0, kappa1=kappa1, C=c, gamma=gamma, A=a, B=b)


def _admissible_corollary_draw(rng):
    while True:
        params = dict(
            a1=float(rng.uniform(0.1, 10.0)),
            a2=float(rng.uniform(0.1, 5.0)),
            B=float(rng.uniform(0.5, 5.0)),
            epsilon=float(rng.uniform(0.01, 2.0)),
            n=int(rng.integers(3, 100_000)),
        )
        n = params["n"]
        exponent = (params["a2"] * params["epsilon"] * n
                    / (params["B"] * math.log(n) * math.log(math.log(n))))
        if exponent < 250.0:
            return params


def _admissible_unbounded_draw(rng):
    p = float(rng.uniform(1.2, 3.0))
    r = float(rng.uniform(1.2, 3.0))
    return dict(
        a1=float(rng.uniform(0.05, 3.0)),
        a2=float(rng.uniform(0.05, 3.0)),
        epsilon=float(rng.uniform(0.05, 3.0)),
        n=int(rng.integers(10, 100_000)),
        k=float(rng.uniform(1.3, 4.0)),
        p=p,
        u=r / (r - 1.0),
        moments=MomentInputs(
            m_pr=float(rng.uniform(0.05, 50.0)), m_k=float(rng.uniform(0.05, 50.0))
        ),
    )


def test_criterion_3_bound_formula_fidelity():
    start = time.monotonic()
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(50):
        params = _admissible_laplace_draw(rng)
        worst = max(worst, abs(laplace_bound(**params) / laplace_oracle(**params) - 1.0))
    for _ in range(50):
        params = _admissible_corollary_draw(rng)
        worst = max(worst, abs(corollary_bound(**params) / corollary_oracle(**params) - 1.0))
    worst_grid = 0.0
    for _ in range(50):
        params = _admissible_unbounded_draw(rng)
        value, b_star = unbounded_bound(**params)
        worst = max(worst, abs(value / unbounded_oracle(**params, B=b_star) - 1.0))
        fine, _ = unbounded_bound(**params, grid_points=2400)
        worst_grid = max(worst_grid, abs(value / fine - 1.0))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and worst_grid <= 1e-6 and elapsed < 10.0
    _report(
        "criterion-3 bound-formula fidelity",
        ok,
        f"worst rel err={worst:.2e}, grid vs 10x finer={worst_grid:.2e}, {elapsed:.1f}s",
    )


RATE_CHAIN = ContractiveChainSpec(
    map="linear", a=0.5, innovation="uniform", halfwidth=1.0, burn_in=1000
)


def test_criterion_4_rate_verification():
    start = time.monotonic()
    fspec = make_fspec("odd-clip-damped", RATE_CHAIN)
    epsilon = 0.04
    n_grid = [200, 400, 800, 1600, 3200]
    tails = [
        empirical_tail_grid(fspec, RATE_CHAIN, [(n, n)], [epsilon], 10_000, SEED)[0][0]
        for n in n_grid
    ]
    a1, fit = calibrate_corollary(tails, B=fspec.bound, epsilon=epsilon)
    dominated = all(
        corollary_bound(a1=a1, a2=fit.a2_hat, B=fspec.bound, epsilon=epsilon, n=te.n)
        >= te.p_hat + te.ci_half_width
        for te in tails
    )
    elapsed = time.monotonic() - start
    ok = fit.a2_hat > 0 and fit.r_squared > 0.9 and dominated and elapsed < 600.0
    _report(
        "criterion-4 rate verification",
        ok,
        f"a2={fit.a2_hat:.4f} r2={fit.r_squared:.4f} dominated={dominated} {elapsed:.0f}s",
    )


def test_criterion_5_laplace_domination():
    start = time.monotonic()
    mixing_fit = estimate_chain_mixing(RATE_CHAIN)
    kappa0, kappa1 = mixing_fit.kappa0, mixing_fit.kappa1
    fspec = make_fspec("odd-clip", RATE_CHAIN)
    a_grid = [14.0, 20.0, 50.0, 100.0]
    cap = min(min(1.0, kappa1) / 2.0, kappa1 / (4.0 * math.log(max(a_grid))))
    gamma = 0.9 * cap / fspec.bound
    estimates = {
        a: empirical_laplace(fspec, RATE_CHAIN, gamma, [(a, 1)], reps=20_000, seed=SEED)[0]
        for a in a_grid
    }
    c_value = calibrate_laplace_constant(
        [estimates[14.0].value], kappa0, kappa1, gamma, fspec.bound, 14.0
    )
    dominated = all(
        estimates[a].value
        <= laplace_bound(kappa0=kappa0, kappa1=kappa1, C=c_value, gamma=gamma,
                         B=fspec.bound, A=a)
        for a in a_grid
    )
    elapsed = time.monotonic() - start
    ok = dominated and elapsed < 300.0
    _report(
        "criterion-5 laplace domination",
        ok,
        f"C={c_value:.3g} gamma={gamma:.4f} kappa=({kappa0:.3f},{kappa1:.3f}) {elapsed:.0f}s",
    )


def test_criterion_6_small_ball_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(SEED + 6)
    m = 100_000
    radii = np.sqrt(rng.random(m))
    angle = rng.uniform(0.0, 2.0 * np.pi, m)
    points = np.column_stack([radii * np.cos(angle), radii * np.sin(angle)])
    model = estimate_small_ball(
        np.sqrt((points**2).sum(axis=1)), [0.1, 0.2, 0.4, 0.8],
        s_grid=[0.25, 0.5, 0.75, 1.0],
    )
    f_ok = all(
        abs(f - h**2) <= 3.0 * math.sqrt(h**2 * (1 - h**2) / m)
        for h, f in zip(model.h_grid, model.f_hat)
    )
    n_ref = model.f_hat[0] * m
    tau_ok = all(
        abs(t - s**2) <= 3.0 * math.sqrt(s**2 * (1 - s**2) / n_ref)
        for s, t in zip(model.s_grid[:-1], model.tau_hat[:-1])
    )
    elapsed = time.monotonic() - start
    ok = f_ok and tau_ok and elapsed < 30.0
    _report(
        "criterion-6 small-ball oracle",
        ok,
        f"F ok={f_ok} tau ok={tau_ok} m={m} {elapsed:.1f}s",
    )


def test_criterion_7_m_constant():
    kernel = KernelSpec("downslope-linear")
    m_lin = m_constant(kernel, lambda s: s)
    m_sq = m_constant(kernel, lambda s: s**2)
    ok = abs(m_lin - 1.5) <= 1e-6 and abs(m_sq - 4.0 / 3.0) <= 1e-6
    _report(
        "criterion-7 M constant",
        ok,
        f"tau=s -> {m_lin:.8f} (want 1.5), tau=s^2 -> {m_sq:.8f} (want 4/3)",
    )


def test_criterion_8_dynamic_forecast_consistency():
    start = time.monotonic()
    process = Far1Spec(rho=0.5, noise_scale=0.3, burn_in=1000)
    grid = uniform_grid(64)
    psi = PsiSpec("linear", weight=process.eigenfunction(grid))
    summaries = dynamic_forecast_experiment(
        process=process, psi=psi, noise_sd=0.1,
        kernel=KernelSpec("downslope-linear"), theta=0.3,
        points=[(n, n) for n in (200, 800, 3200)], reps=200, seed=SEED, grid_size=64,
    )
    medians = [s.median_error for s in summaries]
    f_errors = [s.median_f_error for s in summaries]
    undefined = [s.undefined_fraction for s in summaries]
    elapsed = time.monotonic() - start
    ok = (
        medians[-1] < medians[0]
        and all(b < a for a, b in zip(f_errors, f_errors[1:]))
        and all(u < 0.1 for u in undefined)
        and elapsed < 900.0
    )
    _report(
        "criterion-8 dynamic forecast consistency",
        ok,
        f"median err {medians[0]:.4f}->{medians[-1]:.4f}, "
        f"f err {f_errors[0]:.4f}->{f_errors[-1]:.4f}, "
        f"max undefined={max(undefined):.1%}, {elapsed:.0f}s",
    )


def test_criterion_9_exactness_micro_suite(tmp_path):
    rng = np.random.default_rng(SEED + 9)
    values = np.concatenate([
        rng.normal(0.0, 1.0, 400_000),
        rng.normal(0.0, 1e8, 200_000),
        rng.uniform(-4.0, 4.0, 200_000),
        rng.standard_cauchy(200_000),
    ])
    levels = rng.choice(
        np.array([0.5, 1.0, 1.0 + 2.0**-52, 2.5, 1e5]), size=values.size
    )
    tr = truncate(values, levels)
    mismatch = np.count_nonzero(tr.plus + tr.zero + tr.minus != values)
    truncate_ok = mismatch == 0

    grid = uniform_grid(5)
    dists = np.array([0.1, 0.2, 0.9, 1.5, 2.0])
    training = FunctionalPath(
        grid=grid, coords=dists[:, None] * np.ones((1, 5)),
        responses=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
    )
    fit = RegressionFit(kernel=KernelSpec("downslope-linear"), bandwidth=1.0, training=training)
    nw = fit.evaluate(np.zeros(5), 6 / 12)
    nw_ok = nw.defined and abs(nw.psi_hat - 8.8 / 4.8) <= 1e-12

    args = lambda out: [
        "mixing", "--seed", str(SEED), "--output", out,
        "--set", "mixing.joints=25", "--set", "mixing.chains=10",
    ]
    assert cli_main(args(str(tmp_path / "runA"))) == 0
    assert cli_main(args(str(tmp_path / "runB"))) == 0
    body_a = (tmp_path / "runA" / "mixing_report.csv").read_bytes()
    body_b = (tmp_path / "runB" / "mixing_report.csv").read_bytes()
    determinism_ok = body_a == body_b

    ok = truncate_ok and nw_ok and determinism_ok
    _report(
        "criterion-9 exactness micro-suite",
        ok,
        f"truncate mismatches={mismatch}/1e6, nw={nw.psi_hat!r}, "
        f"identical bodies={determinism_ok}",
    )
