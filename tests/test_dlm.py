import contextlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import make_moments
from driftlab.cli import ingest
from driftlab.dlm import (
    CollinearDatasetsError,
    DegreesOfFreedomError,
    WeightFitOverflowError,
    _fit_stack,
    _sum_to_one,
    closed_form_weights,
    fit_to_dict,
    fit_weights,
    summarize,
    target_ci,
)
from driftlab.moments import evaluate_moments
from driftlab.testfuncs import parse_test_functions


def random_problem(rng, k, n_funcs, scale=1.0):
    return make_moments(rng.normal(scale=scale, size=(k + 1, n_funcs)))


def low_power_warning(mm):
    """pytest.warns for the warning a weight fit on ``mm`` gives when L == K."""
    if mm.n_functions != mm.n_sources:
        return contextlib.nullcontext()
    return pytest.warns(UserWarning, match="L == K leaves a single degree of freedom")


def test_single_dataset_weight_is_one(rng):
    mm = random_problem(rng, 1, 5)
    for mode in ("sum_to_one", "simplex"):
        fit = fit_weights(mm, mode=mode)
        assert fit.beta_hat.tolist() == [1.0]
        assert fit.df == 5
        assert not fit.non_unique


def test_exact_interpolation(rng):
    phi = rng.normal(size=(3, 8))
    phi[0] = phi[2]  # target equals source 2 exactly
    fit = fit_weights(make_moments(phi))
    assert fit.beta_hat == pytest.approx([0.0, 1.0], abs=1e-10)
    assert fit.residuals == pytest.approx(np.zeros(8), abs=1e-10)
    assert fit.sigma2_hat == pytest.approx(0.0, abs=1e-18)


def test_closed_form_matches_reparametrized(rng):
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 9))
        n_funcs = int(rng.integers(k, 40))
        mm = random_problem(rng, k, n_funcs)
        with low_power_warning(mm):
            fit = fit_weights(mm)
        cf = closed_form_weights(mm)
        worst = max(worst, np.abs(fit.beta_hat - cf).max())
    assert worst < 1e-8


def test_rss_identity(rng):
    for _ in range(50):
        k = int(rng.integers(2, 7))
        mm = random_problem(rng, k, int(rng.integers(k + 2, 30)))
        fit = fit_weights(mm)
        phi = (mm.phi_hat[1:] - mm.phi_hat[0]).T
        ones = np.ones(k)
        rss_formula = 1.0 / (ones @ np.linalg.solve(phi.T @ phi, ones))
        assert fit.rss == pytest.approx(rss_formula, rel=1e-8)


def test_reparametrized_covariance_identity(rng):
    # (design' design)^{-1} equals the Schur-style reduction of the
    # unreparametrized normal-equations inverse
    for _ in range(20):
        k = int(rng.integers(2, 7))
        mm = random_problem(rng, k, int(rng.integers(k + 3, 25)))
        fit = fit_weights(mm)
        phi = (mm.phi_hat[1:] - mm.phi_hat[0]).T
        g_inv = np.linalg.inv(phi.T @ phi)
        ones = np.ones(k)
        reduced = g_inv - np.outer(g_inv @ ones, ones @ g_inv) / (ones @ g_inv @ ones)
        r_mat = reduced[: k - 1, : k - 1]
        lhs = np.linalg.inv(fit.design.T @ fit.design)
        assert np.allclose(lhs, r_mat, rtol=1e-8, atol=1e-12)


def test_grid_search_oracle_5x3(rng):
    mm = random_problem(rng, 3, 5)
    fit = fit_weights(mm)
    # dense grid over the constraint plane as an independent oracle
    grid = np.linspace(-2, 3, 401)
    phi = (mm.phi_hat[1:] - mm.phi_hat[0]).T
    best = None
    for b1 in grid:
        b2 = grid
        b3 = 1.0 - b1 - b2
        betas = np.column_stack([np.full_like(b2, b1), b2, b3])
        vals = np.einsum("ij,jk,ik->i", betas, phi.T @ phi, betas)
        idx = np.argmin(vals)
        if best is None or vals[idx] < best[0]:
            best = (vals[idx], betas[idx])
    assert fit.beta_hat == pytest.approx(best[1], abs=0.02)
    assert fit.rss <= best[0] + 1e-12


def test_reference_dataset_invariance(rng):
    mm = random_problem(rng, 4, 20)
    fit = fit_weights(mm)
    perm = [2, 0, 3, 1]
    permuted = make_moments(np.vstack([mm.phi_hat[0][None, :], mm.phi_hat[1:][perm]]))
    fit_p = fit_weights(permuted)
    unpermuted = np.empty(4)
    for new_pos, old_pos in enumerate(perm):
        unpermuted[old_pos] = fit_p.beta_hat[new_pos]
    assert np.abs(unpermuted - fit.beta_hat).max() < 1e-8
    assert fit_p.f_stat == pytest.approx(fit.f_stat, rel=1e-8)
    assert fit_p.rss == pytest.approx(fit.rss, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=25),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_sum_to_one_invariant(k, extra, seed):
    rng = np.random.default_rng(seed)
    mm = make_moments(rng.normal(size=(k + 1, k + extra)))
    for mode in ("sum_to_one", "simplex"):
        with low_power_warning(mm):
            fit = fit_weights(mm, mode=mode)
        assert abs(fit.beta_hat.sum() - 1.0) < 1e-12
        assert fit.rss == pytest.approx(float(fit.residuals @ fit.residuals))
        assert fit.rss == pytest.approx(fit.sigma2_hat * fit.df, rel=1e-12, abs=1e-300)
        if mode == "simplex":
            assert fit.beta_hat.min() >= 0


# moments (row 0 the target) on which the simplex fit drops a source and later
# adds it back, as its KKT multiplier has turned negative: the target is a
# Dirichlet(0.5) mix of the sources plus noise, found by a seeded search
ADD_BACK_PROBLEM = [
    [1.03, -0.56, 1.25, 0.13, -0.57, -0.08],
    [1.0, -0.35, 1.24, 0.72, 0.4, 0.24],
    [-0.44, -1.17, -0.33, 0.23, -0.7, -0.96],
    [0.45, -0.5, 0.71, 0.45, -0.56, -0.25],
    [0.79, -0.88, 0.66, 0.12, 0.24, 1.04],
    [-0.46, -2.14, -0.09, 0.47, -0.81, 2.97],
]


def test_simplex_mode_matches_slsqp(rng):
    from scipy.optimize import minimize

    problems = []
    for _ in range(20):
        k = int(rng.integers(2, 6))
        problems.append(random_problem(rng, k, int(rng.integers(k, 20))))
    for mm in [*problems, make_moments(ADD_BACK_PROBLEM)]:
        k = mm.n_sources
        with low_power_warning(mm):
            fit = fit_weights(mm, mode="simplex")
        phi = (mm.phi_hat[1:] - mm.phi_hat[0]).T
        g = phi.T @ phi

        res = minimize(
            lambda b: b @ g @ b,
            np.full(k, 1 / k),
            method="SLSQP",
            bounds=[(0, 1)] * k,
            constraints={"type": "eq", "fun": lambda b: b.sum() - 1},
        )
        # SLSQP reports slightly infeasible points at its own tolerance
        assert fit.beta_hat @ g @ fit.beta_hat <= res.fun + 1e-6 * (1 + abs(res.fun))


def test_simplex_duplicate_datasets_min_norm_flagged(rng):
    phi = rng.normal(size=(3, 10))
    phi[2] = phi[1]  # identical sources
    fit = fit_weights(make_moments(phi), mode="simplex")
    assert fit.non_unique
    assert fit.beta_hat == pytest.approx([0.5, 0.5], abs=1e-10)


def test_simplex_identical_pair_beside_a_distinct_source_splits_equally(rng):
    a, b = rng.normal(size=(2, 12))
    target = 0.4 * a + 0.6 * b + rng.normal(scale=0.01, size=12)
    fit = fit_weights(make_moments([target, a, a, b]), mode="simplex")
    assert fit.non_unique
    assert fit.beta_hat[0] == pytest.approx(fit.beta_hat[1], abs=1e-12)
    assert fit.beta_hat == pytest.approx([0.2, 0.2, 0.6], abs=0.05)


def test_simplex_zero_deviations_give_uniform_flagged():
    fit = fit_weights(make_moments(np.ones((4, 6))), mode="simplex")
    assert fit.non_unique
    assert fit.beta_hat == pytest.approx(np.full(3, 1 / 3), abs=1e-15)


def simplex_problems(seed, count):
    """Random (L, K) deviation matrices, K <= 6 and L <= 20, at scales 1e-6 to
    10, half of them with one source duplicated."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(2, 7))
        phi = rng.normal(size=(int(rng.integers(k + 1, 21)), k))
        if rng.random() < 0.5:
            i, j = rng.choice(k, size=2, replace=False)
            phi[:, j] = phi[:, i]
        yield phi * 10.0 ** rng.choice([-6, -5, -3, 0, 1])


def simplex_oracle(phi):
    """Least |Phi b|^2 over the simplex, by solving the sum-to-one KKT system
    on every support. A nonnegative solution, normalized, is feasible, so its
    value bounds the optimum from above; on the support of an optimum with
    affinely independent columns it attains it."""
    k = phi.shape[1]
    unit = phi / np.abs(phi).max()  # the minimizer does not depend on the scale
    gram = unit.T @ unit
    best = np.inf
    for size in range(1, k + 1):
        for support in map(list, itertools.combinations(range(k), size)):
            kkt = np.ones((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * gram[np.ix_(support, support)]
            kkt[size, size] = 0.0
            try:
                b = np.linalg.solve(kkt, np.eye(size + 1)[size])[:size]
            except np.linalg.LinAlgError:
                continue
            if b.min() >= -1e-12:
                full = np.zeros(k)
                full[support] = np.clip(b, 0.0, None) / np.clip(b, 0.0, None).sum()
                best = min(best, float(np.sum((phi @ full) ** 2)))
    return best


def test_simplex_matches_the_subset_enumeration_oracle():
    for phi in simplex_problems(seed=5, count=400):
        fit = fit_weights(make_moments(np.vstack([np.zeros(len(phi)), phi.T])),
                          mode="simplex")
        assert fit.beta_hat.min() >= 0.0
        assert fit.rss == pytest.approx(simplex_oracle(phi), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("factor", [1e-6, 1e-3, 1e3])
def test_simplex_weights_do_not_depend_on_the_scale(factor):
    for phi in simplex_problems(seed=6, count=200):
        phi_hat = np.vstack([np.zeros(len(phi)), phi.T])
        fit = fit_weights(make_moments(phi_hat), mode="simplex")
        scaled = fit_weights(make_moments(factor * phi_hat), mode="simplex")
        assert scaled.beta_hat == pytest.approx(fit.beta_hat, abs=1e-9)
        assert scaled.non_unique == fit.non_unique


def lstsq_reference(phi):
    """The per-problem solve: np.linalg.lstsq of -Phi_K on the design
    Phi_j - Phi_K, the weights and the rank."""
    design = phi[:, :-1] - phi[:, -1:]
    free, _, rank, _ = np.linalg.lstsq(design, -phi[:, -1], rcond=None)
    return np.append(free, 1.0 - free.sum()), rank


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_stacked_solve_matches_per_problem_lstsq(k, deficient):
    rng = np.random.default_rng(40 + k)
    for n_funcs in (k, k + 1, 3 * k + 7, 60):
        phi = rng.normal(size=(25, n_funcs, k))
        if deficient:
            # source 1 repeats source 0; for K = 2 that zeroes the one design column
            phi[..., 1] = phi[..., 0]
        beta, rank = _sum_to_one(phi)[:2]
        for i in range(len(phi)):
            want, want_rank = lstsq_reference(phi[i])
            assert rank[i] == want_rank == k - 1 - deficient
            np.testing.assert_allclose(beta[i], want, rtol=0, atol=1e-9)


def test_fit_stack_of_one_is_fit_weights(rng):
    mm = random_problem(rng, 3, 12)
    fits = _fit_stack(mm.phi_hat[None])
    fit = fit_weights(mm)
    np.testing.assert_array_equal(fits.beta[0], fit.beta_hat)
    np.testing.assert_array_equal(fits.se[0], fit.se)
    assert (fits.rss[0], fits.f_stat[0]) == (fit.rss, fit.f_stat)


@pytest.mark.parametrize("mode", ["sum_to_one", "simplex"])
def test_a_fit_beyond_the_float_range_names_the_function_and_dataset(rng, mode):
    phi_hat = rng.normal(size=(4, 6))
    phi_hat[0, 2] = 1e300  # finite, but its residual square is not
    with pytest.raises(WeightFitOverflowError,
                       match="test function 'f2' takes the weight fit beyond the float range: "
                             "its mean on dataset 'target' is 1e\\+300"):
        fit_weights(make_moments(phi_hat), mode=mode)


def test_collinearity_error_names_datasets(rng):
    phi = rng.normal(size=(4, 10))
    phi[2] = phi[1]
    with pytest.raises(CollinearDatasetsError, match="source_1.*source_2"):
        fit_weights(make_moments(phi))


def test_near_collinear_sources_with_large_weights_fit():
    # two of 16 sources agree to 1e-8: the weights reach about 1e7, and
    # their sum misses 1 by more than an absolute 1e-12
    rng = np.random.default_rng(0)
    phi_hat = rng.normal(size=(17, 30))
    phi_hat[2] = phi_hat[1] + 1e-8 * rng.normal(size=30)
    fit = fit_weights(make_moments(phi_hat))
    assert np.abs(fit.beta_hat).max() > 1e6
    assert fit.beta_hat.sum() == pytest.approx(1.0, abs=1e-6)


def test_df_guards(rng):
    with pytest.raises(DegreesOfFreedomError):
        fit_weights(random_problem(rng, 4, 3))
    with pytest.warns(UserWarning, match="low"):
        fit = fit_weights(random_problem(rng, 3, 3))
    assert fit.df == 1


def test_t_statistic_reference_pair():
    assert f"{0.7846112 / 0.0184325:.3f}" == "42.567"


def test_uniform_beta_gives_zero_f(rng):
    k = 3
    design = rng.normal(size=(12, k - 1))
    # outcome: exact uniform fit plus a residual orthogonal to the columns
    noise = rng.normal(size=12)
    noise -= design @ np.linalg.lstsq(design, noise, rcond=None)[0]
    target_vec = design @ np.full(k - 1, 1 / k) + noise
    # rebuild phi_hat realizing this design: reference source = zeros
    phi_hat = np.zeros((k + 1, 12))
    phi_hat[0] = target_vec
    for j in range(k - 1):
        phi_hat[1 + j] = design[:, j]
    fit = fit_weights(make_moments(phi_hat))
    assert fit.beta_hat == pytest.approx(np.full(k, 1 / k), abs=1e-9)
    assert fit.f_stat == 0.0
    assert fit.f_pvalue == pytest.approx(1.0)


def test_simplex_summary_of_the_fixture():
    # the simplex layout: no inference, one weight per source and the RSS line
    fixture = Path(__file__).parent / "data" / "fixture_panel"
    data = ingest([str(fixture / f"source_{k}.csv") for k in range(1, 5)],
                  str(fixture / "target.csv"), "income")
    declarations = json.loads((fixture / "fit_config.json").read_text())["test_functions"]
    moments = evaluate_moments(data, parse_test_functions(declarations, data))
    assert summarize(fit_weights(moments, mode="simplex"), "fixture_panel") == (
        "Simplex weight fit: target ~ source_1 + source_2 + source_3 + source_4\n"
        "  source_1: 0.0161507\n"
        "  source_2: 0.3831287\n"
        "  source_3: 0.6007206\n"
        "  source_4: 0.0000000\n"
        "RSS 0.0127658 on 17 degrees of freedom\n"
    )


def test_r_squared_uniform_and_interpolation(rng):
    phi = rng.normal(size=(3, 8))
    phi[0] = phi[2]
    fit = fit_weights(make_moments(phi))
    assert fit.r2 == pytest.approx(1.0)
    assert fit.adj_r2 == pytest.approx(1.0)

    # engineered uniform optimum -> R^2 = 0
    k = 3
    design = np.random.default_rng(0).normal(size=(10, k - 1))
    noise = np.random.default_rng(1).normal(size=10)
    noise -= design @ np.linalg.lstsq(design, noise, rcond=None)[0]
    phi_hat = np.zeros((k + 1, 10))
    phi_hat[0] = design @ np.full(k - 1, 1 / k) + noise
    phi_hat[1] = design[:, 0]
    phi_hat[2] = design[:, 1]
    fit = fit_weights(make_moments(phi_hat))
    assert fit.r2 == pytest.approx(0.0, abs=1e-12)
    assert fit.adj_r2 == pytest.approx(1.0 - 10 / fit.df, abs=1e-12)


def test_adjusted_r_squared_convention():
    r2, n_funcs, k = 0.5088, 1000, 4
    adj = 1 - (1 - r2) * n_funcs / (n_funcs - k + 1)
    assert f"{adj:.4f}" == "0.5073"


def test_r_squared_undefined_when_uniform_interpolates(rng):
    phi = np.zeros((3, 6))
    phi[1] = rng.normal(size=6)
    phi[2] = -phi[1]  # uniform average equals the zero target exactly
    fit = fit_weights(make_moments(phi))
    assert fit.rss_uniform == 0.0
    assert np.isnan(fit.r2) and np.isnan(fit.adj_r2)
    assert "uniform-weight RSS is zero; R^2 undefined" in fit.notes


def test_target_ci_zero_residuals(rng):
    phi = rng.normal(size=(3, 8))
    phi[0] = phi[2]
    mm = make_moments(phi)
    fit = fit_weights(mm)
    ci = target_ci(fit, np.array([1.0, 2.0]), 4.0, level=0.95)
    assert ci.half_width == pytest.approx(0.0, abs=1e-12)
    assert ci.estimate == pytest.approx(fit.beta_hat @ np.array([1.0, 2.0]))


def test_target_ci_constant_function(rng):
    mm = random_problem(rng, 2, 10)
    fit = fit_weights(mm)
    ci = target_ci(fit, np.array([3.0, 3.0]), 0.0)
    assert ci.half_width == 0.0
    assert ci.estimate == pytest.approx(3.0)
    assert fit.shift_scale == pytest.approx(fit.rss / fit.n_functions)


def test_target_ci_normal_oracle(rng):
    # a declared function's target mean, from its source means and pooled variance
    phi_hat = rng.normal(size=(3, 12))
    pooled = np.eye(12)
    fit = fit_weights(make_moments(phi_hat, pooled=pooled))
    ci = target_ci(fit, phi_hat[1:, 3], pooled[3, 3], level=0.9)
    center = fit.beta_hat @ phi_hat[1:, 3]
    assert ci.estimate == pytest.approx(center)
    z = stats.norm.ppf(0.95)
    assert ci.half_width == pytest.approx(z * np.sqrt(fit.rss / 12))
    with pytest.raises(ValueError, match="level"):
        target_ci(fit, phi_hat[1:, 3], pooled[3, 3], level=1.5)
    with pytest.raises(ValueError, match="one mean per source"):
        target_ci(fit, phi_hat[:, 3], pooled[3, 3])


def test_duplicated_function_with_whitening_keeps_beta(rng):
    # duplicating a test function and then whitening adds no information:
    # whitening drops the duplicate, and the fitted weights must not move
    from driftlab.moments import MomentMatrix, whiten_moments

    n_funcs = 6
    phi_hat = rng.normal(size=(4, n_funcs))
    pooled = np.eye(n_funcs)
    mm = make_moments(phi_hat, pooled=pooled)
    base_fit = fit_weights(mm)

    dup_phi = np.column_stack([phi_hat, phi_hat[:, -1]])
    dup_pooled = np.zeros((n_funcs + 1, n_funcs + 1))
    dup_pooled[:n_funcs, :n_funcs] = pooled
    dup_pooled[n_funcs, n_funcs] = pooled[-1, -1]
    dup_pooled[n_funcs, n_funcs - 1] = dup_pooled[n_funcs - 1, n_funcs] = pooled[-1, -1]
    mm_dup = MomentMatrix(
        phi_hat=dup_phi,
        names=tuple(f"f{i}" for i in range(n_funcs)) + ("f_dup",),
        sizes=(100,) * 4,
        source_names=mm.source_names,
        target_name="target",
        pooled_var=dup_pooled,
    )
    with pytest.warns(UserWarning, match=r"drops 1 of 7 .*\['f_dup'\]"):
        mm_white = whiten_moments(mm_dup)
    assert mm_white.names == mm_dup.names[:n_funcs]
    fit = fit_weights(mm_white)
    assert np.abs(fit.beta_hat - base_fit.beta_hat).max() < 1e-6


def test_summary_formatting_contracts(rng):
    mm = random_problem(rng, 3, 20)
    fit = fit_weights(mm)
    text = summarize(fit)
    assert text.startswith("Call:\n")
    for block in ["Residuals:", "Coefficients:", "Signif. codes:",
                  "Residual standard error:", "Multiple R-squared:", "F-statistic:"]:
        assert block in text
    # residual SE line shows 4 significant digits and the df
    import re

    m = re.search(r"Residual standard error: ([0-9.]+) on (\d+) degrees of freedom", text)
    assert m and int(m.group(2)) == fit.df

    # injected values reproduce the reference line verbatim
    from dataclasses import replace

    ref = replace(
        fit,
        sigma2_hat=0.1377**2,
        df=997,
        r2=0.5088,
        adj_r2=0.5073,
        f_stat=344.3,
        f_pvalue=1e-18,
    )
    text = summarize(ref)
    assert "Residual standard error: 0.1377 on 997 degrees of freedom" in text
    assert "Multiple R-squared:  0.5088,\tAdjusted R-squared:  0.5073" in text
    assert "p-value: < 2.2e-16" in text


def test_five_number_summary_matches_numpy_quartiles(rng):
    mm = random_problem(rng, 2, 9)
    fit = fit_weights(mm)
    text = summarize(fit)
    line = text.splitlines()[text.splitlines().index("Residuals:") + 2]
    shown = [float(v) for v in line.split()]
    expected = np.percentile(fit.residuals, [0, 25, 50, 75, 100])
    assert shown == pytest.approx(expected, abs=1e-5)


def test_whiteness_diagnostic_reported(rng):
    phi_hat = rng.normal(size=(3, 3))
    pooled = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.0]])
    mm = make_moments(phi_hat, pooled=pooled)
    fit = fit_weights(mm)
    assert fit_to_dict(fit)["max_offdiag_corr"] == pytest.approx(0.3)
