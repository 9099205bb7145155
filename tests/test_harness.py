import json

import numpy as np
import pytest
from scipy.special import ndtri

import driftlab as dl
from driftlab import analytic, cli
from driftlab import harness as H
from driftlab.erm import fit_erm, squared_error_loss
from driftlab.perturb import WeightLaw
from driftlab.rng import split_uniform, substream


def test_analytic_sigma_w_independent_of_perturb_module():
    # the harness targets re-derive sigma_w from scheme parameters; they
    # must agree with what the simulation module reports for its schemes
    law = dl.lognormal_law(0.1, 0.4)
    scheme = dl.PerturbationScheme(16, dl.IndependentWeights((law, law)))
    target = analytic.scheme_sigma_w("independent", laws=[("lognormal", 0.1, 0.4)] * 2)
    assert np.allclose(scheme.weight_law.sigma_w(), target)

    mix = dl.MixtureWeights((law,), ((0.9,),), (0.02,))
    scheme = dl.PerturbationScheme(16, mix)
    target = analytic.scheme_sigma_w(
        "mixture",
        base_laws=[("lognormal", 0.1, 0.4)],
        coefficients=[[0.9]],
        noise_sd=[0.02],
    )
    assert np.allclose(scheme.weight_law.sigma_w(), target)

    for sd, k in [(0.03, 3), (0.3, 4)]:
        walk = dl.RandomWalkWeights(dl.uniform_law(0.5, 1.5), sd, k)
        scheme = dl.PerturbationScheme(16, walk)
        target = analytic.scheme_sigma_w(
            "random_walk", base=("uniform", 0.5, 1.5), innovation_sd=sd, k=k
        )
        assert np.allclose(scheme.weight_law.sigma_w(), target)

    # two bases, one derived row on each, with large noise factors
    mix = dl.MixtureWeights(
        (dl.uniform_law(0.9, 1.1), law), ((1.0, 0.0), (0.7, 0.3)), (0.6, 0.4)
    )
    scheme = dl.PerturbationScheme(16, mix)
    target = analytic.scheme_sigma_w(
        "mixture",
        base_laws=[("uniform", 0.9, 1.1), ("lognormal", 0.1, 0.4)],
        coefficients=[[1.0, 0.0], [0.7, 0.3]],
        noise_sd=[0.6, 0.4],
    )
    assert np.allclose(scheme.weight_law.sigma_w(), target)


def test_analytic_uniform_moments():
    cov = analytic.uniform_poly_cov()
    # direct numerical integration oracle
    u = (np.arange(200_000) + 0.5) / 200_000
    v = np.stack([u, u * u])
    oracle = np.cov(v, bias=True)
    assert np.allclose(cov, oracle, atol=1e-8)


def test_effective_row_cov_structure():
    sigma = np.diag([0.2, 0.2])
    eff = analytic.effective_row_cov(sigma, m=100, n_sources=[1000, 2000], n_target=500)
    assert eff[0, 0] == pytest.approx(0.2 + 0.1 + 0.2)
    assert eff[1, 1] == pytest.approx(0.2 + 0.05 + 0.2)
    assert eff[0, 1] == pytest.approx(0.2)
    no_target = analytic.effective_row_cov(sigma, 100, [1000, 2000], None)
    assert no_target[0, 1] == pytest.approx(0.0)


def test_walsh_basis_orthonormal_zero_mean():
    table = H._walsh_table(31, 32)
    assert np.allclose(table @ table.T / 32, np.eye(31))
    assert np.allclose(table.mean(axis=1), 0.0)
    # the grid rule is a settings rule of both Walsh checks
    with pytest.raises(ValueError, match="null_laws.m must be a power of two"):
        H.HarnessConfig(null_laws=H.NullLawsConfig(m=32, n_functions=32))
    with pytest.raises(ValueError, match="ci_chi2.m must be a power of two"):
        H.HarnessConfig(ci_chi2=H.CiChi2Config(m=48, n_functions=10))


def test_count_sampler_has_the_law_of_sample_uniform():
    # on one fixed world, per-replicate bin counts and row means from the
    # harness sampler against those of sample_uniform's i.i.d. rows
    from scipy import stats

    m, n, replicates = 16, 200, 2000
    scheme, _ = H._lognormal_scheme(m, 0.5, 1)
    world = dl.realize_world(scheme, substream(3, 0))
    counts = np.zeros((2, m), dtype=np.int64)
    means = np.empty((2, replicates))
    harness_rng, direct_rng = substream(3, 1), substream(3, 2)
    for r in range(replicates):
        c = H._bin_counts(world[0], n, harness_rng)
        assert c.sum() == n
        u = H._bin_rows(c, harness_rng)
        assert np.array_equal(np.bincount((u * m).astype(int), minlength=m), c)
        counts[0] += c
        means[0, r] = u.mean()
        v = dl.sample_uniform(world, 0, n, direct_rng)
        hist = np.bincount((v * m).astype(int), minlength=m)
        counts[1] += hist
        means[1, r] = v.mean()
    assert stats.chi2_contingency(counts).pvalue > 0.01
    assert stats.ks_2samp(means[0], means[1]).pvalue > 0.01


@pytest.mark.parametrize("m", [3, 100, 512, 4096])
def test_bin_rows_keep_the_top_draw_inside_its_bin(m):
    class TopRandom:
        def random(self, n):
            return np.full(n, 1.0 - 2.0**-53)

    counts = np.full(m, 2)
    for bins in (None, np.arange(0, m, 3)):
        u = H._bin_rows(counts, TopRandom(), bins)
        b = np.repeat(np.arange(m) if bins is None else bins, 2)
        assert np.all(u < 1.0)
        assert np.all(u * m <= b + 1)
        if m & (m - 1) == 0:
            assert np.array_equal(np.floor(u * m), b)


@pytest.mark.parametrize("m", [32, 128, 256])
@pytest.mark.parametrize("prob", [0.5, 0.25])
def test_event_bins_are_the_rows_with_x_below_prob(m, prob):
    # random rows plus the first and the last double of every bin
    edges = np.arange(m) / m
    u = np.concatenate([substream(4, 0).random(20_000), edges, edges + (1 / m - 2.0**-53)])
    in_event = np.isin((u * m).astype(int), H._event_bins(m, prob))
    np.testing.assert_array_equal(in_event, split_uniform(u, 2)[0] < prob)


def light_config(**kw):
    base = dict(
        checks=H.ALL_CHECKS,
        seed=11,
        clt_cov=H.CltCovConfig(replicates=400, m=100),
        kron_cov=H.KronCovConfig(replicates=300, m=100),
        null_laws=H.NullLawsConfig(replicates=400, m=256, n_ratio=20, n0_ratio=20),
        ci_chi2=H.CiChi2Config(replicates=300, m=256, n_functions=200, n_ratio=20, n0_ratio=40),
        erm_excess_risk=H.ExcessRiskConfig(replicates=250, m=256, n_ratio=25),
        conditional_shift=H.ConditionalShiftConfig(replicates=300, m=128, n_ratio=25),
    )
    base.update(kw)
    return H.HarnessConfig(**base)


def simulate_null_reference(cfg, seed, lane, with_ci):
    """The per-replicate loop: each replicate's draws, then its own lstsq
    weight fit, inverse-Gram standard error, F statistic and interval."""
    k, n_funcs = cfg.n_sources, cfg.n_functions
    n, n0 = cfg.n_ratio * cfg.m, cfg.n0_ratio * cfg.m
    law = WeightLaw(*H._NULL_WEIGHT_LAW)
    scheme = dl.PerturbationScheme(cfg.m, dl.IndependentWeights((law,) * k))
    table_t = H._walsh_table(n_funcs, cfg.m).T
    sizes = np.array((n0,) + (n,) * k)
    out = np.zeros((cfg.replicates, 4))
    for r in range(cfg.replicates):
        rng = substream(seed, lane, r)
        world = dl.realize_world(scheme, rng)
        counts = np.stack([H._bin_counts(np.ones(cfg.m), n0, rng)]
                          + [H._bin_counts(world[j], n, rng) for j in range(k)])
        phi_hat = counts @ table_t / sizes[:, None]
        phi = (phi_hat[1:] - phi_hat[0]).T
        design = phi[:, :-1] - phi[:, -1:]
        free = np.linalg.lstsq(design, -phi[:, -1], rcond=None)[0]
        beta = np.append(free, 1.0 - free.sum())
        resid = phi_hat[0] - beta @ phi_hat[1:]
        resid_unif = phi_hat[0] - np.full(k, 1.0 / k) @ phi_hat[1:]
        rss, rss_unif = resid @ resid, resid_unif @ resid_unif
        sigma2 = rss / (n_funcs - k + 1)
        var_0 = np.linalg.inv(design.T @ design)[0, 0] * sigma2
        out[r, :3] = ((beta[0] - 1.0 / k) / np.sqrt(var_0),
                      max(rss_unif - rss, 0.0) / ((k - 1) * sigma2), rss)
        if with_ci:
            u_sources = [H._bin_rows(c, rng) for c in counts[1:]]
            estimate = beta @ np.array([u.mean() for u in u_sources])
            half_width = (ndtri(0.5 + H._CI_LEVEL / 2.0) * np.sqrt(np.concatenate(u_sources).var())
                          * np.sqrt(rss / n_funcs))
            out[r, 3] = abs(estimate - 0.5) <= half_width
    return out


@pytest.mark.parametrize("replicates", [31, 32, 33])
@pytest.mark.parametrize("with_ci", [False, True], ids=["null_laws", "ci_chi2"])
def test_blocked_null_fits_match_the_per_replicate_loop(replicates, with_ci):
    cfg = H.CiChi2Config(replicates=replicates, m=64, n_ratio=10, n0_ratio=20,
                         n_sources=2 + (not with_ci), n_functions=30)
    got, n, n0 = H._simulate_null(cfg, 5, 13, with_ci)
    want = simulate_null_reference(cfg, 5, 13, with_ci)
    assert (n, n0) == (640, 1280)
    np.testing.assert_allclose(got[:, :3], want[:, :3], rtol=1e-9, atol=0)
    np.testing.assert_array_equal(got[:, 3], want[:, 3])


def test_light_harness_runs_and_reports(tmp_path):
    config = light_config(checks=("clt_cov", "chi2_residual", "ci_coverage"))
    report = H.run_harness(config)
    names = [r.name for r in report.results]
    assert names == ["clt_cov", "chi2_residual", "ci_coverage"]
    for r in report.results:
        assert r.definition  # the pass rule is recorded verbatim
        assert r.runtime_s > 0
    payload = report.to_dict()
    json.dumps(payload)  # serializable


def test_harness_bitwise_reproducible():
    config = light_config(checks=("clt_cov", "t_null", "f_null"))

    def strip_runtime(report):
        payload = report.to_dict()
        for result in payload["results"]:
            result.pop("runtime_s")
        return payload

    a = H.run_harness(config)
    b = H.run_harness(config)
    assert strip_runtime(a) == strip_runtime(b)


def test_results_do_not_depend_on_a_rerun_or_the_requested_subset():
    # every check family, run twice from the check table, and a request for
    # one result of a two-result family
    small = dict(
        clt_cov=H.CltCovConfig(replicates=100, m=32, n_ratio=10),
        kron_cov=H.KronCovConfig(replicates=100, m=32, n_ratio=10),
        null_laws=H.NullLawsConfig(replicates=100, m=64, n_ratio=10, n0_ratio=10,
                                   n_functions=20),
        ci_chi2=H.CiChi2Config(replicates=100, m=64, n_ratio=10, n0_ratio=10, n_functions=20),
        erm_excess_risk=H.ExcessRiskConfig(replicates=100, m=64, n_ratio=10),
        conditional_shift=H.ConditionalShiftConfig(replicates=100, m=32, n_ratio=10,
                                                   n0_ratio=10),
    )

    def payload(**kw):
        out = H.run_harness(light_config(**small, **kw)).to_dict()
        for result in out["results"]:
            result.pop("runtime_s")
        return out

    first = payload()
    assert [r["name"] for r in first["results"]] == list(H.ALL_CHECKS)
    assert payload() == first
    for name in ("f_null", "ci_coverage"):
        only = payload(checks=(name,))
        assert only["results"] == [r for r in first["results"] if r["name"] == name]


def test_run_harness_stamps_each_family_with_its_wall_time():
    # the two results of one family share the time of its one call; a check
    # called directly is not timed
    config = light_config(checks=("t_null", "f_null"),
                          null_laws=H.NullLawsConfig(replicates=100, m=64, n_ratio=10,
                                                     n0_ratio=10, n_functions=20))
    t_null, f_null = H.run_harness(config).results
    assert t_null.runtime_s > 0
    assert f_null.runtime_s == t_null.runtime_s
    assert H.check_clt_cov(H.CltCovConfig(replicates=100, m=32), seed=3).runtime_s == 0.0


def test_run_harness_calls_the_module_global_check(monkeypatch):
    # perfbench's tracer times a check by replacing its module global, so
    # run_harness must look each check up by name when it runs
    calls = []
    original = H.check_clt_cov

    def spy(cfg, seed):
        calls.append(cfg.replicates)
        return original(cfg, seed)

    monkeypatch.setattr(H, "check_clt_cov", spy)
    config = light_config(checks=("clt_cov",), clt_cov=H.CltCovConfig(replicates=100, m=32))
    report = H.run_harness(config)
    assert calls == [100]
    assert [r.name for r in report.results] == ["clt_cov"]


def test_mc_se_shrinks_with_replicates():
    small = H.check_clt_cov(H.CltCovConfig(replicates=400, m=64, n_ratio=20), seed=7)
    big = H.check_clt_cov(H.CltCovConfig(replicates=1600, m=64, n_ratio=20), seed=7)
    se_small = np.asarray(small.mc_se["cov"])
    se_big = np.asarray(big.mc_se["cov"])
    ratio = se_small / se_big
    assert np.all(ratio > 2 * 0.8)
    assert np.all(ratio < 2 * 1.2)


def test_kron_cov_sampling_correction_uses_population_variances():
    # rebuild every replicate's two datasets from the check's own streams:
    # the diagonal correction is m/n times the mean population variance
    # (divide by n) of u and of u^2
    cfg = H.KronCovConfig(replicates=100, m=16, n_ratio=10)
    result = H.check_kron_cov(cfg, seed=5)
    n = cfg.n_ratio * cfg.m
    law = dl.lognormal_law(0.0, H._WEIGHT_SD)
    corr = ((1.0, H._COPULA_RHO), (H._COPULA_RHO, 1.0))
    scheme = dl.PerturbationScheme(cfg.m, dl.GaussianCopulaWeights((law, law), corr))
    variances = np.empty((cfg.replicates, 2, 2))
    for r in range(cfg.replicates):
        rng = substream(5, H._LANE_OF["kron_cov"], r)
        weights = dl.realize_world(scheme, rng)
        for j in range(2):
            u = H._bin_rows(H._bin_counts(weights[j], n, rng), rng)
            variances[r, j] = u.var(), (u * u).var()
    expected = cfg.m / n * variances.mean(axis=0).ravel()
    np.testing.assert_allclose(
        result.empirical["sampling_correction_diag"], expected, rtol=1e-12
    )
    # and that is what comes off the diagonal of the raw covariance
    removed = np.subtract(result.empirical["cov_raw"], result.empirical["cov_corrected"])
    np.testing.assert_allclose(np.diag(removed), expected, rtol=1e-12)


def test_excess_risk_fit_matches_the_newton_erm_fit():
    # the check solves the weighted normal equations; rebuild every
    # replicate's datasets and fit them with erm's Newton solver instead
    cfg = H.ExcessRiskConfig(replicates=20, m=64, n_ratio=10)
    result = H.check_excess_risk(cfg, seed=5)
    n, k = cfg.n_ratio * cfg.m, cfg.n_sources
    dim_x = H._ERM_DIM_X
    scheme, _ = H._lognormal_scheme(cfg.m, H._ERM_WEIGHT_SD, k)
    theta_star = np.array([1.0, 2.0, -1.0, 0.5, -0.25])[: dim_x + 1]
    excess = []
    for r in range(cfg.replicates):
        rng = substream(5, H._LANE_OF["erm_excess_risk"], r)
        weights = dl.realize_world(scheme, rng)
        xs, ys = [], []
        for j in range(k):
            u = H._bin_rows(H._bin_counts(weights[j], n, rng), rng)
            streams = np.sqrt(12.0) * (split_uniform(u, dim_x + 1) - 0.5)
            x = np.column_stack([np.ones(n), *streams[:dim_x]])
            xs.append(x)
            ys.append(x @ theta_star + H._ERM_NOISE_SD * streams[dim_x])
        # uniform dataset weights 1/k over k datasets of n rows each
        fit = fit_erm(np.vstack(xs), np.concatenate(ys), np.full(k * n, 1.0 / (k * n)),
                      [n] * k, squared_error_loss())
        diff = fit.theta_hat - theta_star
        excess.append(cfg.m * diff @ diff)
    np.testing.assert_allclose(result.empirical["mean_excess"], np.mean(excess), rtol=1e-9)


def test_conditional_shift_interleaves_its_sub_configurations():
    # rebuild every replicate of each sub-configuration s from stream index
    # 10 r + s of the check's lane
    cfg = H.ConditionalShiftConfig(replicates=100, m=32, n_ratio=10, n0_ratio=10)
    result = H.check_conditional_shift(cfg, seed=5)
    n, n0 = cfg.n_ratio * cfg.m, cfg.n0_ratio * cfg.m
    v_base = np.exp(H._WEIGHT_SD**2) - 1.0
    subconfigs = [("base", H._WEIGHT_SD, H._EVENT_PROB),
                  ("half_prob", H._WEIGHT_SD, H._EVENT_PROB / 2.0),
                  ("double_sigma", np.sqrt(np.log(2.0 * v_base + 1.0)), H._EVENT_PROB)]
    for s, (label, sig, prob) in enumerate(subconfigs):
        scheme, _ = H._lognormal_scheme(cfg.m, sig, 1)
        event = H._event_bins(cfg.m, prob)
        gaps, resampled = [], 0
        for r in range(cfg.replicates):
            rng = substream(5, H._LANE_OF["conditional_shift"], 10 * r + s)
            while True:
                weights = dl.realize_world(scheme, rng)
                c_src = H._bin_counts(weights[0], n, rng)
                c_tgt = H._bin_counts(np.ones(cfg.m), n0, rng)
                if c_src[event].any() and c_tgt[event].any():
                    break
                resampled += 1
            ys = split_uniform(H._bin_rows(c_src, rng, event), 2)[1]
            yt = split_uniform(H._bin_rows(c_tgt, rng, event), 2)[1]
            gaps.append(np.sqrt(cfg.m) * np.sqrt(12.0) * (ys.mean() - yt.mean()))
        np.testing.assert_allclose(result.empirical[label], np.var(gaps, ddof=1), rtol=1e-12)
        assert result.details["resampled_empty_events"][label] == resampled


def test_config_from_dict_round_trip():
    payload = {
        "seed": 99,
        "checks": ["clt_cov", "f_null"],
        "clt_cov": {"replicates": 500, "m": 128},
    }
    config = cli._HARNESS_CONFIG(payload, "")
    assert config.seed == 99
    assert config.clt_cov.replicates == 500
    assert config.clt_cov.m == 128
    with pytest.raises(ValueError):
        cli._HARNESS_CONFIG({"unknown_section": {}}, "")
    with pytest.raises(ValueError):
        cli._HARNESS_CONFIG({"clt_cov": {"bogus": 1}}, "")
    with pytest.raises(ValueError):
        H.HarnessConfig(checks=("not_a_check",))
    with pytest.raises(ValueError):
        H.HarnessConfig(clt_cov=H.CltCovConfig(replicates=10))
