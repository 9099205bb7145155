import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import driftlab as dl
from driftlab.moments import (
    MomentMatrix,
    evaluate_moments,
    pooled_moments,
    whiten_moments,
)
from driftlab.rng import substream
from driftlab.tables import DatasetCollection, Table
from driftlab.testfuncs import parse_test_functions


def collection(sources, target, outcome=None):
    return DatasetCollection(tuple(sources), target, outcome=outcome)


def test_single_dataset_two_point_example():
    src = Table("s1", dict(x=[0.0, 1.0]))
    tgt = Table("t", dict(x=[0.5, 0.5]))
    data = collection([src], tgt)
    mm = evaluate_moments(data, parse_test_functions(["column:x"], data))
    assert mm.phi_hat[1, 0] == pytest.approx(0.5)
    assert mm.pooled_var[0, 0] == pytest.approx(0.25)  # population convention


def test_two_dataset_pooled_variance_weighted_formula():
    s1 = Table("s1", dict(x=[0.0, 0.0]))
    s2 = Table("s2", dict(x=[1.0, 1.0]))
    tgt = Table("t", dict(x=[0.5]))
    data = collection([s1, s2], tgt)
    mm = evaluate_moments(data, parse_test_functions(["column:x"], data))
    # pooled mean 0.5; pooled second moment 0.5 -> variance 0.25
    assert mm.pooled_var[0, 0] == pytest.approx(0.25)


def test_indicator_means_are_category_proportions():
    src = Table("s1", dict(occ=np.array(["a", "b", "a", "a"], dtype=object)))
    tgt = Table("t", dict(occ=np.array(["b", "b"], dtype=object)))
    data = collection([src], tgt)
    mm = evaluate_moments(data, parse_test_functions(["indicator:occ=a"], data))
    assert mm.phi_hat[1, 0] == pytest.approx(3 / 4)
    assert mm.phi_hat[0, 0] == pytest.approx(0.0)


def test_row_order_invariance(rng):
    x = rng.normal(size=40)
    y = rng.normal(size=40)
    perm = rng.permutation(40)
    decls = ["column:x", "product:x*y", "product:x*y:standardized", "expr:x**2 + y"]
    tgt = Table("t", dict(x=[0.0], y=[0.0]))
    a_data = collection([Table("s", dict(x=x, y=y))], tgt)
    b_data = collection([Table("s", dict(x=x[perm], y=y[perm]))], tgt)
    a = evaluate_moments(a_data, parse_test_functions(decls, a_data))
    b = evaluate_moments(b_data, parse_test_functions(decls, b_data))
    assert np.allclose(a.phi_hat, b.phi_hat)
    assert np.allclose(a.pooled_var, b.pooled_var)


def test_non_finite_value_names_everything():
    src = Table("weird", dict(x=[1.0, -1.0, 2.0]))
    tgt = Table("t", dict(x=[1.0]))

    def log_x_moments(data):
        return evaluate_moments(data, parse_test_functions(["expr:log(x)"], data))

    with pytest.raises(ValueError, match=r"expr:log\(x\).*'weird'.*row 1"):
        log_x_moments(collection([src], tgt))
    # the target is checked first, then the sources in order
    bad_target = Table("t", dict(x=[1.0, 2.0, -3.0]))
    with pytest.raises(ValueError, match=r"dataset 't' at row 2"):
        log_x_moments(collection([src], bad_target))
    later = Table("later", dict(x=[-1.0, 1.0]))
    fine = Table("fine", dict(x=[1.0, 2.0]))
    with pytest.raises(ValueError, match=r"dataset 'weird' at row 1"):
        log_x_moments(collection([fine, src, later], tgt))


def test_standardized_product_uses_pooled_constants():
    rng = np.random.default_rng(0)
    a = rng.normal(2.0, 3.0, size=500)
    b = rng.normal(-1.0, 0.5, size=500)
    src = Table("s", dict(a=a, b=b))
    tgt = Table("t", dict(a=a[:10], b=b[:10]))
    data = collection([src], tgt)
    mm = evaluate_moments(data, parse_test_functions(["product:a*b:standardized"], data))
    za = (a - a.mean()) / a.std()
    zb = (b - b.mean()) / b.std()
    assert mm.phi_hat[1, 0] == pytest.approx(np.mean(za * zb))
    # same constants applied to the target rows
    za_t = (a[:10] - a.mean()) / a.std()
    zb_t = (b[:10] - b.mean()) / b.std()
    assert mm.phi_hat[0, 0] == pytest.approx(np.mean(za_t * zb_t))


def test_auto_indicators_expand_and_skip_target_only(recwarn):
    src = Table("s", dict(cat=np.array(["a", "b", "a"], dtype=object)))
    tgt = Table("t", dict(cat=np.array(["a", "z"], dtype=object)))
    data = collection([src], tgt)
    tests = parse_test_functions(["auto_indicators:cat"], data)
    assert tests.names == ("indicator:cat=a", "indicator:cat=b")
    assert any("z" in str(w.message) for w in recwarn.list)


def moments_with(phi_hat, pooled, names=None):
    """Moments of two sources and a target with the given pooled covariance."""
    n_funcs = phi_hat.shape[1]
    return MomentMatrix(phi_hat=phi_hat, names=names or tuple(f"f{i}" for i in range(n_funcs)),
                        sizes=(10, 10, 10), source_names=("s1", "s2"), target_name="t",
                        pooled_var=pooled)


@pytest.mark.parametrize("scale", [1.0, 1e-12])
def test_whitening_diagonal_case(rng, scale):
    # the drop rule has no units: a function of tiny variance is kept
    phi_hat = rng.normal(size=(3, 2))
    white = whiten_moments(moments_with(phi_hat, np.diag([4.0 * scale, 1.0])))
    assert white.names == ("f0", "f1")
    assert white.phi_hat == pytest.approx(phi_hat @ np.diag([0.5 / np.sqrt(scale), 1.0]))
    assert white.pooled_var == pytest.approx(np.eye(2))


def test_whitening_rejects_a_scale_spread_it_cannot_invert(rng):
    # f0 is kept (nothing is redundant), but its variance is below 1e-12 of
    # f1's, where S^(-1/2) would come out clamped and not whiten to identity
    moments = moments_with(rng.normal(size=(3, 2)), np.diag([1e-13, 1.0]))
    with pytest.raises(ValueError, match=r"eigenvalues span over 1e12: rescale 'f0' "
                       r"\(variance 1e-13\) or 'f1' \(variance 1\)$"):
        whiten_moments(moments)


def test_whitening_dense_case_eigen_oracle(rng):
    phi_hat = rng.normal(size=(3, 2))
    sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
    white = whiten_moments(moments_with(phi_hat, sigma))
    # independent oracle: rebuild T = sigma^(-1/2) from the eigen-decomposition by hand
    vals, vecs = np.linalg.eigh(sigma)
    t_oracle = vecs @ np.diag(vals**-0.5) @ vecs.T
    assert np.allclose(white.phi_hat, phi_hat @ t_oracle.T, atol=1e-12)
    assert np.allclose(white.pooled_var, np.eye(2), atol=1e-10)


def test_whitening_identity_when_already_white(rng):
    phi_hat = rng.normal(size=(3, 4))
    white = whiten_moments(moments_with(phi_hat, np.eye(4)))
    assert white.names == ("f0", "f1", "f2", "f3")
    assert np.allclose(white.phi_hat, phi_hat, atol=1e-12)


def test_whitening_empirical_gives_identity_covariance(rng):
    n = 2000
    raw = rng.normal(size=(n, 3))
    mixed = raw @ rng.normal(size=(3, 3)) + rng.normal(size=3)
    src = Table("s", dict(a=mixed[:, 0], b=mixed[:, 1], c=mixed[:, 2]))
    tgt = Table("t", dict(a=mixed[:5, 0], b=mixed[:5, 1], c=mixed[:5, 2]))
    data = collection([src], tgt)
    mm = evaluate_moments(data, parse_test_functions(["column:a", "column:b", "column:c"], data))
    mm_white = whiten_moments(mm)
    assert mm_white.whitened and not mm.whitened
    assert np.allclose(mm_white.pooled_var, np.eye(3), atol=1e-6)
    # idempotence: whitening the whitened moments changes nothing
    again = whiten_moments(mm_white)
    assert again.names == mm.names
    assert np.allclose(again.phi_hat, mm_white.phi_hat, atol=1e-8)


def test_whitening_drops_a_constant_function(rng):
    n = 200
    x = rng.normal(size=(n, 2))
    src = Table("s", dict(a=x[:, 0], b=x[:, 1]))
    tgt = Table("t", dict(a=x[:5, 0], b=x[:5, 1]))
    data = collection([src], tgt)
    tests = parse_test_functions(["column:a", "expr:0*a + 3", "column:b"], data)
    with pytest.warns(UserWarning) as caught:
        white = whiten_moments(evaluate_moments(data, tests))
    assert [str(w.message) for w in caught] == [
        "whitening drops 1 of 3 test functions, each constant or linear in the ones "
        "before it on the pooled sources: ['expr:0*a + 3']"]
    assert white.names == ("column:a", "column:b")
    assert np.allclose(white.pooled_var, np.eye(2), atol=1e-10)


def test_whitening_drops_the_last_level_of_a_full_indicator_expansion(rng):
    levels = np.array(["a", "b", "c"], dtype=object)
    src = Table("s", dict(x=rng.normal(size=300), cat=levels[rng.integers(0, 3, 300)]))
    tgt = Table("t", dict(x=rng.normal(size=20), cat=levels[rng.integers(0, 3, 20)]))
    data = collection([src], tgt)
    tests = parse_test_functions(["auto_indicators:cat", "column:x"], data)
    with pytest.warns(UserWarning) as caught:
        white = whiten_moments(evaluate_moments(data, tests))
    assert len(caught) == 1
    assert str(caught[0].message).startswith("whitening drops 1 of 4 test functions")
    assert str(caught[0].message).endswith(": ['indicator:cat=c']")
    assert white.names == ("indicator:cat=a", "indicator:cat=b", "column:x")
    reduced = parse_test_functions(["indicator:cat=a", "indicator:cat=b", "column:x"], data)
    assert white.phi_hat == pytest.approx(
        whiten_moments(evaluate_moments(data, reduced)).phi_hat, abs=1e-12)


def test_whitening_keeps_no_constant_set():
    with pytest.raises(ValueError, match="every test function is constant"):
        whiten_moments(moments_with(np.ones((3, 2)), np.zeros((2, 2))))


def test_pooled_variance_consistency_under_perturbation():
    # with many bins the pooled estimate recovers the target-law variance;
    # relative error < 2% in at least 95% of replicates at these sizes
    m, k, n_per = 1000, 5, 20_000
    law = dl.lognormal_law(0.0, 0.5)
    scheme = dl.PerturbationScheme(m, dl.IndependentWeights((law,) * k))
    hits = 0
    reps = 300
    for r in range(reps):
        rng = substream(77, 5, r)
        world = dl.realize_world(scheme, rng)
        pooled = np.concatenate(
            [dl.sample_uniform(world, j, n_per, rng) for j in range(k)]
        )
        rel_err = abs(pooled.var() - 1 / 12) / (1 / 12)
        hits += rel_err < 0.02
    assert hits / reps >= 0.95


def xy_data():
    """Numeric x, y and categorical cat in one source and the target."""
    cat = np.array(["a", "b", "a"], dtype=object)
    return collection([Table("s", dict(x=[1.0, 2.0, 4.0], y=[0.5, 0.0, 1.0], cat=cat))],
                      Table("t", dict(x=[1.0, 3.0, 5.0], y=[0.0, 1.0, 2.0], cat=cat)))


def test_expr_rejects_unsafe_syntax():
    for bad in ["expr:__import__('os')", "expr:x.attr", "expr:sqrt + x", "expr:log(x, y)"]:
        with pytest.raises(ValueError, match=re.escape(f"test function {bad!r}: ")):
            parse_test_functions([bad], xy_data())


def test_parse_errors():
    # each is a ValueError that names the declaration, raised at parse time
    for bad, reason in [
        ("column:", "column: form needs a column name"),
        ("indicator:xy", "indicator form is indicator:<col>=<value>"),
        ("product:xy", "product form is product:<colA>*<colB>[:standardized]"),
        ("nonsense:x", "unrecognized form"),
        ("indicator:nope=a", "table 's' has no column 'nope'"),
        ("indicator:x=abc", "column 'x' is numeric, but 'abc' is not a number"),
        ("auto_indicators:nope", "table 's' has no column 'nope'"),
        ("product:x*cat:standardized", "column 'cat' of table 's' is not numeric"),
    ]:
        with pytest.raises(ValueError, match=re.escape(f"test function {bad!r}: {reason}")):
            parse_test_functions(["column:x", bad], xy_data())


def test_columns_are_checked_in_the_target_too():
    data = collection([Table("s", dict(x=[1.0, 2.0], z=[1.0, 2.0]))],
                      Table("t", dict(x=[1.0], z=np.array(["q"], dtype=object))))
    with pytest.raises(ValueError, match="column 'z' of table 't' is not numeric"):
        parse_test_functions(["expr:x*z"], data)


def test_standardizing_a_constant_column_is_an_error_naming_it():
    data = collection([Table("s", dict(x=[1.0, 1.0], y=[0.0, 1.0]))],
                      Table("t", dict(x=[1.0], y=[0.5])))
    with pytest.raises(ValueError, match=r"'product:x\*y:standardized': cannot standardize"):
        parse_test_functions(["product:x*y:standardized"], data)


@settings(max_examples=300, deadline=None)
@example("-" * 3000 + "x")
@example("'\\d' + x")
@example("x\x00")
@given(st.one_of(st.text(), st.text(alphabet="xy12.e+-*/() ,logsqrtab_'\\")))
def test_any_expr_text_parses_or_is_a_value_error(text):
    try:
        parse_test_functions([f"expr:{text}"], xy_data())
    except ValueError:
        pass


def test_pooled_moments_equal_those_of_the_concatenated_rows(rng):
    parts = [rng.normal(size=(n, 3)) for n in (5, 40, 17)]
    mean, cov = pooled_moments(parts)
    rows = np.vstack(parts)
    assert np.allclose(mean, rows.mean(axis=0))
    assert np.allclose(cov, np.cov(rows, rowvar=False, bias=True))
    assert np.array_equal(cov, cov.T)
    mean1, var1 = pooled_moments(p[:, 0] for p in parts)
    assert isinstance(mean1, float) and isinstance(var1, float)
    assert mean1 == pytest.approx(mean[0]) and var1 == pytest.approx(cov[0, 0])


def test_pooled_moments_clamps_a_constant_column_at_zero():
    # E[x^2] - E[x]^2 rounds to -1.7e-18 here
    _, var = pooled_moments([np.full(7, 0.1), np.full(3, 0.1)])
    assert var == 0.0


@pytest.mark.parametrize("offset", [1e6, 1e8])
def test_pooled_moments_keep_the_variance_of_a_far_off_centre(offset):
    # E[x^2] - E[x]^2 on the raw values gives 0.0 here at 1e8 (np.var: 1.0004)
    x = np.random.default_rng(0).normal(offset, 1.0, 2000)
    mean, var = pooled_moments([x[:900], x[900:]])
    assert var == pytest.approx(np.var(x), rel=1e-12)
    assert mean == pytest.approx(x.mean(), rel=1e-14)
    rows = np.column_stack([x, -0.5 * x + np.random.default_rng(1).normal(size=2000)])
    mean2, cov = pooled_moments([rows[:900], rows[900:]])
    np.testing.assert_allclose(cov, np.cov(rows, rowvar=False, bias=True), rtol=1e-12)
    np.testing.assert_allclose(mean2, rows.mean(axis=0), rtol=1e-14)
