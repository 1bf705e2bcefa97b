"""The prepared-point Yeo-Johnson module against the four-branch formulas.

The reference functions below evaluate both branches over every element and
select with ``np.where``, the form the module had before it was built around
:class:`PowerPoint`.  The module must reproduce them bit for bit: through
one shared point, through the one-call wrappers ``forward``, ``dx`` and
``dlam``, and through the point that ``adaptive.power_forward`` caches for
``power_backward``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsnorm import adaptive as ad
from tsnorm import yeojohnson as yj
from tsnorm.data import TimeSeriesBatch

BE, SE = yj.BRANCH_EPS, yj.SERIES_EPS


def ref_split(x, lam):
    x = np.asarray(x, dtype=np.float64)
    return x, np.broadcast_to(np.asarray(lam, dtype=np.float64), x.shape), x >= 0


def ref_forward(x, lam):
    x, lam, pos = ref_split(x, lam)
    lp = np.log1p(np.abs(x))
    near0 = np.abs(lam) < BE
    near2 = np.abs(lam - 2.0) < BE
    safe_lam = np.where(near0, 1.0, lam)
    pos_val = np.where(near0, lp, np.expm1(safe_lam * lp) / safe_lam)
    w = 2.0 - lam
    safe_w = np.where(near2, 1.0, w)
    neg_val = np.where(near2, -lp, -np.expm1(safe_w * lp) / safe_w)
    return np.where(pos, pos_val, neg_val)


def ref_log_dx(x, lam):
    x, lam, pos = ref_split(x, lam)
    return np.where(pos, lam - 1.0, 1.0 - lam) * np.log1p(np.abs(x))


def ref_dx(x, lam):
    return np.exp(ref_log_dx(x, lam))


def ref_dlam(x, lam):
    x, lam, pos = ref_split(x, lam)
    lp = np.log1p(np.abs(x))

    def one_side(e):
        near = np.abs(e) < SE
        safe = np.where(near, 1.0, e)
        a = np.exp(safe * lp)
        closed = (a * (safe * lp - 1.0) + 1.0) / safe**2
        series = lp**2 / 2.0 + e * lp**3 / 3.0 + e**2 * lp**4 / 8.0
        return np.where(near, series, closed)

    return np.where(pos, one_side(lam), one_side(2.0 - lam))


def ref_dlam_log_dx(x, lam):
    x, lam, pos = ref_split(x, lam)
    lp = np.log1p(np.abs(x))
    return np.where(pos, lp, -lp)


def ref_dx_log_dx(x, lam):
    x, lam, pos = ref_split(x, lam)
    return (lam - 1.0) / np.where(pos, 1.0 + x, 1.0 - x)


def ref_inverse(z, lam):
    z, lam, pos = ref_split(z, lam)
    near0 = np.abs(lam) < BE
    near2 = np.abs(lam - 2.0) < BE
    w = 2.0 - lam
    safe_lam = np.where(near0, 1.0, lam)
    safe_w = np.where(near2, 1.0, w)
    arg_pos_m = np.where(pos & ~near0, z * lam, 0.0)
    arg_neg_m = np.where(~pos & ~near2, -z * w, 0.0)
    pos_val = np.where(near0, np.expm1(z), np.expm1(np.log1p(arg_pos_m) / safe_lam))
    neg_val = np.where(near2, -np.expm1(-z), -np.expm1(np.log1p(arg_neg_m) / safe_w))
    return np.where(pos, pos_val, neg_val)


REFERENCES = {"forward": ref_forward, "dx": ref_dx, "log_dx": ref_log_dx, "dlam": ref_dlam,
              "dlam_log_dx": ref_dlam_log_dx, "dx_log_dx": ref_dx_log_dx}
WRAPPERS = ("forward", "dx", "dlam")

# both signs, both zeros, |x| from 1e-12 up to 1e3
X = np.concatenate([[0.0, -0.0], np.geomspace(1e-12, 1e3, 40), -np.geomspace(1e-12, 1e3, 40),
                    np.random.default_rng(5).normal(0.0, 3.0, 40)])

OFFSETS = (0.0, BE / 2, 2 * BE, SE / 2, 2 * SE, 1e-7, 5e-5)
# lam straddling 0 and 2 at every window edge, plus ordinary exponents
LAMBDAS = sorted({c + sign * off for c in (0.0, 2.0) for off in OFFSETS for sign in (1, -1)}
                 | {c + sign * (SE - 5e-5) for c in (0.0, 2.0) for sign in (1, -1)}
                 | {-3.0, -0.7, 0.5, 1.0, 1.3, 2.9, 4.5})


def _assert_all_equal(x, lam):
    # a prepared point may not overflow or divide by zero where the reference did not
    with np.errstate(all="raise", under="ignore"):
        point = yj.PowerPoint(x, lam)
        shared = {name: getattr(point, name)() for name in REFERENCES}
        wrapped = {name: getattr(yj, name)(x, lam) for name in WRAPPERS}
    for name, ref in REFERENCES.items():
        expected = ref(x, lam)
        assert np.array_equal(shared[name], expected), (name, lam)
        # the sign of zero is part of the value (a -0.0 would change a report)
        assert np.array_equal(np.signbit(shared[name]), np.signbit(expected)), (name, lam)
    for name in WRAPPERS:
        assert np.array_equal(wrapped[name], shared[name]), (name, lam)
        assert np.array_equal(np.signbit(wrapped[name]), np.signbit(shared[name])), (name, lam)
    # the inverse direction, on the image of x
    z = ref_forward(x, lam)
    with np.errstate(all="raise", under="ignore"):
        got = yj.inverse(z, lam)
    with np.errstate(all="ignore"):  # the reference evaluates the unused branch too
        expected = ref_inverse(z, lam)
    assert np.array_equal(got, expected), lam
    assert np.array_equal(np.signbit(got), np.signbit(expected)), lam


@pytest.mark.parametrize("lam", LAMBDAS)
def test_point_matches_four_branch_formulas(lam):
    _assert_all_equal(X, lam)


def test_per_feature_lambda_with_one_feature_in_a_window():
    rng = np.random.default_rng(11)
    x = rng.normal(0.0, 4.0, size=(7, 6, 5))
    x[0, :, 0], x[0, :, 1] = 0.0, -0.0
    for inside in (BE / 2, -BE / 2, 2 * BE, SE / 2, -2 * SE):
        for centre in (0.0, 2.0):
            lam = np.array([0.4, centre + inside, 1.0, -1.2, 2.6, 1.9])[None, :, None]
            _assert_all_equal(x, lam)
    # every feature inside a window at once
    lam = np.array([BE / 3, 2.0 - BE / 3, SE / 3, 2.0 + SE / 3, 0.0, 2.0])[None, :, None]
    _assert_all_equal(x, lam)


def test_scalar_input_keeps_its_shape():
    for lam in (0.0, 1e-7, 0.5, 2.0):
        for x in (2.5, -2.5, 0.0):
            for name, ref in REFERENCES.items():
                got = getattr(yj.PowerPoint(x, lam), name)()
                assert np.shape(got) == () and np.array_equal(got, ref(x, lam)), (name, x, lam)
            for name in WRAPPERS:
                got = getattr(yj, name)(x, lam)
                assert np.shape(got) == () and np.array_equal(got, REFERENCES[name](x, lam))
            z = ref_forward(x, lam)
            got = yj.inverse(z, lam)
            with np.errstate(all="ignore"):
                expected = ref_inverse(z, lam)
            assert np.shape(got) == () and np.array_equal(got, expected), (x, lam)


def test_inverse_outside_the_image_names_the_index():
    lam = np.array([0.5, -1.0])[None, :, None]
    z = np.zeros((2, 2, 3))
    z[1, 1, 2] = 1.5  # the image of x >= 0 at lam = -1 ends below 1
    with pytest.raises(yj.PowerDomainError, match=r"index \(1, 1, 2\)"):
        yj.inverse(z, lam)


def test_point_at_another_exponent_shares_log1p():
    point = yj.PowerPoint(X, 0.3)
    other = point.at(2.0 + BE / 2)
    assert other.lp is point.lp and other.neg is point.neg
    assert np.array_equal(other.forward(), ref_forward(X, 2.0 + BE / 2))
    assert np.array_equal(other.dlam(), ref_dlam(X, 2.0 + BE / 2))


@pytest.mark.parametrize("lam0", [0.0, 2.0])
def test_power_backward_cached_point_matches_formulas(lam0):
    rng = np.random.default_rng(int(lam0) + 3)
    x = TimeSeriesBatch(rng.normal(0.3, 3.0, size=(9, 5, 4)))
    grad = rng.normal(size=x.values.shape)
    params = ad.init_edain_params(5)
    params.lam = np.array([0.7, lam0 + BE / 2, lam0 - 2 * BE, lam0 + SE / 2, 1.4])
    lam = params.lam[None, :, None]
    out, cache = ad.power_forward(x, params)
    grad_x, grad_lam = ad.power_backward(grad, cache)
    assert np.array_equal(out.values, ref_forward(x.values, lam))
    assert np.array_equal(grad_x, grad * ref_dx(x.values, lam))
    assert np.array_equal(grad_lam, (grad * ref_dlam(x.values, lam)).sum(axis=(0, 2)))


# --- properties across the branch and series windows ---------------------------

WINDOW_LAMBDAS = st.sampled_from(LAMBDAS) | st.floats(-2.0, 4.0)
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(lam=WINDOW_LAMBDAS,
       x=st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]), min_size=1, max_size=30))
def test_point_matches_formulas_anywhere(lam, x):
    _assert_all_equal(np.array(x), lam)


@PROPERTY_SETTINGS
@given(lam=WINDOW_LAMBDAS,
       x=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=30))
def test_inverse_undoes_forward(lam, x):
    x = np.array(x)
    back = yj.inverse(yj.forward(x, lam), lam)
    assert np.allclose(back, x, rtol=1e-8, atol=1e-10)


@PROPERTY_SETTINGS
@given(lam=WINDOW_LAMBDAS,
       steps=st.lists(st.integers(-100_000, 100_000), min_size=2, max_size=40, unique=True))
def test_forward_strictly_increasing(lam, steps):
    # x on a 0.01 grid up to |x| = 1000, so neighbours differ by a resolvable step
    x = np.sort(np.array(steps)) / 100.0
    assert np.all(np.diff(yj.forward(x, lam)) > 0)
