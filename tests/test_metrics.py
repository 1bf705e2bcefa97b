import numpy as np
import pytest

from tsnorm import metrics as mx


# --- independent brute-force oracles (plain loops, no shared code) -----------

def oracle_capture_rate(p, y, w, share=0.04, tol=1e-12):
    order = sorted(range(len(p)), key=lambda i: (-p[i], i))
    cum = 0.0
    captured = 0
    for i in order:
        if cum + w[i] <= share + tol:
            cum += w[i]
            captured += y[i]
        else:
            break
    return captured / sum(y)


def oracle_gini(p, y, w, by):
    n = len(p)
    if by == "label":
        order = sorted(range(n), key=lambda i: (y[i], i))
    else:
        order = sorted(range(n), key=lambda i: (p[i], i))
    ybar = sum(w[i] * y[i] for i in range(n))
    fhat = []
    cum = 0.0
    for i in order:
        fhat.append(cum + w[i] / 2.0)
        cum += w[i]
    fbar = sum(w[order[j]] * fhat[j] for j in range(n))
    total = 0.0
    for j, i in enumerate(order):
        total += w[i] * ((y[i] - ybar) / ybar) * (fhat[j] - fbar)
    return 2.0 * total


def oracle_kappa(pred, true):
    n = len(pred)
    classes = sorted(set(pred) | set(true))
    p_o = sum(1 for a, b in zip(pred, true) if a == b) / n
    p_e = 0.0
    for c in classes:
        p_e += (sum(1 for a in pred if a == c) / n) * (sum(1 for b in true if b == c) / n)
    if p_e >= 1.0:
        return 1.0 if p_o >= 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


def oracle_macro_f1(pred, true, num_classes):
    scores = []
    for c in range(num_classes):
        tp = sum(1 for a, b in zip(pred, true) if a == c and b == c)
        fp = sum(1 for a, b in zip(pred, true) if a == c and b != c)
        fn = sum(1 for a, b in zip(pred, true) if a != c and b == c)
        denom = 2 * tp + fp + fn
        scores.append(0.0 if denom == 0 else 2 * tp / denom)
    return sum(scores) / num_classes


def random_instance(rng, n=None):
    n = n or int(rng.integers(4, 13))
    p = rng.uniform(0, 1, n)
    y = rng.integers(0, 2, n)
    if y.sum() == 0:
        y[rng.integers(0, n)] = 1
    if y.sum() == n:
        y[rng.integers(0, n)] = 0
    w = rng.uniform(0.1, 1.0, n)
    w = w / w.sum()
    return p, y, w


# --- default rate captured ----------------------------------------------------

def test_capture_rate_perfect_ranking():
    y = np.array([1] * 10 + [0] * 90)
    p = np.linspace(1.0, 0.01, 100)  # decreasing: positives ranked first
    d = mx.default_rate_captured(p, y)
    assert d == pytest.approx(0.4)  # omega = 4 of 10 positives


def test_capture_rate_negative_hogging_weight():
    p = np.array([0.99, 0.5, 0.4, 0.3])
    y = np.array([0, 1, 1, 1])
    w = np.array([0.97, 0.01, 0.01, 0.01])
    assert mx.default_rate_captured(p, y, w) == 0.0


def test_capture_rate_reversed_ranking():
    y = np.array([1] * 10 + [0] * 90)
    p = np.linspace(0.01, 1.0, 100)  # increasing: positives ranked last
    assert mx.default_rate_captured(p, y) == 0.0


def test_capture_rate_no_positives_rejected():
    with pytest.raises(ValueError):
        mx.default_rate_captured(np.array([0.1, 0.2]), np.array([0, 0]))


def test_capture_rate_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(300):
        p, y, w = random_instance(rng)
        got = mx.default_rate_captured(p, y, w)
        want = oracle_capture_rate(p.tolist(), y.tolist(), w.tolist())
        assert got == pytest.approx(want, abs=1e-12)


# --- weighted Gini -------------------------------------------------------------

def test_weighted_gini_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(300):
        p, y, w = random_instance(rng)
        for ordering in ("label", "prediction"):
            got = mx.weighted_gini(p, y, w, ordering)
            want = oracle_gini(p.tolist(), y.tolist(), w.tolist(), ordering)
            assert got == pytest.approx(want, abs=1e-12)


def test_gini_ratio_one_for_perfect_predictions():
    rng = np.random.default_rng(2)
    y = rng.integers(0, 2, 30)
    y[:3] = [0, 1, 0]
    _, _, g = mx.amex_metric(y.astype(float), y)
    assert g == pytest.approx(1.0)


def test_gini_ratio_near_zero_for_constant_predictions():
    rng = np.random.default_rng(3)
    y = rng.integers(0, 2, 2000)
    p = np.full(2000, 0.7)
    _, _, g = mx.amex_metric(p, y)
    assert abs(g) < 0.1


def test_gini_invariant_to_weight_prescaling():
    rng = np.random.default_rng(4)
    p, y, raw = random_instance(rng, n=10)
    w1 = raw / raw.sum()
    scaled = 37.0 * raw
    w2 = scaled / scaled.sum()
    assert mx.weighted_gini(p, y, w1) == pytest.approx(mx.weighted_gini(p, y, w2), abs=1e-12)


# --- combined metric ------------------------------------------------------------

def test_amex_metric_perfect_ranking_value():
    y = np.array([1] * 10 + [0] * 90)
    p = np.linspace(1.0, 0.01, 100)
    m, d, g = mx.amex_metric(p, y)
    assert d == pytest.approx(0.4)
    assert g == pytest.approx(1.0)
    assert m == pytest.approx(0.7)


def test_amex_metric_random_predictions_score_low():
    rng = np.random.default_rng(5)
    y = rng.integers(0, 2, 10_000)
    p = rng.uniform(0, 1, 10_000)
    m, d, g = mx.amex_metric(p, y)
    assert m < 0.1
    assert 0.0 <= d <= 1.0


def test_amex_metric_invariant_under_monotone_transform():
    rng = np.random.default_rng(6)
    p, y, w = random_instance(rng, n=12)
    a = mx.amex_metric(p, y, w)
    b = mx.amex_metric(np.exp(3.0 * p) + 1.0, y, w)
    assert a == pytest.approx(b, abs=1e-12)


def test_amex_metric_permutation_invariant():
    rng = np.random.default_rng(7)
    p, y, w = random_instance(rng, n=12)
    perm = rng.permutation(12)
    a = mx.amex_metric(p, y, w)
    b = mx.amex_metric(p[perm], y[perm], w[perm])
    assert a == pytest.approx(b, abs=1e-12)


def test_amex_metric_bounds_on_random_instances():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p, y, w = random_instance(rng)
        m, d, g = mx.amex_metric(p, y, w)
        assert 0.0 <= d <= 1.0
        assert m <= 1.0 + 1e-12


# --- agreement metrics -----------------------------------------------------------

def test_kappa_and_f1_perfect_agreement():
    y = np.array([0, 1, 2, 0, 1, 2])
    assert mx.cohen_kappa(y, y) == pytest.approx(1.0)
    assert mx.macro_f1(y, y) == pytest.approx(1.0)


def test_kappa_zero_for_constant_predictions():
    true = np.array([0, 1, 0, 1, 1, 0])
    pred = np.zeros(6, dtype=int)
    assert mx.cohen_kappa(pred, true) == pytest.approx(0.0)


def test_kappa_and_f1_match_oracle():
    rng = np.random.default_rng(9)
    for _ in range(300):
        n = int(rng.integers(4, 13))
        pred = rng.integers(0, 3, n)
        true = rng.integers(0, 3, n)
        assert mx.cohen_kappa(pred, true, num_classes=3) == pytest.approx(
            oracle_kappa(pred.tolist(), true.tolist()), abs=1e-12)
        assert mx.macro_f1(pred, true, num_classes=3) == pytest.approx(
            oracle_macro_f1(pred.tolist(), true.tolist(), 3), abs=1e-12)


def test_absent_class_contributes_zero_f1():
    pred = np.array([0, 0, 1, 1])
    true = np.array([0, 0, 1, 1])
    assert mx.macro_f1(pred, true, num_classes=3) == pytest.approx(2.0 / 3.0)


def test_agreement_metrics_permutation_invariant():
    rng = np.random.default_rng(10)
    pred = rng.integers(0, 3, 40)
    true = rng.integers(0, 3, 40)
    perm = rng.permutation(40)
    assert mx.cohen_kappa(pred, true) == pytest.approx(mx.cohen_kappa(pred[perm], true[perm]))
    assert mx.macro_f1(pred, true) == pytest.approx(mx.macro_f1(pred[perm], true[perm]))


def test_predicted_class_is_set_by_the_width():
    p1 = np.array([0.0, 0.4999999999999999, 0.5, 1.0])
    assert mx.predicted_class(p1).tolist() == [0, 0, 1, 1]
    p3 = np.array([[0.2, 0.5, 0.3], [0.4, 0.2, 0.4], [0.1, 0.1, 0.8], [1 / 3, 1 / 3, 1 / 3]])
    assert mx.predicted_class(p3).tolist() == [1, 0, 2, 0]  # a tie goes to the lowest class
    assert mx.predicted_class(p1).dtype == mx.predicted_class(p3).dtype == np.int64


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        mx.cohen_kappa(np.array([]), np.array([]))
