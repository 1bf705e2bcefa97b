"""Yeo-Johnson power transform primitives.

All functions are elementwise; the exponent broadcasts against the data.
The transform has removable singularities at lambda = 0 (for x >= 0) and
lambda = 2 (for x < 0); within ``BRANCH_EPS`` of those points the exact
log-limit branches are used, so values straddling the threshold agree to
better than 1e-8.  The lambda-derivative additionally switches to a short
series expansion inside a wider window (``SERIES_EPS``) where the closed
form loses precision to cancellation.

Every quantity is computed from one prepared point, :class:`PowerPoint`,
of ``(x, lam)``.  It holds the branch select ``neg = x < 0`` (and the same
as ``sign``, +1.0 or -1.0), ``lp = log1p(|x|)`` and the per-element
exponent ``e = lam`` for x >= 0 or ``2 - lam`` for x < 0 (kept as
``es = sign*e``).  Each is built on first use and then shared, and both
branches take one form:

* ``forward = expm1(e*lp)/(sign*e)``: one expm1 per element;
* ``dlam = (exp(e*lp)*(e*lp - 1) + 1)/e^2``, evaluated once;
* ``log_dx``, ``dx = exp(log_dx)``, ``dx_log_dx`` and ``dlam_log_dx`` need
  only the sign and ``lp`` (or |x|), never ``e``;
* ``inverse`` uses the point of ``(z, lam)``.

Multiplying or dividing by the sign selects a branch exactly, and costs far
less than ``np.where`` or a masked ufunc.  Elements whose exponent lies
inside a window get their limit or series value by masked assignment; the
window is tested on lam itself, which is per feature, so an element mask is
built only when some lam is close.

``adaptive.power`` builds the one point of the power stage, which EDAIN's
backward pass re-uses; ``flow_kl`` also takes the log-Jacobian ``log_dx``
and its two derivatives from that point.  ``static_norm`` shares one point's
``lp`` across the exponents of its golden-section search
(:meth:`PowerPoint.at`).  The module functions ``forward``, ``dx`` and
``dlam`` are one-call wrappers over a point; ``inverse`` is the generate
direction.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

BRANCH_EPS = 1e-6
SERIES_EPS = 1e-4


class PowerDomainError(ValueError):
    """A power transform has no valid result: the inverse evaluated outside
    its domain, or a static fit whose profile likelihood is not finite (a
    constant feature)."""


class PowerPoint:
    """One ``(x, lam)`` pair and the arrays its transform and derivatives
    share, each built on first use: ``neg``, ``sign`` (+1.0 for x >= 0,
    -1.0 for x < 0), ``lp``, ``es = sign*e`` (lam, or lam - 2 for x < 0)
    and ``el = e*lp``."""

    def __init__(self, x, lam):
        self.x = np.asarray(x, dtype=np.float64)
        self.lam = np.asarray(lam, dtype=np.float64)
        np.broadcast_to(self.lam, self.x.shape)  # lam must broadcast against x
        self.shape = self.x.shape

    def at(self, lam) -> "PowerPoint":
        """The same x at another exponent, sharing ``neg``, ``sign`` and ``lp``."""
        other = PowerPoint(self.x, lam)
        other.neg, other.sign, other.lp = self.neg, self.sign, self.lp
        return other

    @cached_property
    def neg(self) -> np.ndarray:
        return self.x < 0

    @cached_property
    def sign(self) -> np.ndarray:
        sign = np.multiply(self.neg, -2.0, out=np.empty(self.shape))
        sign += 1.0
        return sign

    @cached_property
    def lp(self) -> np.ndarray:
        return np.log1p(np.abs(self.x), out=np.empty(self.shape))

    def _window(self, eps: float):
        """Mask of the elements whose exponent is within eps of 0, or None."""
        near0 = np.abs(self.lam) < eps
        near2 = np.abs(self.lam - 2.0) < eps
        if not (near0.any() or near2.any()):
            return None
        return np.where(self.neg, near2, near0)

    @cached_property
    def _branch(self):
        return self._window(BRANCH_EPS)

    def _exponent_at(self, win: np.ndarray) -> np.ndarray:
        """The exponent e at the masked elements (no window substitution)."""
        lam = np.broadcast_to(self.lam, self.shape)[win]
        return np.where(self.neg[win], 2.0 - lam, lam)

    @cached_property
    def es(self) -> np.ndarray:
        """sign*e, with e set to 1.0 inside the BRANCH_EPS window (whose
        values are replaced) so no closed form divides by ~0."""
        es = np.multiply(self.neg, 2.0, out=np.empty(self.shape))
        np.subtract(self.lam, es, out=es)
        if self._branch is not None:
            es[self._branch] = self.sign[self._branch]
        return es

    @cached_property
    def el(self) -> np.ndarray:
        """e*log1p(|x|)."""
        el = np.multiply(self.es, self.lp, out=np.empty(self.shape))
        el *= self.sign
        return el

    @cached_property
    def _log_dx(self) -> np.ndarray:
        # (lam - 1)*sign; the + 0.0 turns its -0.0 at lam = 1, x < 0 into the
        # +0.0 that 1 - lam gives
        out = np.multiply(self.lam - 1.0, self.sign, out=np.empty(self.shape))
        out += 0.0
        out *= self.lp
        out.flags.writeable = False  # log_dx() hands out this array itself
        return out

    def forward(self) -> np.ndarray:
        """The four-branch transform; total and strictly increasing in x."""
        out = np.expm1(self.el, out=np.empty(self.shape))
        out /= self.es
        win = self._branch
        if win is not None:  # log-limits log1p(x) at lam ~ 0, -log1p(-x) at lam ~ 2
            out[win] = self.lp[win] * self.sign[win]
        return out

    def log_dx(self) -> np.ndarray:
        """log d(forward)/dx, the forward-direction log-Jacobian term
        (read-only: ``dx`` is computed from the same array)."""
        return self._log_dx

    def dx(self) -> np.ndarray:
        """d(forward)/dx: (1+x)^(lam-1) for x >= 0, (1-x)^(1-lam) for x < 0."""
        return np.exp(self._log_dx)

    def dlam(self) -> np.ndarray:
        """d(forward)/dlambda, series-expanded near the singular exponents.

        With L = log1p(|x|) and A = (1+|x|)^e the closed form is
        (A*(e*L - 1) + 1)/e^2 on both sides.  It cancels catastrophically
        as e approaches zero, hence the series inside SERIES_EPS.
        """
        el, es = self.el, self.es
        out = np.exp(el, out=np.empty(self.shape))
        out *= el - 1.0
        out += 1.0
        out /= es * es
        win = self._window(SERIES_EPS)
        if win is not None:
            lp, e = self.lp[win], self._exponent_at(win)
            out[win] = lp**2 / 2.0 + e * lp**3 / 3.0 + e**2 * lp**4 / 8.0
        return out

    def dlam_log_dx(self) -> np.ndarray:
        """d(log d(forward)/dx)/dlambda: log1p(x) for x >= 0, -log1p(-x) below."""
        return self.lp * self.sign

    def dx_log_dx(self) -> np.ndarray:
        """d(log d(forward)/dx)/dx: (lam-1)/(1+x) above zero, (lam-1)/(1-x) below."""
        return (self.lam - 1.0) / (1.0 + np.abs(self.x))


def forward(x, lam):
    return PowerPoint(x, lam).forward()


def dx(x, lam):
    return PowerPoint(x, lam).dx()


def dlam(x, lam):
    return PowerPoint(x, lam).dlam()


def inverse(z, lam):
    """Inverse transform; raises PowerDomainError outside the image.

    With a = |z| (z for z >= 0, -z below) both branches read
    +-expm1(log1p(a*e)/e), and the log-limit windows give +-expm1(a).
    """
    point = PowerPoint(z, lam)
    out = np.multiply(point.x, point.es, out=np.empty(point.shape))  # = a*e
    win = point._branch
    bad = out <= -1.0
    if win is not None:
        bad &= ~win
    if np.any(bad):
        flat = np.argwhere(np.atleast_1d(bad))[0]
        raise PowerDomainError(
            f"value at index {tuple(int(v) for v in flat)} lies outside the "
            f"power transform image"
        )
    np.log1p(out, out=out)
    out /= point.es * point.sign
    np.expm1(out, out=out)
    if win is not None:
        out[win] = np.expm1(point.x[win] * point.sign[win])
    out *= point.sign
    return out

