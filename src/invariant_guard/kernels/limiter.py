"""Monotonized-central (MC) slope limiter shared by every MUSCL kernel."""

import numpy as np


def mc_limit(centered, fwd, bwd):
    """MC-limited slope: the smallest of |centered|, |fwd|, |bwd| with the
    sign of ``centered`` where ``fwd`` and ``bwd`` agree in sign, else 0."""
    same_sign = (fwd * bwd) > 0.0
    mag = np.minimum(np.abs(centered), np.minimum(np.abs(fwd), np.abs(bwd)))
    return np.where(same_sign, np.sign(centered) * mag, 0.0)


def mc_limited_slopes(u, axis=0):
    """MC-limited slope per cell along ``axis`` (periodic), in units of du."""
    um = np.roll(u, 1, axis=axis)
    up = np.roll(u, -1, axis=axis)
    return mc_limit(0.5 * (up - um), 2.0 * (up - u), 2.0 * (u - um))
