"""A 50-digit transfer-matrix reference for piecewise-constant potentials.

Every float input converts to mpmath exactly, so the reference solves the
very potential the package was given; breakpoints and clock-region ends
given as mpf are taken unrounded, so a caller can pass exact sums of
floats. In region r the states are
a e^{i kappa u} + b e^{-i kappa u}, u measured from the region's left
edge (from the first breakpoint in the leftmost region), with kappa real
where the wave propagates and +iq where it is evanescent. psi, incident
from the left, is matched from its outgoing wave on the right leftward;
chi, incident from the right, is matched from its outgoing wave on the
left rightward, so each grows in the direction it is matched and the two
share nothing but the matching conditions. The integrals of |psi|^2,
psi^2 and psi*chi over the part of each region inside the clock region
are closed forms, each exponential integrated with expm1, so neither a
short width nor a small wavenumber cancels.
"""

from typing import NamedTuple

from mpmath import mp, mpc, mpf

DIGITS = 50


class Reference(NamedTuple):
    """T, R, the free wavenumber k, and the integrals of |psi|^2, psi^2
    and psi*chi over each region that overlaps the clock region."""

    transmission: mpc
    reflection: mpc
    wavenumber: mpf
    density: list
    psi2: list
    psichi: list


def _exact(z):
    """z as an mpf, unrounded."""
    return z if isinstance(z, mpf) else mpf(z)


def _integral(c, u1, u2):
    """Integral of e^{c u} over [u1, u2]."""
    return u2 - u1 if c == 0 else mp.exp(c * u1) * mp.expm1(c * (u2 - u1)) / c


def reference(breakpoints, heights, energy, z1, z2, mass=1.0, hbar=1.0) -> Reference:
    with mp.workdps(DIGITS):
        bp = [_exact(z) for z in breakpoints]
        m, h, e = mpf(mass), mpf(hbar), mpf(energy)
        kappas = [mpc(mp.sqrt(2 * m * (e - mpf(v)))) / h for v in (0.0, *heights, 0.0)]
        n = len(heights)
        anchors = [bp[0], *bp]
        widths = [0, *(bp[r] - bp[r - 1] for r in range(1, n + 1))]
        # psi: outgoing e^{ik(z - bp[n])} on the right, matched leftward.
        psi = [None] * (n + 2)
        psi[n + 1] = (mpc(1), mpc(0))
        for r in range(n, -1, -1):
            a, b = psi[r + 1]
            ratio = kappas[r + 1] / kappas[r]
            phase = mp.exp(1j * kappas[r] * widths[r])
            psi[r] = ((a + b + ratio * (a - b)) / 2 / phase,
                      (a + b - ratio * (a - b)) / 2 * phase)
        # chi: outgoing e^{-ik(z - bp[0])} on the left, matched rightward.
        chi = [(mpc(0), mpc(1))]
        for r in range(n + 1):
            a, b = chi[r]
            phase = mp.exp(1j * kappas[r] * widths[r])
            value, slope = a * phase + b / phase, kappas[r] / kappas[r + 1] * (a * phase - b / phase)
            chi.append(((value + slope) / 2, (value - slope) / 2))
        k = kappas[0].real
        inc_psi = psi[0][0] * mp.exp(-1j * k * bp[0])
        inc_chi = chi[n + 1][1] * mp.exp(1j * k * bp[-1])
        density, psi2, psichi = [], [], []
        lo_z, hi_z = _exact(z1), _exact(z2)
        for r in range(n + 2):
            lo = max(lo_z, bp[r - 1]) if r else lo_z
            hi = min(hi_z, bp[r]) if r <= n else hi_z
            if not lo < hi:
                continue
            kappa, u1, u2 = kappas[r], lo - anchors[r], hi - anchors[r]
            a, b = (c / inc_psi for c in psi[r])
            c, d = (c / inc_chi for c in chi[r])
            ik, ik_bar = 1j * kappa, 1j * mp.conj(kappa)
            density.append((abs(a) ** 2 * _integral(ik - ik_bar, u1, u2)
                            + abs(b) ** 2 * _integral(ik_bar - ik, u1, u2)
                            + a * mp.conj(b) * _integral(ik + ik_bar, u1, u2)
                            + mp.conj(a) * b * _integral(-ik - ik_bar, u1, u2)).real)
            psi2.append(a * a * _integral(2 * ik, u1, u2) + b * b * _integral(-2 * ik, u1, u2)
                        + 2 * a * b * (u2 - u1))
            psichi.append(a * c * _integral(2 * ik, u1, u2) + b * d * _integral(-2 * ik, u1, u2)
                          + (a * d + b * c) * (u2 - u1))
        return Reference(
            transmission=mp.exp(-1j * k * bp[-1]) / inc_psi,
            reflection=psi[0][1] * mp.exp(1j * k * bp[0]) / inc_psi,
            wavenumber=k,
            density=density,
            psi2=psi2,
            psichi=psichi,
        )


def times(ref: Reference, mass=1.0, hbar=1.0) -> dict:
    """The dwell time and the two clock times of a reference, each as
    (m / hbar k) times the real part of its integral ratio; a channel
    with a zero amplitude has no time."""
    with mp.workdps(DIGITS):
        scale = mpf(mass) / (mpf(hbar) * ref.wavenumber)
        return {
            "dwell": scale * mp.fsum(ref.density),
            "transmitted": scale * (mp.fsum(ref.psichi) / ref.transmission).real,
            "reflected": scale * (mp.fsum(ref.psi2) / ref.reflection).real
            if ref.reflection else None,
        }
