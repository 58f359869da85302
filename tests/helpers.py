"""Shared fixtures: exact configurations, independent transcriptions, and the
manufactured leading-harmonic block used by the conservation-law tests."""

import numpy as np

import magtorus as mt
from magtorus.fields import TrigField


def exact_family():
    """Degree-1 family Lambda = 2 + 0.3 cos y, A = 0.1 sin y, Omega = -0.1 cos y."""
    lam = mt.make_trig_field({(0, 0): 2.0, (0, 1): 0.15})
    a_prof = mt.make_trig_field({(0, 1): -0.05j})
    return mt.build_linear_family(lam, a_prof)


def eval_complex(field: TrigField, x, y):
    """Full two-sided sum of the coefficient table; for a real field the
    imaginary part vanishes to roundoff."""
    total = 0j
    for (m, n), c in field.coefficients().items():
        kx, ky = field.geometry.wavenumbers(m, n)
        total += c * np.exp(1j * (kx * x + ky * y))
    return total


def circular_closed_form(t, b=1.0, x0=0.0, y0=0.0, phi0=0.0):
    """Flat torus, constant magnetic field b: exact solution of the flow."""
    t = np.asarray(t, dtype=float)
    phi = phi0 - b * t
    x = x0 + (np.sin(phi0) - np.sin(phi)) / b
    y = y0 + (np.cos(phi) - np.cos(phi0)) / b
    return x, y, phi


def stream_pair(psi: TrigField):
    """f = psi_y, g = -psi_x, so f_x + g_y = 0 identically (mixed partials)."""
    return psi.dy_field(), -1.0 * psi.dx_field()


def top_harmonic_displays(n, f, g, fm2, gm2, lam, X, Y):
    """The two leading-harmonic relations in rescaled variables:

      (N-1) f ((g)_x - (f)_y) + N ((fm2)_y - (gm2)_x - N Lambda_y)
      (N-1) g ((g)_x - (f)_y) + N ((fm2)_x + (gm2)_y + N Lambda_x)
    """
    d_vals = g.d_dx(X, Y) - f.d_dy(X, Y)
    disp1 = ((n - 1) * f.eval(X, Y) * d_vals
             + n * (fm2.d_dy(X, Y) - gm2.d_dx(X, Y) - n * lam.d_dy(X, Y)))
    disp2 = ((n - 1) * g.eval(X, Y) * d_vals
             + n * (fm2.d_dx(X, Y) + gm2.d_dy(X, Y) + n * lam.d_dx(X, Y)))
    return disp1, disp2


def solve_div_curl(div_rhs: TrigField, curl_rhs: TrigField, geometry):
    """Periodic fields (p, q) with p_x + q_y = div_rhs and p_y - q_x = curl_rhs,
    solved exactly per Fourier mode (the zero-mean modes must vanish)."""
    ta = div_rhs.coefficients()
    tb = curl_rhs.coefficients()
    mean = max(abs(ta.get((0, 0), 0.0)), abs(tb.get((0, 0), 0.0)))
    if mean > 1e-12:
        raise ValueError(f"right-hand sides must have zero mean (got {mean:g})")
    table_p = {}
    table_q = {}
    for mn in set(ta) | set(tb):
        if mn == (0, 0):
            continue
        kx, ky = geometry.wavenumbers(*mn)
        a = ta.get(mn, 0.0)
        b = tb.get(mn, 0.0)
        k2 = kx * kx + ky * ky
        table_p[mn] = -1j * (kx * a + ky * b) / k2
        table_q[mn] = -1j * (ky * a - kx * b) / k2
    return TrigField(table_p, geometry), TrigField(table_q, geometry)


def manufactured_rescaled(n, psi: TrigField, lam: TrigField) -> mt.RescaledAnsatz:
    """Rescaled configuration whose leading-harmonic block holds exactly:
    the top pair comes from a stream function (divergence constraint exact)
    and (f_{N-2}, g_{N-2}) solve the two display equations spectrally."""
    geometry = psi.geometry
    f, g = stream_pair(psi)
    d_field = g.dx_field() + (-1.0) * f.dy_field()
    div_rhs = (-float(n)) * lam.dx_field() + (-(n - 1) / n) * (g * d_field)
    curl_rhs = float(n) * lam.dy_field() + (-(n - 1) / n) * (f * d_field)
    fm2, gm2 = solve_div_curl(div_rhs, curl_rhs, geometry)
    zero = mt.zero_field(geometry)
    f_list = [zero] * (n - 2) + [fm2, f]
    g_list = [zero] * (n - 2) + [gm2, g]
    return mt.RescaledAnsatz(n, tuple(f_list), tuple(g_list), lam, geometry)


# ---------------------------------------------------------------------------
# Independent transcriptions of the stacked quasi-linear equations
# (hand-derived real formulas; validated against the symbolic oracle)
# ---------------------------------------------------------------------------


def transcription_n1(state, ux, uy):
    lam = state[0]
    lam_x, u0x = ux
    _lam_y, _u0y = uy
    return np.array([lam_x / np.sqrt(lam), 2.0 * lam * u0x])


def transcription_n2(state, ux, uy):
    lam, u0, u1, v1 = state
    lam_x, u0x, u1x, v1x = ux
    lam_y, u0y, u1y, v1y = uy
    sqrt_lam = np.sqrt(lam)
    omega = ((lam_y * u1 - lam_x * v1) + 2.0 * lam * (v1x - u1y)) / (8.0 * lam ** 1.5)
    row0 = -(lam_y / (2 * lam)) * v1 + (lam_x / (2 * lam)) * u1 + u1x - v1y
    row1 = u0x / 2.0 + lam_x + omega * v1 / sqrt_lam
    row2 = lam_y - u0y / 2.0 - omega * u1 / sqrt_lam
    row3 = 2.0 * lam * (u1x + v1y) - (v1 * lam_y + u1 * lam_x)
    return np.array([row0, row1, row2, row3])
