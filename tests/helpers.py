"""Shared fixtures: exact configurations, independent transcriptions, the
manufactured leading-harmonic block used by the conservation-law tests, and
the recursive point evaluator that compiled point kernels must reproduce."""

import math

import numpy as np

import magtorus as mt
from magtorus.fields import LAMBDA_FLOOR, DomainError, Jet, TrigField, _Node, same_torus


def exact_family():
    """Degree-1 family Lambda = 2 + 0.3 cos y, A = 0.1 sin y, Omega = -0.1 cos y."""
    lam = mt.make_trig_field({(0, 0): 2.0, (0, 1): 0.15})
    a_prof = mt.make_trig_field({(0, 1): -0.05j})
    return mt.build_linear_family(lam, a_prof)


def power_family(n, lam, a, axis="y") -> mt.Ansatz:
    """Degree-n ansatz of an exact integral of a linear family, so an exact
    integral of the same flow:

    * axis "y": F_1^n, F_1 = 2 sqrt(Lambda) cos(phi) + 2 A(y), the first
      integral of the family with Omega = -A'(y);
    * axis "x": (-1)^(n/2) F_1^n at even n, F_1 = 2 sqrt(Lambda) sin(phi) +
      2 A(x), the first integral of the family with Omega = A'(x).

    With (2 sqrt(Lambda) cos(phi))^j = Lambda^(j/2) sum_i C(j, i)
    exp(i (j - 2i) phi), the coefficient of exp(i k phi) in F_1^n on axis
    "y" is

        P_k = sum over j = k, k + 2, .. <= n of C(n, j) C(j, (j - k)/2) (2A)^(n-j) Lambda^(j/2),

    real (u_k = P_k, v_k = 0).  On axis "x" the sine's i^(-j) (-1)^((j-k)/2)
    is i^(-k), so a_k = (-1)^(n/2) i^(-k) P_k: u_k at even k and v_k at odd
    k.  Either way u_n = Lambda^(n/2) is the ansatz's normalization."""
    two_a, zero = 2.0 * a, mt.zero_field(lam.geometry)
    u, v = [], [zero] * n
    for k in range(n):
        total = zero
        for j in range(k, n + 1, 2):
            term = float(math.comb(n, j) * math.comb(j, (j - k) // 2))
            if j < n:   # no power 0: its slope 0 * A^-1 divides by zero where A = 0
                term = term * two_a ** (n - j)
            if j > 0:
                term = term * lam ** (j / 2.0)
            total = total + term
        if axis == "y":
            u.append(total)
            continue
        sign = (-1.0) ** (n // 2 + k // 2)   # (-1)^(n/2) i^(-k) = sign, or -i sign at odd k
        u.append(sign * total if k % 2 == 0 else zero)
        if k % 2:
            v[k] = -sign * total
    return mt.Ansatz(n, lam, u, v[1:])


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
    return psi.dy_field(), trig_combination((-1.0, psi.dx_field()))


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


def trig_combination(*terms) -> TrigField:
    """The linear combination sum of s * field over (s, field) pairs of trig
    polynomials as a table, summed per mode (fields add to expression nodes)."""
    same_torus(*(field for _, field in terms))
    table = {}
    for scale, field in terms:
        for mn, c in field.coefficients().items():
            table[mn] = table.get(mn, 0.0) + scale * c
    return TrigField(table, terms[0][1].geometry)


def trig_product(left: TrigField, right: TrigField) -> TrigField:
    """The product of two trig polynomials as a table: the convolution of
    their full coefficient tables (fields multiply to expression nodes)."""
    same_torus(left, right)
    table = {}
    for (m1, n1), c1 in left.coefficients().items():
        for (m2, n2), c2 in right.coefficients().items():
            table[(m1 + m2, n1 + n2)] = table.get((m1 + m2, n1 + n2), 0.0) + c1 * c2
    return TrigField(table, left.geometry)


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
    d_field = trig_combination((1.0, g.dx_field()), (-1.0, f.dy_field()))
    div_rhs = trig_combination((-float(n), lam.dx_field()),
                               (-(n - 1) / n, trig_product(g, d_field)))
    curl_rhs = trig_combination((float(n), lam.dy_field()),
                                (-(n - 1) / n, trig_product(f, d_field)))
    fm2, gm2 = solve_div_curl(div_rhs, curl_rhs, geometry)
    zero = mt.zero_field(geometry)
    f_list = [zero] * (n - 2) + [fm2, f]
    g_list = [zero] * (n - 2) + [gm2, g]
    return mt.RescaledAnsatz(n, tuple(f_list), tuple(g_list), lam)


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


# ---------------------------------------------------------------------------
# The recursive point evaluator (one call per node, a memo of trigonometric
# leaves per call): the oracle of the compiled point kernels
# ---------------------------------------------------------------------------


def recursive_point_jet(field, x, y, memo=None, *, cos=math.cos, sin=math.sin) -> Jet:
    """Jet of `field` at the point (x, y) by walking its expression tree;
    with numpy's `cos` and `sin`, at coordinate arrays (x, y)."""
    memo = {} if memo is None else memo
    if isinstance(field, TrigField):
        jet = memo.get(field)
        if jet is None:
            v_x = v_y = 0.0 * (x + y)
            v = field._c0 + v_x
            for kx, ky, a, b in field._terms:
                theta = kx * x + ky * y
                c, s = cos(theta), sin(theta)
                slope = -(a * s + b * c)
                v, v_x, v_y = v + (a * c - b * s), v_x + kx * slope, v_y + ky * slope
            jet = memo[field] = Jet(v, v_x, v_y)
        return jet
    if isinstance(field, _Node):
        return field._rule(*[recursive_point_jet(c, x, y, memo, cos=cos, sin=sin)
                             for c in field._children])
    return field._jet_at(x, y)   # an affine leaf: its rule applied to the coordinates


def recursive_lam_omega(lam, omega, x, y) -> tuple:
    """(Lambda, Lambda_x, Lambda_y, Omega) from one leaf memo, with the
    positivity floor checked before Omega is evaluated."""
    memo = {}
    jet = recursive_point_jet(lam, x, y, memo)
    if not jet.v > LAMBDA_FLOOR:
        raise DomainError(f"conformal factor {jet.v:g} fell below the positivity floor at "
                          f"({x:g}, {y:g})")
    return (*jet, recursive_point_jet(omega, x, y, memo).v)


def same_bits(a, b) -> bool:
    """`a == b` of the same type, telling -0.0 from 0.0 and nan equal to nan."""
    if type(a) is not type(b):
        return False
    if isinstance(a, complex):
        return same_bits(a.real, b.real) and same_bits(a.imag, b.imag)
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def outcome(fn):
    """What calling `fn` gives: ("value", tuple) or ("raise", type, message)."""
    try:
        return ("value", tuple(fn()))
    except Exception as exc:   # the oracle and the kernel must fail alike
        return ("raise", type(exc), str(exc))


def assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raise":
        assert got == want
    else:
        assert len(got[1]) == len(want[1]) and all(map(same_bits, got[1], want[1])), (got, want)
