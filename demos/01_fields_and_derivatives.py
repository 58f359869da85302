"""Fields on the 2-torus: trig-polynomial tables and affine leaves, exact
spectral derivatives, and the field algebra that powers every residual check.

Run: python demos/01_fields_and_derivatives.py
"""

import numpy as np

import magtorus as mt

print("=" * 70)
print("1. Trigonometric-polynomial fields")
print("=" * 70)

# cos(x) from its two Fourier coefficients; the conjugate mode may be omitted
# and is completed automatically.
cos_x = mt.make_trig_field({(1, 0): 0.5})
print(f"cos(0)      = {cos_x.eval(0.0, 0.0):+.15f}")
print(f"cos(pi)     = {cos_x.eval(np.pi, 0.0):+.15f}")
print(f"cos(x+2pi)  = {cos_x.eval(1.3 + 2 * np.pi, 0.0):+.15f}  (shift invariance)")
print(f"cos(1.3)    = {cos_x.eval(1.3, 0.0):+.15f}")

# Differentiation multiplies mode (m, n) by i 2 pi m / period_x: exact, no grids.
print(f"\nd/dx cos at pi/2      = {cos_x.d_dx(np.pi / 2, 0.0):+.15f}   (exact -1)")
h = 1e-5
fd = (cos_x.eval(np.pi / 2 + h, 0.0) - cos_x.eval(np.pi / 2 - h, 0.0)) / (2 * h)
print(f"centered difference   = {fd:+.15f}   (O(h^2) approximation)")

print()
print("=" * 70)
print("2. Random fields and the exactness gap")
print("=" * 70)

rng = np.random.default_rng(1)
field = mt.random_trig_field(rng, n_modes=5, max_mode=2, amplitude=0.4)
grid = mt.SamplingGrid(64, 64)
exact = field.d_dx(grid.mesh_x, grid.mesh_y)
fd = (field.eval(grid.mesh_x + h, grid.mesh_y)
      - field.eval(grid.mesh_x - h, grid.mesh_y)) / (2 * h)
print(f"max |spectral - centered difference| over 64x64 grid: {np.max(np.abs(exact - fd)):.3e}")

print()
print("=" * 70)
print("3. Affine leaves for non-periodic profiles")
print("=" * 70)

# A linear ramp in y is not periodic; consumers flag reports accordingly.
ramp = mt.analytic_preset("affine_y", {"slope": -1.0})
print(f"(-2 B y with B = 1/2) at y = 3: {ramp.eval(0.0, 3.0):+.1f}")
print(f"periodic flag: {ramp.periodic}")

print()
print("=" * 70)
print("4. Field algebra with exact first derivatives")
print("=" * 70)

lam = mt.make_trig_field({(0, 0): 2.0, (0, 1): 0.15})  # 2 + 0.3 cos y
root = lam ** 0.5
product = lam * field
print(f"sqrt(Lambda)(0, 1)          = {root.eval(0.0, 1.0):.15f}")
expected = 0.5 * lam.eval(0.0, 1.0) ** (-0.5) * lam.d_dy(0.0, 1.0)
print(f"d/dy sqrt(Lambda) chain rule: {root.d_dy(0.0, 1.0):+.15f}")
print(f"0.5 Lambda^-1/2 Lambda_y    : {expected:+.15f}")

prod_exact = product.d_dx(0.7, 0.3)
prod_rule = lam.d_dx(0.7, 0.3) * field.eval(0.7, 0.3) + lam.eval(0.7, 0.3) * field.d_dx(0.7, 0.3)
assert abs(prod_exact - prod_rule) < 1e-14
assert np.max(np.abs(exact - fd)) < 1e-8
print("\nPASS: spectral derivatives exact; algebra follows the product rule")
