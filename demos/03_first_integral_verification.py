"""Verification of a trigonometric first-integral ansatz: the stationarity
residual, its harmonic decomposition, magnetic-field elimination, and the
conservation-law certificate behind the Egorov property.

Run: python demos/03_first_integral_verification.py
"""

import numpy as np

import magtorus as mt

grid = mt.SamplingGrid(64, 64)

print("=" * 70)
print("1. An exact configuration: every residual vanishes")
print("=" * 70)

lam = mt.make_trig_field({(0, 0): 2.0, (0, 1): 0.15})   # 2 + 0.3 cos y
a_profile = mt.make_trig_field({(0, 1): -0.05j})        # 0.1 sin y
ansatz, system = mt.build_linear_family(lam, a_profile)

rep = mt.residual_stationarity(ansatz, system.omega, grid)
print("stationarity     :", rep.summary())
for k in range(0, ansatz.n + 2):
    rep_k = mt.residual_harmonic(ansatz, system.omega, k, grid)
    print(f"harmonic k = {k}   : sup {rep_k.max_sup:.3e}")
print("constraint       :", mt.constraint_residual(ansatz, grid).summary())

print()
print("=" * 70)
print("2. Magnetic field: two equivalent closed forms")
print("=" * 70)

rng = np.random.default_rng(3)
n = 3
rand = lambda amp: mt.random_trig_field(rng, n_modes=4, max_mode=2, amplitude=amp)
generic = mt.Ansatz(n, 2.0 + rand(0.1), [rand(0.3) for _ in range(n)],
                    [rand(0.3) for _ in range(n - 1)])
raw = mt.omega_raw(generic).on_grid(grid)
rescaled = mt.omega_rescaled(mt.rescale(generic)).on_grid(grid)
print(f"max |omega_raw - omega_rescaled| for random degree-3 fields: "
      f"{np.max(np.abs(raw - rescaled)):.3e}")

print()
print("=" * 70)
print("3. Perturbation sensitivity: the residual is linear in the defect")
print("=" * 70)

cos_x = mt.make_trig_field({(1, 0): 0.5})
for eps in (1e-3, 1e-2, 1e-1):
    perturbed = mt.Ansatz(1, ansatz.lam, [ansatz.u[0] + eps * cos_x], [])
    sup = mt.residual_stationarity(perturbed, system.omega, grid).max_sup
    print(f"  u_0 perturbed by {eps:.0e} cos x  ->  stationarity sup {sup:.6e}")

print()
print("=" * 70)
print("4. The Egorov certificate")
print("=" * 70)

cert = mt.egorov_certificate(mt.rescale(ansatz), grid, tol=1e-10)
print(f"exact family  : certified = {cert.certified}, flags = {cert.flags}")
print(f"                residual sups = " +
      ", ".join(f"{k}: {v:.2e}" for k, v in cert.residual_sups.items()))

generic_resc = mt.RescaledAnsatz(2, (rand(0.4), rand(0.4)),
                                 (rand(0.4), rand(0.4)),
                                 2.0 + rand(0.1), mt.TorusGeometry())
cert_bad = mt.egorov_certificate(generic_resc, grid, tol=1e-10)
print(f"generic fields: certified = {cert_bad.certified}, "
      f"worst residual = {max(cert_bad.residual_sups.values()):.3e}")

assert cert.certified and not cert_bad.certified
print("\nPASS: exact family certified, generic fields refused")
