"""Magnetic geodesic flows on a flat 2-torus: trigonometric first integrals,
residual verification, conservation-law certificates, and numeric assembly of
the associated quasi-linear system."""

from .fields import (AnalyticField, DerivativeUnavailable, DomainError, Field,
                     FieldError, SamplingGrid, TorusGeometry, TrigField,
                     analytic_preset, constant_field, field_from_spec,
                     make_trig_field, random_trig_field,
                     register_analytic_preset, trig_records, zero_field)
from .flow import (CotangentState, CrosscheckReport, DriftStats,
                   MagneticSystem, PhaseState, StepControl, Trajectory,
                   cotangent_rhs, crosscheck_formulations, export_csv,
                   flow_rhs, integrate, integrate_cotangent, monitor,
                   wrap_angle)
from .ansatz import (Ansatz, EquationResidual, RescaledAnsatz, ResidualReport,
                     build_linear_family, conservation_flux_fields,
                     conservation_residuals, constraint_residual, eval_F,
                     first_integral_observable, omega_raw, omega_rescaled,
                     rescale, residual_harmonic, residual_stationarity,
                     unrescale)
from .quasilinear import (EgorovCertificate, SpectrumReport, StateVector,
                          SystemMatrices, assemble, certificate_from_reports,
                          egorov_certificate, geodesic_matrix, spectra, spectrum,
                          stacked_residual, state_from_ansatz)
from .scenarios import (Scenario, ScenarioError, TrajectoryRequest,
                        build_scenario, bundled_scenario_names, load_scenario)

__version__ = "0.1.0"
