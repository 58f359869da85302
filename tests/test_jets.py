"""Forward-mode jets: the grid, array and point paths of trigonometric
fields, expression nodes against closed forms, value-only fields, and one
evaluation per field and grid block in each verification check."""

import collections

import numpy as np
import pytest

import magtorus as mt
import magtorus.cli
from magtorus.cli import run_verify_checks
from magtorus.fields import DerivativeUnavailable, GridBlock, TrigField, value_field


def assert_close(got, want, rtol=1e-13):
    """max |got - want| <= rtol * max |want| (exact agreement for zero fields)."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("seed", range(4))
def test_grid_array_and_point_paths_agree(seed):
    rng = np.random.default_rng(seed)
    geometry = mt.TorusGeometry(2.0, 3.0) if seed % 2 else mt.TorusGeometry()
    base = mt.random_trig_field(rng, geometry, n_modes=6, max_mode=3,
                                offset=float(rng.uniform(-1.0, 1.0)))
    grid = mt.SamplingGrid(12, 10, geometry)
    i = rng.integers(0, grid.nx, size=7)
    j = rng.integers(0, grid.ny, size=7)
    for field in (base, base.dx_field(), base.dy_field()):
        separable = field.jet(grid)
        mesh = field.jet(grid.mesh_x, grid.mesh_y)
        samples = field.jet(grid.xs[i], grid.ys[j])   # 1-D, like trajectory samples
        points = [field.jet(float(grid.xs[a]), float(grid.ys[b])) for a, b in zip(i, j)]
        for part in range(3):
            assert not separable[part].flags.writeable
            assert_close(separable[part], mesh[part])
            assert_close(samples[part], mesh[part][i, j])
            assert_close([p[part] for p in points], mesh[part][i, j])
        assert np.array_equal(field.on_grid(grid), separable.v)


def test_expression_nodes_match_closed_forms():
    a = mt.make_trig_field({(0, 0): 2.0, (1, 0): 0.5})                    # 2 + cos x
    b = mt.make_trig_field({(0, 1): -0.5j})                                # sin y
    ramp = mt.analytic_preset("affine_y", {"offset": 1.0, "slope": 0.3})  # 1 + 0.3 y
    cases = {
        "sum": (a + ramp, lambda x, y: (3.0 + np.cos(x) + 0.3 * y,
                                        -np.sin(x) + 0.0 * y, 0.3 + 0.0 * x)),
        "product": (a * ramp, lambda x, y: ((2.0 + np.cos(x)) * (1.0 + 0.3 * y),
                                            -np.sin(x) * (1.0 + 0.3 * y),
                                            0.3 * (2.0 + np.cos(x)))),
        "power": (a ** -1.5, lambda x, y: ((2.0 + np.cos(x)) ** -1.5,
                                           1.5 * np.sin(x) * (2.0 + np.cos(x)) ** -2.5,
                                           0.0 * (x + y))),
        "affine": (2.5 * ramp - 4.0, lambda x, y: (2.5 * (1.0 + 0.3 * y) - 4.0,
                                                   0.0 * (x + y), 0.75 + 0.0 * x)),
        "nested": ((a ** 0.5) * b + ramp,
                   lambda x, y: (np.sqrt(2.0 + np.cos(x)) * np.sin(y) + 1.0 + 0.3 * y,
                                 -np.sin(x) * np.sin(y) / (2.0 * np.sqrt(2.0 + np.cos(x))),
                                 np.sqrt(2.0 + np.cos(x)) * np.cos(y) + 0.3)),
    }
    rng = np.random.default_rng(79)
    grid = mt.SamplingGrid(9, 7)
    xs, ys = rng.uniform(0.0, 2.0 * np.pi, (2, 25))
    for name, (field, closed) in cases.items():
        assert isinstance(field, mt.AnalyticField), name
        for got, want in ((field.jet(grid), closed(grid.mesh_x, grid.mesh_y)),
                          (field.jet(xs, ys), closed(xs, ys)),
                          (field.jet(float(xs[0]), float(ys[0])), closed(xs[0], ys[0]))):
            for part in range(3):
                assert np.max(np.abs(got[part] - want[part])) <= 1e-13 * (
                    1.0 + np.max(np.abs(want[part]))), name


def test_value_only_fields():
    rng = np.random.default_rng(83)
    lam = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.1, offset=2.0)
    u = [mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.3) for _ in range(2)]
    ansatz = mt.Ansatz(2, lam, u, [mt.random_trig_field(rng, n_modes=3, max_mode=2)])
    grid = mt.SamplingGrid(8, 8)
    for omega in (mt.omega_raw(ansatz), mt.omega_rescaled(mt.rescale(ansatz))):
        assert np.all(np.isfinite(omega.on_grid(grid)))
        for call in (omega.d_dx, omega.d_dy, omega.jet):
            with pytest.raises(DerivativeUnavailable):
                call(0.1, 0.2)
    zero = mt.zero_field()
    no_rules = value_field(lambda a: a.v, (zero,), label="no rules")
    with pytest.raises(DerivativeUnavailable):
        mt.omega_rescaled(mt.RescaledAnsatz(1, (no_rules,), (zero,), lam))


class CountingMemo(dict):
    """Block memo that records every (field, jet) it stores (one store per
    evaluation)."""

    def __init__(self):
        super().__init__()
        self.stored = []   # strong references keep ids unique

    def __setitem__(self, key, value):
        self.stored.append((key, value))
        super().__setitem__(key, value)


def random_scenario(n, grid, **extra):
    """A degree-n scenario of random trig fields (a non-solution) on `grid`."""

    def trig(seed, amplitude):
        return {"type": "random_trig", "seed": seed, "amplitude": amplitude}

    return mt.build_scenario(dict({
        "N": n, "grid": grid,
        "lambda": dict(trig(1, 0.1), offset=2.0),
        "coefficients": [dict({"k": k, "u": trig(10 + k, 0.3)},
                              **({"v": trig(20 + k, 0.3)} if k else {}))
                         for k in range(n)],
    }, **extra))


def test_verify_checks_evaluate_each_leaf_once_per_block(monkeypatch):
    n = 4
    scenario = random_scenario(n, [130, 70])   # two blocks; the first ends inside a row
    blocks = []
    init = GridBlock.__init__

    def counted_init(block, *args, **kwargs):
        init(block, *args, **kwargs)
        block.memo = CountingMemo()
        blocks.append(block)

    monkeypatch.setattr(GridBlock, "__init__", counted_init)
    payload, stats = run_verify_checks(scenario)[:2]
    assert [c["check"] for c in payload["checks"]] == list(mt.scenarios.KNOWN_CHECKS)
    assert len(scenario.grid.spans) == 2 and scenario.grid.spans[0][1] % 70
    # One pass: exactly one block per span over the whole run, never the whole grid.
    assert [(b.start, b.stop) for b in blocks] == scenario.grid.spans
    assert stats["jets"] == sum(len(b.memo.stored) for b in blocks)
    leaves = {id(f) for f in scenario.ansatz.fields() if isinstance(f, TrigField)}
    # Lambda, u_0..u_3, v_1..v_3 and the zero field v_0 = v_4 (u_4 is a power node)
    assert len(leaves) == 2 * n + 1
    for block in blocks:
        counts = collections.Counter(id(field) for field, _ in block.memo.stored)
        assert max(counts.values()) == 1   # leaves and nodes alike, across every check
        stored = {field for field, _ in block.memo.stored}
        for field, jet in block.memo.stored:
            # a node evaluates its children through the memo
            assert all(child in stored for child in getattr(field, "_children", ()))
            for part in jet:   # an array of the block's nodes, or a value field's NaN
                if isinstance(part, np.ndarray):
                    assert part.shape == (block.stop - block.start,)
                    assert not part.flags.writeable
                else:
                    assert np.isnan(part)
    stored = {id(field) for b in blocks for field, _ in b.memo.stored}
    assert leaves | {id(scenario.ansatz.u[n]), id(scenario.system.omega)} <= stored


@pytest.mark.parametrize("name", sorted(mt.scenarios.BUNDLED))
def test_verify_evaluates_every_field_its_plans_declare(monkeypatch, name):
    # The plans' fields are what the memo keeps between them and what their
    # periodicity and bandwidth are read from: each must be one that is read.
    scenario = mt.load_scenario(name)
    blocks, declared = [], set()
    init, streamed = GridBlock.__init__, magtorus.cli.streamed_reports

    def kept_init(block, *args, **kwargs):
        init(block, *args, **kwargs)
        blocks.append(block)

    def recorded(grid, plans):
        declared.update(field for plan in plans for field in plan.fields)
        return streamed(grid, plans)

    monkeypatch.setattr(GridBlock, "__init__", kept_init)
    monkeypatch.setattr(magtorus.cli, "streamed_reports", recorded)
    run_verify_checks(scenario)
    assert declared and blocks
    for block in blocks:   # after the block's pass the memo keeps the declared fields
        assert set(block.memo) == declared


def test_certificate_walks_the_grid_once(monkeypatch):
    scenario = random_scenario(3, [130, 70])
    blocks = []
    init = GridBlock.__init__
    monkeypatch.setattr(GridBlock, "__init__", lambda block, *args: init(block, *args)
                        or blocks.append((block.start, block.stop)))
    mt.egorov_certificate(mt.rescale(scenario.ansatz), scenario.grid)
    assert blocks == scenario.grid.spans


def test_one_pass_reports_equal_each_residual_function_alone():
    scenario = random_scenario(3, [130, 70])   # two blocks; the first ends inside a row
    ansatz, omega, grid = scenario.ansatz, scenario.system.omega, scenario.grid
    alone = {"stationarity": [("stationarity", mt.residual_stationarity(ansatz, omega, grid))],
             "harmonics": [(f"harmonic_{k}", mt.residual_harmonic(ansatz, omega, k, grid))
                           for k in range(ansatz.n + 2)],
             "constraint": [("constraint", mt.constraint_residual(ansatz, grid))],
             "conservation": [("conservation",
                               mt.conservation_residuals(mt.rescale(ansatz), grid))]}
    payload, _, _, grids = run_verify_checks(scenario, want_grids=True)
    entries = {c["check"]: c for c in payload["checks"]}
    for check, reports in alone.items():
        # every norm bit for bit (a NaN-free non-solution, so == is exact)
        assert entries[check]["residuals"] == [e._asdict() for _, report in reports
                                               for e in report.entries]
        for _, report in reports:
            for label, values in report.values.items():
                assert np.array_equal(grids.pop(label), values)
    assert grids == {}
    cert = mt.egorov_certificate(mt.rescale(ansatz), grid, scenario.tolerance)
    assert entries["certificate"]["residual_sups"] == cert.residual_sups


@pytest.mark.parametrize("checks, first_labels", [
    (list(mt.scenarios.KNOWN_CHECKS),
     ["conservation_1", "divergence_unscaled", "stationarity", "harmonic_0_real"]),
    (["certificate"], ["conservation_1", "divergence_unscaled"]),
    (["harmonics", "stationarity"], ["stationarity", "harmonic_0_real"]),
], ids=["all", "certificate", "harmonics-stationarity"])
def test_verify_samples_one_plan_per_needed_check(monkeypatch, checks, first_labels):
    scenario = random_scenario(3, [16, 16], checks=checks)
    plans, streamed = [], magtorus.cli.streamed_reports

    def recorded(grid, given):
        plans.extend(given)
        return streamed(grid, given)

    monkeypatch.setattr(magtorus.cli, "streamed_reports", recorded)
    payload, _, _, grids = run_verify_checks(scenario, want_grids=True)
    assert [plan.labels[0] for plan in plans] == first_labels
    if "harmonics" in checks:   # the N + 2 relations in one report, each with its grid
        entry = next(c for c in payload["checks"] if c["check"] == "harmonics")
        assert [r["label"] for r in entry["residuals"]] == [
            f"harmonic_{k}_{part}" for k in range(5) for part in ("real", "imag")]
        assert set(grids) == {"stationarity", *(f"harmonic_{k}" for k in range(5))}


def test_harmonics_build_each_coefficient_jet_once_per_block(monkeypatch):
    n = 4
    scenario = random_scenario(n, [130, 70], checks=["harmonics"])
    built, original = collections.Counter(), mt.ansatz.coefficient_jet

    def counted(n, j, real_jets):
        jet = original(n, j, real_jets)
        if isinstance(jet.v, np.ndarray):   # a_j = 0 for j > N is a scalar
            built[j] += 1
        return jet

    monkeypatch.setattr(mt.ansatz, "coefficient_jet", counted)
    run_verify_checks(scenario)
    # a_{-1} = conj(a_1) and a_0 .. a_N: N + 2 jets on each block, not 3 per relation
    assert built == {j: len(scenario.grid.spans) for j in range(-1, n + 1)}


def test_omega_constraint_and_conservation_read_one_rescaled_form(monkeypatch):
    n = 4
    scenario = random_scenario(n, [256, 256])
    rescaled = scenario.ansatz.rescaled
    assert scenario.ansatz.rescaled is rescaled
    top = (rescaled.f[n - 1], rescaled.g[n - 1])
    assert scenario.system.omega._children == top   # the derived Omega
    fields, streamed = {}, magtorus.cli.streamed_reports

    def recorded(grid, plans):
        fields.update((plan.labels[0], plan.fields) for plan in plans)
        return streamed(grid, plans)

    monkeypatch.setattr(magtorus.cli, "streamed_reports", recorded)
    stats = run_verify_checks(scenario)[1]
    for label in ("divergence_unscaled", "conservation_1"):
        assert set(top) <= set(fields[label])
    # 9 leaves and 32 nodes per block: f_3, g_3 and Lambda^(-3/2) once each,
    # not once for each of Omega, the constraint and the conservation laws (47)
    assert stats["jets"] == 41 * len(scenario.grid.spans)


def test_conservation_fluxes_share_their_squares():
    rescaled = mt.rescale(random_scenario(3, [16, 16]).ansatz)
    f, g = rescaled.f[-1], rescaled.g[-1]
    block = next(mt.SamplingGrid(16, 16).blocks())
    plan = mt.ansatz.conservation_plan(rescaled)
    for pairs in plan.samples(block, None):
        list(pairs)
    children = collections.Counter(getattr(field, "_children", None) for field in block.memo)
    assert children[(f, f)] == 1 and children[(g, g)] == 1


@pytest.mark.parametrize("shape", [(256, 256), (130, 70), (300, 200)])
def test_grid_jets_are_evaluated_block_by_block_with_the_bits_of_one_block(shape):
    n = 4
    ansatz = random_scenario(n, list(shape)).ansatz
    r_field, flux1, flux2, _ = mt.conservation_flux_fields(mt.rescale(ansatz))
    grid = mt.SamplingGrid(*shape)
    everything = GridBlock(grid, 0, grid.nx * grid.ny)   # every node in one block
    assert len(grid.spans) > 1   # so the blocks meet inside the grid
    for field in (r_field, flux1, flux2, ansatz.lam, ansatz.u[n], ansatz.u[0],
                  mt.omega_raw(ansatz)):
        blockwise = field._evaluate(grid, None)
        for part, whole in zip(blockwise, field._evaluate(everything, None)):
            if isinstance(whole, np.ndarray):
                assert part.shape == shape and not part.flags.writeable
                assert np.array_equal(part.reshape(-1), whole)
            else:   # a value field's derivative slots
                assert np.isnan(part) and np.isnan(whole)
