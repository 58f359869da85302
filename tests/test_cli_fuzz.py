"""Every input ends in one of the three documented exits: `cli.main` is run
in process on drawn scenario JSON and flags, and must return 0, 1 or 2 (or
exit 2 from argparse) with no escaping exception and no warning.

Each value is drawn valid four times in five and bad (wrong type, null,
non-finite, huge or out of range) otherwise, so that many invocations get
past loading.  Grids, degrees and integration times are drawn small, so
each example runs in milliseconds; values that would be large are drawn
only where they are refused before any work."""

import contextlib
import io
import json
import math
import warnings

from hypothesis import HealthCheck, example, given, settings, strategies as st

from magtorus.cli import main


def mostly(valid, bad):
    """`valid` four times in five, `bad` otherwise."""
    return st.sampled_from([valid] * 4 + [bad]).flatmap(lambda strategy: strategy)


JUNK = st.one_of(st.none(), st.booleans(), st.sampled_from(["", "2", "x"]),
                 st.lists(st.integers(0, 2), max_size=2), st.just({"a": 1}))
BAD_NUMBERS = st.one_of(JUNK, st.floats(), st.sampled_from(
    [0, -1, 1.5, 0.0, -1.0, math.nan, math.inf, -math.inf, 1e308, 1e-310]))
SMALL = mostly(st.floats(-0.5, 0.5), BAD_NUMBERS)
MODE = mostly(st.integers(-2, 2), BAD_NUMBERS)

COEFFS = st.lists(st.fixed_dictionaries({"m": MODE, "n": MODE},
                                        optional={"re": SMALL, "im": SMALL}), max_size=3)
AFFINE = st.fixed_dictionaries(
    {"type": st.just("analytic"), "name": mostly(st.sampled_from(["affine_x", "affine_y"]),
                                                 JUNK)},
    optional={"params": mostly(st.fixed_dictionaries({}, optional={
        "offset": SMALL, "slope": SMALL}), JUNK)})
FIELD = mostly(st.one_of(
    st.floats(-0.5, 0.5),
    st.fixed_dictionaries({"type": st.just("constant"), "value": SMALL}),
    st.fixed_dictionaries({"type": st.just("trig"), "coeffs": COEFFS}),
    st.fixed_dictionaries({"type": st.just("random_trig"), "seed": mostly(
        st.integers(0, 3), BAD_NUMBERS)}, optional={
        "modes": mostly(st.integers(0, 3), st.sampled_from([-1, 10**6])),
        "max_mode": mostly(st.integers(0, 2), st.sampled_from([-1, 10**12])),
        "amplitude": SMALL, "offset": SMALL}),
    AFFINE), BAD_NUMBERS)
# Lambda = 2 plus a small field, so that most draws clear the positivity floor.
LAMBDA = mostly(st.one_of(
    st.floats(0.5, 3.0),
    st.fixed_dictionaries({"type": st.just("random_trig"), "seed": st.integers(0, 3),
                           "offset": st.just(2.0), "amplitude": st.floats(0.0, 0.2),
                           "max_mode": st.integers(0, 2)}),
    st.builds(lambda coeffs: {"type": "trig", "coeffs": [
        {"m": 0, "n": 0, "re": 2.0}, *coeffs]}, st.lists(st.fixed_dictionaries(
            {"m": st.integers(1, 2), "n": st.integers(-2, 2), "re": st.floats(-0.2, 0.2)}),
            max_size=2, unique_by=lambda c: (c["m"], c["n"]))),
    st.fixed_dictionaries({"type": st.just("analytic"), "name": st.just("affine_y"),
                           "params": st.fixed_dictionaries(
                               {"offset": st.just(2.0), "slope": st.floats(-0.2, 0.2)})})),
    FIELD)
TRAJECTORY = st.fixed_dictionaries(
    {"initial": mostly(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), st.one_of(
        JUNK, st.lists(BAD_NUMBERS, min_size=3, max_size=3))),
     "t_end": mostly(st.floats(0.01, 0.2), st.one_of(BAD_NUMBERS, st.just(1e5)))},
    optional={"dt": mostly(st.floats(1e-2, 0.05), BAD_NUMBERS),
              "adaptive": mostly(st.floats(1e-8, 1e-4), BAD_NUMBERS),
              "observables": mostly(st.lists(st.sampled_from(["H", "F"]), max_size=2),
                                    st.one_of(JUNK, st.just(["G"]))),
              "drift_tol": mostly(st.dictionaries(st.sampled_from(["H", "F"]),
                                                  st.floats(0.0, 1.0), max_size=2),
                                  st.one_of(JUNK, st.dictionaries(
                                      st.sampled_from(["F", "G"]), BAD_NUMBERS,
                                      min_size=1, max_size=1))),
              "name": mostly(st.sampled_from(["o", "p"]), st.sampled_from(["", "..", "a/b"]))})


def scenario(n):
    """Scenario JSON objects of degree `n`, with every other value drawn."""
    return st.fixed_dictionaries(
        {"N": mostly(st.just(n), st.one_of(BAD_NUMBERS, st.sampled_from([201, 10**30]))),
         "lambda": LAMBDA,
         "grid": mostly(st.lists(st.integers(4, 6), min_size=2, max_size=2),
                        st.one_of(JUNK, st.sampled_from([[3, 8], [100000, 100000], [4]]))),
         "trajectories": mostly(st.lists(TRAJECTORY, min_size=1, max_size=2), JUNK)},
        optional={
            "geometry": mostly(st.fixed_dictionaries({}, optional={
                "period_x": mostly(st.floats(0.5, 10.0), BAD_NUMBERS),
                "period_y": mostly(st.floats(0.5, 10.0), BAD_NUMBERS)}), JUNK),
            "coefficients": mostly(st.lists(st.fixed_dictionaries(
                {"k": mostly(st.integers(0, n - 1), BAD_NUMBERS)},
                optional={"u": FIELD, "v": FIELD}), max_size=n, unique_by=lambda c: str(c["k"])),
                JUNK),
            "omega": mostly(st.just("derive"), FIELD),
            "tolerance": mostly(st.sampled_from([1e-8, 1e-2, 1.0]), BAD_NUMBERS),
            "checks": mostly(st.lists(st.sampled_from(
                ["stationarity", "harmonics", "constraint", "conservation", "certificate"]),
                max_size=3, unique=True), st.one_of(JUNK, st.just(["nope"]))),
            "name": mostly(st.just("s"), st.sampled_from(["", "..", "a/b"])),
            "schema_version": mostly(st.just(1), st.sampled_from([2, "1"]))})


FLAG_VALUES = mostly(st.sampled_from(["1e-2", "1e-6"]),
                     st.sampled_from(["0", "-1", "nan", "inf", "1e308", "x"]))
SEED = st.tuples(st.just("--seed"), st.sampled_from(["0", "5", "-1"]))


def states(n):
    """--at=STATE tokens: 2N numbers with a positive Lambda, or not."""
    good = st.lists(st.floats(-1.0, 1.0), min_size=2 * n - 1, max_size=2 * n - 1).map(
        lambda rest: [1.5, *rest])
    bad = st.one_of(st.lists(BAD_NUMBERS.filter(lambda x: isinstance(x, (int, float))),
                             min_size=1, max_size=2 * n + 1), st.just(["a", "b"]))
    return mostly(good, bad).map(lambda xs: (f"--at={','.join(map(str, xs))}",))


def flags(n):
    return {
        "verify": st.one_of(
            st.tuples(st.just("--grid"), mostly(st.just("4,5"),
                                                st.sampled_from(["3,3", "a,b", "1e5,1e5"]))),
            st.tuples(st.just("--tol"), FLAG_VALUES), SEED, st.just(("--plot-data",))),
        "simulate": st.one_of(st.tuples(st.sampled_from(["--dt", "--adaptive"]), FLAG_VALUES),
                              SEED, st.just(("--plot-data",))),
        "assemble": st.one_of(
            states(n), st.just(("--plot-data",)),
            st.builds(lambda k, a: ("--geodesic", f"n={k} a={','.join(map(str, a))}"),
                      st.integers(0, 4), st.lists(st.floats(-1.0, 1.0), max_size=5))),
    }


@st.composite
def invocations(draw):
    """(scenario JSON text, [command, flags...]) of a drawn degree."""
    n = draw(st.integers(1, 3))
    command = draw(st.sampled_from(["verify", "simulate", "assemble"]))
    tokens = draw(st.lists(flags(n)[command], max_size=3))
    if command == "assemble":   # mostly with a state to assemble at
        tokens.append(draw(mostly(states(n), st.just(()))))
    return json.dumps(draw(scenario(n))), [command, *(tok for flag in tokens for tok in flag)]


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=invocations())
@example(case=(json.dumps({"N": 1, "lambda": {"type": "random_trig", "seed": 1,
                                              "max_mode": 10**12, "offset": 2.0}}),
               ["assemble", "--at=2,0"]))
@example(case=(json.dumps({"N": 1, "lambda": {"type": "random_trig", "seed": 1,
                                              "modes": 10**6, "max_mode": 1000}}),
               ["verify"]))
@example(case=("[" * 100000, ["verify"]))
@example(case=(json.dumps({"N": 1, "lambda": 2.0, "grid": [4, 4],
                           "geometry": {"period_x": 1e308, "period_y": 1e308},
                           "trajectories": [{"initial": [0.1, 0.2, 0.3], "t_end": 1.0}]}),
               ["simulate"]))
def test_every_input_ends_in_a_documented_exit(tmp_path_factory, case):
    text, (command, *tokens) = case
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "scenario.json"
    path.write_text(text)
    argv = [command, str(path), "--out", str(work / "out"), *tokens]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's exit on a malformed command line
            code = exc.code
    assert code in (0, 1, 2), (argv, text, err.getvalue())
