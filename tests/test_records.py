"""The value records: immutable, checked on every way to build one, and
usable as cache keys where their fields are hashable."""

import numpy as np
import pytest

from fpplab import grid as sg
from fpplab.diagnostics import DecayFit, WeightedFunctionals
from fpplab.model import ModelParams, validate
from fpplab.oracle import gaussian_profile
from fpplab.propagator import probe_low_band
from fpplab.scenarios import parse_config
from fpplab.solver import SolverConfig, solve


def _records():
    """One instance of every record type, built the way the program builds it."""
    params = ModelParams(1, 1.0, 1.0, 5)
    grid = sg.GridSpec(1, 16, 2.0 * np.pi)
    field = sg.field_from_spectral_profile(grid, gaussian_profile())
    result = solve(field, params, SolverConfig(dt=0.5, t_end=1.0))
    cfg = parse_config({
        "scenario": "nonlinear-smalldata",
        "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 5},
        "grid": {"n": 1, "points_per_dim": 64, "box_length": 64.0},
        "data": {"kind": "gaussian", "width": 1.0, "amplitude": 0.01},
        "run": {"dt": 0.5, "t_end": 10.0},
        "fit": {"window": [1.0, 8.0], "l_list": [0.0]},
    })
    return {
        "ModelParams": params,
        "GridSpec": grid,
        "SpectralField": field,
        "RadialProfile": gaussian_profile(),
        "SolverConfig": cfg.run,
        "RegimeReport": validate(params, 1.0),
        "DecayFit": DecayFit(-0.25, 0.0, 1.0),
        "WeightedFunctionals": WeightedFunctionals(np.array([1.0, 2.0]), np.ones(2),
                                                   np.ones(2)),
        "ProbeReport": probe_low_band(gaussian_profile(), 0.0, [1.0, 2.0, 4.0], params),
        "EnergyLedger": result.final_state.ledger,
        "StepState": result.final_state,
        "SolveResult": result,
        "FitSettings": cfg.fit,
        "ScenarioConfig": cfg,
    }


@pytest.mark.parametrize("name", list(_records()))
def test_record_fields_cannot_be_assigned(name):
    record = _records()[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):  # no instance __dict__ to take a new name
        record.extra = None


class TestSolverConfigReplace:
    def test_sorts_and_merges_the_new_sample_times(self):
        run = SolverConfig(dt=0.5, t_end=4.0)._replace(sample_times=(3, 1, 1))
        assert run.sample_times == (1.0, 3.0)
        assert all(type(t) is float for t in run.sample_times)
        assert (run.dt, run.t_end) == (0.5, 4.0)

    def test_rejects_what_the_constructor_rejects(self):
        run = SolverConfig(dt=0.5, t_end=4.0)
        with pytest.raises(ValueError, match="dt must be positive"):
            run._replace(dt=-1)
        with pytest.raises(ValueError, match="outside"):
            run._replace(t_end=1.0, sample_times=(2.0,))


def test_equal_grids_share_one_cached_wavenumber_table():
    a, b = sg.GridSpec(1.0, 16.0, 2), sg.GridSpec(1, 16, 2.0)
    assert a == b and hash(a) == hash(b)
    assert (type(a.n), type(a.points_per_dim), type(a.box_length)) == (int, int, float)
    assert sg.wavenumber_magnitude(a) is sg.wavenumber_magnitude(b)
