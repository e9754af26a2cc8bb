import numpy as np
import pytest

from fpplab import grid as sg
from fpplab.model import ModelParams, sigma


@pytest.fixture
def gain_params():
    return ModelParams(n=1, m=1.0, alpha=1.0, theta=5)


@pytest.fixture
def loss_params():
    return ModelParams(n=1, m=1.0, alpha=0.5, theta=3)


@pytest.fixture
def grid_1d():
    return sg.GridSpec(1, 64, 2.0 * np.pi)


def physical_nodes(grid):
    """1-D physical axis x_j = j h."""
    return grid.spacing * np.arange(grid.points_per_dim, dtype=float)


def to_spectral(grid, samples):
    """Forward transform of physical samples (shape must match the grid)."""
    samples = np.asarray(samples)
    if samples.shape != grid.shape:
        raise ValueError(f"sample shape {samples.shape} does not match grid shape {grid.shape}")
    return sg.SpectralField(grid, np.fft.rfftn(samples, axes=tuple(range(grid.n))))


def random_real_field(grid, seed=0, decay=1.5):
    """Random real field with mildly decaying spectrum (keeps norms finite)."""
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(grid.shape)
    field = to_spectral(grid, samples)
    mag = sg.wavenumber_magnitude(grid)
    return sg.SpectralField(grid, field.coefficients / (1.0 + mag) ** decay)


def apply_radial_multiplier(field, g):
    """Multiply coefficients by g(|k|); g must accept an ndarray of radii."""
    mag = sg.wavenumber_magnitude(field.grid)
    return sg.SpectralField(field.grid, field.coefficients * g(mag))


def propagate(field, t, params):
    """Apply the exact linear semigroup: multiply mode k by exp(-sigma(|k|) t)."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return apply_radial_multiplier(field, lambda r: np.exp(-sigma(r, params) * t))
