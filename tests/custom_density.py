"""A custom coupling spectrum built on the public ``SpectralDensity`` base class.

The package ships the paper's three families; any other J is a subclass with
a ``_shape`` and a default cut, smooth on (0, omega_max).  The tests run this
one through the same oracles as the built-in families.
"""

from dataclasses import dataclass

import numpy as np

from zenotraj.core import SpectralDensity


@dataclass(frozen=True)
class SmoothDensity(SpectralDensity):
    """eta w^2/(1 + w^2) e^{-w/omega_c}, cut at 50 by default."""

    eta: float
    omega_c: float

    def __post_init__(self):
        self._resolve(50.0)

    def _shape(self, omega):
        return self.eta * omega * omega / (1.0 + omega * omega) * np.exp(-omega / self.omega_c)
