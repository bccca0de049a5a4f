"""Desk-scale laboratory for multiuser THz random access.

Samples the generalized THz channel (Gamma-random absorption path loss,
alpha-eta-kappa-mu fading, antenna misalignment, hardware impairments),
evaluates the matching closed-form statistics and protocol series, and
simulates FTP/ATP slotted random access against them.
"""

__version__ = "0.1.0"

from .params import (Experiment, FadingParams, GammaAbsorption,
                     DeterministicAbsorption, MisalignmentParams,
                     ProtocolConfig, EnergyModel, ThzLinkParams)

__all__ = [
    "Experiment", "FadingParams", "GammaAbsorption", "DeterministicAbsorption",
    "MisalignmentParams", "ProtocolConfig", "EnergyModel", "ThzLinkParams",
    "__version__",
]
