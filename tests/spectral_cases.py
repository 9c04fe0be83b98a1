"""Spectral data shared by several test modules."""
from isturm import ModelData, SpectralData


def shifted_model_data(K: int, shift: float = 0.1):
    """(sd, md): the first K model poles of ModelData(0) with the first
    eigenvalue moved by shift, and that model."""
    md = ModelData(0)
    base = md.spectral_data(K)
    lam = base.lam.copy()
    lam[0] += shift
    return SpectralData.from_flat(lam, base.alpha), md
