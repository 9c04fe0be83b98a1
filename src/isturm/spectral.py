"""Spectral data containers and Weyl-function algebra.

Spectral data is the flattened sequence {lambda_n, alpha_n} with multiple
eigenvalues stored consecutively; alpha_{k+j} is the order-j principal-part
coefficient of the Weyl function at the pole lambda_k.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import cplx, sqrt_lambda
from .errors import AmbiguousOffset, AtPole, DenominatorZero, MalformedInput
from .problem import Polynomial, poly_eval


@dataclass(frozen=True)
class EigenRecord:
    """One pole of the Weyl function: location, multiplicity, principal part."""

    lam: complex
    rho: complex
    multiplicity: int
    alpha_coeffs: tuple

    def __post_init__(self):
        if self.alpha_coeffs and len(self.alpha_coeffs) != self.multiplicity:
            raise ValueError("alpha_coeffs length must equal multiplicity")


def group_multiplicities(lams):
    """Index set I and multiplicity map from a flattened eigenvalue list.

    Equality is tested at 1e-8 (1 + |lambda|); indices are 1-based to match
    the usual numbering convention.  Multiple eigenvalues must be consecutive.
    """
    lams = np.asarray(lams, dtype=complex)
    I = [1]
    m = {}
    head = 0
    for n in range(1, len(lams)):
        if abs(lams[n] - lams[head]) <= 1e-8 * (1 + abs(lams[n])):
            continue
        m[I[-1]] = n - head
        head = n
        I.append(n + 1)
    m[I[-1]] = len(lams) - head
    return I, m


@dataclass(frozen=True)
class SpectralData:
    """Flattened {lambda_n, alpha_n} with cluster structure, truncation K."""

    lam: np.ndarray     # (K,)
    rho: np.ndarray     # (K,) branch arg in [-pi/2, pi/2)
    alpha: np.ndarray   # (K,)
    heads: tuple        # 0-based flat indices of cluster heads
    sizes: tuple        # multiplicities, aligned with heads
    m1: int | None = None
    case: str | None = None

    @property
    def K(self) -> int:
        return len(self.lam)

    @classmethod
    def from_flat(cls, lams, alphas, m1=None, case=None) -> "SpectralData":
        lams = np.asarray(lams, dtype=complex)
        alphas = np.asarray(alphas, dtype=complex)
        I, mmap = group_multiplicities(lams)
        heads = tuple(i - 1 for i in I)
        sizes = tuple(mmap[i] for i in I)
        return cls(lam=lams, rho=np.asarray(sqrt_lambda(lams)), alpha=alphas,
                   heads=heads, sizes=sizes, m1=m1, case=case)

    @classmethod
    def from_records(cls, records: list[EigenRecord], m1=None, case=None) -> "SpectralData":
        lams, alphas = [], []
        for r in records:
            aleft = r.alpha_coeffs if r.alpha_coeffs else (0.0,) * r.multiplicity
            for j in range(r.multiplicity):
                lams.append(r.lam)
                alphas.append(aleft[j])
        return cls.from_flat(lams, alphas, m1=m1, case=case)

    def records(self) -> list[EigenRecord]:
        out = []
        for h, m in zip(self.heads, self.sizes):
            out.append(EigenRecord(lam=complex(self.lam[h]), rho=complex(self.rho[h]),
                                   multiplicity=m,
                                   alpha_coeffs=tuple(complex(a) for a in self.alpha[h:h + m])))
        return out

    def truncated(self, K: int) -> "SpectralData":
        """First K flattened entries; never splits a cluster."""
        if K >= self.K:
            return self
        for h, m in zip(self.heads, self.sizes):
            if h < K < h + m:
                raise MalformedInput(f"truncation K={K} splits a multiplicity-{m} cluster")
        return SpectralData.from_flat(self.lam[:K], self.alpha[:K], m1=self.m1, case=self.case)


def detect_M1(eigs) -> tuple[int, str]:
    """Degree index M1 and case flag from the eigenvalue asymptotics.

    Averages n - 1 - Re(rho_n) over the last third of the records; an offset
    near an integer means deg(r1) >= deg(r2), near a half-integer means the
    opposite case.  A fractional part in (0.2, 0.3) or (0.7, 0.8) is ambiguous.
    """
    if isinstance(eigs, SpectralData):
        rho = eigs.rho
    else:
        rho = np.asarray([r.rho for r in eigs for _ in range(r.multiplicity)],
                         dtype=complex)
    K = len(rho)
    if K < 20:
        raise ValueError("detect_M1 needs at least 20 eigenvalues")
    n = np.arange(1, K + 1)
    offs = n - 1 - rho.real
    tail = offs[-max(K // 3, 5):]
    d = float(np.mean(tail))
    frac = d - np.floor(d)
    if frac <= 0.2 or frac >= 0.8:
        return int(round(d)), "M1=M2"
    if 0.3 <= frac <= 0.7:
        m2 = int(round(d + 0.5))
        return m2 - 1, "M1=M2-1"
    raise AmbiguousOffset(f"offset {d:.4f} is neither near-integer nor near-half-integer")


def reduce_weyl(m1esh, p1: Polynomial, p2: Polynomial, lam):
    """Pass from the two-polynomial Weyl function to the inner one:
    M = p1 M1 / (1 + p2 M1)."""
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    m1v = np.asarray(m1esh(lam_arr), dtype=complex)
    den = 1.0 + poly_eval(p2, lam_arr) * m1v
    if np.any(np.abs(den) <= 1e-12 * (1.0 + np.abs(poly_eval(p2, lam_arr) * m1v))):
        raise DenominatorZero("1 + p2 M1 vanishes at the evaluation point")
    out = poly_eval(p1, lam_arr) * m1v / den
    if np.ndim(lam) == 0:
        return complex(out[0])
    return out


@dataclass(frozen=True)
class WeylPartialFraction:
    """Pole/principal-part records plus a model tail for indices beyond them."""

    data: SpectralData
    tail_model: object  # ModelData-like: lambda_tilde(n), alpha_tilde(n)


def eval_partial_fraction(pf: WeylPartialFraction, lam, K_tail: int):
    """Sum of the stored principal parts plus model-tail poles up to K_tail."""
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    sd = pf.data
    if np.any(np.min(np.abs(lam_arr[:, None] - sd.lam[None, :]), axis=1)
              <= 1e-8 * (1 + np.abs(lam_arr))):
        raise AtPole("partial fraction evaluated at a stored pole")
    out = np.zeros_like(lam_arr)
    for h, m in zip(sd.heads, sd.sizes):
        dl = lam_arr - sd.lam[h]
        for j in range(m):
            out = out + sd.alpha[h + j] / dl ** (j + 1)
    md = pf.tail_model
    n_tail = np.arange(sd.K + 1, K_tail + 1)
    if len(n_tail):
        lt = np.asarray([md.lambda_tilde(n) for n in n_tail], dtype=complex)
        at = np.asarray([md.alpha_tilde(n) for n in n_tail], dtype=complex)
        out = out + np.sum(at[None, :] / (lam_arr[:, None] - lt[None, :]), axis=1)
    if np.ndim(lam) == 0:
        return complex(out[0])
    return out


# ---------------------------------------------------------------------------
# JSON schema "spectral_data.json".


def spectral_data_to_json(sd: SpectralData) -> dict:
    return {
        "M1": -1 if sd.m1 is None else int(sd.m1),
        "case": sd.case or "M1=M2",
        "eigs": [
            {
                "lambda": cplx(r.lam),
                "multiplicity": r.multiplicity,
                "alpha": [cplx(a) for a in r.alpha_coeffs],
            }
            for r in sd.records()
        ],
    }


def spectral_data_from_json(data) -> SpectralData:
    records = []
    for i, e in enumerate(data["eigs"]):
        try:
            lam = complex(e["lambda"][0], e["lambda"][1])
            records.append(EigenRecord(
                lam=lam, rho=complex(sqrt_lambda(lam)),
                multiplicity=int(e["multiplicity"]),
                alpha_coeffs=tuple(complex(a[0], a[1]) for a in e["alpha"]),
            ))
        except (KeyError, ValueError) as exc:
            raise MalformedInput(f"eigs[{i}]: {exc!r}") from None
    m1 = data.get("M1", -1)
    return SpectralData.from_records(records, m1=None if m1 < 0 else int(m1),
                                     case=data.get("case"))
