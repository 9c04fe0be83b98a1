"""Spectral data containers and Weyl-function algebra.

Spectral data is the flattened sequence {lambda_n, alpha_n} with multiple
eigenvalues stored consecutively; alpha_{k+j} is the order-j principal-part
coefficient of the Weyl function at the pole lambda_k.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import MAX_DERIV_ORDER, cplx, from_pair, lam_batch, sqrt_lambda
from .errors import AmbiguousOffset, AtPole, DenominatorZero, MalformedInput
from .problem import Polynomial, poly_eval

_CLUSTER_RTOL = 1e-8  # entries or found roots this close (relative) are one eigenvalue


def group_multiplicities(lams):
    """0-based cluster heads and their sizes in a flattened eigenvalue list.

    An entry within 1e-8 (1 + |lambda|) of the current head joins its
    cluster, so multiple eigenvalues must be consecutive.
    """
    lams = np.asarray(lams, dtype=complex)
    heads = []
    for n, z in enumerate(lams):
        if heads and abs(z - lams[heads[-1]]) <= _CLUSTER_RTOL * (1 + abs(z)):
            continue
        heads.append(n)
    return tuple(heads), tuple(np.diff(heads + [len(lams)]).tolist())


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
        heads, sizes = group_multiplicities(lams)
        return cls(lam=lams, rho=np.asarray(sqrt_lambda(lams)), alpha=alphas,
                   heads=heads, sizes=sizes, m1=m1, case=case)

    def truncated(self, K: int) -> "SpectralData":
        """First K flattened entries; never splits a cluster or reads past
        the stored entries."""
        if K > self.K:
            raise MalformedInput(f"truncation K={K} exceeds the {self.K} stored entries")
        if K == self.K:
            return self
        for h, m in zip(self.heads, self.sizes):
            if h < K < h + m:
                raise MalformedInput(f"truncation K={K} splits a multiplicity-{m} cluster")
        return SpectralData.from_flat(self.lam[:K], self.alpha[:K], m1=self.m1, case=self.case)


def detect_M1(sd: SpectralData) -> tuple[int, str]:
    """Degree index M1 and case flag from the eigenvalue asymptotics.

    Averages n - 1 - Re(rho_n) over the last third of the entries; an offset
    near an integer means deg(r1) >= deg(r2), near a half-integer means the
    opposite case.  A fractional part in (0.2, 0.3) or (0.7, 0.8) is ambiguous.
    """
    rho = sd.rho
    K = len(rho)
    if K < 20:
        raise MalformedInput("detect_M1 needs at least 20 eigenvalues: give M1 in the data")
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
    lam_arr, shaped = lam_batch(lam)
    m1v = np.asarray(m1esh(lam_arr), dtype=complex)
    den = 1.0 + poly_eval(p2, lam_arr) * m1v
    if np.any(np.abs(den) <= 1e-12 * (1.0 + np.abs(poly_eval(p2, lam_arr) * m1v))):
        raise DenominatorZero("1 + p2 M1 vanishes at the evaluation point")
    return shaped(poly_eval(p1, lam_arr) * m1v / den)


def _principal_part_sum(lam: np.ndarray, families) -> np.ndarray:
    """sum sign alpha_{h+j} / (lam - lam_h)^(j+1) over the clusters (head h)
    and nonzero weights of each (SpectralData, sign) pair in families."""
    out = np.zeros_like(lam)
    for sd, sign in families:
        for h, m in zip(sd.heads, sd.sizes):
            dl = lam - sd.lam[h]
            for j in range(m):
                if sd.alpha[h + j] != 0:
                    out = out + sign * sd.alpha[h + j] / dl ** (j + 1)
    return out


def eval_partial_fraction(sd: SpectralData, md, lam, K_tail: int):
    """Sum of the principal parts of sd plus the poles of the model md
    (lambda_tilde(n), alpha_tilde(n)) with indices sd.K < n <= K_tail."""
    lam_arr, shaped = lam_batch(lam)
    if np.any(np.min(np.abs(lam_arr[:, None] - sd.lam[None, :]), axis=1)
              <= 1e-8 * (1 + np.abs(lam_arr))):
        raise AtPole("partial fraction evaluated at a stored pole")
    out = _principal_part_sum(lam_arr, ((sd, 1.0),))
    n_tail = np.arange(sd.K + 1, K_tail + 1)
    if len(n_tail):
        lt = np.asarray([md.lambda_tilde(n) for n in n_tail], dtype=complex)
        at = np.asarray([md.alpha_tilde(n) for n in n_tail], dtype=complex)
        out = out + np.sum(at[None, :] / (lam_arr[:, None] - lt[None, :]), axis=1)
    return shaped(out)


# ---------------------------------------------------------------------------
# JSON schema "spectral_data.json".


def spectral_data_to_json(sd: SpectralData) -> dict:
    return {
        "M1": -1 if sd.m1 is None else int(sd.m1),
        "case": sd.case or "M1=M2",
        "eigs": [
            {
                "lambda": cplx(sd.lam[h]),
                "multiplicity": m,
                "alpha": [cplx(a) for a in sd.alpha[h:h + m]],
            }
            for h, m in zip(sd.heads, sd.sizes)
        ],
    }


def _integer(v) -> int:
    """v as an int; int() would truncate 1.9 to 1 and read true as 1 without
    a word."""
    if isinstance(v, bool):
        raise TypeError(f"{v!r} is not an integer")
    i = int(v)
    if i != v:
        raise ValueError(f"{v!r} is not an integer")
    return i


def spectral_data_from_json(data) -> SpectralData:
    try:
        eigs = list(data["eigs"])
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"spectral data without an 'eigs' list: {exc!r}") from None
    lams, alphas, distinct = [], [], []
    for i, e in enumerate(eigs):
        try:
            lam = from_pair(e["lambda"])
            m = _integer(e["multiplicity"])
            if not 1 <= m <= MAX_DERIV_ORDER:
                raise ValueError(f"multiplicity {m} is outside 1..{MAX_DERIV_ORDER}")
            alpha = [from_pair(a) for a in e["alpha"]]
            if len(alpha) != m:
                raise ValueError(f"{len(alpha)} alpha coefficients for multiplicity {m}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedInput(f"eigs[{i}]: {exc!r}") from None
        distinct.append(lam)
        lams += [lam] * m
        alphas += alpha
    distinct = np.array(distinct, dtype=complex)
    same = np.triu(np.abs(distinct[:, None] - distinct)
                   <= _CLUSTER_RTOL * (1 + np.abs(distinct)), 1)
    if same.any():
        i, j = np.argwhere(same)[0]
        raise MalformedInput(f"eigs[{i}] and eigs[{j}] have one lambda; a multiple "
                             "eigenvalue is one record with its multiplicity")
    try:
        m1 = _integer(data.get("M1", -1))
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"M1: {exc!r}") from None
    case = data.get("case")
    if case not in (None, "M1=M2", "M1=M2-1"):
        raise MalformedInput(f"case {case!r} is neither 'M1=M2' nor 'M1=M2-1'")
    return SpectralData.from_flat(lams, alphas, m1=None if m1 < 0 else m1, case=case)
