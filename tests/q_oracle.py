"""Scalar reference for the main-equation coefficients Q, one entry at a time.

It rebuilds each coefficient from the cluster structure of the spectral data
and the public kernels alone, without the index tables of
``MainEquationContext``, so the tests can check the batched builder against it.
"""
import numpy as np

from isturm import ModelData, SpectralData, kernel_D
from isturm.model import kernel_D_derivs_batch


def kernel_D_derivs(x, lam, mu, j_lam: int, j_mu: int) -> complex:
    """(1/j_lam!)(1/j_mu!) d^j_lam_lam d^j_mu_mu D(x, lam, mu), one entry."""
    return complex(kernel_D_derivs_batch(x, [lam], [j_lam], [mu], [j_mu])[0])


def _family_view(sd: SpectralData):
    """Per flattened index: cluster head, order within cluster, head lambda."""
    K = sd.K
    head = np.zeros(K, dtype=int)
    order = np.zeros(K, dtype=int)
    for h, m in zip(sd.heads, sd.sizes):
        for j in range(m):
            head[h + j] = h
            order[h + j] = j
    lam_point = sd.lam[head]
    return head, order, lam_point


def q_coefficients(sd: SpectralData, md: ModelData, x: float,
                   n: int, i: int, k: int, j: int) -> complex:
    """Coefficient Q_{n,i;k,j}(x) of the infinite linear relation.

    n, k are 1-based flattened indices within the truncation; i selects the
    family of the evaluation point (0 data, 1 model) and j the family of the
    pole.  For a simple pole this is alpha_{kj} D(x, lam_{ni}, lam_{kj});
    clusters add the principal-part derivative terms.
    """
    K = sd.K
    assert 1 <= n <= K and 1 <= k <= K and i in (0, 1) and j in (0, 1), (n, i, k, j)
    sd_i = sd if i == 0 else md.spectral_data(K)
    sd_j = sd if j == 0 else md.spectral_data(K)
    _, order_i, lampt_i = _family_view(sd_i)
    head_j, order_j, lampt_j = _family_view(sd_j)
    jn = int(order_i[n - 1])
    lam_n = complex(lampt_i[n - 1])
    h_k = int(head_j[k - 1])
    jk = int(order_j[k - 1])
    lam_k = complex(lampt_j[k - 1])
    m_k = dict(zip(sd_j.heads, sd_j.sizes))[h_k]
    total = 0j
    for jp in range(jk, m_k):
        a = complex(sd_j.alpha[h_k + jp])
        if a == 0:
            continue
        if jn == 0 and jp == jk:
            dval = kernel_D(x, lam_n, lam_k)
        else:
            dval = kernel_D_derivs(x, lam_n, lam_k, jn, jp - jk)
        total += a * dval
    return complex(total)
