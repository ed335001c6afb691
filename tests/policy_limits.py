"""Large-sample limits of the iid design, from the closed-form divergence moments.

With ``M_g = E[D_g]`` and ``S_g = E[D_g^2]`` from
:func:`divtol.simulation._divergence_moments`, and exposure probabilities
``p = q = 1/2``:

* the objective at a fixed theta tends to twice the variance of one reward,
  ``Psi_0 = theta^2 S_e + (1-theta)^2 S_c - (theta M_e + (1-theta) M_c)^2 / 2``;
* the tolerance estimate tends to ``theta_0 = (C + B) / (A + C + 2B)``, with
  ``V_g = S_g - M_g^2``, ``A = p V_e + pq M_e^2``, ``C = q V_c + pq M_c^2``
  and ``B = pq M_e M_c``: the estimator's ``A_c / (A_e + A_c)`` in the limit.
"""

from divtol.simulation import _divergence_moments


def psi_limit(cfg, theta, optimal=0.0):
    """Psi_0(theta), in the probe's order of operations, so to its bits."""
    (m_e, sq_e), (m_c, sq_c) = (_divergence_moments(cfg, s, optimal) for s in (1, 0))
    loss = theta * m_e + (1 - theta) * m_c
    return theta * theta * sq_e + (1 - theta) * (1 - theta) * sq_c - loss * loss / 2


def theta_limit(cfg, optimal=0.0):
    """theta_0, the value the tolerance estimate converges to."""
    p = q = 0.5
    (m_e, sq_e), (m_c, sq_c) = (_divergence_moments(cfg, s, optimal) for s in (1, 0))
    a = p * (sq_e - m_e * m_e) + p * q * m_e * m_e
    c = q * (sq_c - m_c * m_c) + p * q * m_c * m_c
    b = p * q * m_e * m_c
    return (c + b) / (a + c + 2 * b)
