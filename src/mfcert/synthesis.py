"""Controller synthesis and quadratic-Lyapunov robustness certificates.

Gains are designed for the integrator chain: a pole-placement gain ``k_star``
for the model loop and its time-scaled high-gain counterpart ``k_tilde`` for
the process loop.  The certificate solves ``Acl' P + P Acl = -I`` for the
model-loop closed-loop matrix and derives the robustness bounds for the
model-following scheme and both single-loop designs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GainSet",
    "LyapunovCertificate",
    "place_poles",
    "high_gain",
    "time_scaling",
    "design_gains",
    "closed_loop_matrix",
    "solve_lyapunov",
    "lambda_min",
    "bP_norm",
    "gamma_mfc",
    "gamma_sl",
    "gamma_slhg",
    "m_matrix",
    "m_matrix_positive",
    "certify",
]

_SYM_TOL = 1e-10


def _check_epsilon(epsilon: float):
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")


def _check_vartheta(vartheta: float):
    if not vartheta > 0:  # NaN too
        raise ValueError("vartheta must be positive")


def _check_symmetric(P: np.ndarray) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("P must be a square matrix")
    scale = max(1.0, float(np.max(np.abs(P))))
    if float(np.max(np.abs(P - P.T))) > _SYM_TOL * scale:
        raise ValueError("P is not symmetric")
    return P


def place_poles(roots: Sequence[complex]) -> np.ndarray:
    """Gain k such that the chain closed loop A + b k' has the given eigenvalues.

    The root set must be closed under complex conjugation and strictly in the
    open left half plane.  For the integrator chain the closed-loop companion
    matrix has characteristic polynomial s^n - k_n s^(n-1) - ... - k_1, with
    n the number of roots, so the gain components are the negated monic
    polynomial coefficients.
    """
    rts = np.asarray([complex(r) for r in roots])
    if np.any(rts.real >= 0):
        raise ValueError("all desired eigenvalues must have negative real part")
    coeffs = real_poly(rts)
    return -coeffs[1:][::-1].copy()


def real_poly(roots: Sequence[complex]) -> np.ndarray:
    """Real coefficients of the monic polynomial with the given roots.

    Raises ValueError unless the root set is closed under complex conjugation,
    the one rule that makes the coefficients real.
    """
    rts = np.asarray([complex(r) for r in roots])
    with np.errstate(all="ignore"):  # an overflow compares unequal or leaves a non-finite
        coeffs = np.poly(rts)  # real exactly when the roots pair exactly
        if np.iscomplexobj(coeffs) and (
                not np.allclose(np.sort_complex(rts), np.sort_complex(np.conj(rts)), atol=1e-12)
                or np.max(np.abs(np.imag(coeffs))) > 1e-9 * max(1.0, np.max(np.abs(coeffs)))):
            raise ValueError("root set must be closed under complex conjugation")
    return np.real(coeffs)


def time_scaling(epsilon: float, n: int) -> tuple:
    """Diagonal (epsilon^(n-1), ..., epsilon, 1) of the time-scaling matrix D.

    The diagonal of D^-1 is the same helper at 1 / epsilon.
    """
    return tuple(epsilon ** (n - 1 - j) for j in range(n))


def high_gain(k_star: Sequence[float], epsilon: float) -> np.ndarray:
    """Time-scaled process gain k_tilde_i = k_star_i * epsilon^-(n-i+1) for a given epsilon.

    The matching scaling matrix D is ``GainSet.d_matrix``.
    """
    _check_epsilon(epsilon)
    k_star = np.asarray(k_star, dtype=float)
    n = len(k_star)
    inv = 1.0 / epsilon
    return np.array([k_star[i] * inv ** (n - i) for i in range(n)])


@dataclass(frozen=True)
class GainSet:
    """Model-loop gain, process-loop high gain, and the time scaling that links them."""

    k_star: tuple
    k_tilde: tuple
    epsilon: float

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        object.__setattr__(self, "k_star", tuple(float(v) for v in self.k_star))
        object.__setattr__(self, "k_tilde", tuple(float(v) for v in self.k_tilde))
        if len(self.k_star) != len(self.k_tilde):
            raise ValueError("k_star and k_tilde must have the same length")

    @property
    def n(self) -> int:
        return len(self.k_star)

    def d_matrix(self) -> np.ndarray:
        return np.diag(time_scaling(self.epsilon, self.n))


def design_gains(poles: Sequence[complex], epsilon: float) -> GainSet:
    """Place the model-loop poles and derive the scaled process gain.

    Raises ArithmeticError when a gain over- or underflows to a non-finite value.
    """
    with np.errstate(all="ignore"):  # a non-finite gain is rejected below
        k_star = place_poles(poles)
        k_tilde = high_gain(k_star, epsilon)
    if not (np.all(np.isfinite(k_star)) and np.all(np.isfinite(k_tilde))):
        raise ArithmeticError(f"the poles {list(poles)} give non-finite gains")
    return GainSet(k_star=tuple(k_star), k_tilde=tuple(k_tilde), epsilon=epsilon)


def closed_loop_matrix(k: Sequence[float]) -> np.ndarray:
    """A + b k' for the integrator chain: companion matrix with last row k."""
    k = np.asarray(k, dtype=float)
    n = len(k)
    acl = np.diag(np.ones(n - 1), k=1)
    acl[-1, :] += k
    return acl


def _lyapunov_system(acl: np.ndarray) -> np.ndarray:
    """kron(I, Acl') + kron(Acl', I), the matrix of X -> Acl' X + X Acl on column-stacked X.

    Each Kronecker product's entry [i n + k, j n + l] is A[i, j] B[k, l], here one
    broadcast product over (i, k, j, l), reshaped: the same products bit for bit,
    signed zeros included, for a fraction of the generic kron's cost.  (An einsum
    drops some of the -0.0 entries.)
    """
    n = acl.shape[0]
    eye, at = np.eye(n), acl.T
    return (eye[:, None, :, None] * at[None, :, None, :]
            + at[:, None, :, None] * eye[None, :, None, :]).reshape(n * n, n * n)


def solve_lyapunov(k_star: Sequence[float]) -> np.ndarray:
    """Unique symmetric positive definite P with Acl' P + P Acl = -I.

    The equation is vectorised into an n^2 x n^2 linear system,
    ``_lyapunov_system``'s kron(I, Acl') + kron(Acl', I) built by
    broadcasting, and solved by dense elimination with partial pivoting; the
    result is symmetrised.  Raises ValueError when the gain is not Hurwitz
    (singular system or indefinite P).
    """
    acl = closed_loop_matrix(k_star)
    n = acl.shape[0]
    eye = np.eye(n)
    rhs = (-eye).flatten(order="F")
    try:
        vec = np.linalg.solve(_lyapunov_system(acl), rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Lyapunov equation is singular; gain is not Hurwitz") from exc
    P = vec.reshape((n, n), order="F")
    P = 0.5 * (P + P.T)
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Lyapunov solution is not positive definite; gain is not Hurwitz") from exc
    return P


def lambda_min(P: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    P = _check_symmetric(P)
    return float(np.linalg.eigvalsh(P)[0])


def bP_norm(P: np.ndarray) -> float:
    """Euclidean norm of b' P, i.e. of the last row of P."""
    P = _check_symmetric(P)
    return float(np.linalg.norm(P[-1, :]))


def gamma_mfc(epsilon: float, vartheta: float, P: np.ndarray) -> float:
    """Robustness bound of the two-loop scheme for weight vartheta.

    Gamma = 1 / (eps (1 + sqrt(1 + 1/(vartheta eps))) |b'P|).
    """
    _check_epsilon(epsilon)
    _check_vartheta(vartheta)
    return 1.0 / (
        epsilon * (1.0 + math.sqrt(1.0 + 1.0 / (vartheta * epsilon))) * bP_norm(P)
    )


def gamma_sl(P: np.ndarray) -> float:
    """Single-loop robustness bound 1 / (2 |b'P|)."""
    return 1.0 / (2.0 * bP_norm(P))


def gamma_slhg(epsilon: float, P: np.ndarray) -> float:
    """Single-loop high-gain robustness bound 1 / (2 eps |b'P|)."""
    _check_epsilon(epsilon)
    return 1.0 / (2.0 * epsilon * bP_norm(P))


def m_matrix(vartheta: float, epsilon: float, gamma: float, P: np.ndarray) -> np.ndarray:
    """Coupling matrix whose positive definiteness certifies decay for gain gamma."""
    q = gamma * bP_norm(P)
    return np.array([[vartheta, -q], [-q, 1.0 / epsilon - 2.0 * q]])


def m_matrix_positive(
    vartheta: float, epsilon: float, gamma: float, P: np.ndarray
) -> tuple[bool, np.ndarray]:
    """Leading-principal-minor test of the coupling matrix."""
    M = m_matrix(vartheta, epsilon, gamma, P)
    positive = M[0, 0] > 0 and (M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]) > 0
    return bool(positive), M


@dataclass(frozen=True)
class LyapunovCertificate:
    """Solution of the Lyapunov equation together with the derived robustness bounds."""

    P: np.ndarray
    lambda_min: float
    bP_norm: float
    vartheta: float
    epsilon: float
    gamma_mfc: float
    gamma_sl: float
    gamma_slhg: float
    residual: float  # max |Acl' P + P Acl + I|; left out of to_dict

    def to_dict(self) -> dict:
        """The fields but ``residual``, ``P`` as a list."""
        return {**{k: v for k, v in vars(self).items() if k != "residual"}, "P": self.P.tolist()}


def certify(gains: GainSet, vartheta: float) -> LyapunovCertificate:
    """Solve for P and package the robustness bounds for a gain set.

    Raises ArithmeticError when the residual of the Lyapunov equation exceeds
    1e-10 or is not finite.
    """
    _check_vartheta(vartheta)
    P = solve_lyapunov(gains.k_star)
    acl = closed_loop_matrix(gains.k_star)
    with np.errstate(all="ignore"):  # a non-finite residual is rejected below
        residual = float(np.max(np.abs(acl.T @ P + P @ acl + np.eye(gains.n))))
    if not residual <= 1e-10:
        raise ArithmeticError(f"Lyapunov residual {residual:.3e} exceeds 1e-10")
    return LyapunovCertificate(
        P=P,
        lambda_min=lambda_min(P),
        bP_norm=bP_norm(P),
        vartheta=float(vartheta),
        epsilon=gains.epsilon,
        gamma_mfc=gamma_mfc(gains.epsilon, vartheta, P),
        gamma_sl=gamma_sl(P),
        gamma_slhg=gamma_slhg(gains.epsilon, P),
        residual=residual,
    )
