"""Turn an inexact SDP solution into a rigorous spectral-gap bound.

Given a numeric (P, lambda) for `target - lambda*I = x* P x`, take a real
square root Q of P (so Q^T Q is PSD by construction even when P has tiny
negative eigenvalues), evaluate the residual

    r = target - lambda*I - x* Q^T Q x

with exact target coefficients and the exact values of lambda and Q, and
bound it by its l1 norm: for any lambda0 <= inf(lambda - |r|_1), the
matrix target - lambda0*I is a sum of hermitian squares, because the
residual is dominated by |r|_1 * I through the order-unit construction.
Q^T Q and its sums over product classes are enclosed in midpoint-radius
form (Rump, BIT 39, 1999): one floating-point product gives the midpoint,
an a-priori error bound valid for any summation order (Higham, *Accuracy
and Stability of Numerical Algorithms*, 3.1-3.5) the radius.  Every other
step is widened one ulp outward or is an exact compensated sum, so the
reported lambda0 is a mathematically valid lower bound.

Certificates are self-contained canonical JSON: they store the
presentation text, the model, the relator subset, the support basis, Q at
full precision, and the solver's lambda, so verification recomputes
everything without touching solver state.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Optional, Sequence, Tuple

import numpy as np

from .fox import Laplacian1, laplacian1
from .groups import (
    GroupElement,
    ProductTable,
    SupportBasis,
    ball_elements,
    model_from_spec,
    validate_model,
)
from .intervals import Interval, down, up
from .sdp import target_coefficients
from .words import parse_presentation


class CertificateError(ValueError):
    pass


class HashMismatchError(CertificateError):
    pass


class SupportReconstructionError(CertificateError):
    pass


def psd_sqrt(P: np.ndarray) -> np.ndarray:
    """Symmetric square root of the PSD part of P.

    P is symmetrized first; negative eigenvalues are clamped to zero, so
    Q^T Q is positive semidefinite whatever numerical noise P carries.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("psd_sqrt needs a square matrix")
    S = 0.5 * (P + P.T)
    w, V = np.linalg.eigh(S)
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


_ETA = 2.0 ** -1074  # smallest positive subnormal


def _rho(k: int) -> float:
    """A double >= gamma_k/(1-gamma_k) = k*u/(1-2*k*u), gamma_k = k*u/(1-k*u)."""
    ku = Fraction(k, 2 ** 53)
    if 3 * ku > 1:
        raise ValueError(f"{k} terms are too many for the a-priori error bound")
    return Interval.from_fraction(ku / (1 - 2 * ku)).hi


def _gram_enclosure(Q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Midpoint G and radius D with |Q^T Q - G| <= D entrywise, exactly.

    An entry is a dot product of length k = Q.shape[0].  In any summation
    order, with or without FMA, each product meets at most k roundings
    (1+d)x + e, |d| <= u = 2^-53, |e| <= eta/2 = 2^-1075 (underflow only),
    so |fl(Q^T Q) - Q^T Q| <= gamma_k A + 2k eta with A = |Q|^T |Q| and
    gamma_k = k u/(1-k u) <= 1/2.  The same bound for R = fl(A) gives
    A <= (R + 2k eta)/(1-gamma_k), hence |G - Q^T Q| <= rho R + 4k eta with
    rho = gamma_k/(1-gamma_k) <= 1, rounded up; each operation on the
    radius is followed by one outward ulp.  einsum without path
    optimization runs numpy's own loops: BLAS results change with the
    thread count, which could make a certificate fail to re-verify.
    """
    G = _symmetric_gram(Q)
    D = np.nextafter(_symmetric_gram(np.abs(Q)) * _rho(len(Q)), np.inf)
    return G, np.nextafter(D + len(Q) * 4 * _ETA, np.inf)


_BLOCK = 32  # Gram columns per einsum call


def _symmetric_gram(X: np.ndarray) -> np.ndarray:
    """fl(X^T X) from the upper triangle, one block of rows at a time.

    Each entry is the same einsum dot product as in the full product, so
    the bound above holds unchanged; the lower triangle is a mirror copy,
    which halves the work and makes the result exactly symmetric.
    """
    N = X.shape[1]
    out = np.empty((N, N))
    for s in range(0, N, _BLOCK):
        w = min(_BLOCK, N - s)
        block = np.einsum("ki,kj->ij", X[:, s:s + w], X[:, s:], optimize=False)
        lower = np.tril_indices(w, -1)
        block[lower] = block.T[lower]
        out[s:s + w, s:] = block
        out[s:, s:s + w] = block.T
    return out


def _pair_block_sums(G, D, table: ProductTable) -> Tuple[np.ndarray, np.ndarray]:
    """Interval sums of Gram blocks over each product class.

    [Slo, Shi][i, j, p] encloses sum_{x^-1 y = g_p} (Q^T Q)_{(i,x),(j,y)} if
    |Q^T Q - G| <= D.  Summing c terms errs by at most gamma_c times their
    magnitudes (additions cannot underflow), c the largest class size.  So
    the midpoint sum is off by at most rho_c sum|G|, and the computed sum
    of W = D + rho_c |G| (rounded up) is at least (1-gamma_c) sum W: the
    radius (1+rho_c) fl(sum W) covers both.
    """
    n = len(G) // len(table.pid)
    size = n * n * len(table)
    rho = _rho(int(np.bincount(table.pid.ravel()).max()))
    idx = table.slots(n).ravel()
    mid = np.bincount(idx, weights=G.ravel(), minlength=size)
    W = np.nextafter(np.abs(G) * rho, np.inf) + D
    rad = np.bincount(idx, weights=np.nextafter(W, np.inf).ravel(), minlength=size)
    rad = np.nextafter(rad + np.nextafter(rad * rho, np.inf), np.inf)
    lo, hi = np.nextafter(mid - rad, -np.inf), np.nextafter(mid + rad, np.inf)
    return lo.reshape(n, n, -1), hi.reshape(n, n, -1)


@dataclass
class GapResult:
    lambda0: float
    residual_l1: Interval
    status: str
    certificate: Optional["Certificate"]


def certified_gap(target, basis: SupportBasis, Q: np.ndarray, lam: float) -> GapResult:
    """Certify target - lambda0*I as a sum of squares, lambda0 rounded down.

    `target` is a Laplacian1 (which yields a full self-contained
    certificate) or a plain exact *-invariant RingMatrix (no certificate,
    bound only).  Q may be rectangular with n*|E| columns; its entries and
    lambda are taken as the exact values of their doubles.
    """
    Q, lam = np.asarray(Q, dtype=float), float(lam)
    lap = target if isinstance(target, Laplacian1) else None
    matrix = target if lap is None else lap.matrix
    lambda0, residual_l1, status = _certified_bound(matrix, basis, Q, lam)
    certificate = None
    if lap is not None:
        certificate = make_certificate(lap, basis, Q, lam, lambda0, residual_l1, status)
    return GapResult(lambda0, residual_l1, status, certificate)


def _certified_bound(matrix, basis: SupportBasis, Q: np.ndarray, lam: float):
    """`certified_gap` without the certificate: (lambda0, |r|_1, status).

    The target must be *-invariant for the l1 domination; its coefficients
    on products outside the basis' table are charged to |r|_1 in full.
    """
    inside, outside = target_coefficients(matrix, basis)
    n, m = matrix.n_rows, len(basis)
    if Q.ndim != 2 or Q.shape[1] != n * m:
        raise ValueError(f"Q must have n*|E| = {n * m} columns, got shape {Q.shape}")
    if not np.isfinite(Q).all():
        raise ValueError("Q contains non-finite entries")
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite (got {lam!r})")
    table = basis.products()
    # target coefficients, minus lambda on the identity diagonal, per class
    Clo, Chi = np.zeros((2, n, n, len(table)))
    for i in range(n):
        inside.setdefault((i, i, table.identity_pid), Fraction(0))
    for (i, j, pid), c in inside.items():
        iv = Interval.from_fraction(c)
        if i == j and pid == table.identity_pid:
            iv = iv - lam
        Clo[i, j, pid], Chi[i, j, pid] = iv.lo, iv.hi
    outside = [abs(Interval.from_fraction(c)) for _, c in outside]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        Slo, Shi = _pair_block_sums(*_gram_enclosure(Q), table)
        lo, hi = np.nextafter(Clo - Shi, -np.inf), np.nextafter(Chi - Slo, np.inf)
        abs_lo = np.where(lo > 0.0, lo, np.where(hi < 0.0, -hi, 0.0))
        abs_hi = np.maximum(-lo, hi)
    # math.fsum is exactly rounded, so one outward ulp makes the sums safe
    try:
        total_lo = down(math.fsum(abs_lo.ravel().tolist() + [a.lo for a in outside]))
        total_hi = up(math.fsum(abs_hi.ravel().tolist() + [a.hi for a in outside]))
    except OverflowError:
        total_lo = total_hi = math.inf
    lambda0 = down(lam - total_hi)
    if not math.isfinite(lambda0):
        raise ValueError("Q or lambda too large: the residual bound overflows")
    status = "certified-positive" if lambda0 > 0.0 else "no-positive-gap"
    return lambda0, Interval(max(0.0, total_lo), total_hi), status


def floor_display(x: float) -> str:
    """Human-facing bound, floored to two decimals (never rounded up)."""
    return f"{math.floor(x * 100) / 100:.2f}"


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Certificate:
    presentation_text: str
    presentation_sha256: str
    model_spec: dict
    relator_indices: Tuple[int, ...]
    relator_labels: Tuple[str, ...]
    basis_keys: list
    basis_radius: Optional[int]
    lam: str
    lambda0: str
    residual_l1_sup: str
    status: str
    q: np.ndarray
    toolchain: dict

    def to_json_dict(self) -> dict:
        # field order is fixed; certificates are canonical byte streams
        return {
            "format": "gapcert-certificate-v1",
            "toolchain": self.toolchain,
            "presentation": {
                "text": self.presentation_text,
                "sha256": self.presentation_sha256,
            },
            "model": self.model_spec,
            "relators": {
                "indices": list(self.relator_indices),
                "labels": list(self.relator_labels),
            },
            "basis": {"radius": self.basis_radius, "keys": self.basis_keys},
            "solver_lambda": self.lam,
            "certified_lambda0": self.lambda0,
            "residual_l1_sup": self.residual_l1_sup,
            "status": self.status,
            "q": {
                "rows": self.q.shape[0],
                "cols": self.q.shape[1],
                "entries": [list(map(repr, row)) for row in self.q.tolist()],
            },
        }

    def to_bytes(self) -> bytes:
        return json.dumps(self.to_json_dict(), separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_json_dict(cls, data: dict) -> "Certificate":
        if not isinstance(data, dict) or data.get("format") != "gapcert-certificate-v1":
            raise CertificateError("unknown certificate format")
        try:
            return cls(
                presentation_text=data["presentation"]["text"],
                presentation_sha256=data["presentation"]["sha256"],
                model_spec=data["model"],
                relator_indices=tuple(data["relators"]["indices"]),
                relator_labels=tuple(data["relators"]["labels"]),
                basis_keys=data["basis"]["keys"],
                basis_radius=data["basis"]["radius"],
                lam=data["solver_lambda"],
                lambda0=data["certified_lambda0"],
                residual_l1_sup=data["residual_l1_sup"],
                status=data["status"],
                q=_q_from_json(data["q"]),
                toolchain=data["toolchain"],
            )
        # a section that is not an object, a null, a non-decimal or ragged Q
        except (TypeError, ValueError) as exc:
            raise CertificateError(f"malformed certificate: {exc}") from None

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "Certificate":
        with open(path, "rb") as fh:
            return cls.from_json_dict(json.loads(fh.read()))


def _q_from_json(data: dict) -> np.ndarray:
    """Q from its decimal entries, shaped by the stored rows and cols."""
    rows = [list(map(float, row)) for row in data["entries"]]
    shape = (data["rows"], data["cols"])
    if len(rows) != shape[0] or any(len(row) != shape[1] for row in rows):
        raise CertificateError(f"Q entries do not fill its stored shape {shape}")
    return np.array(rows, dtype=float).reshape(shape)


def _toolchain() -> dict:
    from . import __version__

    return {"package": "gapcert", "version": __version__, "numpy": np.__version__}


def make_certificate(
    lap: Laplacian1,
    basis: SupportBasis,
    Q: np.ndarray,
    lam: float,
    lambda0: float,
    residual_l1: Interval,
    status: str,
) -> Certificate:
    p = lap.presentation
    model = lap.model
    return Certificate(
        presentation_text=p.to_text(),
        presentation_sha256=p.sha256(),
        model_spec=model.spec(),
        relator_indices=tuple(lap.relator_indices),
        relator_labels=tuple(p.labels[k] for k in lap.relator_indices),
        basis_keys=[model.key_to_json(e.key) for e in basis],
        basis_radius=basis.radius,
        lam=repr(float(lam)),
        lambda0=repr(float(lambda0)),
        residual_l1_sup=repr(float(residual_l1.hi)),
        status=status,
        q=np.array(Q, dtype=float),
        toolchain=_toolchain(),
    )


def _decimal(value, field: str) -> float:
    try:
        return float(value)
    except TypeError:
        raise CertificateError(f"{field} must be a decimal string, got {value!r}") from None


@dataclass
class VerifyResult:
    passed: bool
    lambda0: float
    stored_lambda0: float
    message: str


def verify_certificate(
    cert: Certificate,
    target_relator_indices: Optional[Sequence[int]] = None,
) -> VerifyResult:
    """Re-derive the bound from the certificate alone.

    Recomputes the Laplacian from the stored presentation, model and
    relator subset, re-enumerates the basis, and re-runs the interval
    certification from the stored Q and lambda.  Passes iff the recomputed
    lambda0 is at least the stored one.  A target relator superset is
    accepted because extra relators only add squares to the Laplacian.
    """
    if not isinstance(cert.presentation_text, str):
        raise CertificateError("presentation text must be a string")
    recomputed = hashlib.sha256(cert.presentation_text.encode("utf-8")).hexdigest()
    if recomputed != cert.presentation_sha256:
        raise HashMismatchError("presentation text does not match its stored hash")
    p = parse_presentation(cert.presentation_text)
    model = model_from_spec(cert.model_spec)
    validate_model(p, model)
    stored = tuple(cert.relator_indices)
    for k in stored:
        if not isinstance(k, int) or not 0 <= k < len(p.relators):
            raise CertificateError(f"stored relator index {k!r} out of range")
    lam = _decimal(cert.lam, "solver_lambda")
    stored_lambda0 = _decimal(cert.lambda0, "certified_lambda0")
    if target_relator_indices is not None:
        if not set(target_relator_indices) >= set(stored):
            return VerifyResult(
                False,
                float("nan"),
                stored_lambda0,
                "target relator set does not contain the certified subset",
            )
    try:
        elements = [GroupElement(model, model.key_from_json(k)) for k in cert.basis_keys]
        basis = SupportBasis(elements, cert.basis_radius)
    except (TypeError, ValueError) as exc:
        raise SupportReconstructionError(f"stored basis is invalid: {exc}") from exc
    if cert.basis_radius is not None:
        if not isinstance(cert.basis_radius, int):
            raise SupportReconstructionError(f"stored radius {cert.basis_radius!r} is not an integer")
        # one element past the stored basis settles it, however large the radius
        expected = islice(ball_elements(model, cert.basis_radius), len(basis) + 1)
        if [e.key for e in expected] != [e.key for e in basis]:
            raise SupportReconstructionError(
                "stored basis does not match the ball of the stored radius"
            )
    lap = laplacian1(model, p, stored)
    lambda0, _, _ = _certified_bound(lap.matrix, basis, cert.q, lam)
    passed = lambda0 >= stored_lambda0
    message = (
        "re-verified" if passed else
        f"recomputed lambda0 {lambda0!r} fell below stored {stored_lambda0!r}"
    )
    return VerifyResult(passed, lambda0, stored_lambda0, message)
