"""Turn an inexact SDP solution into a rigorous spectral-gap bound.

Given a numeric (P, lambda) for `target - lambda*I = x* P x`, take a Gram
factor Q of P with one row per eigenvalue above rounding noise (so Q^T Q
is PSD by construction even when P has tiny negative eigenvalues, and Q
is rank(P) x N rather than N x N), evaluate the residual

    r = target - lambda*I - x* Q^T Q x

with exact target coefficients and the exact values of lambda and Q, and
bound it by its l1 norm: for any lambda0 <= inf(lambda - |r|_1), the
matrix target - lambda0*I is a sum of hermitian squares, because the
residual is dominated by |r|_1 * I through the order-unit construction.
One floating-point product G = fl(Q^T Q), summed over each product class,
gives the residual's midpoints; a single a-priori radius (Higham,
*Accuracy and Stability of Numerical Algorithms*, 3.1-3.5), valid for any
summation order, bounds the total error of all the class sums at once, so
|r|_1 lies within that radius of the sum of the midpoint residuals.  This
module is the package's only rounding policy, in one arithmetic with no
interval type: each enclosure is a pair of doubles.  An exact target
coefficient becomes the doubles at or next to it (_enclose); every other
step is widened one ulp outward with nextafter or is an exactly rounded
sum (math.fsum, or for the residual's l1 totals _exact_sum, which gives
fsum's bits from exponent-indexed np.bincount accumulators), so the
reported lambda0 is a mathematically valid lower bound.

Certificates are self-contained canonical JSON: they store the
presentation text, the model, the relator subset, the support basis, Q
(its entries rounded to 15 significant digits by psd_sqrt, and taken as
the exact values of the stored decimals), and the solver's lambda, so
verification recomputes everything without touching solver state.  A
Certificate is that JSON object without Q, plus Q as doubles:
certified_gap writes it and verify_certificate reads it.  Q's text is
built with array operations (_reprs), byte-identical to each entry's
repr, a block of rows at a time.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import __version__
from .fox import Laplacian1, laplacian1
from .groups import (
    SupportBasis,
    _json_int,
    basis_from_json,
    model_from_spec,
    validate_model,
)
from .sdp import _psd_factor, target_coefficients
from .words import parse_presentation


def psd_sqrt(P: np.ndarray) -> np.ndarray:
    """Gram factor Q = diag(sqrt(w)) V^T of the PSD part of P, r x N.

    Q is the transpose of the solver's PSD eigen-factor (sdp._psd_factor)
    of the symmetrized P, cut at w > N*eps*max(w) (np.linalg.matrix_rank's
    tolerance), so Q has as many rows as P has numerical rank; what is
    dropped is eigh's own rounding noise.
    Q^T Q is positive semidefinite whatever noise P carries.  The entries
    are rounded to 15 significant digits (_round_digits), which the
    certified bound pays for like any other error of Q.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("psd_sqrt needs a square matrix")
    if not np.isfinite(P).all():  # eigh's NaNs would pass no tolerance test
        raise ValueError("P contains non-finite entries")
    return _round_digits(np.ascontiguousarray(_psd_factor(P, len(P) * np.finfo(float).eps).T))


_POW10 = np.array([float(10 ** e) for e in range(23)])  # the powers of ten that are doubles


def _round_digits(X: np.ndarray) -> np.ndarray:
    """X with each entry moved to the double nearest a 15-digit decimal.

    Such a double prints in at most 15 significant digits, which float()
    parses on its exact fast path.  The entry is scaled by the power of
    ten that makes it a 15-digit integer, rounded, and scaled back; both
    scalings are exact or correctly rounded only while that power is a
    double, so entries beyond 1e37 or below 1e-8 may keep more digits.
    """
    mag = np.abs(X)
    places = 14 - np.floor(np.log10(mag, out=np.full_like(mag, 14.0), where=mag > 0))
    exact = np.abs(places) < len(_POW10)
    scale = _POW10[np.where(exact, np.abs(places), 0).astype(np.intp)]
    below = np.rint(X * scale) / scale  # |X| < 1e15
    above = np.rint(X / scale) * scale
    return np.where(exact, np.where(places >= 0, below, above), X)


_ETA = 2.0 ** -1074  # smallest positive subnormal


class Bounds(NamedTuple):  # doubles lo <= hi around a real number
    lo: float
    hi: float


def _enclose(q: Fraction) -> Bounds:
    """The doubles just at or below and at or above q; equal when q is a double.

    q is any finite rational with as_integer_ratio (Fraction, int, float).
    Which side of q the nearest double lies on is decided in integers.
    """
    x = float(q)  # rounds to nearest; the off endpoint is one ulp outward
    a, b = x.as_integer_ratio()
    c, d = q.as_integer_ratio()
    side = a * d - c * b  # the sign of x - q, as b, d > 0
    if side == 0:
        return Bounds(x, x)
    if side < 0:
        return Bounds(x, math.nextafter(x, math.inf))
    return Bounds(math.nextafter(x, -math.inf), x)


def _rho(k: int) -> float:
    """A double >= gamma_k/(1-gamma_k) = k*u/(1-2*k*u), gamma_k = k*u/(1-k*u)."""
    ku = Fraction(k, 2 ** 53)
    if 3 * ku > 1:
        raise ValueError(f"{k} terms are too many for the a-priori error bound")
    return _enclose(ku / (1 - 2 * ku)).hi


_BLOCK = 32  # Gram columns per einsum call


def _symmetric_gram(X: np.ndarray) -> np.ndarray:
    """fl(X^T X) from the upper triangle, one block of rows at a time.

    Each entry is an einsum dot product, as in the full product; the lower
    triangle is a mirror copy, which halves the work and makes the result
    exactly symmetric.  einsum without path optimization runs numpy's own
    loops: BLAS results change with the thread count, which could make a
    certificate fail to re-verify.
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


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _exact_sum(x: np.ndarray, extra: List[float]) -> float:
    """math.fsum(x.ravel().tolist() + extra): the correctly rounded sum, from a few array passes.

    A double is m * 2^(e - 53), m a signed 53-bit integer (np.frexp).  The
    two halves of m, below 2^26 and 2^27 in magnitude, are summed per
    exponent with np.bincount, exactly in binary64 while fewer than 2^26
    terms meet in one bucket (the exponent-indexed accumulators of Demmel
    and Hida, SIAM J. Sci. Comput. 25, 2003, and of Neal, arXiv:1505.05571).
    The buckets and the extra terms are added as integers in units of
    2^-1126, and integer true division rounds the total once.  Non-finite
    terms, a total that could overflow, or 2^26 terms or more go to
    math.fsum itself, which returns its value or raises its exception.
    """
    frac, exp = np.frexp(x.ravel())
    top = max([int(exp.max(initial=0))] + [math.frexp(v)[1] for v in extra])
    count = frac.size + len(extra)
    if (frac.size >= 1 << 26 or top + count.bit_length() > 1000
            or not np.isfinite(frac).all() or not all(map(math.isfinite, extra))):
        return math.fsum(x.ravel().tolist() + extra)
    t = frac * 2.0 ** 26
    hi = np.trunc(t)
    bucket = exp + 1073  # the least exponent, of 2^-1074, is -1073
    H = np.bincount(bucket, weights=hi)  # integers below 2^52
    L = np.bincount(bucket, weights=t - hi)  # multiples of 2^-27 below 2^26
    total = 0
    for b in np.flatnonzero((H != 0) | (L != 0)).tolist():
        total += ((int(H[b]) << 27) + int(L[b] * 2.0 ** 27)) << b
    for v in extra:
        num, den = v.as_integer_ratio()  # den a power of two up to 2^1074
        total += (num << 1126) // den
    return total / (1 << 1126)


def _gram_class_sums(Q: np.ndarray, pid: np.ndarray, n: int) -> Tuple[np.ndarray, float]:
    """Sums of G = fl(Q^T Q) over the classes of each block, and one radius for all of them.

    G is n x n blocks of m x m cells, m = len(pid), and class (i, j, c)
    holds the cells (x, y) of block (i, j) with pid[x, y] = c.  mid[i, j, c]
    is the computed sum of G over the class, and sum_c |mid(c) - S(c)| <=
    radius, S(c) the exact sum of Q^T Q over the class.  An entry of G is
    a dot product of length k = Q.shape[0]: in any summation order, with
    or without FMA, each product meets at most k roundings (1+d)x + e,
    |d| <= u = 2^-53, |e| <= eta/2 = 2^-1075 (underflow only), so
    |G - Q^T Q| <= gamma_k |Q|^T |Q| + 2k eta, gamma_k = k u/(1-k u).
    Summing c terms errs by at most gamma_c times their magnitudes
    (additions cannot underflow), c the largest class size.  Summed over
    the classes,

        sum_c |mid(c) - S(c)| <= gamma_c sum|G| + gamma_k sum_l s_l^2 + 2k eta N^2,

    since the entries of |Q|^T |Q| add up to sum_l s_l^2, s_l = sum_a |Q_la|
    the row l1 norms.  A computed sum of N nonnegative terms is at least
    1 - gamma_N times the exact one, so (1 + rho_N) times it covers the
    exact sum.  _rho(k) >= gamma_k stands in for gamma_k, and every other
    step is rounded up.
    """
    k, N = Q.shape
    G = _symmetric_gram(Q)
    m, idx = len(pid), pid.ravel()
    sizes = np.bincount(idx)
    mid = np.empty((n, n, len(sizes)))
    for i, j in np.ndindex(n, n):
        mid[i, j] = np.bincount(idx, weights=G[i * m:i * m + m, j * m:j * m + m].ravel())
    grow = _up(1.0 + _rho(N))
    abs_g = _up(_up(math.fsum(np.abs(G).sum(axis=1).tolist())) * grow)
    s = np.nextafter(np.abs(Q).sum(axis=1) * grow, np.inf)
    abs_a = _up(math.fsum(np.nextafter(s * s, np.inf).tolist()))
    gamma_c = _rho(int(sizes.max()))
    terms = [_up(gamma_c * abs_g), _up(_rho(k) * abs_a), _up(2 * k * N * N * _ETA)]
    return mid, _up(math.fsum(terms))


@dataclass
class GapResult:
    lambda0: float
    residual_l1: Bounds
    status: str
    certificate: Optional["Certificate"]


def certified_gap(target, basis: SupportBasis, Q: np.ndarray, lam: float) -> GapResult:
    """Certify target - lambda0*I as a sum of squares, lambda0 rounded down.

    `target` is a Laplacian1 (which yields a full self-contained
    certificate) or a plain exact *-invariant TermMatrix (no certificate,
    bound only), read by target_coefficients.  Q may be rectangular with
    n*|E| columns; its entries and lambda are taken as the exact values of
    their doubles.
    """
    Q, lam = np.asarray(Q, dtype=float), float(lam)
    if not isinstance(target, Laplacian1):
        return GapResult(*_certified_bound(target, basis, Q, lam), None)
    lambda0, residual_l1, status = _certified_bound(target.matrix, basis, Q, lam)
    p, model, indices = target.presentation, target.matrix.model, target.relator_indices
    fields = {  # in file order: certificates are canonical byte streams
        "format": _FORMAT,
        "toolchain": {"package": "gapcert", "version": __version__, "numpy": np.__version__},
        "presentation": {"text": p.to_text(), "sha256": p.sha256()},
        "model": model.spec(),
        "relators": {"indices": list(indices), "labels": [p.labels[k] for k in indices]},
        "basis": {"radius": basis.radius, "keys": [model.key_to_json(key) for key in basis]},
        "solver_lambda": repr(lam),
        "certified_lambda0": repr(lambda0),
        "residual_l1_sup": repr(residual_l1.hi),
        "status": status,
    }
    return GapResult(lambda0, residual_l1, status, Certificate(fields, np.array(Q)))


def _certified_bound(matrix, basis: SupportBasis, Q: np.ndarray, lam: float):
    """`certified_gap` without the certificate: (lambda0, |r|_1, status).

    The target must be *-invariant for the l1 domination; its coefficients
    on products outside the basis' table are charged to |r|_1 in full.
    """
    inside, outside = target_coefficients(matrix, basis)
    n, m = len(matrix.entries), len(basis)
    if Q.ndim != 2 or Q.shape[1] != n * m:
        raise ValueError(f"Q must have n*|E| = {n * m} columns, got shape {Q.shape}")
    if not np.isfinite(Q).all():
        raise ValueError("Q contains non-finite entries")
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite (got {lam!r})")
    Q = np.ascontiguousarray(Q)  # one memory layout: certify and verify sum in one order
    table = basis.products()
    # target coefficients, minus lambda on the identity diagonal, per class
    Clo, Chi = np.zeros((2, n, n, len(table)))
    for i in range(n):
        inside.setdefault((i, i, table.identity_pid), 0)
    for (i, j, pid), c in inside.items():
        lo, hi = _enclose(c)
        if i == j and pid == table.identity_pid:
            # outward even when exact: keeps the certified bits of earlier releases
            lo, hi = math.nextafter(lo - lam, -math.inf), math.nextafter(hi - lam, math.inf)
        Clo[i, j, pid], Chi[i, j, pid] = lo, hi
    # round to nearest is sign-symmetric, so this is c's enclosure mirrored
    outside = [_enclose(abs(c)) for _, c in outside]
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
            mid, radius = _gram_class_sums(Q, table.pid, n)
            # for C in [Clo, Chi]: dist(mid, [Clo, Chi]) <= |C - mid| <= dev, and
            # |C - S| is within |mid - S| of |C - mid|, whose sum is <= radius
            dev = np.nextafter(np.maximum(mid - Clo, Chi - mid), np.inf)
            dist = np.maximum(np.nextafter(np.maximum(Clo - mid, mid - Chi), -np.inf), 0.0)
        # the sums are exactly rounded, so one outward ulp makes them safe
        total_hi = _exact_sum(dev, [a.hi for a in outside] + [radius])
        total_lo = _exact_sum(dist, [a.lo for a in outside] + [-radius])
    except (OverflowError, ValueError):  # an intermediate overflow in fsum, or inf - inf
        total_lo = total_hi = math.inf
    total_hi = _up(total_hi)
    lambda0 = math.nextafter(lam - total_hi, -math.inf)
    if not math.isfinite(lambda0):
        raise ValueError("Q or lambda too large: the residual bound overflows")
    residual = Bounds(max(0.0, math.nextafter(total_lo, -math.inf)), total_hi)
    return lambda0, residual, _status(lambda0)


def _status(lambda0: float) -> str:
    return "certified-positive" if lambda0 > 0.0 else "no-positive-gap"


def floor_display(x: float) -> str:
    """Human-facing bound, floored to two decimals (never rounded up).

    The floor is taken of the exact value: x * 100 in floating point can
    round up to an integer.
    """
    q = math.floor(Fraction(x) * 100)
    return f"{'-' if q < 0 else ''}{abs(q) // 100}.{abs(q) % 100:02d}"


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

_FORMAT = "gapcert-certificate-v1"


@dataclass(eq=False)
class Certificate:
    """A certificate's JSON object without Q, in file order, and Q as doubles.

    certified_gap writes the fields and verify_certificate reads them;
    loading checks only the format and decodes Q.
    """

    fields: dict
    q: np.ndarray

    def to_bytes(self) -> bytes:
        """The compact JSON of the certificate, Q last, its entries as repr strings."""
        return b"".join(self._chunks())

    def _chunks(self) -> Iterator[bytes]:
        """to_bytes in pieces: the header up to Q's entries, then blocks of rows of Q.

        A float's repr needs no JSON escaping, so each row is its reprs in
        quotes, spliced in after the header's empty entry list.
        """
        rows, cols = self.q.shape
        q = {"rows": rows, "cols": cols, "entries": []}
        head = json.dumps({**self.fields, "q": q}, separators=(",", ":"))  # ends '[]}}'
        yield (head[:-4] + "[").encode("utf-8")
        yield from _q_rows_text(self.q)
        yield b"]}}"

    @classmethod
    def from_bytes(cls, data: bytes) -> "Certificate":
        """The certificate whose JSON text is data: to_bytes's, or any re-serialization.

        When Q's entries are the document's last value, as to_bytes writes
        them, numpy parses them in one call (_q_last).  Every other document
        is read entry by entry, as json.loads and float() read it
        (_q_per_entry), which also says what is wrong with a malformed one.
        """
        doc, Q = _q_last(data) or _q_per_entry(data)
        return cls({k: v for k, v in doc.items() if k != "q"}, Q)

    def save(self, path) -> None:
        """Write to_bytes() to path block by block, never the whole at once."""
        with open(path, "wb") as fh:
            fh.writelines(self._chunks())

    @classmethod
    def load(cls, path) -> "Certificate":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


_ENTRIES_KEY = re.compile(rb'"entries"[ \t\n\r]*:[ \t\n\r]*')
_TWO_CLOSES = re.compile(rb"[ \t\n\r]*}[ \t\n\r]*}[ \t\n\r]*")  # what to_bytes writes after Q


def _q_last(data: bytes) -> Optional[Tuple[dict, np.ndarray]]:
    """(document, Q) when Q's entries are the document's last value and plain, else None.

    The array runs from the first "entries" key to the last ']', and only
    two '}' may follow it.  json.loads reads the document with [] in its
    place, and a hook records each object's last key as the object closes.
    The last two to close are the object that holds [] and the document,
    and json.loads keeps the last of equal keys, so [] is what it reads as
    q's entries exactly when those last keys are "entries" and "q".
    """
    key = _ENTRIES_KEY.search(data)
    start, stop = key and key.end(), data.rfind(b"]") + 1
    shape = key and _TWO_CLOSES.fullmatch(data, stop) and _plain_shape(data, start, stop)
    if not shape:
        return None
    last_keys = []

    def record_last_key(pairs):
        last_keys.append(pairs[-1][0] if pairs else None)
        return dict(pairs)

    try:
        doc = json.loads(data[:start] + b"[]" + data[stop:], object_pairs_hook=record_last_key)
    except (ValueError, RecursionError):
        return None
    if last_keys[-2:] != ["entries", "q"] or doc.get("format") != _FORMAT:
        return None
    rows, cols = doc["q"].get("rows"), doc["q"].get("cols")
    # a float count equals an int, but reshape refuses it: the general path says so
    if (type(rows), type(cols), rows, cols) != (int, int, *shape):
        return None
    values = _parse(data, start, stop, rows * cols)
    return None if values is None else (doc, values.reshape(shape))


def _q_per_entry(data: bytes) -> Tuple[dict, np.ndarray]:
    """(document, Q) read by json.loads and float() of each entry; a ValueError says what is wrong."""
    try:
        doc = json.loads(data)
    except RecursionError:
        raise ValueError("certificate JSON is nested too deeply") from None
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ValueError("unknown certificate format")
    try:
        q = doc["q"]
        entries = q["entries"]
        if not all(type(row) is list and set(map(type, row)) <= {str} for row in entries):
            raise ValueError("Q entries must be lists of decimal strings")
        shape = (q["rows"], q["cols"])
        if len(entries) != shape[0] or any(len(row) != shape[1] for row in entries):
            raise ValueError(f"Q entries do not fill its stored shape {shape}")
        Q = np.array(entries, dtype=float).reshape(shape)  # numpy converts each str with float()
    except KeyError as exc:
        raise ValueError(f"malformed certificate: no field {exc.args[0]!r}") from None
    # a q that is not an object, entries that are not lists of decimal strings
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed certificate: {exc}") from None
    return doc, Q


_DECIMAL = b"0123456789+-.eEinfatyINFATY"  # what decimals, inf, infinity and nan are made of
_WHITESPACE = b" \t\n\r"
_BLANK_ENTRY = re.compile(rb'"[ \t\n\r]*"')  # numpy reads a blank entry as -1.0
_CONTROL_IN_ENTRY = re.compile(rb'"[ ]*[\t\n\r][ \t\n\r]*"')  # in the skeleton; not JSON


def _translated(data: bytes, start: int, stop: int, delete: bytes) -> bytes:
    """data[start:stop].translate(None, delete), without a copy of a span that is most of data.

    The rest of data is translated twice instead; a span of at most half
    of data is copied, as that costs less.
    """
    if 2 * (stop - start) <= len(data):
        return data[start:stop].translate(None, delete)
    whole = data.translate(None, delete)
    head, tail = (len(part.translate(None, delete)) for part in (data[:start], data[stop:]))
    return whole[head:len(whole) - tail]


def _plain_shape(data: bytes, start: int, stop: int) -> Optional[Tuple[int, int]]:
    """(rows, cols) if data[start:stop] is the JSON of equal rows of quoted decimals, else None.

    Without the decimals' characters and the whitespace, the array must be
    the skeleton [["",""],["",""]] of its shape.  An entry may be padded
    with spaces, but not be blank or hold a control character.
    """
    skeleton = _translated(data, start, stop, _DECIMAL)
    bare = skeleton.translate(None, _WHITESPACE)
    rows, cols = bare.count(b"[") - 1, (bare.find(b"]") - 1) // 3
    row = b"[" + b",".join([b'""'] * cols) + b"]"
    if rows * len(row) > len(bare) or bare != b"[" + b",".join([row] * rows) + b"]":
        return None
    if len(bare) < len(skeleton) and (
            _CONTROL_IN_ENTRY.search(skeleton) or _BLANK_ENTRY.search(data, start, stop)):
        return None
    return rows, cols


def _parse(data: bytes, start: int, stop: int, count: int) -> Optional[np.ndarray]:
    """The count doubles of the plain array data[start:stop]; None if numpy refuses one."""
    if not count:
        return np.zeros(0)
    text = _translated(data, start, stop, b'[]"')
    with warnings.catch_warnings():  # numpy < 2 stops at a bad entry with a warning
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            values = np.fromstring(text, sep=",")
        except ValueError:
            return None
    return values if values.size == count else None


_TEXT_ENTRIES = 1 << 12  # Q entries per block of certificate text: bounds what save holds
# the two ASCII digits of each of 0..99, as one 2-byte item each
_DIGITS2 = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode("ascii"), dtype=np.uint16)


def _q_rows_text(q: np.ndarray) -> Iterator[bytes]:
    """Q's rows as the JSON text `["x","y"],["z","w"]`, each x the repr of its entry.

    A block of rows at a time is laid out as fixed-width records of
    NUL-padded fields, one per entry, and the NULs are dropped.
    """
    rows, cols = q.shape
    if cols == 0:
        yield ",".join(["[]"] * rows).encode("ascii")
        return
    step = max(1, _TEXT_ENTRIES // cols)
    for a in range(0, rows, step):
        block = q[a:a + step]
        text = _reprs(block.ravel())
        k, w = len(block), text.shape[1]
        record = np.zeros((k, cols, w + 5), dtype=np.uint8)  # [ " repr " , ,
        record[:, 0, 0] = ord("[")
        record[..., 1] = record[..., w + 2] = ord('"')
        record[..., 2:w + 2] = text.reshape(k, cols, w)
        record[..., w + 3] = ord(",")
        record[:, -1, w + 3:] = ord("]"), ord(",")
        if a + k == rows:
            record[-1, -1, w + 4] = 0
        yield record.tobytes().translate(None, b"\0")


def _reprs(x: np.ndarray) -> np.ndarray:
    """repr of each double of the 1-D x, as NUL-padded ASCII rows of one width.

    An entry from psd_sqrt is the double nearest a decimal M / 10^p, M an
    integer of 15 digits.  Such an entry is taken when M / 10^p rounds to
    it with 0 <= p <= 22 and M <= 10^15: distinct decimals of 15 or fewer
    digits round to distinct doubles, so repr, the shortest decimal that
    rounds back, prints M's digits.  They are laid out by repr's rules:
    trailing zeros dropped, fixed notation while the decimal point position
    decpt is -3 to 16, d.ddde-XX below.  Each entry's digits sit in a row
    of '0's, and its integer and fraction digits are the windows of that
    row that end and start at the point.  Every other entry (zeros,
    |x| < 1e-8 or >= 1e15, non-finite or unrounded values) takes repr.
    """
    n = len(x)
    mag = np.abs(x)
    with np.errstate(all="ignore"):  # zeros, non-finite and huge entries fail the test
        places = 14 - np.floor(np.log10(mag))
        fast = (places >= 0) & (places <= 22)
        p = np.where(fast, places, 14).astype(np.intp)
        M = np.rint(mag * _POW10[p])
        fast &= (M <= 1e15) & (M / _POW10[p] == mag)
    M = np.where(fast, M, 1e14).astype(np.int64)
    # d_j, the digit of 10^j in M, at column 37 - j of a row of '0's
    digits = np.full((n, 60), ord("0"), dtype=np.uint8)
    pairs = digits[:, 22:38].view(np.uint16)  # two digits to an item
    for g in range(7):
        pairs[:, g] = _DIGITS2[M // 10 ** (14 - 2 * g)]
        M %= 10 ** (14 - 2 * g)
    pairs[:, 7] = _DIGITS2[M]
    nonzero = digits[:, 22:38] != ord("0")
    length = 16 - nonzero.argmax(axis=1)  # M's digits
    zeros = nonzero[:, ::-1].argmax(axis=1)  # and its trailing zeros
    decpt = length - p
    sci = decpt < -3  # decpt <= 16, as p >= 0
    point = np.where(sci, length - 1, p)  # digits after the point, before trailing zeros go
    int_len = np.maximum(length - point, 1)
    frac_len = np.where(sci, point - zeros, np.maximum(point - zeros, 1))
    wa, wb, we = int(int_len.max()), int(frac_len.max()), 4 * bool(sci.any())
    start = np.arange(n) * digits.shape[1] + 38 - point  # the first digit after the point
    slow = np.flatnonzero(~fast)
    texts = [repr(v) for v in x[slow].tolist()]
    width = max([2 + wa + wb + we] + [len(t) for t in texts])
    out = np.zeros((n, width), dtype=np.uint8)
    out[:, 0] = (x < 0).view(np.uint8) * np.uint8(ord("-"))
    ints = sliding_window_view(digits.ravel(), wa)[start - wa]
    ints *= np.arange(wa) >= (wa - int_len)[:, None]  # no leading zeros but the units
    out[:, 1:1 + wa] = ints
    out[:, 1 + wa] = np.where(frac_len > 0, ord("."), 0)
    if wb:
        fracs = sliding_window_view(digits.ravel(), wb)[start]
        fracs *= np.arange(wb) < frac_len[:, None]
        out[:, 2 + wa:2 + wa + wb] = fracs
    if we:
        e = np.where(sci, 1 - decpt, 0)  # the exponent is -e, 5 <= e <= 22
        tail = out[:, 2 + wa + wb:6 + wa + wb]
        tail[:, 0], tail[:, 1], tail[:, 2], tail[:, 3] = ord("e"), ord("-"), e // 10, e % 10
        tail[:, 2:] += ord("0")
        tail *= sci[:, None]
    if texts:
        out[slow] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return out


def _decimal(value, field: str) -> float:
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a decimal string, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{field} must be finite, got {value!r}")
    return x


@dataclass
class VerifyResult:
    passed: bool
    lambda0: float
    stored_lambda0: float
    message: str


def verify_certificate(cert: Certificate) -> VerifyResult:
    """Re-derive the bound from the certificate alone.

    Recomputes the Laplacian from the stored presentation, model and
    relator subset, re-enumerates the basis, and re-derives the certified
    bound from the stored Q and lambda.  Passes iff the recomputed
    lambda0 is at least the stored one.  The other claims must hold too, or
    the certificate is malformed: the status is the one the stored lambda0
    implies, the labels are the presentation's, and the stored residual sup
    is at least the recomputed one.  This is the one reader of the stored
    fields, so a missing field is a ValueError here, not at load.
    """
    f = cert.fields
    try:
        text, sha256 = f["presentation"]["text"], f["presentation"]["sha256"]
        spec = f["model"]
        stored = tuple(_json_int(k, "relator index") for k in f["relators"]["indices"])
        labels = tuple(f["relators"]["labels"])
        basis_keys, radius = f["basis"]["keys"], f["basis"]["radius"]
        lam, stored_lambda0 = f["solver_lambda"], f["certified_lambda0"]
        stored_sup, status = f["residual_l1_sup"], f["status"]
        f["toolchain"]  # informational, but required like every other field
    except KeyError as exc:
        raise ValueError(f"malformed certificate: no field {exc.args[0]!r}") from None
    # a section that is not an object, or a relator index that is not an integer
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed certificate: {exc}") from None
    if not isinstance(text, str):
        raise ValueError("presentation text must be a string")
    if hashlib.sha256(text.encode("utf-8")).hexdigest() != sha256:
        raise ValueError("presentation text does not match its stored hash")
    lam = _decimal(lam, "solver_lambda")
    stored_lambda0 = _decimal(stored_lambda0, "certified_lambda0")
    stored_sup = _decimal(stored_sup, "residual_l1_sup")
    if status != _status(stored_lambda0):
        raise ValueError(f"stored status {status!r} contradicts its lambda0")
    p = parse_presentation(text)
    model = model_from_spec(spec)
    validate_model(p, model)
    try:
        basis = basis_from_json(model, basis_keys, radius)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"stored basis is invalid: {exc}") from exc
    lap = laplacian1(model, p, stored)  # refuses indices out of order or out of range
    if labels != tuple(p.labels[k] for k in stored):
        raise ValueError("stored relator labels are not the presentation's")
    lambda0, residual, _ = _certified_bound(lap.matrix, basis, cert.q, lam)
    if not lambda0 >= stored_lambda0:
        message = f"recomputed lambda0 {lambda0!r} fell below stored {stored_lambda0!r}"
        return VerifyResult(False, lambda0, stored_lambda0, message)
    if not stored_sup >= residual.hi:
        raise ValueError(f"residual_l1_sup {stored_sup!r} < recomputed {residual.hi!r}")
    return VerifyResult(True, lambda0, stored_lambda0, "re-verified")
