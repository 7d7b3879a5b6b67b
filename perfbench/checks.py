"""Output checks that do not depend on the program's earlier output.

Each check returns ``(ok, detail)``.  They take plain numbers and numpy
arrays, never the program's objects, so ``perfbench/test_checks.py`` can
feed them deliberately corrupted outputs and show that they fail.
"""

from __future__ import annotations

import math

import numpy as np


def losses_finite_and_falling(losses) -> tuple[bool, str]:
    """Every epoch loss is finite and the last is below the first."""
    losses = [float(x) for x in losses]
    if len(losses) < 2:
        return False, f"need at least two epoch losses, got {len(losses)}"
    if not all(math.isfinite(x) for x in losses):
        return False, f"non-finite epoch loss in {losses}"
    if not losses[-1] < losses[0]:
        return False, f"last loss {losses[-1]} not below first {losses[0]}"
    return True, f"{losses[0]:.4f} -> {losses[-1]:.4f}"


def eq18_holds(losses, parts, weight: float,
               rtol: float = 1e-5) -> tuple[bool, str]:
    """Paper Eq. 18: each total equals ``(1-a) loss_f + a loss_g``.

    ``parts`` are the objective's reported ``{"loss_f", "loss_g"}`` per
    epoch.  The totals are float32 sums, hence the relative tolerance.
    """
    if len(losses) != len(parts) or not losses:
        return False, f"{len(losses)} totals vs {len(parts)} part records"
    worst = 0.0
    for total, part in zip(losses, parts):
        if set(part) != {"loss_f", "loss_g"}:
            return False, f"parts carry {sorted(part)}, not loss_f/loss_g"
        combined = (1.0 - weight) * part["loss_f"] + weight * part["loss_g"]
        worst = max(worst, abs(total - combined) / max(abs(combined), 1e-12))
    return worst <= rtol, f"max relative gap {worst:.3g} (rtol {rtol:g})"


def infonce_anchor_losses(u_hat: np.ndarray, v_hat: np.ndarray,
                          tau: float) -> np.ndarray:
    """Per-anchor InfoNCE ``-log softmax_i(u_i . v_* / tau)`` in float64."""
    logits = (u_hat @ v_hat.T) / tau
    peak = logits.max(axis=1, keepdims=True)
    lse = peak[:, 0] + np.log(np.exp(logits - peak).sum(axis=1))
    return lse - np.diag(logits)


def infonce_fd_gradient(u_hat: np.ndarray, v_hat: np.ndarray, tau: float,
                        step: float = 1e-6) -> np.ndarray:
    """Central finite difference of the per-anchor InfoNCE sum with
    respect to each row of ``u_hat`` (the compared representations).

    Row ``i`` only enters anchor ``i``'s loss, so each row is perturbed
    against its own loss term.
    """
    u_hat = np.asarray(u_hat, dtype=np.float64)
    v_hat = np.asarray(v_hat, dtype=np.float64)
    n, d = u_hat.shape
    grad = np.empty((n, d))
    eye = np.eye(d) * step
    for i in range(n):
        plus = u_hat[i] + eye                   # (d, d): one row per coord
        minus = u_hat[i] - eye
        grad[i] = (_anchor_loss(plus, v_hat, i, tau)
                   - _anchor_loss(minus, v_hat, i, tau)) / (2.0 * step)
    return grad


def _anchor_loss(rows: np.ndarray, v_hat: np.ndarray, i: int,
                 tau: float) -> np.ndarray:
    logits = (rows @ v_hat.T) / tau
    peak = logits.max(axis=1, keepdims=True)
    lse = peak[:, 0] + np.log(np.exp(logits - peak).sum(axis=1))
    return lse - logits[:, i]


def matches_fd(features: np.ndarray, fd: np.ndarray,
               rtol: float = 1e-6) -> tuple[bool, str]:
    """The program's Eq. 6 features equal the finite difference, relative
    to the largest feature magnitude."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape != fd.shape:
        return False, f"shape {features.shape} vs {fd.shape}"
    scale = max(float(np.abs(fd).max()), 1e-12)
    gap = float(np.abs(features - fd).max()) / scale
    return gap <= rtol, f"max gap {gap:.3g} of max |g| (rtol {rtol:g})"


def equals_reference(fast: tuple[float, float],
                     reference: tuple[float, float]) -> tuple[bool, str]:
    """The fast engine's ``(mean, std)`` equals the reference exactly."""
    ok = tuple(map(float, fast)) == tuple(map(float, reference))
    return ok, f"fast {fast[0]!r}/{fast[1]!r} vs reference " \
               f"{reference[0]!r}/{reference[1]!r}"


def beats_majority(mean_pct: float, labels) -> tuple[bool, str]:
    """Accuracy (percent) is at least the majority-class share."""
    counts = np.bincount(np.asarray(labels))
    share = 100.0 * counts.max() / counts.sum()
    return mean_pct >= share, f"{mean_pct:.3f}% vs majority {share:.3f}%"


def rows_identical(received, expected: np.ndarray) -> tuple[bool, str]:
    """A served row equals the offline row byte for byte.

    ``received`` is the row as decoded from JSON (python floats); it is
    cast to the offline row's dtype, and the cast must be lossless.
    """
    received = np.asarray(received, dtype=np.float64)
    expected = np.asarray(expected)
    if received.shape != expected.shape:
        return False, f"shape {received.shape} vs {expected.shape}"
    cast = received.astype(expected.dtype)
    if not np.array_equal(cast.astype(np.float64), received):
        return False, "served values are not representable in " \
                      f"{expected.dtype}"
    if cast.tobytes() != expected.tobytes():
        gap = float(np.abs(cast.astype(np.float64)
                           - expected.astype(np.float64)).max())
        return False, f"bytes differ (max gap {gap:.3g})"
    return True, "identical"


def all_ok(statuses) -> tuple[bool, str]:
    """Every reply carries HTTP status 200."""
    bad = [s for s in statuses if s != 200]
    return not bad, f"{len(bad)} of {len(statuses)} replies not 200" \
                    f"{': ' + repr(sorted(set(bad))) if bad else ''}"
