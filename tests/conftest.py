"""Shared numeric oracles for the test suite."""

import numpy as np

from sdgf import autodiff as ad


def fd_gradient(build_loss, leaf: ad.Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``build_loss()`` w.r.t. ``leaf.data``.

    ``build_loss`` must rebuild the computation from current leaf values
    and return the scalar loss as a float.
    """
    grad = np.zeros_like(leaf.data)
    flat_value = leaf.data.ravel()
    flat_grad = grad.ravel()
    with ad.no_grad():
        for i in range(flat_value.size):
            saved = flat_value[i]
            flat_value[i] = saved + h
            up = build_loss()
            flat_value[i] = saved - h
            down = build_loss()
            flat_value[i] = saved
            flat_grad[i] = (up - down) / (2.0 * h)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-5) -> float:
    """Worst-case elementwise relative error with an absolute floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def assert_grads_match(build_loss, leaves, tol: float = 1e-5) -> None:
    """Backprop the loss and compare every leaf gradient to the FD oracle."""
    for leaf in leaves:
        leaf.zero_grad()
    loss = build_loss()
    loss.backward()
    for leaf in leaves:
        assert leaf.grad is not None, "leaf never received a gradient"
        oracle = fd_gradient(lambda: float(build_loss().data), leaf)
        err = relative_error(leaf.grad, oracle)
        assert err < tol, f"gradient mismatch: relative error {err:.3e}"


def loop_conv1d(x: np.ndarray, kernel: np.ndarray, dilation: int) -> np.ndarray:
    """Zero-padded same-length dilated convolution, written as bare loops."""
    batch, in_ch, length = x.shape
    out_ch, _, width = kernel.shape
    pad = dilation * (width - 1) // 2
    out = np.zeros((batch, out_ch, length))
    for b in range(batch):
        for o in range(out_ch):
            for t in range(length):
                acc = 0.0
                for c in range(in_ch):
                    for j in range(width):
                        src = t + j * dilation - pad
                        if 0 <= src < length:
                            acc += kernel[o, c, j] * x[b, c, src]
                out[b, o, t] = acc
    return out
