"""Central-difference gradient oracle used by the autodiff tests.

The numeric gradient is computed one coordinate at a time with step h, on a
loss function that rebuilds its graph from plain arrays on every call.  That
keeps the oracle independent of the backward implementation under test.
"""

import numpy as np

from blockops import tensor as T


def finite_difference(f, x, h=1e-5):
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def relative_error(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def grad_check(make_loss, arrays, h=1e-5):
    """Worst relative error between backward() and central differences.

    make_loss takes one Tensor per input array and returns a scalar Tensor;
    it must be deterministic so the graph can be rebuilt for each probe.
    """
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    params = [T.parameter(a.copy()) for a in arrays]
    loss = make_loss(*params)
    loss.backward()

    worst = 0.0
    for k in range(len(arrays)):
        def value_at(x, k=k):
            args = [T.tensor(arrays[i]) if i != k else T.tensor(x) for i in range(len(arrays))]
            return float(make_loss(*args).data)

        numeric = finite_difference(value_at, arrays[k], h=h)
        worst = max(worst, relative_error(params[k].grad, numeric))
    return worst
