"""An exact KNN oracle, written apart from learners.py.

A KNN label is the vote over the first k training rows in (exact distance,
row index) order, the exact distance being sum (q_f - t_f)^2 over the
standardized doubles without rounding; a class tie goes to abnormal. A row
for which 4 (|q|^2 + max|t|^2) reaches the largest double or is NaN (a NaN
or infinite cell, or norms near the overflow threshold) takes instead the
stable sort of its float64 distances -2 q.t + (|q|^2 + |t|^2), clamped at
zero, with NaN last.

Exact distances are sums of Python integers: every double is an integer
over a power of two (the pair fractions.Fraction holds), so all of them are
integers over the largest of those denominators.
"""

import numpy as np

# The direct float64 sum of (q_f - t_f)^2 is within (F + 3) * 2^-53 of the
# exact distance, relative, plus one subnormal per term where a square
# underflows: far inside these margins for any F below 10^6.
RELATIVE_MARGIN = 1e-9
ABSOLUTE_MARGIN = 1e-300


def as_integers(values: np.ndarray, den: int) -> np.ndarray:
    """Finite doubles times den, a power of two that every value's
    denominator divides, as exact Python integers."""
    ints = [n * (den // d) for n, d in map(float.as_integer_ratio, values.ravel().tolist())]
    return np.array(ints, dtype=object).reshape(values.shape)


def exact_nearest(qi, Ti, approx, k):
    """Indices of the first k rows of Ti in (exact distance, row index)
    order, from the rows as integers on one scale and each row's direct
    float64 distance approx. A row whose approx exceeds the k-th smallest
    by more than the margins cannot be among them, so only the others are
    scored exactly; when just k are left, they are the answer."""
    cut = np.partition(approx, k - 1)[k - 1]
    candidates = np.flatnonzero(approx <= cut * (1 + RELATIVE_MARGIN) + ABSOLUTE_MARGIN)
    if candidates.size == k:
        return candidates
    exact = ((Ti[candidates] - qi) ** 2).sum(axis=1)
    return [j for _, j in sorted(zip(exact.tolist(), candidates.tolist()))[:k]]


def knn_oracle(model, X):
    """The label of every row of X (raw features) under `model`."""
    Q = model.standardization.apply(np.atleast_2d(np.asarray(X, dtype=float)))
    T, y, k = model.X, model.y, model.k
    out = np.empty(Q.shape[0], dtype=np.int8)
    with np.errstate(over="ignore", invalid="ignore"):
        q_sq = (Q * Q).sum(axis=1)
        t_sq = np.einsum("ij,ij->i", T, T)
        exact = 4.0 * (q_sq + t_sq.max()) < np.finfo(float).max
        if exact.any():
            den = max(v.as_integer_ratio()[1] for v in np.concatenate([T.ravel(), Q[exact].ravel()]).tolist())
            Ti = as_integers(T, den)
        for lo in range(0, Q.shape[0], 64):
            approx = ((Q[lo : lo + 64, None, :] - T[None, :, :]) ** 2).sum(axis=2)
            for r in range(lo, min(lo + 64, Q.shape[0])):
                if exact[r]:
                    nearest = exact_nearest(as_integers(Q[r], den), Ti, approx[r - lo], k)
                else:
                    d2 = -2.0 * np.matmul(Q[r : r + 1], T.T)[0] + (q_sq[r] + t_sq)
                    nearest = np.argsort(np.maximum(d2, 0.0), kind="stable")[:k]
                out[r] = 1 if 2 * int(y[nearest].sum()) >= k else 0
    return out
