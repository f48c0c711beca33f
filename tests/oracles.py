"""Independent brute-force oracles the library is checked against.

Everything here is written with plain loops and scipy primitives, on
purpose: these implementations must not share code paths with the library.
"""

import numpy as np
from scipy.special import logsumexp
from scipy.stats import norm


def complete_ll_bruteforce(graph, features, assignment, params):
    """Term-by-term complete log-likelihood; assignment hard or soft."""
    n = graph.n
    n_classes = params.n_classes
    assignment = np.asarray(assignment)
    if assignment.ndim == 1:
        resp = np.zeros((n, n_classes))
        resp[np.arange(n), assignment] = 1.0
    else:
        resp = assignment

    total = 0.0
    for i in range(n):
        for q in range(n_classes):
            if resp[i, q] > 0:
                total += resp[i, q] * np.log(params.alpha[q])

    adj = graph.adjacency
    for i in range(n):
        for j in range(i + 1, n):
            x = adj[i, j]
            for q in range(n_classes):
                for l in range(n_classes):
                    w = resp[i, q] * resp[j, l]
                    if w > 0:
                        total += w * (x * np.log(params.pi[q, l])
                                      + (1 - x) * np.log(1 - params.pi[q, l]))

    scale = np.sqrt(params.sigma2)
    for i in range(n):
        for q in range(n_classes):
            if resp[i, q] > 0:
                for k in range(features.p):
                    total += resp[i, q] * norm.logpdf(
                        features.values[i, k], params.mu[q, k], scale
                    )
    return total


def log_marginal_bruteforce(graph, features, params):
    """Sum the complete likelihood over every assignment, via recursion."""
    import itertools

    n = graph.n
    terms = [
        complete_ll_bruteforce(graph, features, np.array(z), params)
        for z in itertools.product(range(params.n_classes), repeat=n)
    ]
    return logsumexp(terms)


def responsibility_update_oracle(graph, features, params, resp, mode="joint"):
    """One undamped fixed-point update, row by row, with plain loops."""
    n = graph.n
    n_classes = params.n_classes
    adj = graph.adjacency
    logits = np.zeros((n, n_classes))
    for i in range(n):
        for q in range(n_classes):
            s = np.log(params.alpha[q])
            if mode != "features-only":
                for j in range(n):
                    if j == i:
                        continue
                    x = adj[i, j]
                    for l in range(n_classes):
                        s += resp[j, l] * (
                            x * np.log(params.pi[q, l])
                            + (1 - x) * np.log(1 - params.pi[q, l])
                        )
            if mode != "graph-only":
                for k in range(features.p):
                    s -= (features.values[i, k] - params.mu[q, k]) ** 2 \
                        / (2 * params.sigma2)
            logits[i, q] = s
    out = np.empty_like(logits)
    for i in range(n):
        out[i] = np.exp(logits[i] - logsumexp(logits[i]))
        out[i] /= out[i].sum()
    return out


def ari_pair_counting(a, b):
    """Adjusted Rand index from the four pair-agreement counts."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.size
    both_same = same_a_only = same_b_only = both_diff = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            if sa and sb:
                both_same += 1
            elif sa:
                same_a_only += 1
            elif sb:
                same_b_only += 1
            else:
                both_diff += 1
    num = 2.0 * (both_same * both_diff - same_a_only * same_b_only)
    den = (
        (both_same + same_a_only) * (same_a_only + both_diff)
        + (both_same + same_b_only) * (same_b_only + both_diff)
    )
    if den == 0:
        return 1.0 if _is_relabeling(a, b) else 0.0
    return num / den


def _is_relabeling(a, b):
    forward = {}
    backward = {}
    for x, y in zip(a, b):
        if forward.setdefault(x, y) != y or backward.setdefault(y, x) != x:
            return False
    return True


def maximize_bound_numerically(graph, features, resp, bound_fn, n_classes,
                               start_params=None, n_starts=4, seed=0):
    """Numerically maximise the bound over all parameters at fixed resp.

    Works in an unconstrained space (softmax proportions, logit edge
    probabilities, free means, log variance) with multiple L-BFGS starts,
    optionally including a perturbed copy of ``start_params``. Returns the
    best bound value found.
    """
    from scipy.optimize import minimize

    from cohsmix.model import ModelParams

    p = features.p
    q = n_classes
    tri = np.triu_indices(q)

    def unpack(vector):
        pos = 0
        raw_alpha = np.concatenate([vector[pos:pos + q - 1], [0.0]])
        pos += q - 1
        weights = np.exp(raw_alpha - raw_alpha.max())
        alpha = weights / weights.sum()
        pi = np.zeros((q, q))
        pi[tri] = 1.0 / (1.0 + np.exp(-vector[pos:pos + len(tri[0])]))
        pi = pi + np.triu(pi, 1).T
        pos += len(tri[0])
        mu = vector[pos:pos + q * p].reshape(q, p)
        pos += q * p
        sigma2 = np.exp(vector[pos])
        return ModelParams(alpha=alpha, pi=np.clip(pi, 1e-9, 1 - 1e-9),
                           mu=mu, sigma2=sigma2)

    def negative(vector):
        return -bound_fn(unpack(vector))

    dim = (q - 1) + len(tri[0]) + q * p + 1
    rng = np.random.default_rng(seed)
    starts = [rng.normal(0, 1.0, size=dim) for _ in range(n_starts)]
    if start_params is not None:
        packed = np.concatenate([
            np.log(start_params.alpha[:-1] / start_params.alpha[-1])
            if q > 1 else np.zeros(0),
            np.log(start_params.pi[tri] / (1 - start_params.pi[tri])),
            start_params.mu.ravel(),
            [np.log(start_params.sigma2)],
        ])
        starts.append(packed + rng.normal(0, 0.05, size=dim))
    best = -np.inf
    for start in starts:
        result = minimize(negative, start, method="L-BFGS-B",
                          options={"maxiter": 2000, "ftol": 1e-14,
                                   "gtol": 1e-10})
        best = max(best, -result.fun)
    return best
