"""Independent brute-force routes used to cross-check the vectorized code.

Everything here trades speed for obviousness: explicit itertools loops,
value iteration or exact rational elimination instead of a linear solve, full
path enumeration instead of moment algebra. Keep these dumb.
"""
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from mapgvar import (
    BaselineKind,
    BaselineTag,
    EstimatorKind,
    EstimatorTag,
    StepMoments,
    advantage_decomposition,
    advantage_variance_bound,
    advantage_variance_identity,
    agent_subset,
    joint_action_prob_table,
    marginal_q_lattice,
    mc_variance,
    ob_surrogate_gaussian,
    policy_transition,
    signal_table,
    solve_values,
    step_moments,
    train,
)
from mapgvar.estimators import (
    agent_axis_view,
    agent_prob_table,
    others_prob_table,
    param_dim,
)


# ---------------------------------------------------------------------------
# the variance kernels by estimator kind: step_moments, mc_variance and
# bound_constants take signal tables, which these build from ``tables.q``


def moments_of(kind, game, policy, tables):
    """The ``StepMoments`` of one estimator kind."""
    sig = signal_table(kind, game, policy, tables.q)
    [moments] = step_moments(game, policy, kind.agent, [sig])
    return moments


def mc_of(kinds, game, policy, n_trajectories, horizon, rng, tables=None):
    """``mc_variance`` of ``kinds``, all of one agent, in their order; the
    values are solved here when ``tables`` is None."""
    if tables is None:
        tables = solve_values(game, policy)
    sigs = [signal_table(kind, game, policy, tables.q) for kind in kinds]
    return mc_variance(game, policy, kinds[0].agent, sigs, n_trajectories, horizon, rng)


def coma_tables_of(game, policy, tables):
    """Each agent's COMA signal table in agent order, as ``bound_constants``
    takes them."""
    coma = [EstimatorKind(EstimatorTag.COMA, i) for i in range(game.n_agents)]
    return [signal_table(kind, game, policy, tables.q) for kind in coma]


# ---------------------------------------------------------------------------
# the identity kernels and the Gaussian baseline take the tensors and samples
# their caller built; these build them from a solved game or a payoff


def decomposition_of(game, policy, tables, s, order, actions, prefix_len=0):
    """``advantage_decomposition``'s (lhs, rhs) at state s for one prefix length."""
    lattice = marginal_q_lattice(game, policy, tables, s)
    [pair] = advantage_decomposition(game, lattice, order, actions, (prefix_len,))
    return pair


def joint_draw(game, policy, tables, s, order=None, prefix=()):
    """The non-prefix agents' joint draw at s: the q tensor with the prefix
    actions fixed and axes in ``order`` (default ascending), and the agents'
    probability rows in that order. Returns (t, probs)."""
    prefix = tuple((int(a), int(x)) for a, x in prefix)
    fixed = [a for a, _ in prefix]
    if len(set(fixed)) != len(fixed):
        raise ValueError("prefix agents must be distinct")
    rest = sorted(set(range(game.n_agents)) - set(fixed))
    order = tuple(rest) if order is None else tuple(int(a) for a in order)
    if sorted(order) != rest:
        raise ValueError("order must enumerate exactly the non-prefix agents")
    idx = [slice(None)] * game.n_agents
    for agent, action in prefix:
        idx[agent] = action
    t = tables.q[s].reshape(game.action_counts)[tuple(idx)]
    if order:
        t = np.transpose(t, [rest.index(a) for a in order])
    return t, [policy.probs(a, s) for a in order]


def identity_of(game, policy, tables, s, order=None, prefix=()):
    """``advantage_variance_identity`` of one joint draw at s."""
    t, probs = joint_draw(game, policy, tables, s, order, prefix)
    return advantage_variance_identity(t, probs)


def bound_of(game, policy, tables, s, prefix=()):
    """``advantage_variance_bound`` of the ascending joint draw at s."""
    t, probs = joint_draw(game, policy, tables, s, None, prefix)
    return advantage_variance_bound(t, probs)


def sampled_ob_gaussian(q_fn, mean, std, n_samples, rng):
    """``ob_surrogate_gaussian`` of n_samples actions drawn from N(mean, std),
    with q_fn queried once on the (n_samples, d) batch."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    std = np.atleast_1d(np.asarray(std, dtype=float))
    actions = mean + std * rng.standard_normal((n_samples, mean.shape[0]))
    q_vals = np.asarray(q_fn(actions), dtype=float).reshape(-1)
    return float(ob_surrogate_gaussian(actions, mean, std, q_vals))


def ob_quadrature_gaussian(q_fn, mean, std, n_nodes):
    """The diagonal Gaussian actor's optimal baseline E[||s||^2 q] / E[||s||^2]
    over a ~ N(mean, diag std^2), s the score of the whole (mean, std) output
    layer, by a tensor Gauss-Hermite rule of ``n_nodes`` nodes per component.

    ||s||^2 has degree 4 in a - mean, and an n-node rule integrates degree
    2n - 1 exactly, so the result is exact for a q that is a polynomial of
    degree at most 2 * n_nodes - 5 in the action; q_fn is queried once on
    the (n_nodes**d, d) grid."""
    from numpy.polynomial.hermite_e import hermegauss

    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    std = np.atleast_1d(np.asarray(std, dtype=float))
    nodes, weights = hermegauss(n_nodes)  # weight exp(-x^2 / 2)
    d = len(mean)
    z = np.array(list(itertools.product(nodes, repeat=d))).reshape(-1, d)
    w = np.prod(list(itertools.product(weights, repeat=d)), axis=1)
    diff = std * z
    norms = ((diff / std**2) ** 2 + ((diff**2 - std**2) / std**3) ** 2).sum(axis=1)
    q_vals = np.asarray(q_fn(mean + diff), dtype=float).reshape(-1)
    return float((w * norms) @ q_vals / (w @ norms))


def ob_surrogate_gaussian_oracle(actions, mean, std, q_vals):
    """``ob_surrogate_gaussian``'s formula over the whole (..., n, d) stack,
    each score norm one ``np.sum`` over the last axis of d components."""
    diff = actions - mean
    norms = np.sum((diff / std**2) ** 2, axis=-1) + np.sum(
        ((diff**2 - std**2) / std**3) ** 2, axis=-1
    )
    weighted = (norms[..., None, :] @ q_vals[..., :, None])[..., 0, 0] / norms.sum(axis=-1)
    lo = q_vals.min(axis=-1)
    return np.where(lo == q_vals.max(axis=-1), lo, weighted)


def gaussian_counterfactual_joints(params, batch, n_samples, iterations, seed):
    """Every payoff argument of a ``train_gaussian`` run with the sampled
    optimal baseline whose parameters stay at ``params`` (a payoff that is
    constant moves none), replayed from the generator of ``seed``. Per
    iteration: the (batch, total_dim) batch, then each agent's
    (batch * n_samples, total_dim) counterfactual matrix, built row by row
    as ``np.repeat`` of the batch with the agent's columns overwritten."""
    rng = np.random.default_rng(seed)
    dims = [len(mean) for mean, _ in params]
    offsets = np.concatenate(([0], np.cumsum(dims))).astype(int)
    calls = []
    for _ in range(iterations):
        samples = np.empty((batch, offsets[-1]))
        for i, (mean, std) in enumerate(params):
            samples[:, offsets[i] : offsets[i + 1]] = mean + std * rng.standard_normal(
                (batch, dims[i])
            )
        calls.append(samples)
        for i, (mean, std) in enumerate(params):
            z = rng.standard_normal((batch, n_samples, dims[i]))
            joint = np.repeat(samples, n_samples, axis=0)
            actions = joint.reshape(batch, n_samples, -1)[..., offsets[i] : offsets[i + 1]]
            for j in range(dims[i]):
                np.multiply(std[j], z[..., j], out=actions[..., j])
                actions[..., j] += mean[j]
            calls.append(joint)
    return calls


def joint_probs_oracle(game, policy):
    """(S, A) joint action probabilities by explicit product over agents."""
    out = np.empty((game.n_states, game.n_joint_actions))
    ranges = [range(k) for k in game.action_counts]
    for s in range(game.n_states):
        per = [policy.probs(i, s) for i in range(game.n_agents)]
        for idx, combo in enumerate(itertools.product(*ranges)):
            p = 1.0
            for i, a in enumerate(combo):
                p *= float(per[i][a])
            out[s, idx] = p
    return out


def vi_q_oracle(game, policy, tol=1e-13, max_sweeps=200_000):
    """Q by plain value iteration; independent of the dense linear solve."""
    joint = joint_probs_oracle(game, policy)
    q = np.zeros((game.n_states, game.n_joint_actions))
    for _ in range(max_sweeps):
        v = (joint * q).sum(axis=1)
        nxt = game.reward + game.gamma * game.transition @ v
        if np.abs(nxt - q).max() <= tol * max(1.0 - game.gamma, 1e-3):
            return nxt
        q = nxt
    raise AssertionError("value iteration did not converge")


def exact_discounted_solve(gamma, kernel, rhs):
    """x with (I - gamma kernel) x = rhs in exact rational arithmetic, every
    double input taken at its exact value: Gauss-Jordan elimination with
    Fractions, meant for S <= 3. A list of Fractions."""
    n = len(rhs)
    g = Fraction(float(gamma))
    rows = [[Fraction(int(i == j)) - g * Fraction(float(kernel[i][j])) for j in range(n)]
            + [Fraction(float(rhs[i]))] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def marginal_q_oracle(game, policy, tables, subset, actions, s):
    """E[Q | coalition actions fixed] by summing over every joint action."""
    fixed = dict(zip(subset, actions))
    ranges = [range(k) for k in game.action_counts]
    per = [policy.probs(i, s) for i in range(game.n_agents)]
    total = 0.0
    for combo in itertools.product(*ranges):
        if any(combo[i] != a for i, a in fixed.items()):
            continue
        p = 1.0
        for i, a in enumerate(combo):
            if i not in fixed:
                p *= float(per[i][a])
        total += p * float(tables.q[s, game.joint_action_index(combo)])
    return total


def per_t_variance_oracle(kind, game, policy, tables, dist_t):
    """Total Var of the one-step contribution at state weights dist_t.

    Enumerates every (state, joint action) and uses the full parameter-space
    vectors, so the block-disjointness shortcut in the fast route is itself
    under test.
    """
    joint = joint_probs_oracle(game, policy)
    mean = np.zeros(param_dim(game, kind.agent))
    second = 0.0
    for s in range(game.n_states):
        ws = float(dist_t[s])
        if ws == 0.0:
            continue
        for a_idx in range(game.n_joint_actions):
            p = ws * joint[s, a_idx]
            if p == 0.0:
                continue
            g = per_step_gradient(
                kind, game, policy, tables, s, game.joint_action(a_idx)
            )
            mean += p * g
            second += p * float(g @ g)
    return second - float(mean @ mean)


def expected_contribution_oracle(kind, game, policy, tables, s):
    """E[contribution | s] over the joint action space, via per_step_gradient."""
    joint = joint_probs_oracle(game, policy)
    out = np.zeros(param_dim(game, kind.agent))
    for a_idx in range(game.n_joint_actions):
        p = joint[s, a_idx]
        if p == 0.0:
            continue
        g = per_step_gradient(
            kind, game, policy, tables, s, game.joint_action(a_idx)
        )
        out += p * g
    return out


def trajectory_variance_oracle(kind, game, policy, tables, horizon):
    """Exact (mean, variance) of the length-``horizon`` trajectory gradient.

    Recurses over every path (s0, a0, s1, a1, ...); only feasible for tiny
    games, which is the point — it includes the cross-timestep covariance
    that the per-step decomposition deliberately drops.
    """
    joint = joint_probs_oracle(game, policy)
    dim = param_dim(game, kind.agent)
    mean = np.zeros(dim)
    second = 0.0

    def rec(t, s, prob, prefix):
        nonlocal mean, second
        if t == horizon:
            g = trajectory_gradient(kind, game, policy, tables, prefix)
            mean += prob * g
            second += prob * float(g @ g)
            return
        for a_idx in range(game.n_joint_actions):
            p_a = prob * joint[s, a_idx]
            if p_a == 0.0:
                continue
            step = prefix + [(s, game.joint_action(a_idx))]
            if t == horizon - 1:
                rec(t + 1, -1, p_a, step)  # successor state never read
                continue
            for s2 in range(game.n_states):
                p_next = p_a * float(game.transition[s, a_idx, s2])
                if p_next > 0.0:
                    rec(t + 1, s2, p_next, step)

    for s0 in range(game.n_states):
        p0 = float(game.initial_dist[s0])
        if p0 > 0.0:
            rec(0, s0, p0, [])
    var = second - float(mean @ mean)
    return mean, var


def fd_policy_gradient(game, policy, agent, h=1e-5):
    """Central finite differences of J through the exact solver."""
    from mapgvar import JointPolicy, SoftmaxPolicy, solve_values

    base = policy.agents[agent].logits
    grad = np.empty(base.size)

    def j_of(logits_flat):
        agents = list(policy.agents)
        agents[agent] = SoftmaxPolicy(logits_flat.reshape(base.shape))
        pol = JointPolicy(tuple(agents))
        tables = solve_values(game, pol)
        return float(game.initial_dist @ tables.v)

    flat = base.reshape(-1).astype(float)
    for j in range(flat.size):
        up = flat.copy()
        dn = flat.copy()
        up[j] += h
        dn[j] -= h
        grad[j] = (j_of(up) - j_of(dn)) / (2.0 * h)
    return grad


def walked_policy_gradient(game, policy, agent):
    """The exact gradient walked forward: sum over t < H of gamma^t
    E_{s~d^t}[ per-state mean gradient ], d^t propagated through the kernel
    and H = ``default_horizon``, which puts the truncation below 1e-9 of the
    total. A second route to ``exact_policy_gradient``'s occupancy solve."""
    from mapgvar import default_horizon, state_distributions
    from mapgvar.estimators import mean_step_gradient_by_state

    horizon = default_horizon(game.gamma, game.beta)
    by_state = mean_step_gradient_by_state(
        game, policy, solve_values(game, policy), agent
    )
    dists = state_distributions(game, policy, horizon - 1)
    grad = np.zeros(by_state.shape)
    scale = 1.0
    for t in range(horizon):
        grad += scale * dists[t][:, None] * by_state
        scale *= game.gamma
    return grad.reshape(-1)


def gaussian_log_prob(mean, std, action):
    """log N(action; mean, diag std^2), the function whose finite differences
    check ``gaussian_log_prob_grad``."""
    mean, std, action = (np.atleast_1d(np.asarray(x, dtype=float))
                         for x in (mean, std, action))
    z = (action - mean) / std
    return float(-0.5 * z @ z - np.log(std).sum() - 0.5 * len(z) * np.log(2 * np.pi))


def grad_log_softmax(probs, a: int) -> np.ndarray:
    """Score of the softmax output layer at action a: e_a - pi."""
    g = -np.asarray(probs, dtype=float)
    g[a] += 1.0
    return g


def x_measure_oracle(probs):
    """The x-measure by the expanded formula pi (1 + ||pi||^2 - 2 pi) /
    (1 - ||pi||^2), which cancels on near-deterministic rows: a second route
    to ``x_measure_softmax`` where the policy is not close to one-hot."""
    probs = np.asarray(probs, dtype=float)
    norm_sq = np.einsum("...k,...k->...", probs, probs)[..., None]
    return probs * (1.0 + norm_sq - 2.0 * probs) / (1.0 - norm_sq)


def step_moments_oracle(game, policy, agent, sig):
    """``StepMoments`` of one (S, A) signal table by expanding the squared
    norms and subtracting: m2 = E[sig^2 ||e_a - pi||^2] and ||E[sig (e_a -
    pi)]||^2 from w = pi sig and c = sum w, own = m2 - E||nu||^2 and others =
    E||nu||^2 - mean_sq. A second route to the centered ``step_moments``;
    its own, others and mean_sq may round below zero."""
    p_others = others_prob_table(game, policy, agent)  # (S, M)
    pi_i = agent_prob_table(game, policy, agent)  # (S, k)
    pi_norm_sq = np.einsum("sk,sk->s", pi_i, pi_i)
    score_norm_sq = 1.0 + pi_norm_sq[:, None] - 2.0 * pi_i
    sig_rows = agent_axis_view(game, sig, agent)
    m2_rows = np.einsum("sk,smk,sk->sm", pi_i, sig_rows**2, score_norm_sq)
    # nu(s, m) = w - (sum w) pi, its squared norm expanded
    w = pi_i[:, None, :] * sig_rows
    c = w.sum(axis=2)
    nu_sq = (np.einsum("smk,smk->sm", w, w)
             - 2.0 * c * np.einsum("smk,sk->sm", w, pi_i) + c**2 * pi_norm_sq[:, None])
    big_w = np.einsum("sm,smk->sk", p_others, w)
    big_c = np.einsum("sm,sm->s", p_others, c)
    mean_sq = (np.einsum("sk,sk->s", big_w, big_w)
               - 2.0 * big_c * np.einsum("sk,sk->s", big_w, pi_i) + big_c**2 * pi_norm_sq)
    return StepMoments(
        m2=np.einsum("sm,sm->s", p_others, m2_rows),
        mean_sq=mean_sq,
        own=np.einsum("sm,sm->s", p_others, m2_rows - nu_sq),
        others=np.einsum("sm,sm->s", p_others, nu_sq) - mean_sq,
    )


def local_variance_oracle(pi_i, signal_row, grad_vectors):
    """Var_a[signal * score] by the two-pass textbook formula."""
    pi_i = np.asarray(pi_i, dtype=float)
    vecs = [float(signal_row[a]) * np.asarray(grad_vectors[a], dtype=float)
            for a in range(len(pi_i))]
    mean = sum(p * v for p, v in zip(pi_i, vecs))
    return float(
        sum(p * float(v @ v) for p, v in zip(pi_i, vecs)) - mean @ mean
    )


def inverse_cdf_oracle(cdf_rows, u):
    """Compare-count-clip draw: each full CDF row's entries below u, at most w - 1."""
    w = cdf_rows.shape[1]
    return (u[:, None] > cdf_rows).sum(axis=1).clip(0, w - 1)


def score_step_oracle(grads, states, own, pi_table, val):
    """One step of signal-times-score accumulation into (m, S, k) grads."""
    rows = np.arange(len(states))
    grads[rows, states] -= pi_table[states] * val[:, None]
    grads[rows, states, own] += val


def block_signals_oracle(own_sums, block_sums, blocks, own, val):
    """``add_block_signals`` as a per-sample loop, in C order: val at the
    (block, own action) cell of the flat ``own_sums`` and at its block."""
    k = own_sums.size // block_sums.size
    for b, a, v in zip(blocks.reshape(-1), own.reshape(-1), val.reshape(-1)):
        own_sums[b * k + a] += v
        block_sums[b] += v


def ppo_step_oracle(logits, old_probs, samples, eps_clip, n_samples):
    """One PPO epoch's step on one agent's (S, k) ``logits``, summed sample
    by sample over ``samples``, (state, own action, discounted signal)
    triples: coef = 0 where the ratio pi_new / pi_old clips on the
    advantage's side, else ratio * adv / ``n_samples``, times e_a - pi_new(s).
    Returns the step and the count of clipped samples."""
    new = np.exp(logits - logits.max(axis=1, keepdims=True))
    new /= new.sum(axis=1, keepdims=True)
    step, clipped = np.zeros(logits.shape), 0
    for s, a, adv in samples:
        ratio = new[s, a] / old_probs[s, a]
        if (adv > 0 and ratio > 1.0 + eps_clip) or (adv < 0 and ratio < 1.0 - eps_clip):
            clipped += 1
            continue
        score = -new[s]
        score[a] += 1.0
        step[s] += ratio * adv / n_samples * score
    return step, clipped


def rollout_oracle(game, pi_tables, m, horizon, rng):
    """rollout's draw stream sampled agent by agent with compare-count-clip
    on full CDF rows; returns the list of yielded steps."""
    cdfs = [np.cumsum(p, axis=1) for p in pi_tables]
    trans_cdf = np.cumsum(game.transition, axis=-1)
    s = np.searchsorted(np.cumsum(game.initial_dist), rng.random(m), side="right")
    s = s.clip(0, game.n_states - 1)
    steps = []
    for _ in range(horizon):
        u = rng.random((game.n_agents + 1, m))
        actions = np.array([inverse_cdf_oracle(c[s], u_j) for c, u_j in zip(cdfs, u)])
        joint = np.array([game.joint_action_index(tuple(a)) for a in actions.T])
        s_next = inverse_cdf_oracle(trans_cdf[s, joint], u[-1])
        steps.append((s, actions, joint, s_next))
        s = s_next
    return steps


def td_batch_oracle(game, policy, transitions, q, target_q, lr):
    """A TD pass over (s, joint index, reward, next state) transitions, one
    at a time in order; returns the updated copy of q."""
    joint = joint_probs_oracle(game, policy)
    expected_next = np.einsum("sa,sa->s", joint, target_q)
    q = q.copy()
    for s, a_idx, r, s_next in transitions:
        target = r + game.gamma * expected_next[s_next]
        q[s, a_idx] += lr * (target - q[s, a_idx])
    return q


def serialize_game_oracle(game):
    """A game document through json.dumps(indent=2), key by key."""
    import json

    def key(joint):
        return ",".join(game.action_spaces[i][a] for i, a in enumerate(joint))

    actions = list(itertools.product(*(range(k) for k in game.action_counts)))
    doc = {
        "n_agents": game.n_agents,
        "states": list(game.states),
        "actions": [list(a) for a in game.action_spaces],
        "gamma": game.gamma,
        "beta": game.beta,
        "initial_dist": game.initial_dist.tolist(),
        "transition": {
            game.states[s]: {
                key(a): game.transition[s, ai].tolist() for ai, a in enumerate(actions)
            }
            for s in range(game.n_states)
        },
        "reward": {
            game.states[s]: {
                key(a): float(game.reward[s, ai]) for ai, a in enumerate(actions)
            }
            for s in range(game.n_states)
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_game_oracle(text):
    """A game document decoded into one tree of Python lists and floats, then
    read state by state: the loader as it was before parse_game converted
    each state's rows while decoding. Same game, or the same ValueError."""
    import json

    from mapgvar import MarkovGame
    from mapgvar.games import _integer, _joint_keys, _real

    def state_rows(doc, table, state, keys, entry_shape):
        shape = (len(keys), *entry_shape)
        entries = doc[table][state]
        try:
            rows = np.array([entries[key] for key in keys], dtype=float)
        except ValueError:
            rows = None
        if rows is None or rows.shape != shape:
            entry = f"a list of {entry_shape[0]} numbers" if entry_shape else "a number"
            raise ValueError(f"{table}[{state!r}] must map each joint action to {entry}")
        return rows

    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a game document must be a JSON object")
    try:
        states = tuple(doc["states"])
        action_spaces = tuple(tuple(a) for a in doc["actions"])
        n_agents = _integer(doc["n_agents"], "game entry 'n_agents'")
        if len(action_spaces) != n_agents:
            raise ValueError("actions must list one action set per agent")
        keys = _joint_keys(action_spaces)
        n_states = len(states)
        transition = np.empty((n_states, len(keys), n_states))
        reward = np.empty((n_states, len(keys)))
        for s, name in enumerate(states):
            transition[s] = state_rows(doc, "transition", name, keys, (n_states,))
            reward[s] = state_rows(doc, "reward", name, keys, ())
        beta = _real(doc["beta"], "game entry 'beta'")
        gamma = _real(doc["gamma"], "game entry 'gamma'")
        initial = np.array(
            [_real(p, "game entry 'initial_dist'") for p in doc["initial_dist"]]
        )
    except KeyError as exc:
        raise ValueError(f"game document missing entry {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed game document: {exc}") from exc
    return MarkovGame(
        n_agents=n_agents, states=states, action_spaces=action_spaces,
        transition=transition, reward=reward, beta=beta, gamma=gamma,
        initial_dist=initial,
    )


def gap_bound_oracle(game, policy, agent, tables, tag, tol=1e-9):
    """One agent's centralized or COMA gap report computed on its own: its own
    bound constants, step moments and state distributions to its horizon.
    Returns (lhs, bounds, horizon, truncation_error, holds)."""
    import math

    from mapgvar import bound_constants, per_timestep_variances, state_distributions

    consts = bound_constants(game, policy, coma_tables_of(game, policy, tables))
    gamma = game.gamma
    inv = 1.0 if gamma == 0.0 else 1.0 / (1.0 - gamma**2)
    b_i = float(consts.score_norm_max[agent])
    eps_i = float(consts.adv_abs_max[agent])
    if tag is EstimatorTag.CENTRALIZED_VANILLA:
        others_sq = float(np.sum(np.delete(consts.adv_abs_max, agent) ** 2))
        bounds = (
            b_i**2 * inv * others_sq,
            (game.n_agents - 1) * (consts.adv_abs_max_overall * b_i) ** 2 * inv,
        )
        tail_scale = b_i**2 * others_sq
    else:
        bounds = ((eps_i * b_i) ** 2 * inv,)
        q_scale = game.beta if gamma == 0.0 else game.beta / (1.0 - gamma)
        tail_scale = b_i**2 * max(eps_i, q_scale) ** 2
    if gamma == 0.0 or tail_scale <= 0.0:
        horizon = 1
    else:
        horizon = max(1, math.ceil(
            math.log(tol * (1.0 - gamma**2) / tail_scale) / (2.0 * math.log(gamma))
        ))
    dists = state_distributions(game, policy, horizon - 1)
    var = [
        per_timestep_variances(
            moments_of(EstimatorKind(t, agent), game, policy, tables), dists
        )
        for t in (tag, EstimatorTag.DECENTRALIZED)
    ]
    lhs = float(gamma ** (2.0 * np.arange(horizon)) @ (var[0] - var[1]))
    tail = 0.0
    if gamma != 0.0:
        tail = gamma ** (2 * horizon) * tail_scale / (1.0 - gamma**2)
    holds = lhs <= bounds[0] + tol
    if len(bounds) == 2:
        holds = holds and bounds[0] <= bounds[1] + tol
    return lhs, bounds, horizon, tail, holds


# ---------------------------------------------------------------------------
# entry-by-entry routes to the quantities the vectorized kernels compute:
# per-step and trajectory gradients (rollout + add_block_signals, signal_table,
# step_moments), coalition marginals (marginal_q_lattice), the discounted
# occupancy (exact_policy_gradient) and the generic optimal baseline
# (ob_surrogate_discrete, signal_table(OB_X))


def per_step_gradient(kind, game, policy, tables, s, joint_action):
    """Signal times the agent's score at (s, joint action); zero elsewhere."""
    joint_action = tuple(int(a) for a in joint_action)
    i = kind.agent
    a_idx = game.joint_action_index(joint_action)
    sig = signal_table(kind, game, policy, tables.q)[s, a_idx]
    k = game.action_counts[i]
    block = -policy.probs(i, s) * sig
    block[joint_action[i]] += sig
    vec = np.zeros(param_dim(game, i))
    vec[s * k : (s + 1) * k] = block
    return vec


def trajectory_gradient(kind, game, policy, tables, trajectory, horizon=None):
    """Discounted sum of per-step contributions along one trajectory of
    (state, joint action) pairs; entries past ``horizon`` are ignored."""
    i = kind.agent
    vec = np.zeros(param_dim(game, i))
    if horizon is None:
        horizon = len(trajectory)
    sig = signal_table(kind, game, policy, tables.q)
    k = game.action_counts[i]
    scale = 1.0
    for t, (s, joint) in enumerate(trajectory):
        if t >= horizon:
            break
        joint = tuple(int(a) for a in joint)
        value = scale * sig[s, game.joint_action_index(joint)]
        vec[s * k : (s + 1) * k] -= policy.probs(i, s) * value
        vec[s * k + joint[i]] += value
        scale *= game.gamma
    return vec


def expected_per_step_gradient(kind, game, policy, tables, s):
    """Exhaustive E_{a~pi}[contribution | s] over the joint action space."""
    probs = joint_action_prob_table(game, policy)[s]
    sig = signal_table(kind, game, policy, tables.q)[s]
    i = kind.agent
    k = game.action_counts[i]
    pi_i = policy.probs(i, s)
    vec = np.zeros(k)
    for a_idx, p in enumerate(probs):
        contrib = -pi_i * sig[a_idx]
        contrib[game.joint_action(a_idx)[i]] += sig[a_idx]
        vec += p * contrib
    out = np.zeros(param_dim(game, i))
    out[s * k : (s + 1) * k] = vec
    return out


def marginal_q_tensor(game, policy, tables, subset, s):
    """Q^{subset}(s, .) over the subset agents' actions, axes ascending by
    agent; the excluded agents are integrated out from the highest down."""
    keep = set(agent_subset(subset, game.n_agents))
    t = tables.q[s].reshape(game.action_counts)
    for j in range(game.n_agents - 1, -1, -1):
        if j not in keep:
            t = np.tensordot(t, policy.probs(j, s), axes=(j, 0))
    return t


def marginal_q(game, policy, tables, subset, actions, s):
    """Expected Q at s with the coalition's actions fixed, others integrated out."""
    subset = agent_subset(subset, game.n_agents)
    actions = tuple(int(a) for a in actions)
    if len(actions) != len(subset):
        raise ValueError(
            f"{len(subset)} coalition agents but {len(actions)} actions given"
        )
    t = marginal_q_tensor(game, policy, tables, subset, s)
    # tensor axes are in ascending agent order; reorder the given actions to match
    idx = tuple(actions[int(j)] for j in np.argsort(subset))
    return float(t[idx])


def multi_agent_advantage(
    game, policy, tables, s, given, given_actions, of, of_actions
):
    """Q^{given+of}(s, both blocks) - Q^{given}(s, given block), for
    disjoint coalitions."""
    given = agent_subset(given, game.n_agents)
    of = agent_subset(of, game.n_agents)
    if set(given) & set(of):
        raise ValueError(f"coalitions overlap: {sorted(set(given) & set(of))}")
    both_actions = tuple(given_actions) + tuple(of_actions)
    return marginal_q(game, policy, tables, given + of, both_actions, s) - marginal_q(
        game, policy, tables, given, given_actions, s
    )


def discounted_state_occupancy(game, policy):
    """eta = sum_t gamma^t d^t, solved exactly from eta = d0 + gamma P_pi^T eta."""
    p_pi = policy_transition(game, policy)
    m = np.eye(game.n_states) - game.gamma * p_pi.T
    return np.linalg.solve(m, game.initial_dist)


def ob_exact(q_row, grad_vectors, pi_i):
    """Optimal baseline for arbitrary per-action score vectors (one row per
    action): the pi * ||score||^2-weighted mean of the Q-row."""
    q_row = np.asarray(q_row, dtype=float)
    pi_i = np.asarray(pi_i, dtype=float)
    grads = np.asarray(grad_vectors, dtype=float)
    norms = np.einsum("ad,ad->a", grads, grads)
    denom = float(pi_i @ norms)
    if denom <= 0.0:
        raise ZeroDivisionError("all score vectors vanish; baseline undefined")
    return float(pi_i @ (q_row * norms)) / denom


def compare_baselines(
    game,
    base_config,
    baseline_tags=(BaselineTag.NONE, BaselineTag.COMA, BaselineTag.OB_SURROGATE),
    seeds=(0, 1, 2, 3, 4),
):
    """Train once per (baseline, seed) with seeds shared across baselines and
    summarize gradient-estimate variance and final return per baseline."""
    seeds = tuple(int(s) for s in seeds)
    if len(seeds) < 5:
        raise ValueError("paired comparison needs at least 5 seeds")
    rows = []
    for tag in baseline_tags:
        per_seed_var = []
        per_seed_final = []
        for seed in seeds:
            cfg = replace(base_config, baseline=BaselineKind(tag), seed=seed)
            result = train(game, None, cfg)
            per_seed_var.append(float(np.mean(result.history.grad_variance)))
            per_seed_final.append(result.history.returns[-1])
        rows.append(
            {
                "baseline": tag.value,
                "seeds": list(seeds),
                "mean_grad_variance": float(np.mean(per_seed_var)),
                "sd_grad_variance": float(np.std(per_seed_var, ddof=1)),
                "mean_final_return": float(np.mean(per_seed_final)),
                "sd_final_return": float(np.std(per_seed_final, ddof=1)),
                "per_seed_grad_variance": per_seed_var,
                "per_seed_final_return": per_seed_final,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# verify's suites one call at a time: the per-call forms that check_game's
# per-state kernels replace, kept as the bit-for-bit reference


def _joint_draw_oracle(game, policy, tables, s, order, prefix):
    """(t, probs, w, lhs) of the non-prefix agents' joint draw at s, axes in
    ``order`` (default ascending)."""
    idx = [slice(None)] * game.n_agents
    for agent, action in prefix:
        idx[agent] = action
    rest = sorted(set(range(game.n_agents)) - {a for a, _ in prefix})
    order = tuple(rest) if order is None else tuple(order)
    t = tables.q[s].reshape(game.action_counts)[tuple(idx)]
    if order:
        t = np.transpose(t, [rest.index(a) for a in order])
    probs = [policy.probs(a, s) for a in order]
    w = np.ones(())
    for p in probs:
        w = np.multiply.outer(w, p)
    mean = float((w * t).sum())
    lhs = float((w * t**2).sum()) - mean**2
    return t, probs, w, lhs


def variance_identity_oracle(game, policy, tables, s, order=None, prefix=()):
    """The advantage-variance identity's (lhs, rhs), through np.tensordot."""
    t, probs, _, lhs = _joint_draw_oracle(game, policy, tables, s, order, prefix)
    partials = [t]
    for r in range(len(probs) - 1, 0, -1):
        partials.append(np.tensordot(partials[-1], probs[r], axes=(r, 0)))
    partials.reverse()
    rhs = 0.0
    w_before = np.ones(())
    for j, (partial, p) in enumerate(zip(partials, probs)):
        e1 = np.tensordot(partial, p, axes=(j, 0))
        e2 = np.tensordot(partial**2, p, axes=(j, 0))
        rhs += float((w_before * (e2 - e1**2)).sum())
        w_before = np.multiply.outer(w_before, p)
    return lhs, rhs


def variance_bound_oracle(game, policy, tables, s):
    """The advantage-variance bound's (lhs, rhs), through np.tensordot."""
    t, probs, w, lhs = _joint_draw_oracle(game, policy, tables, s, None, ())
    rhs = 0.0
    for j in range(len(probs)):
        cond_mean = np.tensordot(t, probs[j], axes=(j, 0))
        adv = t - np.expand_dims(cond_mean, axis=j)
        m1 = float((w * adv).sum())
        rhs += float((w * adv**2).sum()) - m1**2
    return lhs, rhs


def decomposition_oracle(game, policy, tables, s, order, actions, prefix_len):
    """The advantage decomposition's (lhs, rhs), one marginal per term."""

    def q(j):
        return marginal_q(game, policy, tables, order[:j], actions[:j], s)

    lhs = q(len(order)) - q(prefix_len)
    rhs = 0.0
    for j in range(prefix_len, len(order)):
        rhs += q(j + 1) - q(j)
    return lhs, rhs


def _local_variance(pi_i, signal_row, scores):
    """``local_variance`` of one signal row, on its own: centered, from the
    (k, k) score vectors ``scores``."""
    v = signal_row[:, None] * scores
    dev = v - (pi_i[:, None] * v).sum(axis=0)
    return float((pi_i * (dev * dev).sum(axis=1)).sum())


def check_game_oracle(game, policy, tables, rng, sabotage=False):
    """``verify.check_game`` with every suite run one call at a time: the
    same draws from ``rng``, the same checks and the same bits."""
    from mapgvar import (
        EstimatorTag,
        baseline_excess_variance,
        excess_variance_bounds,
        expected_score_norm_sq,
        ob_surrogate_discrete,
        score_geometry,
    )
    from mapgvar.estimators import IDENTITY_TOL, agent_axis_view, agent_prob_table
    from mapgvar.verify import SUITES

    n = game.n_agents
    orders = list(itertools.permutations(range(n))) if n <= 4 else [tuple(range(n))]
    tol = IDENTITY_TOL
    found = {name: [] for name in SUITES}

    for s in range(game.n_states):
        actions = tuple(int(rng.integers(k)) for k in game.action_counts)
        for order in orders:
            acts = tuple(actions[i] for i in order)
            for prefix_len in range(min(n, 2)):
                lhs, rhs = decomposition_oracle(
                    game, policy, tables, s, order, acts, prefix_len
                )
                if sabotage:
                    rhs = rhs + 1.0
                err = abs(lhs - rhs)
                found["advantage_decomposition"].append((err > tol, err))

    for s in range(game.n_states):
        cases = [(order, ()) for order in orders]
        if n >= 2:
            cases.append((None, ((0, 0),)))
        for order, prefix in cases:
            lhs, rhs = variance_identity_oracle(game, policy, tables, s, order, prefix)
            if sabotage:
                rhs = -rhs
            err = abs(lhs - rhs)
            found["advantage_variance_identity"].append((err > tol, err))

    for s in range(game.n_states):
        lhs, rhs = variance_bound_oracle(game, policy, tables, s)
        slack = rhs - lhs
        found["advantage_variance_bound"].append((slack < -tol, slack))

    for agent in range(n):
        for name, tag in (("centralized_gap_bound", EstimatorTag.CENTRALIZED_VANILLA),
                          ("coma_gap_bound", EstimatorTag.COMA)):
            report = gap_bound_oracle(game, policy, agent, tables, tag)
            lhs, bounds, _, _, holds = report
            found[name].append((not holds, min(b - lhs for b in bounds)))

    for agent in range(n):
        rows = agent_axis_view(game, tables.q, agent)
        pi_i = agent_prob_table(game, policy, agent)
        s = int(rng.integers(0, game.n_states))
        m = int(rng.integers(0, rows.shape[1]))
        q_row = rows[s, m]
        pi_row = pi_i[s]
        scores = score_geometry(pi_row)[0]
        # score_geometry is shared with verify, so anchor it to e_a - pi here
        np.testing.assert_allclose(
            scores, np.eye(len(pi_row)) - pi_row, rtol=0, atol=4 * np.finfo(float).eps
        )
        b_star = ob_surrogate_discrete(q_row, pi_row)
        base_var = _local_variance(pi_row, q_row - b_star, scores)
        score_sq = expected_score_norm_sq(pi_row)
        for b in np.linspace(b_star - 5.0, b_star + 5.0, 21):
            direct = _local_variance(pi_row, q_row - b, scores) - base_var
            err = abs(direct - baseline_excess_variance(b, b_star, score_sq))
            found["optimal_baseline_identity"].append((err > tol, err))
            found["optimal_baseline_scan"].append((direct < -tol, direct))
        bounds = excess_variance_bounds(q_row, pi_row)
        found["excess_variance_bounds"].append((not bounds.holds, None))

    return found


def tally_oracle(found):
    """``verify.tally`` as the fold it replaced: one running tally per
    suite, each game's checks folded into it in turn, game after game, and
    an infinite statistic turned into None at the end."""
    from mapgvar.verify import SUITES

    tallies = {}
    for name, stat in SUITES.items():
        tallies[name] = {"checks": 0, "violations": 0}
        if stat is not None:
            tallies[name][stat[0]] = stat[2]
    for game in found:
        for name, checks in game.items():
            entry, stat = tallies[name], SUITES[name]
            violated, values = zip(*checks)
            entry["checks"] += len(checks)
            entry["violations"] += sum(map(bool, violated))
            if stat is not None:
                key, fold, _ = stat
                entry[key] = fold(entry[key], fold(values))
    for entry in tallies.values():
        for key, value in entry.items():
            if isinstance(value, float) and math.isinf(value):
                entry[key] = None
    return tallies
