"""Finite Markov games: representation, validation, generation, serialization.

A game is the tuple (agent set, states, per-agent action sets, transition
kernel, bounded reward, discount, initial state distribution). Joint actions
are canonical tuples ordered by agent index; every flattened table in this
package indexes joint actions by their lexicographic rank, so cross-module
indexing is unambiguous.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .processes import _in_processes

DEFAULT_ENUMERATION_CAP = 10_000_000
DIST_TOL = 1e-12
# Transition entries per range of serialize_game's transition map, at least:
# a range is whole states, and a map of fewer than two ranges is one task, so
# it never forks. Two ranges on two CPUs of a 2-vCPU VM (2-agent, 3-action
# games, 31-61 interleaved repeats) took 1.73, 1.16-1.35, 0.76-1.20 and
# 0.71-0.89 times the one-range time at 1 800, 7 200, 10 000-14 000 and
# 16 000-36 000 entries per range; a fork, pipe and reap cost about 4 ms.
TRANSITION_RANGE_ENTRIES = 12_000


class EnumerationCapExceeded(ValueError):
    """A requested table would exceed the exact-enumeration size cap."""


def _read_only(a: np.ndarray) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MarkovGame:
    """Immutable finite Markov game.

    transition has shape (n_states, n_joint_actions, n_states); reward has
    shape (n_states, n_joint_actions). Rows of ``transition`` are probability
    vectors over successor states. ``beta`` bounds |reward| and ``gamma`` in
    [0, 1) is the discount. Every agent has at least one action. State names
    are distinct strings, and so are the comma-joined joint-action keys, which
    name the rows of a game file.
    Construction checks all of this, so every way of making a game (a file,
    a generator, ``dataclasses.replace``) raises ValueError on a broken
    contract. Immutable after construction; safe to share across workers.
    """

    n_agents: int
    states: tuple[str, ...]
    action_spaces: tuple[tuple[str, ...], ...]
    transition: np.ndarray
    reward: np.ndarray
    beta: float
    gamma: float
    initial_dist: np.ndarray

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        if len(self.action_spaces) != self.n_agents:
            raise ValueError("one action space per agent required")
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(
            self, "action_spaces", tuple(tuple(a) for a in self.action_spaces)
        )
        _check_names(self.states, self.action_spaces)
        object.__setattr__(self, "transition", _read_only(self.transition))
        object.__setattr__(self, "reward", _read_only(self.reward))
        object.__setattr__(self, "initial_dist", _read_only(self.initial_dist))
        s, a = self.n_states, self.n_joint_actions
        if self.transition.shape != (s, a, s):
            raise ValueError(
                f"transition shape {self.transition.shape} != {(s, a, s)}"
            )
        if self.reward.shape != (s, a):
            raise ValueError(f"reward shape {self.reward.shape} != {(s, a)}")
        if self.initial_dist.shape != (s,):
            raise ValueError("initial_dist must have one entry per state")
        for name, arr in (
            ("transition", self.transition),
            ("reward", self.reward),
            ("initial_dist", self.initial_dist),
        ):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be a positive finite real")
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        violations = _violations(self)
        if violations:
            raise ValueError(f"{len(violations)} violation(s): {violations[0]}")

    @property
    def n_states(self) -> int:
        return len(self.states)

    # computed once per game: the hot loops read these thousands of times
    @functools.cached_property
    def action_counts(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.action_spaces)

    @functools.cached_property
    def n_joint_actions(self) -> int:
        return int(np.prod(self.action_counts))

    def joint_action_index(self, actions) -> int:
        """Lexicographic rank of a joint-action tuple (agent-major order)."""
        idx = 0
        for count, a in zip(self.action_counts, actions):
            if not 0 <= a < count:
                raise IndexError(f"action index {a} out of range")
            idx = idx * count + a
        return idx

    def joint_action(self, index: int) -> tuple[int, ...]:
        out = []
        for count in reversed(self.action_counts):
            index, a = divmod(index, count)
            out.append(a)
        return tuple(reversed(out))

    def __eq__(self, other):
        if not isinstance(other, MarkovGame):
            return NotImplemented
        return (
            self.n_agents == other.n_agents
            and self.states == other.states
            and self.action_spaces == other.action_spaces
            and self.beta == other.beta
            and self.gamma == other.gamma
            and np.array_equal(self.transition, other.transition)
            and np.array_equal(self.reward, other.reward)
            and np.array_equal(self.initial_dist, other.initial_dist)
        )


def _integer(value, entry: str) -> int:
    """``int(value)`` for a document's integer ``entry``, which may be an
    integral float such as 8.0; a bool, a string or a fractional number
    raises ValueError rather than being converted."""
    if isinstance(value, (bool, str)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(f"{entry} must be an integer, not {value!r}")
    return int(value)


def _real(value, entry: str) -> float:
    """``float(value)`` for a document's real-number ``entry``; a bool or a
    string raises ValueError rather than being converted."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{entry} must be a real number, not {value!r}")
    return float(value)


def _joint_keys(action_spaces) -> list[str]:
    """Comma-joined action names of every joint action, in rank order."""
    return [",".join(names) for names in itertools.product(*action_spaces)]


def _check_names(states, action_spaces) -> None:
    """Names must be strings that key a game file's rows unambiguously."""
    names = [*states, *itertools.chain.from_iterable(action_spaces)]
    if not all(isinstance(name, str) for name in names):
        raise ValueError("state and action names must be strings")
    if len(set(states)) != len(states):
        raise ValueError(f"duplicate state names in {list(states)!r}")
    for i, actions in enumerate(action_spaces):
        if not actions:  # no joint action, so a game file would have no rows
            raise ValueError(f"agent {i} has no actions")
        if len(set(actions)) != len(actions):
            raise ValueError(f"duplicate action names for agent {i}: {list(actions)!r}")
    # distinct names without commas always join to distinct keys
    if any("," in name for actions in action_spaces for name in actions):
        keys = _joint_keys(action_spaces)
        if len(set(keys)) != len(keys):
            clash = next(k for k in keys if keys.count(k) > 1)
            raise ValueError(f"joint actions share the key {clash!r}")


def _violations(game: MarkovGame) -> list[str]:
    """Every broken invariant of the contract the structural checks leave:
    stochastic rows, |reward| <= beta, an initial distribution, gamma in
    [0, 1)."""
    violations = []
    negative = np.any(game.transition < 0, axis=2)
    sums = game.transition.sum(axis=2)
    bad_sum = np.abs(sums - 1.0) > DIST_TOL
    unbounded = np.abs(game.reward) > game.beta
    for s, ai in zip(*np.nonzero(negative | bad_sum | unbounded)):
        where = f"state={game.states[s]} action={game.joint_action(int(ai))}"
        if negative[s, ai]:
            violations.append(f"negative-prob {where}")
        if bad_sum[s, ai]:
            violations.append(f"row-sum {where} sum={float(sums[s, ai])!r}")
        if unbounded[s, ai]:
            violations.append(
                f"reward-bound {where} value={float(game.reward[s, ai])!r}"
                f" beta={game.beta!r}"
            )
    if np.any(game.initial_dist < 0):
        violations.append("initial-dist has negative entries")
    total = float(game.initial_dist.sum())
    if abs(total - 1.0) > DIST_TOL:
        violations.append(f"initial-dist sum={total!r}")
    if not 0.0 <= game.gamma < 1.0:
        violations.append(f"gamma out of [0,1): {game.gamma!r}")
    return violations


def random_game(
    n_agents: int,
    n_states: int,
    n_actions: int,
    seed: int,
) -> MarkovGame:
    """Deterministic random game with gamma in [0.8, 0.99] and |reward| <= 1."""
    if min(n_agents, n_states, n_actions) < 1:
        raise ValueError("all sizes must be >= 1")
    n_joint = n_actions**n_agents
    # the transition table, the largest, holds S * J * S entries
    if n_states * n_joint * n_states > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"{n_states * n_joint * n_states} transition entries exceeds the cap "
            f"of {DEFAULT_ENUMERATION_CAP}"
        )
    rng = np.random.default_rng(seed)
    transition = rng.dirichlet(np.ones(n_states), size=(n_states, n_joint))
    reward = rng.uniform(-1.0, 1.0, size=(n_states, n_joint))
    gamma = float(rng.uniform(0.8, 0.99))
    initial = rng.dirichlet(np.ones(n_states))
    return MarkovGame(
        n_agents=n_agents,
        states=tuple(f"s{i}" for i in range(n_states)),
        action_spaces=tuple(
            tuple(f"a{j}" for j in range(n_actions)) for _ in range(n_agents)
        ),
        transition=transition,
        reward=reward,
        beta=1.0,
        gamma=gamma,
        initial_dist=initial,
    )


def _json_map(keys, values, indent: str) -> str:
    """A JSON object of pre-encoded keys and values, laid out as
    json.dumps(..., indent=2) lays it out at nesting prefix ``indent``."""
    if not keys:
        return "{}"
    inner = indent + "  "
    items = f",\n{inner}".join(f"{k}: {v}" for k, v in zip(keys, values))
    return f"{{\n{inner}{items}\n{indent}}}"


def serialize_game(game: MarkovGame) -> str:
    """Lossless UTF-8 JSON text for a game; parse_game inverts it exactly:
    ``_game_text_pieces`` joined."""
    return "".join(_game_text_pieces(game))


def _game_text_pieces(game: MarkovGame) -> list[str]:
    """The pieces of ``serialize_game``'s text, in order.

    The text is json.dumps(doc, indent=2) of the game document. Only the
    header goes through json; the transition and reward maps, almost all of
    the text, are joined from float reprs and escaped keys at the same
    indents, since json's indenting encoder runs in pure Python. The
    transition map is rendered in ranges of consecutive states, each range
    an ``_in_processes`` task that returns one string, so the bytes do not
    depend on the process count.
    """
    header = json.dumps(
        {
            "n_agents": game.n_agents,
            "states": list(game.states),
            "actions": [list(a) for a in game.action_spaces],
            "gamma": game.gamma,
            "beta": game.beta,
            "initial_dist": game.initial_dist.tolist(),
        },
        indent=2,
    )
    states = [encode_basestring_ascii(name) for name in game.states]
    actions = [encode_basestring_ascii(key) for key in _joint_keys(game.action_spaces)]
    value_sep = ",\n" + " " * 8

    def transition_row(row):
        return f"[\n        {value_sep.join(map(float.__repr__, row))}\n      ]"

    def state_items(table, encode, span) -> str:
        # the span's "state: {...}" items of a map at indent "  ", each after
        # the map's opening or a separator, so that ranges concatenate; one
        # state at a time, so only one state's Python floats are alive
        return "".join(
            ("," if s else "{") + f"\n    {states[s]}: "
            + _json_map(actions, list(map(encode, table[s].tolist())), "    ")
            for s in span
        )

    n_states = game.n_states
    per_range = -(-TRANSITION_RANGE_ENTRIES // max(1, game.transition[0].size))
    n_ranges = max(1, n_states // per_range)
    spans = [range(n_states * r // n_ranges, n_states * (r + 1) // n_ranges)
             for r in range(n_ranges)]
    ranges = _in_processes(
        lambda span: state_items(game.transition, transition_row, span), spans
    )
    return [
        f'{header[:-2]},\n  "transition": ',
        *ranges,
        '\n  },\n  "reward": ',
        state_items(game.reward, float.__repr__, range(n_states)),
        "\n  }\n}\n",
    ]


def _float_rows(obj: dict) -> dict:
    """``json.loads``' object hook. An object whose values are all arrays
    that make one float array, as a state's transition rows do, maps its keys
    to that array's rows, so the decoder frees each state's Python floats as
    it finishes the state; any other object stays as decoded."""
    if not obj or not all(type(v) is list for v in obj.values()):
        return obj
    try:
        rows = np.array(list(obj.values()), dtype=float)
    except (ValueError, TypeError, OverflowError):  # ragged, not numbers, too large
        return obj
    return dict(zip(obj, rows))


def parse_game(text: str) -> MarkovGame:
    """Invert serialize_game. A malformed document raises ValueError.

    The document is decoded once, through ``_float_rows``, so its numbers
    never all exist as Python floats at once."""
    return MarkovGame(**_game_entries(json.loads(text, object_hook=_float_rows)))


def _game_entries(doc) -> dict:
    """MarkovGame's fields read from a decoded document; a malformed one
    raises ValueError."""
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
            transition[s] = _state_rows(doc, "transition", name, keys, (n_states,))
            reward[s] = _state_rows(doc, "reward", name, keys, ())
        beta = _real(doc["beta"], "game entry 'beta'")
        gamma = _real(doc["gamma"], "game entry 'gamma'")
        initial = np.array(
            [_real(p, "game entry 'initial_dist'") for p in doc["initial_dist"]]
        )
    except KeyError as exc:
        raise ValueError(f"game document missing entry {exc}") from exc
    # OverflowError: an int past float range; IndexError: a table whose
    # states map to arrays, which _float_rows turned into one float array
    except (TypeError, OverflowError, IndexError) as exc:
        raise ValueError(f"malformed game document: {exc}") from exc
    return dict(
        n_agents=n_agents,
        states=states,
        action_spaces=action_spaces,
        transition=transition,
        reward=reward,
        beta=beta,
        gamma=gamma,
        initial_dist=initial,
    )


def _state_rows(doc, table: str, state: str, keys, entry_shape) -> np.ndarray:
    """A state's entries of one table, in joint-action rank order, as one
    array; every entry must have ``entry_shape``."""
    shape = (len(keys), *entry_shape)
    entries = doc[table][state]
    try:
        rows = np.array([entries[key] for key in keys], dtype=float)
    except ValueError:  # ragged rows or entries that are not numbers
        rows = None
    if rows is None or rows.shape != shape:
        entry = f"a list of {entry_shape[0]} numbers" if entry_shape else "a number"
        raise ValueError(f"{table}[{state!r}] must map each joint action to {entry}")
    return rows


def save_game(game: MarkovGame, path) -> None:
    """Write ``serialize_game``'s text piece by piece, never joined, so the
    text is held about once."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_game_text_pieces(game))


def load_game(path) -> MarkovGame:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_game(fh.read())
