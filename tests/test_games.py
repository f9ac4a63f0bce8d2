import dataclasses
import itertools
import json
import os
import re
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mapgvar import (
    EnumerationCapExceeded,
    MarkovGame,
    load_game,
    parse_game,
    random_game,
    save_game,
    serialize_game,
    toy_game,
)
from mapgvar import games, processes
from mapgvar.cli import main
from mapgvar.toy import TOY_Q
from conftest import assert_no_child_left, counting_forks
from oracles import parse_game_oracle, serialize_game_oracle


def tiny_game(**overrides):
    kwargs = dict(
        n_agents=2,
        states=("s0",),
        action_spaces=(("a0", "a1"), ("a0", "a1")),
        transition=np.ones((1, 4, 1)),
        reward=np.zeros((1, 4)),
        beta=1.0,
        gamma=0.0,
        initial_dist=np.array([1.0]),
    )
    kwargs.update(overrides)
    return MarkovGame(**kwargs)


# ---------------------------------------------------------------------------
# construction and indexing


def test_shape_validation():
    with pytest.raises(ValueError, match="transition shape"):
        tiny_game(transition=np.ones((1, 3, 1)))
    with pytest.raises(ValueError, match="reward shape"):
        tiny_game(reward=np.zeros((1, 5)))
    with pytest.raises(ValueError, match="one entry per state"):
        tiny_game(initial_dist=np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="one action space per agent"):
        tiny_game(action_spaces=(("a0", "a1"),))
    with pytest.raises(ValueError, match="beta"):
        tiny_game(beta=0.0)
    with pytest.raises(ValueError, match="non-finite"):
        tiny_game(reward=np.full((1, 4), np.nan))


def test_arrays_are_read_only():
    game = tiny_game()
    with pytest.raises(ValueError):
        game.reward[0, 0] = 1.0


def test_joint_action_index_is_c_order():
    game = random_game(3, 2, 3, seed=7)
    combos = list(itertools.product(*(range(k) for k in game.action_counts)))
    for rank, combo in enumerate(combos):
        assert game.joint_action_index(combo) == rank
        assert game.joint_action(rank) == combo


def test_joint_action_index_range_check():
    game = tiny_game()
    with pytest.raises(IndexError):
        game.joint_action_index((0, 2))


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        random_game(12, 3, 8, seed=0)  # 3 * 8^12 table entries


# ---------------------------------------------------------------------------
# validation: every way of making a game checks the whole contract


def holds_contract(game) -> bool:
    """The game contract, restated: stochastic rows, |r| <= beta, an initial
    distribution and gamma in [0, 1)."""
    return bool(
        np.all(game.transition >= 0)
        and np.all(np.abs(game.transition.sum(axis=2) - 1.0) <= 1e-12)
        and np.all(np.abs(game.reward) <= game.beta)
        and np.all(game.initial_dist >= 0)
        and abs(game.initial_dist.sum() - 1.0) <= 1e-12
        and 0.0 <= game.gamma < 1.0
    )


def assert_rejected(valid, message, **broken):
    """MarkovGame(...), dataclasses.replace and parse_game each refuse
    ``valid`` with the fields ``broken``, raising ValueError whose text
    starts with ``message``: the line the CLI prints after "error: "."""
    fields = {f.name: getattr(valid, f.name) for f in dataclasses.fields(valid)}
    fields.update(broken)
    text = serialize_game_oracle(
        SimpleNamespace(**fields, n_states=valid.n_states,
                        action_counts=valid.action_counts)
    )
    routes = (
        lambda: MarkovGame(**fields),
        lambda: dataclasses.replace(valid, **broken),
        lambda: parse_game(text),
    )
    for build in routes:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            build()


def test_random_games_validate(corpus30):
    for game, _, _ in corpus30:
        assert holds_contract(game)
        assert holds_contract(parse_game(serialize_game(game)))


def test_validate_flags_bad_rows():
    bad_transition = np.ones((1, 4, 1))
    bad_transition[0, 2, 0] = 0.5
    cases = [
        ("1 violation(s): row-sum state=s0 action=(1, 0) sum=0.5",
         dict(transition=bad_transition)),
        ("4 violation(s): reward-bound state=s0 action=(0, 0) value=2.0 beta=1.0",
         dict(reward=np.full((1, 4), 2.0))),
        ("1 violation(s): gamma out of [0,1): 1.0", dict(gamma=1.0)),
        ("1 violation(s): gamma out of [0,1): -0.5", dict(gamma=-0.5)),
        ("1 violation(s): initial-dist sum=0.5", dict(initial_dist=np.array([0.5]))),
    ]
    for message, broken in cases:
        assert_rejected(tiny_game(), message, **broken)


def test_validate_flags_negative_probs():
    # every row sums to 1, so only the sign check can fire
    t2 = np.zeros((2, 4, 2))
    t2[:, :, 0] = 1.5
    t2[:, :, 1] = -0.5
    first = "negative-prob state=s0 action=(0, 0)"
    assert_rejected(_named_game(), f"8 violation(s): {first}", transition=t2)
    assert_rejected(_named_game(), "1 violation(s): initial-dist has negative entries",
                    initial_dist=np.array([1.5, -0.5]))


def test_parse_game_rejects_gamma_one(tmp_path):
    # gamma = 1 has no finite discounted return, so the game file is refused
    doc = json.loads(serialize_game(random_game(2, 3, 2, seed=3)))
    path = tmp_path / "gamma-one.json"
    path.write_text(json.dumps({**doc, "gamma": 1.0}, indent=2) + "\n",
                    encoding="utf-8")
    for read in (lambda: parse_game(path.read_text(encoding="utf-8")),
                 lambda: load_game(path)):
        with pytest.raises(ValueError, match=re.escape("gamma out of [0,1): 1.0")):
            read()


@pytest.mark.parametrize(
    "entry, value, message",
    [
        ("gamma", "0.9", "game entry 'gamma' must be a real number, not '0.9'"),
        ("n_agents", 2.7, "game entry 'n_agents' must be an integer, not 2.7"),
        ("n_agents", "2", "game entry 'n_agents' must be an integer, not '2'"),
        ("beta", True, "game entry 'beta' must be a real number, not True"),
        ("initial_dist", ["0.5", "0.5"],
         "game entry 'initial_dist' must be a real number, not '0.5'"),
    ],
)
def test_wrongly_typed_entries_are_not_converted(entry, value, message):
    doc = json.loads(serialize_game(random_game(2, 2, 2, seed=3)))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_game(json.dumps({**doc, entry: value}))


def test_integral_float_n_agents_still_parses():
    game = random_game(2, 2, 2, seed=3)
    doc = json.loads(serialize_game(game))
    assert parse_game(json.dumps({**doc, "n_agents": 2.0})) == game


# ---------------------------------------------------------------------------
# generators


def test_random_game_is_deterministic():
    a = random_game(3, 2, 2, seed=123)
    b = random_game(3, 2, 2, seed=123)
    assert a == b
    c = random_game(3, 2, 2, seed=124)
    assert a != c


def test_random_game_ranges():
    for seed in range(20):
        game = random_game(2, 3, 3, seed=seed)
        assert 0.8 <= game.gamma <= 0.99
        assert np.abs(game.reward).max() <= game.beta == 1.0
        assert holds_contract(game)


def test_one_step_game_lift():
    # the worked example lifts a one-step payoff to one state with a self-loop
    game = toy_game()
    assert game.n_states == 1
    assert game.gamma == 0.0
    assert game.beta == 100.0  # max |payoff|
    assert np.array_equal(game.reward[0], TOY_Q)
    assert np.all(game.transition == 1.0)
    assert holds_contract(game)


# ---------------------------------------------------------------------------
# serialization


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_serialize_round_trip(seed):
    rng = np.random.default_rng(seed)
    game = random_game(
        int(rng.integers(1, 4)),
        int(rng.integers(1, 4)),
        int(rng.integers(2, 4)),
        seed=seed,
    )
    again = parse_game(serialize_game(game))
    assert again == game


def test_serialize_is_stable():
    game = random_game(2, 2, 2, seed=5)
    assert serialize_game(game) == serialize_game(game)
    assert serialize_game(game).endswith("\n")


def test_save_load(tmp_path):
    game = random_game(2, 3, 2, seed=11)
    path = tmp_path / "game.json"
    save_game(game, path)
    assert load_game(path) == game


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_game("{}")
    with pytest.raises(ValueError):
        parse_game("not json at all")


# names that need JSON escaping: quotes, backslashes, control and non-ASCII
NAME_CHARS = st.sampled_from(
    ['"', "\\", "\n", "\x00", "é", "☃", "𝄞", ",", "a", "b", " "]
)
NAME = st.text(NAME_CHARS, max_size=4)
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, 0.1, 1.0 / 3.0)
TINY_FLOATS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n_agents=st.integers(1, 3),
    n_states=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_serialize_equals_json_dumps_of_the_document(data, n_agents, n_states, seed):
    from oracles import serialize_game_oracle

    states = data.draw(
        st.lists(NAME, min_size=n_states, max_size=n_states, unique=True)
    )
    action_spaces = tuple(
        tuple(data.draw(st.lists(NAME, min_size=1, max_size=4, unique=True)))
        for _ in range(n_agents)
    )
    keys = [",".join(names) for names in itertools.product(*action_spaces)]
    assume(len(set(keys)) == len(keys))  # names with commas may collide
    rng = np.random.default_rng(seed)
    n_joint = len(keys)

    def table(*shape, specials=SPECIAL_FLOATS):
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        special = rng.choice(specials, size=shape)
        return np.where(rng.random(shape) < 0.2, special, values)

    def distributions(*shape):
        # floats of every magnitude, normalized, and tiny special floats; each
        # row's largest entry is then set to 1 minus the rest
        rows = np.abs(table(*shape, specials=(1.0,)))
        rows /= rows.sum(axis=-1, keepdims=True)
        tiny = rng.choice(TINY_FLOATS, size=shape)
        rows = np.where(rng.random(shape) < 0.2, tiny, rows)
        top = rows.argmax(axis=-1)[..., None]
        np.put_along_axis(rows, top, 0.0, axis=-1)
        np.put_along_axis(rows, top, 1.0 - rows.sum(axis=-1, keepdims=True), axis=-1)
        return rows

    reward = table(n_states, n_joint)
    game = MarkovGame(
        n_agents=n_agents,
        states=tuple(states),
        action_spaces=action_spaces,
        transition=distributions(n_states, n_joint, n_states),
        reward=reward,
        beta=max(float(np.abs(reward).max()), float(rng.uniform(0.5, 2.0))),
        gamma=data.draw(st.sampled_from([0, 0.0, 0.95, float(rng.random())])),
        initial_dist=distributions(n_states),
    )
    text = serialize_game(game)
    assert text == serialize_game_oracle(game)
    assert parse_game(text) == game


def _named_game(states=("s0", "s1"), action_spaces=(("a", "b"), ("c", "d"))):
    n_joint = int(np.prod([len(a) for a in action_spaces]))
    n = len(states)
    return MarkovGame(
        n_agents=len(action_spaces),
        states=states,
        action_spaces=action_spaces,
        transition=np.full((n, n_joint, n), 1.0 / n),
        reward=np.zeros((n, n_joint)),
        beta=1.0,
        gamma=0.5,
        initial_dist=np.full(n, 1.0 / n),
    )


@pytest.mark.parametrize(
    "names, message",
    [
        (dict(states=("s0", "s0")), "duplicate state names"),
        (dict(action_spaces=(("a", "a"), ("c", "d"))), "duplicate action names"),
        (dict(action_spaces=(("a,b", "a"), ("c", "b,c"))), "share the key 'a,b,c'"),
        (dict(states=("s0", 1)), "must be strings"),
        (dict(action_spaces=(("a", "b"), (0, 1))), "must be strings"),
        (dict(action_spaces=(("a", "b"), ())), "agent 1 has no actions"),
    ],
)
def test_names_that_would_not_round_trip_are_rejected(names, message):
    with pytest.raises(ValueError, match=message):
        _named_game(**names)


def test_commas_in_action_names_are_fine_when_keys_stay_distinct():
    game = _named_game(action_spaces=(("a,b", "a"), ("c", "d")))
    assert parse_game(serialize_game(game)) == game


# ---------------------------------------------------------------------------
# the transition map's ranges on any number of processes


def _escaped_names_game():
    """Seven states and six joint actions whose names need JSON escaping."""
    rng = np.random.default_rng(9)
    states = ('q"uote', "back\\slash", "\u00fcml\u00e4ut", "new\nline", "\x00",
              "\u2603", "\U0001d11e")
    action_spaces = (('a"0', "\u2603", "\x1f"), ("x,y", "tab\t"))
    return MarkovGame(
        n_agents=2,
        states=states,
        action_spaces=action_spaces,
        transition=rng.dirichlet(np.ones(7), size=(7, 6)),
        reward=rng.uniform(-1.0, 1.0, size=(7, 6)),
        beta=1.0,
        gamma=0.9,
        initial_dist=rng.dirichlet(np.ones(7)),
    )


# under a rule of 60 entries per range: 11 states of 44 entries make ranges of
# 2, 2, 2, 2 and 3 states, one state of 216 entries one range, and 7 states of
# 42 entries ranges of 2, 2 and 3
RANGE_CASES = pytest.mark.parametrize(
    "make, sizes",
    [
        (lambda: random_game(2, 11, 2, seed=3), [2, 2, 2, 2, 3]),
        (lambda: random_game(3, 1, 6, seed=4), [1]),
        (_escaped_names_game, [2, 2, 3]),
    ],
    ids=["uneven-ranges", "one-state", "escaped-names"],
)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@RANGE_CASES
def test_serialize_does_not_depend_on_the_process_count(monkeypatch, cpus, make, sizes):
    game = make()
    monkeypatch.setattr(games, "TRANSITION_RANGE_ENTRIES", 60)
    monkeypatch.setattr(processes, "_cpu_count", lambda: 1)
    one_process = serialize_game(game)
    monkeypatch.setattr(processes, "_cpu_count", lambda: cpus)
    in_processes, ranges = games._in_processes, []

    def recorded(fn, tasks):
        ranges.append([len(task) for task in tasks])
        return in_processes(fn, tasks)

    monkeypatch.setattr(games, "_in_processes", recorded)
    forks = counting_forks(monkeypatch)
    text = serialize_game(game)
    assert ranges == [sizes]
    assert len(forks) == min(len(sizes), cpus) - 1
    assert_no_child_left()
    assert text == one_process
    assert text == serialize_game_oracle(game)


@pytest.mark.parametrize("why", ["below-the-rule", "another-thread"])
def test_serialize_never_forks_below_the_rule_or_while_other_threads_run(
    monkeypatch, why
):
    game = random_game(2, 11, 2, seed=3)  # 484 transition entries
    want = serialize_game_oracle(game)
    monkeypatch.setattr(processes, "_cpu_count", lambda: 4)
    monkeypatch.setattr(os, "fork", None)  # a call would raise TypeError
    if why == "below-the-rule":
        assert game.transition.size < 2 * games.TRANSITION_RANGE_ENTRIES
        assert serialize_game(game) == want
        return
    monkeypatch.setattr(games, "TRANSITION_RANGE_ENTRIES", 60)
    parked = threading.Event()
    thread = threading.Thread(target=parked.wait)
    thread.start()
    try:
        text = serialize_game(game)
    finally:
        parked.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert text == want


def test_gen_above_the_rule_writes_the_same_file_at_one_and_two_cpus(
    monkeypatch, tmp_path
):
    argv = ["gen", "--agents", "2", "--states", "40", "--actions", "4", "--seed", "6"]
    written = []
    for cpus in (1, 2):
        monkeypatch.setattr(processes, "_cpu_count", lambda: cpus)
        forks = counting_forks(monkeypatch)
        out = tmp_path / f"cpus{cpus}"
        assert main([*argv, "--out", str(out)]) == 0
        assert len(forks) == cpus - 1  # 40 states of 640 entries: two ranges
        assert_no_child_left()
        written.append((out / "game_n2_s40_k4_seed6.json").read_bytes())
    assert written[0] == written[1]


def _game_doc(seed=3):
    return json.loads(serialize_game(random_game(2, 2, 2, seed=seed)))


def _old_layouts_doc():
    # integer entries, keys in another order and extra keys
    doc = _game_doc()
    doc["transition"]["s0"]["a0,a0"] = [1, 0]
    doc["reward"]["s1"] = dict(reversed(list(doc["reward"]["s1"].items())))
    doc["reward"]["s1"]["unused"] = 9.0
    return doc


def test_old_layouts_still_parse_to_equal_games():
    game = random_game(2, 2, 2, seed=3)
    expect = np.array(game.transition)
    expect[0, 0] = [1.0, 0.0]
    parsed = parse_game(json.dumps(_old_layouts_doc()))
    assert np.array_equal(parsed.transition, expect)
    assert np.array_equal(parsed.reward, game.reward)
    assert parse_game(json.dumps(_game_doc(), indent=None)) == game


def _set(path, value):
    """An edit of a game document: the entry at ``path`` becomes ``value``."""

    def edit(doc):
        entry = doc
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        return doc

    return edit


MALFORMED = [
    (lambda doc: [], "must be a JSON object"),
    (lambda doc: None, "must be a JSON object"),
    (_set(("transition", "s1", "a0,a1"), 0.5),
     r"transition\['s1'\] must map each joint action to a list of 2 numbers"),
    (_set(("transition", "s0", "a1,a1"), [0.5]),
     r"transition\['s0'\] must map each joint action to a list of 2 numbers"),
    (_set(("reward", "s0", "a0,a0"), [0.5]),
     r"reward\['s0'\] must map each joint action to a number"),
    (_set(("reward", "s0", "a0,a0"), {}), "malformed game document"),
    (_set(("transition",), []), "malformed game document"),
    (_set(("states",), ["s0", "s0"]), "duplicate state names"),
]


@pytest.mark.parametrize("edit, message", MALFORMED)
def test_malformed_documents_raise_value_error(edit, message):
    with pytest.raises(ValueError, match=message):
        parse_game(json.dumps(edit(_game_doc())))


def test_a_number_in_place_of_a_row_is_not_broadcast():
    # one joint action and two states: [0.5] would broadcast to [0.5, 0.5]
    doc = json.loads(serialize_game(_named_game(action_spaces=(("x",),))))
    doc["transition"]["s0"]["x"] = 0.5
    with pytest.raises(ValueError, match=r"to a list of 2 numbers"):
        parse_game(json.dumps(doc))


# ---------------------------------------------------------------------------
# parse_game against the whole-tree loader


def _with(edit):
    """The text of ``_game_doc()`` after ``edit`` changed the document."""
    doc = _game_doc()
    edit(doc)
    return json.dumps(doc)


def _integer_rows(doc):
    for s, name in enumerate(("s0", "s1")):
        for key in doc["transition"][name]:
            doc["transition"][name][key] = [1 - s, s]
        for key in doc["reward"][name]:
            doc["reward"][name][key] = s


def _reordered(doc):
    for table in ("transition", "reward"):
        doc[table] = {name: dict(reversed(list(entries.items())))
                      for name, entries in reversed(list(doc[table].items()))}
    return dict(reversed(list(doc.items())))


def _duplicated(text, key, value):
    """``text`` with ``key`` written twice at its first place: ``value``
    first, then the value it had; a JSON decoder keeps the last."""
    return text.replace(f"{key}: ", f"{key}: {value}, {key}: ", 1)


PARSE_CASES = {
    **{f"malformed-{i}": (lambda edit=edit: json.dumps(edit(_game_doc())))
       for i, (edit, _) in enumerate(MALFORMED)},
    "old-layouts": lambda: json.dumps(_old_layouts_doc()),
    "indent-none": lambda: json.dumps(_game_doc(), indent=None),
    "indent-2": lambda: serialize_game(random_game(2, 2, 2, seed=3)),
    "integer-rows": lambda: _with(_integer_rows),
    "reordered-keys": lambda: json.dumps(_reordered(_game_doc())),
    "duplicate-row": lambda: _duplicated(json.dumps(_game_doc()), '"a0,a1"', "[1, 2, 3]"),
    "duplicate-state": lambda: _duplicated(json.dumps(_game_doc()), '"s1"', '{"x": [1]}'),
    "extra-ragged": lambda: _with(_set(("transition", "s1", "extra"), [[0.5], 0.5])),
    "extra-non-numeric": lambda: _with(_set(("transition", "s1", "extra"), ["p", "q"])),
    "extra-longer": lambda: _with(_set(("transition", "s1", "extra"), [0.5, 0.25, 0.25])),
    "extra-number": lambda: _with(_set(("transition", "s1", "extra"), 0.5)),
    "extra-past-float-range": lambda: _with(_set(("transition", "s1", "extra"), [10**400, 0])),
    "numeric-strings": lambda: _with(_set(("transition", "s0", "a0,a0"), ["1", "0"])),
    "booleans": lambda: _with(_set(("transition", "s0", "a0,a0"), [True, False])),
    "empty-state-map": lambda: _with(_set(("transition", "s0"), {})),
    "state-maps-to-a-row": lambda: _with(_set(("transition", "s0"), [0.5, 0.5])),
    "table-of-rows": lambda: _with(_set(("reward",), {"s0": [0.5], "s1": [0.5]})),
    "all-arrays": lambda: json.dumps({k: [1.0] for k in _game_doc()}),
    "empty-action-set": lambda: _with(_set(("actions", 1), [])),
    "not-json": lambda: "{\"states\": [",
}


# _float_rows turns these tables of arrays into float arrays, which the
# entries cannot be read from, so parse_game's error names no table
CONVERTED_TABLES = ("table-of-rows", "all-arrays")


@pytest.mark.parametrize("case", PARSE_CASES)
def test_parse_game_reads_as_the_whole_tree_loader(case):
    text = PARSE_CASES[case]()
    if case in CONVERTED_TABLES:
        with pytest.raises(ValueError, match="malformed game document"):
            parse_game(text)
        with pytest.raises(ValueError):
            parse_game_oracle(text)
        return
    outcomes = []
    for parse in (parse_game, parse_game_oracle):
        try:
            outcomes.append(parse(text))
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


def test_a_broken_game_contract_decodes_the_document_once(monkeypatch):
    # MarkovGame checks the entries after they are read, outside the retry
    reads = []
    read = games._game_entries
    monkeypatch.setattr(games, "_game_entries", lambda doc: reads.append(1) or read(doc))
    with pytest.raises(ValueError, match="duplicate state names"):
        parse_game(_with(_set(("states",), ["s0", "s0"])))
    assert len(reads) == 1


def test_a_document_only_the_plain_tree_reads_is_not_returned(monkeypatch):
    # a hook that broke a valid document gives the broken tree's error
    monkeypatch.setattr(games, "_float_rows", lambda obj: {})
    with pytest.raises(ValueError, match="missing entry"):
        parse_game(serialize_game(random_game(2, 2, 2, seed=3)))


@pytest.mark.parametrize("case", ["malformed-0", *CONVERTED_TABLES, "not-json"])
def test_a_malformed_document_is_decoded_once(case, monkeypatch):
    decodes, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **kw: decodes.append(1) or loads(*a, **kw))
    text = PARSE_CASES[case]()
    decodes.clear()
    with pytest.raises(ValueError):
        parse_game(text)
    assert len(decodes) == 1


def test_parse_game_never_holds_the_documents_numbers_as_floats():
    # a float in a list costs about 32 bytes against 8 in the array: the whole
    # tree of this 3 MB document peaks at about 6.5 x transition.nbytes
    game = random_game(2, 80, 4, seed=7)
    text, limit = serialize_game(game), 4 * game.transition.nbytes
    tracemalloc.start()
    try:
        parsed = parse_game(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed == game
    assert peak <= limit


def test_save_game_writes_the_text_without_joining_it(tmp_path):
    # the pieces are written one by one: joining them first peaked at about
    # twice the file, writing them at about 1.5 times it, or less in one process
    game, path = random_game(2, 80, 4, seed=7), tmp_path / "game.json"
    tracemalloc.start()
    try:
        save_game(game, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    data = path.read_bytes()
    assert data == serialize_game(game).encode("utf-8")
    assert peak <= 1.75 * len(data)
