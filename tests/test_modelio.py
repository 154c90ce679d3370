"""Model file round trips and schema checks."""

import gc
import json
import re
from contextlib import contextmanager

import numpy as np
import pytest

import qmu.modelio
from qmu.core import (
    Model, StateSpace, Valuation, expectation, predicate, transition_from_edges,
)
from qmu.evaluator import evaluate
from qmu.examples import futures_model, vardi_model
from qmu.modelio import (
    MODEL_SCHEMA, ModelFileError, load_model, model_from_dict, model_to_dict,
    save_model,
)
from qmu.oracle import random_instance


def element_wise_dict(model) -> dict:
    """The document as the earlier ``model_to_dict`` built it, one Python
    scalar per array entry."""
    v = model.valuation
    transitions = {}
    for name, t in v.transitions.items():
        transitions[name] = [
            {"to": [[int(t.indices[e]), float(t.probs[e])]
                    for e in range(t.indptr[s], t.indptr[s + 1])],
             "payoff_weight": float(t.weights[s])}
            for s in range(t.n_states)]
    return {
        "schema": MODEL_SCHEMA,
        "states": list(model.space.labels),
        "transitions": transitions,
        "transition_sets": {name: list(members)
                            for name, members in v.transition_sets.items()},
        "expectations": {name: [float(x) for x in arr]
                         for name, arr in v.expectations.items()},
        "predicates": {name: [bool(x) for x in arr]
                       for name, arr in v.predicates.items()},
    }


def same_types(a, b) -> bool:
    """Equal, and every scalar of the same type (``True == 1`` is not enough)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_types(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_types, a, b))
    return a == b


def large_model(n_states=6000, out_degree=4, seed=25) -> Model:
    """A seeded model with two transitions of ``out_degree`` distinct
    targets a row: its file decodes into enough containers to set off
    several passes of a running cyclic collector."""
    rng = np.random.default_rng([seed, n_states])
    transitions = {}
    for name in ("a", "b"):
        # a sorted draw with replacement plus 0, 1, 2, ... is a set of
        # distinct targets
        targets = (np.sort(rng.integers(0, n_states - out_degree + 1,
                                        (n_states, out_degree)), axis=1)
                   + np.arange(out_degree))
        mass = rng.uniform(0.55, 0.85, n_states)
        share = rng.random((n_states, out_degree)) + 0.05
        probs = share / share.sum(axis=1, keepdims=True) * mass[:, None]
        transitions[name] = transition_from_edges(
            np.full(n_states, out_degree), targets.ravel(), probs.ravel(),
            (1.0 - mass) * rng.random(n_states))
    valuation = Valuation(
        expectations={"P": expectation(rng.random(n_states))},
        transitions=transitions,
        transition_sets={"both": ("a", "b")},
        predicates={"odd": predicate(np.arange(n_states) % 2 == 1)})
    return Model(StateSpace(tuple(f"s{i}" for i in range(n_states))), valuation)


@contextmanager
def collector(on: bool):
    """Run the block with the cyclic collector switched ``on`` or off, then
    put back the state it had."""
    was = gc.isenabled()
    (gc.enable if on else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def collector_passes(action) -> int:
    """How many passes the cyclic collector starts while ``action()`` runs."""
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info)

    gc.callbacks.append(count)
    try:
        action()
    finally:
        gc.callbacks.remove(count)
    return len(passes)


def saved_models():
    yield "futures", futures_model()
    yield "vardi", vardi_model()[0]
    for trial in range(300):
        yield f"random {trial}", random_instance([71, trial]).model


class TestRoundTrip:
    def test_vardi_bit_exact(self, tmp_path, vardi):
        model, phi = vardi
        path = tmp_path / "vardi.json"
        save_model(path, model)
        again = load_model(path)
        assert again.space.labels == model.space.labels
        for name, t in model.valuation.transitions.items():
            assert again.valuation.transitions[name] == t
        for name, arr in model.valuation.expectations.items():
            assert np.array_equal(again.valuation.expectations[name], arr)
        for name, arr in model.valuation.predicates.items():
            assert np.array_equal(again.valuation.predicates[name], arr)
        assert again.valuation.transition_sets == model.valuation.transition_sets
        # evaluation through the reloaded model is bit-identical
        assert evaluate(phi, again) == evaluate(phi, model)

    def test_futures_transition_survives(self, tmp_path, futures):
        model, game = futures
        path = tmp_path / "futures.json"
        save_model(path, model)
        again = load_model(path)
        assert again.valuation.transitions["month"] == \
            model.valuation.transitions["month"]
        assert evaluate(game, again) == evaluate(game, model)


    def test_saved_text_is_the_document(self, tmp_path):
        # futures, vardi and 300 random instances: the file parses back to
        # model_to_dict, which matches the element-wise build, and loads
        # back to equal transitions, expectations and predicates
        path = tmp_path / "model.json"
        for label, model in saved_models():
            data = model_to_dict(model)
            assert same_types(data, element_wise_dict(model)), label
            save_model(path, model)
            text = path.read_text()
            assert text.endswith("}\n") and text.count("\n") == 1, label
            assert json.loads(text) == data, label
            again = load_model(path)
            assert again.space.labels == model.space.labels, label
            v, w = model.valuation, again.valuation
            assert w.transitions.keys() == v.transitions.keys(), label
            for name, t in v.transitions.items():
                assert w.transitions[name] == t, (label, name)
            for ours, theirs in ((v.expectations, w.expectations),
                                 (v.predicates, w.predicates)):
                assert ours.keys() == theirs.keys(), label
                for name, arr in ours.items():
                    assert theirs[name].dtype == arr.dtype, (label, name)
                    assert np.array_equal(theirs[name], arr), (label, name)
            assert w.transition_sets == v.transition_sets, label

    def test_loader_accepts_any_whitespace(self, tmp_path, vardi):
        model, phi = vardi
        path = tmp_path / "vardi.json"
        path.write_text(json.dumps(model_to_dict(model), indent=4))
        assert evaluate(phi, load_model(path)) == evaluate(phi, model)

    def test_failed_save_leaves_the_old_file(self, tmp_path, vardi, monkeypatch):
        # the document is built and encoded before the file is opened
        path = tmp_path / "vardi.json"
        save_model(path, vardi[0])
        before = path.read_text()

        def broken(model):
            raise RuntimeError("no document")

        monkeypatch.setattr(qmu.modelio, "model_to_dict", broken)
        with pytest.raises(RuntimeError, match="no document"):
            save_model(path, vardi[0])
        assert path.read_text() == before

    def test_large_model_is_byte_identical(self, tmp_path):
        # large enough that decoding its file with the collector on starts
        # collector passes; the loaded arrays and the saved text are the
        # same as with no pause
        model = large_model()
        path = tmp_path / "large.json"
        save_model(path, model)
        text = path.read_text()
        assert text == json.dumps(model_to_dict(model), separators=(",", ":")) + "\n"
        with collector(True):
            assert collector_passes(lambda: json.loads(text)) > 0
        again = load_model(path)
        assert again.space.labels == model.space.labels
        v, w = model.valuation, again.valuation
        assert w.transitions.keys() == v.transitions.keys()
        for name, t in v.transitions.items():
            for field in ("indptr", "indices", "probs", "weights"):
                ours, theirs = getattr(t, field), getattr(w.transitions[name], field)
                assert theirs.dtype == ours.dtype, (name, field)
                assert theirs.tobytes() == ours.tobytes(), (name, field)
        for ours, theirs in ((v.expectations, w.expectations),
                             (v.predicates, w.predicates)):
            assert ours.keys() == theirs.keys()
            for name, arr in ours.items():
                assert theirs[name].dtype == arr.dtype, name
                assert theirs[name].tobytes() == arr.tobytes(), name
        assert w.transition_sets == v.transition_sets


class TestCollector:
    """Decoding and encoding run with the cyclic collector paused, and every
    path out of a load or a save leaves it as the caller had it."""

    @pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
    def state(self, request):
        with collector(request.param):
            yield request.param

    def test_load_and_save(self, tmp_path, vardi, state):
        path = tmp_path / "vardi.json"
        save_model(path, vardi[0])
        assert gc.isenabled() is state
        load_model(path)
        assert gc.isenabled() is state

    @pytest.mark.parametrize("text, match", [
        ("{ not json", "invalid JSON: Expecting"),
        ('{"schema": "qmu-model/1", "states": ["A"], "transitions": []}',
         "'transitions' must be an object"),
        ('{"schema": "qmu-model/1", "states": ["A"], "transitions": '
         '{"k": [{"to": [[0, 0.5]], "payoff_weight": 0.9}]}}',
         "model fails validation"),
        ("[" * 100_000, "invalid JSON: nested too deeply"),
    ], ids=["invalid-json", "malformed-section", "fails-validation",
            "nested-too-deeply"])
    def test_failed_load(self, tmp_path, state, text, match):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ModelFileError, match=match):
            load_model(path)
        assert gc.isenabled() is state

    def test_failed_save(self, tmp_path, vardi, state, monkeypatch):
        def broken(model):
            raise RuntimeError("no document")

        monkeypatch.setattr(qmu.modelio, "model_to_dict", broken)
        with pytest.raises(RuntimeError, match="no document"):
            save_model(tmp_path / "vardi.json", vardi[0])
        assert gc.isenabled() is state

    def test_decode_and_encode_run_paused(self, tmp_path, vardi, monkeypatch):
        seen = []

        def spy(owner, name):
            real = getattr(owner, name)

            def call(*args, **kwargs):
                seen.append((name, gc.isenabled()))
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, call)

        for owner, name in ((qmu.modelio, "model_to_dict"), (json, "dumps"),
                            (json, "load"), (qmu.modelio, "model_from_dict")):
            spy(owner, name)
        path = tmp_path / "vardi.json"
        with collector(True):
            save_model(path, vardi[0])
            load_model(path)
            assert gc.isenabled()
        assert seen == [("model_to_dict", False), ("dumps", False),
                        ("load", False), ("model_from_dict", False)]

    def test_large_load_starts_no_pass(self, tmp_path):
        # the decoded tree is freed before the collector is back on, so no
        # pass runs during the load, not even at the end
        path = tmp_path / "large.json"
        save_model(path, large_model())
        with collector(True):
            gc.collect()
            assert collector_passes(lambda: load_model(path)) == 0


class TestSchema:
    def test_schema_string_present(self, vardi):
        model, _ = vardi
        assert model_to_dict(model)["schema"] == MODEL_SCHEMA == "qmu-model/1"

    def test_wrong_schema_rejected(self, vardi):
        model, _ = vardi
        data = model_to_dict(model)
        data["schema"] = "qmu-model/99"
        with pytest.raises(ModelFileError):
            model_from_dict(data)

    def test_invalid_model_rejected(self, vardi):
        model, _ = vardi
        data = model_to_dict(model)
        data["transitions"]["k"][0]["payoff_weight"] = 0.9  # mass exceeds one
        with pytest.raises(ModelFileError) as excinfo:
            model_from_dict(data)
        assert "validation" in str(excinfo.value)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_malformed_shape(self):
        with pytest.raises(ModelFileError):
            model_from_dict({"schema": MODEL_SCHEMA, "states": ["a"],
                             "expectations": {"e": [0.5, 0.5]}})


class TestMalformed:
    """Bad input ends in a ModelFileError, never a traceback or a guess."""

    @pytest.fixture
    def data(self, vardi):
        return json.loads(json.dumps(model_to_dict(vardi[0])))

    def rejected(self, data, match):
        with pytest.raises(ModelFileError, match=match) as excinfo:
            model_from_dict(data)
        assert str(excinfo.value).startswith(("malformed model file", "model fails"))

    @pytest.mark.parametrize("section", ["transitions", "expectations",
                                         "predicates", "transition_sets"])
    def test_section_not_an_object(self, data, section):
        data[section] = []
        self.rejected(data, f"malformed model file: '{section}' must be an object")

    def test_rows_not_a_list(self, data):
        data["transitions"]["k"] = {"to": []}
        self.rejected(data, "transition 'k' must be a list of rows")

    def test_row_not_an_object(self, data):
        data["transitions"]["k"][0] = [1]
        self.rejected(data, r"transition 'k': rows must be objects, got \[1\]")

    @pytest.mark.parametrize("edge", [[0], [0, 0.5, 1], 7, None])
    def test_edge_not_a_pair(self, data, edge):
        data["transitions"]["k"][0]["to"][0] = edge
        self.rejected(data, r"edges must be \[target, probability\] pairs")

    @pytest.mark.parametrize("to", [7, {"0": 0.5}, "01"])
    def test_successors_not_a_list(self, data, to):
        data["transitions"]["k"][0]["to"] = to
        self.rejected(data, "\"to\" must be a list of edges")

    @pytest.mark.parametrize("target", [1.7, 1.0, True, "1", None])
    def test_target_not_an_integer(self, data, target):
        # int() used to turn 1.7 and true into state 1
        data["transitions"]["k"][0]["to"][0][0] = target
        self.rejected(data, "edge targets must be integers, got " + repr(target))

    def test_target_beyond_int64(self, data):
        data["transitions"]["k"][0]["to"][0][0] = 10 ** 30
        self.rejected(data, "^malformed model file: transition 'k': "
                            "edge targets out of range$")

    def test_missing_states_named(self, data):
        # the KeyError's bare "'states'" used to be the whole message
        del data["states"]
        self.rejected(data, "^malformed model file: missing key 'states'$")

    def test_weight_beyond_float(self, data):
        # numpy's OverflowError used to be the whole message
        data["transitions"]["k"][0]["payoff_weight"] = 10 ** 400
        self.rejected(data, "^malformed model file: transition 'k': "
                            "payoff weights out of range$")

    def test_expectation_beyond_float(self, data):
        # "int too large to convert to float" used to be the whole message
        data["expectations"]["atB"][1] = 10 ** 400
        self.rejected(data, "^malformed model file: expectation 'atB': "
                            "entries out of range$")

    def test_file_not_an_object(self, data):
        with pytest.raises(ModelFileError, match="^model file must be a JSON object$"):
            model_from_dict([data])

    def test_target_out_of_range_fails_validation(self, data):
        data["transitions"]["k"][0]["to"][0][0] = 5
        self.rejected(data, r"model fails validation: \[successor-range\]")

    @pytest.mark.parametrize("prob", [True, "0.5", None, [0.5]])
    def test_probability_not_a_number(self, data, prob):
        data["transitions"]["k"][0]["to"][0][1] = prob
        self.rejected(data, "probabilities must be numbers")

    @pytest.mark.parametrize("weight", [False, "0.1", None])
    def test_weight_not_a_number(self, data, weight):
        data["transitions"]["k"][1]["payoff_weight"] = weight
        self.rejected(data, "payoff weights must be numbers")

    @pytest.mark.parametrize("entry", ["0.5", True, None, [0.5]])
    def test_expectation_entry_not_a_number(self, data, entry):
        data["expectations"]["atB"][1] = entry
        self.rejected(data, "expectation 'atB': entries must be numbers, got "
                      + re.escape(repr(entry)))

    @pytest.mark.parametrize("entry,shown", [("NaN", "nan"), ("1.5", "1.5"),
                                             ("-0.25", "-0.25")])
    def test_expectation_entry_out_of_range(self, tmp_path, data, entry, shown):
        data["expectations"]["atB"][1] = "@"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data).replace('"@"', entry))
        with pytest.raises(ModelFileError) as excinfo:
            load_model(path)
        assert str(excinfo.value) == (
            "malformed model file: expectation 'atB', state 1: "
            f"entry {shown} outside [0, 1]")

    @pytest.mark.parametrize("entry", ["no", None, 1, 0.0])
    def test_predicate_entry_not_a_boolean(self, data, entry):
        data["predicates"]["atA"][1] = entry
        self.rejected(data, "predicate 'atA': entries must be true or false, got "
                      + re.escape(repr(entry)))

    @pytest.mark.parametrize("label", [2, None, True, ["B"]])
    def test_state_label_not_a_string(self, data, label):
        data["states"][1] = label
        self.rejected(data, "states: labels must be strings, got "
                      + re.escape(repr(label)))

    @pytest.mark.parametrize("member", [0, None, ["k"]])
    def test_set_member_not_a_string(self, data, member):
        data["transition_sets"]["k"] = [member]
        self.rejected(data, "transition set 'k': members must be strings, got "
                      + re.escape(repr(member)))

    @pytest.mark.parametrize("where,edit", [
        ("states", lambda d: d.update(states="AB")),
        ("expectation 'atB'", lambda d: d["expectations"].update(atB=0.5)),
        ("predicate 'atA'", lambda d: d["predicates"].update(atA="true")),
        ("transition set 'k'", lambda d: d["transition_sets"].update(k="k")),
    ], ids=["states", "expectation", "predicate", "transition-set"])
    def test_entries_not_a_list(self, data, where, edit):
        edit(data)
        self.rejected(data, f"malformed model file: {where} must be a list of ")

    def test_negative_probability(self, data):
        data["transitions"]["k"][0]["to"][1][1] = -0.5
        self.rejected(data, "transition 'k': negative probability -0.5 to state 1")

    @pytest.mark.parametrize("where", ["probability", "payoff_weight"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_in_file(self, tmp_path, data, where, bad):
        # json reads NaN and Infinity; NaN used to drop its edge or pass
        # validate, which then printed "nan" values
        if where == "probability":
            data["transitions"]["k"][0]["to"][0][1] = "@"
        else:
            data["transitions"]["k"][0]["payoff_weight"] = "@"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data).replace('"@"', bad))
        kind = ("negative" if bad == "-Infinity" and where == "probability"
                else "non-finite")
        with pytest.raises(ModelFileError, match=f"transition 'k': {kind}"):
            load_model(path)
