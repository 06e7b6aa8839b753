"""JSON game documents: the two shapes, parsing errors, and round-trips."""

import json

import pytest

from hiergames import (
    DISJUNCTIVE,
    Coalition,
    ExplicitGame,
    GameDocument,
    HierSpec,
    Multiset,
    document_from_game,
    document_from_spec,
    document_to_dict,
    load_document,
    parse_document,
    realize,
)

SPEC_DOC = {"name": "sample", "kind": "disjunctive", "n": [3, 3], "k": [2, 3]}
GAME_DOC = {"universe": [2, 2], "min_winning": [[2, 0], [1, 2]]}


class TestParse:
    def test_spec_shape(self):
        doc = parse_document(SPEC_DOC)
        assert doc.name == "sample"
        assert doc.spec == HierSpec(DISJUNCTIVE, (3, 3), (2, 3))
        assert doc.game is None
        assert doc.to_game() == realize(doc.spec)

    def test_explicit_shape(self):
        doc = parse_document(GAME_DOC)
        assert doc.name is None
        assert doc.spec is None
        assert doc.game.universe == Multiset((2, 2))
        assert doc.game.min_winning == frozenset(
            {Coalition((2, 0)), Coalition((1, 2))}
        )

    def test_explicit_members_are_minimized(self):
        doc = parse_document({"universe": [3], "min_winning": [[2], [3]]})
        assert doc.game.min_winning == frozenset({Coalition((2,))})

    @pytest.mark.parametrize(
        "data",
        [
            "not a dict",
            {"kind": "disjunctive", "n": [3], "k": [2], "universe": [3]},
            {"kind": "disjunctive", "n": [3]},
            {"universe": [3]},
            {"name": "x"},
            {"name": 7, "kind": "disjunctive", "n": [3], "k": [2]},
        ],
    )
    def test_bad_shapes_rejected(self, data):
        with pytest.raises(ValueError):
            parse_document(data)

    def test_spec_validation_still_applies(self):
        with pytest.raises(ValueError):
            parse_document({"kind": "disjunctive", "n": [3, 3], "k": [3, 2]})


class TestRoundTrip:
    def test_spec_document(self):
        doc = parse_document(SPEC_DOC)
        assert document_to_dict(doc) == SPEC_DOC
        assert parse_document(document_to_dict(doc)) == doc

    def test_game_document(self):
        doc = parse_document(GAME_DOC)
        data = document_to_dict(doc)
        assert data == {"universe": [2, 2], "min_winning": [[1, 2], [2, 0]]}
        assert parse_document(data) == doc

    def test_json_text_round_trip(self):
        doc = document_from_spec(HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5)), "ex")
        text = json.dumps(document_to_dict(doc))
        assert parse_document(json.loads(text)) == doc


class TestLoadDocument:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(SPEC_DOC))
        assert load_document(str(path)) == parse_document(SPEC_DOC)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(json.JSONDecodeError):
            load_document(str(path))

    @pytest.mark.parametrize(
        "text,key",
        [
            ('{"kind":"disjunctive","n":[3],"k":[2],"n":[5]}', "n"),
            ('{"universe":[2],"min_winning":[[1]],"name":"a","name":"a"}', "name"),
            ('{"kind":"disjunctive","n":[3],"k":[2],"name":{"x":1,"y":2,"x":3}}', "x"),
        ],
        ids=["top", "same-value", "nested"],
    )
    def test_repeated_key_refused(self, tmp_path, text, key):
        # json keeps the last value of a repeated key; a document may not repeat one
        path = tmp_path / "twice.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"JSON object repeats the key '{key}'"):
            load_document(str(path))


class TestGameDocument:
    def test_exactly_one_side(self):
        spec = HierSpec(DISJUNCTIVE, (3,), (2,))
        game = ExplicitGame(Multiset((2,)), frozenset({Coalition((1,))}))
        with pytest.raises(ValueError):
            GameDocument("x", spec, game)
        with pytest.raises(ValueError):
            GameDocument("x", None, None)

    def test_builders(self):
        spec = HierSpec(DISJUNCTIVE, (3,), (2,))
        assert document_from_spec(spec).spec == spec
        game = realize(spec)
        assert document_from_game(game, "g").game == game
