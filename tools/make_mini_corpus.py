"""Build the bundled mini corpus fixture and check its hand-labeled properties.

The fixture is authored here as data; this script validates it, verifies every
count the tests freeze (bucket sizes, pair counts, relaxation, orphans, clone
counts, gold self-consistency), and writes src/dialaug/data/mini_corpus.json.
Run from the repository root: python3 tools/make_mini_corpus.py
"""

from __future__ import annotations

import pathlib
import sys

from dialaug.augment import utter_sub
from dialaug.corpus import DialogAct, corpus_from_json
from dialaug.evaluation import gold_results, score_results
from dialaug.mining import index_by_function, mine_pairs, orphan_turns, relax_for_orphans

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "dialaug" / "data" / "mini_corpus.json"

ONTOLOGY = {
    "domains": ["restaurant"],
    "slots": {
        "restaurant": {
            "food": {"informable": True, "requestable": False},
            "area": {"informable": True, "requestable": False},
            "name": {"informable": False, "requestable": True},
        }
    },
    "values": {
        "restaurant": {
            "food": ["british", "french", "thai"],
            "area": ["east", "west", "town centre"],
            "name": [
                "river cottage", "old mill", "white horse", "le bistro", "maison bleue",
                "cafe rouge", "the lucky star", "blue spice", "bangkok house", "siam palace",
            ],
        }
    },
    "act_types": ["inform", "request"],
}

DATABASE = [
    {"domain": "restaurant", "name": "river cottage", "food": "british", "area": "east"},
    {"domain": "restaurant", "name": "old mill", "food": "british", "area": "west"},
    {"domain": "restaurant", "name": "white horse", "food": "british", "area": "town centre"},
    {"domain": "restaurant", "name": "le bistro", "food": "french", "area": "east"},
    {"domain": "restaurant", "name": "maison bleue", "food": "french", "area": "west"},
    {"domain": "restaurant", "name": "cafe rouge", "food": "french", "area": "town centre"},
    {"domain": "restaurant", "name": "the lucky star", "food": "thai", "area": "east"},
    {"domain": "restaurant", "name": "blue spice", "food": "thai", "area": "west"},
    {"domain": "restaurant", "name": "bangkok house", "food": "thai", "area": "town centre"},
    {"domain": "restaurant", "name": "siam palace", "food": "thai", "area": "town centre"},
]

INFORM_NAME = [DialogAct("inform", "restaurant", "name").to_json()]

T1 = (
    "i want a {food} restaurant in the {area} .",
    "can you find me a {food} restaurant in the {area} please ?",
    "hello , i am looking for a {food} restaurant in the {area} of town .",
)
T2 = (
    "what is the name of it ?",
    "could you tell me the name of it ?",
    "can you give me the name of the restaurant ?",
)
TC = (
    "i would like some {food} food .",
    "i would love some {food} food , thanks .",
)
TE = (
    "i want a {food} restaurant in the {area} , and tell me its name .",
    "find me a {food} restaurant in the {area} and give me the name please .",
    "looking for a {food} restaurant in the {area} , what is it called ?",
)


def two_turn(i, food, area, name, t1, t2):
    informed = {"restaurant": {"area": area, "food": food}}
    return {
        "id": f"d{i:02d}",
        "goal": {
            "constraints": {"restaurant": {"area": area, "food": food}},
            "requested": {"restaurant": ["name"]},
        },
        "turns": [
            {
                "t": 1,
                "user": t1.format(food=food, area=area),
                "state": {"informed": informed, "requested": []},
                "sys_acts": INFORM_NAME,
                "response": f"{name} is a great {food} restaurant in the {area} .",
                "domain": "restaurant",
            },
            {
                "t": 2,
                "user": t2,
                "state": {"informed": informed, "requested": [["restaurant", "name"]]},
                "sys_acts": INFORM_NAME,
                "response": f"it is called {name} .",
                "domain": "restaurant",
            },
        ],
    }


def one_turn(i, informed, requested, goal_requested, user, response, sys_acts=INFORM_NAME):
    return {
        "id": f"d{i:02d}",
        "goal": {
            "constraints": {"restaurant": dict(informed)},
            "requested": {"restaurant": goal_requested} if goal_requested else {},
        },
        "turns": [
            {
                "t": 1,
                "user": user,
                "state": {
                    "informed": {"restaurant": dict(informed)},
                    "requested": [["restaurant", s] for s in requested],
                },
                "sys_acts": sys_acts,
                "response": response,
                "domain": "restaurant",
            }
        ],
    }


def build() -> dict:
    dialogs = [
        two_turn(1, "british", "east", "river cottage", T1[0], T2[0]),
        two_turn(2, "french", "town centre", "cafe rouge", T1[1], T2[1]),
        two_turn(3, "thai", "east", "the lucky star", T1[2], T2[2]),
        one_turn(4, {"food": "british"}, [], [], TC[0].format(food="british"),
                 "old mill serves british food ."),
        one_turn(5, {"food": "thai"}, [], [], TC[1].format(food="thai"),
                 "blue spice serves thai food ."),
        one_turn(6, {"area": "west"}, [], [], "show me restaurants in the west please .",
                 "old mill is in the west .",
                 sys_acts=[DialogAct("inform", "restaurant").to_json()]),
    ]
    combos = [
        (7, "french", "east", "le bistro", TE[0]),
        (8, "thai", "west", "blue spice", TE[1]),
        (9, "british", "town centre", "white horse", TE[2]),
        (10, "french", "west", "maison bleue", TE[0]),
        (11, "thai", "town centre", "bangkok house", TE[1]),
        (12, "british", "east", "river cottage", TE[2]),
    ]
    for i, food, area, name, template in combos:
        dialogs.append(
            one_turn(
                i, {"area": area, "food": food}, ["name"], ["name"],
                template.format(food=food, area=area),
                f"{name} is a {food} restaurant in the {area} .",
            )
        )
    return {"ontology": ONTOLOGY, "database": DATABASE, "dialogs": dialogs}


def check(corpus) -> None:
    assert len(corpus.dialogs) == 12
    assert sum(len(d.turns) for d in corpus.dialogs) == 15

    index = index_by_function(corpus)
    sizes = sorted(len(refs) for refs in index.values())
    assert sizes == [1, 2, 3, 3, 6], sizes

    strict = mine_pairs(corpus)
    assert len(strict) == 34, len(strict)
    relaxed = relax_for_orphans(corpus, strict)
    assert len(relaxed) == 2, len(relaxed)
    assert all(p.relaxed and p.diversity == 3.0 for p in relaxed)
    assert {p.src[0] for p in relaxed} == {"d04", "d05"}

    pairs = strict + relaxed
    orphans = orphan_turns(corpus, pairs)
    assert [(o["dialog"], o["turn"]) for o in orphans] == [("d06", 1)], orphans
    assert orphans[0]["bucket_size"] == 1

    augmented = utter_sub(corpus, pairs)
    assert len(augmented.dialogs) == 12 + 14, len(augmented.dialogs)

    scores = score_results(gold_results(corpus), corpus)
    for key in ("bleu", "emr", "success_f1", "inform", "success"):
        assert scores[key] == 1.0, (key, scores[key])


def main() -> int:
    corpus = corpus_from_json(build())
    check(corpus)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    corpus.save(OUT)
    print(f"wrote {OUT} (12 dialogs, 15 turns, all hand-labeled checks passed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
