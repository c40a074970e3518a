"""Templated synthetic dialog corpus for training gates and experiments.

Every dialog has two turns: the user constrains food and area, the system
offers an entity, the user asks for its name.  Several surface templates per
turn role give the paraphrase miner same-function buckets with real diversity,
and every goal is satisfiable against the generated database.
"""

from __future__ import annotations

import numpy as np

from .corpus import Corpus, DialogAct, corpus_from_json

DOMAIN = "restaurant"
FOODS = ("italian", "chinese", "indian")
AREAS = ("north", "south", "centre")

# (food, area) -> entity names; three combinations hold two entities so the
# database match bucket takes both of its non-zero values.
ENTITIES: dict[tuple[str, str], tuple[str, ...]] = {
    ("italian", "north"): ("casa roma", "la margherita"),
    ("italian", "south"): ("roma express",),
    ("italian", "centre"): ("little italy",),
    ("chinese", "north"): ("panda garden",),
    ("chinese", "south"): ("china pearl", "golden dragon"),
    ("chinese", "centre"): ("jade palace",),
    ("indian", "north"): ("taj palace",),
    ("indian", "south"): ("curry king",),
    ("indian", "centre"): ("spice garden", "delhi durbar"),
}

TURN1_TEMPLATES = (
    "i want a {food} restaurant in the {area} .",
    "can you find me a {food} restaurant in the {area} please ?",
    "hello , i am looking for a {food} restaurant in the {area} of town .",
    "please find a {food} restaurant located in the {area} .",
)
TURN2_TEMPLATES = (
    "what is the name of it ?",
    "could you tell me the name of it ?",
    "can you give me the name of the restaurant ?",
)
RESPONSE1 = "{name} is a nice {food} restaurant in the {area} ."
RESPONSE2 = "the name is {name} ."


def synth_ontology() -> dict:
    names = sorted({n for group in ENTITIES.values() for n in group})
    return {
        "domains": [DOMAIN],
        "slots": {
            DOMAIN: {
                "food": {"informable": True, "requestable": False},
                "area": {"informable": True, "requestable": False},
                "name": {"informable": False, "requestable": True},
            }
        },
        "values": {DOMAIN: {"food": list(FOODS), "area": list(AREAS), "name": names}},
        "act_types": ["inform", "request"],
    }


def synth_database() -> list[dict]:
    records = []
    for (food, area), names in sorted(ENTITIES.items()):
        for name in names:
            records.append({"domain": DOMAIN, "name": name, "food": food, "area": area})
    return records


def synth_corpus(n_dialogs: int = 30, seed: int = 0) -> Corpus:
    """Generate a validated corpus of `n_dialogs` two-turn dialogs."""
    rng = np.random.Generator(np.random.PCG64(seed))
    combos = sorted(ENTITIES)
    dialogs = []
    for i in range(n_dialogs):
        food, area = combos[int(rng.integers(len(combos)))]
        names = ENTITIES[(food, area)]
        name = names[int(rng.integers(len(names)))]
        t1 = TURN1_TEMPLATES[int(rng.integers(len(TURN1_TEMPLATES)))]
        t2 = TURN2_TEMPLATES[int(rng.integers(len(TURN2_TEMPLATES)))]
        informed = {DOMAIN: {"area": area, "food": food}}
        dialogs.append(
            {
                "id": f"syn{i:03d}",
                "goal": {
                    "constraints": {DOMAIN: {"area": area, "food": food}},
                    "requested": {DOMAIN: ["name"]},
                },
                "turns": [
                    {
                        "t": 1,
                        "user": t1.format(food=food, area=area),
                        "state": {"informed": informed, "requested": []},
                        "sys_acts": [DialogAct("inform", DOMAIN, "name").to_json()],
                        "response": RESPONSE1.format(name=name, food=food, area=area),
                        "domain": DOMAIN,
                    },
                    {
                        "t": 2,
                        "user": t2,
                        "state": {"informed": informed, "requested": [[DOMAIN, "name"]]},
                        "sys_acts": [DialogAct("inform", DOMAIN, "name").to_json()],
                        "response": RESPONSE2.format(name=name),
                        "domain": DOMAIN,
                    },
                ],
            }
        )
    return corpus_from_json({"ontology": synth_ontology(), "database": synth_database(), "dialogs": dialogs})
