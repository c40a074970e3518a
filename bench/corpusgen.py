"""Seeded canonical-corpus generator with the dialog function of every user turn.

The corpus has three domains and a fixed plan of dialog scripts.  Every
script is a sequence of user moves (open with constraints, answer a system
request, ask for attributes, say goodbye), each followed by a system move.
The plan fixes how many dialogs follow each script, so the buckets of equal
dialog function have the same sizes for every seed: a few large ones, many
small ones and some singletons.  The seed picks the entity of every dialog,
the order of the dialogs and which turn gets which surface template.
Templates are dealt from a shuffled deck per bucket, so every bucket holds
each of its templates equally often (up to one), whatever the seed; the
mining work per bucket then barely depends on the seed.

For every user turn the generator records the function it intended: domain,
the slots the user mentions, the slots newly requested and the previous
system acts.  Those labels come from the plan, not from the text, so they are
an independent reference for the package's bucketing.  No user utterance is
ever empty.
"""

from __future__ import annotations

import random

DOMAINS = ("attraction", "hotel", "restaurant")
INFORMABLE = {
    "restaurant": ("food", "area", "pricerange"),
    "hotel": ("stars", "area", "pricerange"),
    "attraction": ("type", "area"),
}
REQUESTABLE = ("name", "phone", "postcode")
VALUES = {
    "food": ("italian", "chinese", "indian", "thai", "french", "korean"),
    "area": ("north", "south", "east", "west", "centre"),
    "pricerange": ("cheap", "moderate", "expensive"),
    "stars": ("two star", "three star", "four star"),
    "type": ("museum", "park", "college", "theatre", "gallery"),
}
NAME_FIRST = ("golden", "royal", "little", "old", "silver", "green", "blue", "lucky", "grand", "happy")
NAME_SECOND = (
    "lotus", "garden", "oak", "anchor", "lantern", "pearl", "kettle", "harbour",
    "meadow", "crown", "willow", "fountain", "mill", "bridge", "castle", "orchard",
)

# User moves: ("open", slots) | ("answer", slot) | ("ask", slots) | ("bye",)
# System moves: ("request", slot) | ("offer",) | ("give", slots) | ("close",)
SCRIPTS = {
    "r_long": ("restaurant", [(("open", ("food", "area")), ("request", "pricerange")),
                              (("answer", "pricerange"), ("offer",)),
                              (("ask", ("phone",)), ("give", ("phone",))),
                              (("bye",), ("close",))]),
    "r_short": ("restaurant", [(("open", ("food", "area", "pricerange")), ("offer",)),
                               (("ask", ("postcode",)), ("give", ("postcode",))),
                               (("bye",), ("close",))]),
    "h_long": ("hotel", [(("open", ("stars", "area")), ("request", "pricerange")),
                         (("answer", "pricerange"), ("offer",)),
                         (("ask", ("phone",)), ("give", ("phone",))),
                         (("bye",), ("close",))]),
    "a_short": ("attraction", [(("open", ("type", "area")), ("offer",)),
                               (("ask", ("postcode",)), ("give", ("postcode",))),
                               (("bye",), ("close",))]),
    "r_food": ("restaurant", [(("open", ("food",)), ("request", "area")),
                              (("answer", "area"), ("request", "pricerange")),
                              (("answer", "pricerange"), ("offer",)),
                              (("ask", ("phone",)), ("give", ("phone",))),
                              (("bye",), ("close",))]),
    "r_area": ("restaurant", [(("open", ("area",)), ("request", "food")),
                              (("answer", "food"), ("offer",)),
                              (("ask", ("phone", "postcode")), ("give", ("phone", "postcode"))),
                              (("bye",), ("close",))]),
    "h_price": ("hotel", [(("open", ("pricerange",)), ("request", "area")),
                          (("answer", "area"), ("offer",)),
                          (("ask", ("postcode",)), ("give", ("postcode",))),
                          (("bye",), ("close",))]),
    "h_full": ("hotel", [(("open", ("stars", "area", "pricerange")), ("offer",)),
                         (("ask", ("phone", "postcode")), ("give", ("phone", "postcode"))),
                         (("bye",), ("close",))]),
    "a_type": ("attraction", [(("open", ("type",)), ("request", "area")),
                              (("answer", "area"), ("offer",)),
                              (("ask", ("phone",)), ("give", ("phone",))),
                              (("bye",), ("close",))]),
    "a_area": ("attraction", [(("open", ("area",)), ("offer",)),
                              (("bye",), ("close",))]),
    "r_price": ("restaurant", [(("open", ("pricerange",)), ("request", "food")),
                               (("answer", "food"), ("offer",)),
                               (("bye",), ("close",))]),
    "h_area": ("hotel", [(("open", ("area",)), ("request", "stars")),
                         (("answer", "stars"), ("offer",)),
                         (("ask", ("phone",)), ("give", ("phone",))),
                         (("bye",), ("close",))]),
}
# Dialogs per script.  The first four make the large buckets; the scaled
# counts keep their ratios, while the rare scripts stay at their size.
LARGE = {"r_long": 30, "r_short": 18, "h_long": 12, "a_short": 8}
RARE = {"r_food": 4, "r_area": 3, "h_price": 3, "h_full": 2, "a_type": 2, "a_area": 1, "r_price": 1, "h_area": 1}

OPEN_TEMPLATES = (
    "i want {np} .",
    "i need {np} .",
    "can you find me {np} please ?",
    "i am looking for {np} .",
    "is there {np} ?",
    "please help me find {np} .",
    "hello , could you recommend {np} to me ?",
)
ANSWER_PHRASE = {
    "area": "the {area}",
    "pricerange": "something {pricerange}",
    "food": "{food} food",
    "stars": "a {stars} one",
}
ANSWER_TEMPLATES = (
    "{v} please .",
    "i would like {v} .",
    "{v} would be great .",
    "how about {v} ?",
    "i prefer {v} , thank you .",
)
ASK_PHRASE = {
    ("phone",): "phone number",
    ("postcode",): "postcode",
    ("phone", "postcode"): "phone number and postcode",
}
ASK_TEMPLATES = (
    "what is the {q} ?",
    "could you give me the {q} please ?",
    "can i have the {q} of that place ?",
    "please tell me the {q} .",
    "may i get the {q} for it ?",
)
BYE_TEMPLATES = (
    "thank you , goodbye .",
    "thanks , that is all i need .",
    "great , thank you very much . bye .",
    "that is all , thanks for your help .",
    "perfect , thank you , goodbye .",
    "wonderful , have a nice day .",
)
REQUEST_RESPONSE = {
    "area": "which part of town do you prefer ?",
    "pricerange": "what price range would you like ?",
    "food": "what kind of cuisine would you like ?",
    "stars": "how many stars should it have ?",
}
GIVE_RESPONSE = {
    ("phone",): "the phone number is {phone} .",
    ("postcode",): "the postcode is {postcode} .",
    ("phone", "postcode"): "the phone number is {phone} and the postcode is {postcode} .",
}

def ontology() -> dict:
    ents = entities()
    values = {}
    for d in DOMAINS:
        by_slot = {s: list(VALUES[s]) for s in INFORMABLE[d]}
        for s in REQUESTABLE:
            by_slot[s] = [e[s] for e in ents if e["domain"] == d]
        values[d] = by_slot
    slots = {
        d: {
            **{s: {"informable": True, "requestable": False} for s in INFORMABLE[d]},
            **{s: {"informable": False, "requestable": True} for s in REQUESTABLE},
        }
        for d in DOMAINS
    }
    return {"domains": list(DOMAINS), "slots": slots, "values": values, "act_types": ["inform", "request"]}


def entities() -> list[dict]:
    """One entity per combination of informable values, with unique attributes."""
    out = []
    for d in ("restaurant", "hotel", "attraction"):
        combos = [()]
        for s in INFORMABLE[d]:
            combos = [c + (v,) for c in combos for v in VALUES[s]]
        for combo in combos:
            i = len(out)
            out.append(
                {
                    "domain": d,
                    **dict(zip(INFORMABLE[d], combo)),
                    "name": f"{NAME_FIRST[i // len(NAME_SECOND)]} {NAME_SECOND[i % len(NAME_SECOND)]}",
                    "phone": f"01223 {300000 + 7919 * i % 600000:06d}",
                    "postcode": f"cb{1 + i % 5} {1 + i % 9}{'abcdefgh'[i % 8]}{'pqrstuvw'[i // 8 % 8]}",
                }
            )
    return out


def _noun_phrase(domain: str, slots: tuple[str, ...]) -> str:
    words = ["a"]
    if "pricerange" in slots:
        words.append("{pricerange}")
    if domain == "restaurant":
        if "food" in slots:
            words.append("{food}")
        words.append("restaurant")
    elif domain == "hotel":
        if "stars" in slots:
            words.append("{stars}")
        words.append("hotel")
    else:
        words.append("{type}" if "type" in slots else "place to visit")
    if "area" in slots:
        words.append("in the {area}")
    return " ".join(words)


def _act(act: str, domain: str, slot: str | None = None) -> dict:
    return {"act": act, "domain": domain, **({"slot": slot} if slot else {})}


def _act_key(act: dict) -> str:
    return f"{act['act']}-{act['slot']}" if "slot" in act else act["act"]


class Decks:
    """One shuffled deck of template indices per bucket, refilled when empty."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decks: dict[tuple, list[int]] = {}

    def deal(self, key: tuple, templates: tuple[str, ...]) -> str:
        deck = self.decks.setdefault(key, [])
        if not deck:
            deck.extend(range(len(templates)))
            self.rng.shuffle(deck)
        return templates[deck.pop()]


def _dialog(did: str, script: str, rng: random.Random, decks: Decks, ents: list[dict]) -> tuple[dict, list[dict]]:
    domain, moves = SCRIPTS[script]
    entity = rng.choice([e for e in ents if e["domain"] == domain])
    informed: dict[str, str] = {}
    requested: list[list[str]] = []
    prev_acts: list[dict] = []
    turns, labels = [], []
    for t, (user_move, sys_move) in enumerate(moves, start=1):
        kind = user_move[0]
        mentioned: tuple[str, ...] = ()
        new_requested: tuple[str, ...] = ()
        if kind in ("open", "answer"):
            mentioned = user_move[1] if kind == "open" else (user_move[1],)
        elif kind == "ask":
            new_requested = user_move[1]
        key = (domain, kind, mentioned, new_requested, tuple(sorted(_act_key(a) for a in prev_acts)))
        if kind == "open":
            text = decks.deal(key, OPEN_TEMPLATES).format(np=_noun_phrase(domain, mentioned))
        elif kind == "answer":
            text = decks.deal(key, ANSWER_TEMPLATES).format(v=ANSWER_PHRASE[user_move[1]])
        elif kind == "ask":
            text = decks.deal(key, ASK_TEMPLATES).format(q=ASK_PHRASE[new_requested])
        else:
            text = decks.deal(key, BYE_TEMPLATES)
        for s in mentioned:
            informed[s] = entity[s]
        for s in new_requested:
            requested.append([domain, s])

        if sys_move[0] == "request":
            acts = [_act("request", domain, sys_move[1])]
            response = REQUEST_RESPONSE[sys_move[1]]
        elif sys_move[0] == "offer":
            acts = [_act("inform", domain, "name")]
            response = "{name} matches what you asked for ."
        elif sys_move[0] == "give":
            acts = [_act("inform", domain, s) for s in sys_move[1]]
            response = GIVE_RESPONSE[sys_move[1]]
        else:
            acts = []
            response = "you are welcome , goodbye ."
        turns.append(
            {
                "t": t,
                "user": text.format(**entity),
                "state": {"informed": {domain: dict(informed)}, "requested": [list(r) for r in requested]},
                "sys_acts": acts,
                "response": response.format(**entity),
                "domain": domain,
            }
        )
        labels.append(
            {
                "dialog": did,
                "turn": t,
                "domain": domain,
                "slots": sorted(mentioned),
                "requested": sorted(new_requested),
                "prev_acts": sorted(_act_key(a) for a in prev_acts),
            }
        )
        prev_acts = acts
    goal = {
        "constraints": {domain: dict(informed)},
        "requested": {domain: sorted(s for _d, s in requested)} if requested else {},
    }
    return {"id": did, "goal": goal, "turns": turns}, labels


def plan(scale: float = 1.0) -> list[str]:
    """Script of every dialog, in plan order; `scale` multiplies the large buckets only."""
    out = []
    for script, n in LARGE.items():
        out += [script] * max(2, round(n * scale))
    for script, n in RARE.items():
        out += [script] * n
    return out


def generate(seed: int, scale: float = 1.0) -> tuple[dict, list[dict]]:
    """(canonical corpus JSON object, one label per user turn), both determined by `seed`."""
    rng = random.Random(seed)
    scripts = plan(scale)
    rng.shuffle(scripts)
    decks = Decks(rng)
    ents = entities()
    dialogs, labels = [], []
    for i, script in enumerate(scripts):
        dialog, turn_labels = _dialog(f"g{i:03d}", script, rng, decks, ents)
        dialogs.append(dialog)
        labels += turn_labels
    return {"ontology": ontology(), "database": ents, "dialogs": dialogs}, labels


def synth_labels(corpus_json: dict) -> list[dict]:
    """Intended functions of a `dialaug.synth` corpus, from that generator's documented plan.

    Every synthetic dialog has two turns: the user gives food and area, the
    system offers an entity (inform name), and the user asks for its name.
    """
    labels = []
    for d in corpus_json["dialogs"]:
        domain = d["turns"][0]["domain"]
        labels.append({"dialog": d["id"], "turn": 1, "domain": domain, "slots": ["area", "food"],
                       "requested": [], "prev_acts": []})
        labels.append({"dialog": d["id"], "turn": 2, "domain": domain, "slots": [],
                       "requested": ["name"], "prev_acts": ["inform-name"]})
    return labels


def bucket_partition(labels: list[dict]) -> dict[tuple, list[tuple[str, int]]]:
    """Intended buckets: (domain, mentioned + newly requested slots, previous acts) -> turn refs."""
    buckets: dict[tuple, list[tuple[str, int]]] = {}
    for lab in labels:
        key = (lab["domain"], tuple(sorted(set(lab["slots"]) | set(lab["requested"]))), tuple(lab["prev_acts"]))
        buckets.setdefault(key, []).append((lab["dialog"], lab["turn"]))
    for refs in buckets.values():
        refs.sort()
    return buckets


def candidate_pairs(labels: list[dict]) -> int:
    """Ordered same-bucket pairs, the sum of n(n-1) over the intended buckets."""
    return sum(len(refs) * (len(refs) - 1) for refs in bucket_partition(labels).values())
