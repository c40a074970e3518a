"""Dialog corpus data model: ontology, belief states, turns, delexicalization, splits.

The canonical corpus file is UTF-8 JSON with top-level keys ``ontology``,
``database`` and ``dialogs``.  Everything is validated eagerly on load and
immutable afterwards, so a loaded Corpus can be shared freely across workers.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

# Belief-span separator between informed values and requested slot names.
REQ_SEP = "<req>"

_TOKEN_RE = re.compile(r"\[[a-z0-9_]+\]|<[a-z0-9_]+>|[a-z0-9]+|[^a-z0-9\s]")


class CorpusError(Exception):
    """Base class for corpus loading/validation failures."""


class SchemaViolation(CorpusError):
    def __init__(self, dialog_id: str | None, turn: int | None, fieldname: str, msg: str):
        self.dialog_id = dialog_id
        self.turn = turn
        self.fieldname = fieldname
        where = ""
        if dialog_id is not None:
            where = f"dialog {dialog_id!r}"
            if turn is not None:
                where += f" turn {turn}"
            where += ": "
        super().__init__(f"{where}field {fieldname!r}: {msg}")


class UnknownSymbol(CorpusError):
    """A slot, domain or value token not present in the ontology."""

    def __init__(self, token: str, msg: str):
        self.token = token
        super().__init__(f"unknown symbol {token!r}: {msg}")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace, breaking punctuation into its own tokens.

    Placeholder tokens like ``[pricerange]`` and markers like ``<req>`` survive
    as single tokens so already-delexicalized text round-trips.
    """
    return _TOKEN_RE.findall(text.lower())


def placeholder(slot: str) -> str:
    return f"[{slot}]"


def is_bracket_token(token: str) -> bool:
    return len(token) > 2 and token[0] == "[" and token[-1] == "]"


def bracket_name(token: str) -> str:
    return token[1:-1]


@dataclass(frozen=True)
class SlotSpec:
    informable: bool = False
    requestable: bool = False


class Ontology:
    """Task ontology: domains, slots with informable/requestable flags, value sets, act types."""

    def __init__(
        self,
        domains: list[str],
        slots: dict[str, dict[str, SlotSpec]],
        values: dict[str, dict[str, list[str]]],
        act_types: list[str],
    ):
        self.domains = sorted(domains)
        self.slots = slots
        self.values = values
        self.act_types = sorted(act_types)
        self._validate()
        self._span_index = None

    def _validate(self) -> None:
        for d in self.slots:
            if d not in self.domains:
                raise UnknownSymbol(d, "slot map names a domain not in the ontology")
        for d, by_slot in self.values.items():
            if d not in self.domains:
                raise UnknownSymbol(d, "value map names a domain not in the ontology")
            for s, vals in by_slot.items():
                if s not in self.slots.get(d, {}):
                    raise UnknownSymbol(s, f"value map names a slot not declared for domain {d!r}")
                for v in vals:
                    if not v or not v.strip():
                        raise SchemaViolation(None, None, f"values[{d}][{s}]", "empty value string")

    def slot_names(self, domain: str) -> list[str]:
        return sorted(self.slots.get(domain, {}))

    def informable_slots(self, domain: str) -> list[str]:
        return sorted(s for s, spec in self.slots.get(domain, {}).items() if spec.informable)

    def requestable_slots(self, domain: str) -> list[str]:
        return sorted(s for s, spec in self.slots.get(domain, {}).items() if spec.requestable)

    def all_slot_names(self) -> list[str]:
        names = {s for by_slot in self.slots.values() for s in by_slot}
        return sorted(names)

    def has_slot(self, domain: str, slot: str) -> bool:
        return slot in self.slots.get(domain, {})

    def value_strings(self, domain: str, slot: str) -> list[str]:
        return self.values.get(domain, {}).get(slot, [])

    def span_index(self) -> dict[str, list[tuple[tuple[str, ...], str, str]]]:
        """First-token index of value token spans, ordered longest-first.

        Entries are (value_tokens, domain, slot) sorted by (-len, domain, slot) so a
        left-to-right scan naturally takes the longest match at each position.
        """
        if self._span_index is None:
            index: dict[str, list[tuple[tuple[str, ...], str, str]]] = {}
            for d in sorted(self.values):
                for s in sorted(self.values[d]):
                    for v in self.values[d][s]:
                        toks = tuple(tokenize(v))
                        if not toks:
                            continue
                        index.setdefault(toks[0], []).append((toks, d, s))
            for first in index:
                index[first].sort(key=lambda e: (-len(e[0]), e[1], e[2]))
            self._span_index = index
        return self._span_index

    def to_json(self) -> dict:
        return {
            "domains": self.domains,
            "slots": {
                d: {
                    s: {"informable": spec.informable, "requestable": spec.requestable}
                    for s, spec in sorted(self.slots[d].items())
                }
                for d in sorted(self.slots)
            },
            "values": {
                d: {s: list(self.values[d][s]) for s in sorted(self.values[d])}
                for d in sorted(self.values)
            },
            "act_types": self.act_types,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Ontology":
        slots = {
            d: {
                s: SlotSpec(bool(spec.get("informable", False)), bool(spec.get("requestable", False)))
                for s, spec in by_slot.items()
            }
            for d, by_slot in obj.get("slots", {}).items()
        }
        return cls(
            domains=list(obj.get("domains", [])),
            slots=slots,
            values={d: dict(v) for d, v in obj.get("values", {}).items()},
            act_types=list(obj.get("act_types", [])),
        )


@dataclass(frozen=True, order=True)
class DialogAct:
    """A structured system intention, serialized as `[domain] [act] slot?` tokens."""

    act_type: str
    domain: str
    slot: str | None = None

    def serialize(self) -> list[str]:
        toks = [f"[{self.domain}]", f"[{self.act_type}]"]
        if self.slot:
            toks.append(self.slot)
        return toks

    def key_token(self) -> str:
        """Compact `act-slot` form used in dialog-function keys."""
        return f"{self.act_type}-{self.slot}" if self.slot else self.act_type

    def validate(self, ontology: Ontology) -> None:
        if self.act_type not in ontology.act_types:
            raise UnknownSymbol(self.act_type, "act type not in ontology")
        if self.domain not in ontology.domains:
            raise UnknownSymbol(self.domain, "act domain not in ontology")
        if self.slot is not None and not ontology.has_slot(self.domain, self.slot):
            raise UnknownSymbol(self.slot, f"act slot not declared for domain {self.domain!r}")


def serialize_acts(acts: list[DialogAct]) -> list[str]:
    """Deterministic token form of an act set: acts sorted, then concatenated."""
    out: list[str] = []
    for act in sorted(acts, key=lambda a: (a.domain, a.act_type, a.slot or "")):
        out.extend(act.serialize())
    return out


class BeliefState:
    """Tracked user constraints (informed slot values) and requested slots."""

    def __init__(
        self,
        informed: dict[tuple[str, str], str] | None = None,
        requested: set[tuple[str, str]] | None = None,
    ):
        self.informed = dict(informed or {})
        self.requested = set(requested or ())

    def copy(self) -> "BeliefState":
        return BeliefState(self.informed, self.requested)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BeliefState)
            and self.informed == other.informed
            and self.requested == other.requested
        )

    def __repr__(self) -> str:
        return f"BeliefState(informed={self.informed!r}, requested={sorted(self.requested)!r})"

    def serialize(self, delex: bool = False) -> list[str]:
        """Deterministic belief-span tokens.

        Informed entries come first, sorted by (domain, slot), each as
        ``[domain] slot <value>``; requested entries follow after the ``<req>``
        separator as ``[domain] slot``.  With ``delex=True`` the value is the
        slot's placeholder token instead of its surface tokens (the form used
        for model inputs and supervision).
        """
        toks: list[str] = []
        for (d, s) in sorted(self.informed):
            toks.extend([f"[{d}]", s])
            if delex:
                toks.append(placeholder(s))
            else:
                toks.extend(tokenize(self.informed[(d, s)]))
        if self.requested:
            toks.append(REQ_SEP)
            for (d, s) in sorted(self.requested):
                toks.extend([f"[{d}]", s])
        return toks

    @staticmethod
    def parse(tokens: list[str], ontology: Ontology) -> "ParsedBelief":
        """Best-effort inverse of serialize(); tolerant of malformed model output."""
        informed: dict[tuple[str, str], list[str]] = {}
        requested: set[tuple[str, str]] = set()
        domains = set(ontology.domains)
        i = 0
        in_requested = False
        while i < len(tokens):
            tok = tokens[i]
            if tok == REQ_SEP:
                in_requested = True
                i += 1
                continue
            if is_bracket_token(tok) and bracket_name(tok) in domains and i + 1 < len(tokens):
                d = bracket_name(tok)
                s = tokens[i + 1]
                if not ontology.has_slot(d, s):
                    i += 1
                    continue
                i += 2
                if in_requested:
                    requested.add((d, s))
                    continue
                value: list[str] = []
                while i < len(tokens):
                    nxt = tokens[i]
                    if nxt == REQ_SEP:
                        break
                    if is_bracket_token(nxt) and bracket_name(nxt) in domains:
                        break
                    value.append(nxt)
                    i += 1
                informed[(d, s)] = value
            else:
                i += 1
        return ParsedBelief(informed=informed, requested=requested)

    def validate(self, ontology: Ontology, dialog_id: str, turn: int) -> None:
        for (d, s), v in self.informed.items():
            if not ontology.has_slot(d, s):
                raise UnknownSymbol(s, f"informed slot not in ontology (dialog {dialog_id!r} turn {turn})")
            if not v:
                raise SchemaViolation(dialog_id, turn, "state.informed", f"empty value for {d}-{s}")
        for (d, s) in self.requested:
            if not ontology.has_slot(d, s):
                raise UnknownSymbol(s, f"requested slot not in ontology (dialog {dialog_id!r} turn {turn})")

    def to_json(self) -> dict:
        informed: dict[str, dict[str, str]] = {}
        for (d, s) in sorted(self.informed):
            informed.setdefault(d, {})[s] = self.informed[(d, s)]
        return {"informed": informed, "requested": [list(p) for p in sorted(self.requested)]}

    @classmethod
    def from_json(cls, obj: dict) -> "BeliefState":
        informed = {}
        for d, by_slot in obj.get("informed", {}).items():
            for s, v in by_slot.items():
                informed[(d, s)] = str(v)
        requested = {(p[0], p[1]) for p in obj.get("requested", [])}
        return cls(informed, requested)


@dataclass
class ParsedBelief:
    """Belief span parsed back from tokens; values are token lists (possibly placeholders)."""

    informed: dict[tuple[str, str], list[str]]
    requested: set[tuple[str, str]]


@dataclass(frozen=True)
class Binding:
    position: int
    slot: str
    surface: tuple[str, ...]


@dataclass(frozen=True)
class DelexUtterance:
    """Token sequence with slot-value spans replaced by placeholders, plus the inverse map."""

    tokens: tuple[str, ...]
    bindings: tuple[Binding, ...]

    def placeholder_slots(self) -> list[str]:
        return [b.slot for b in self.bindings]

    def binding_for(self, slot: str) -> Binding | None:
        for b in self.bindings:
            if b.slot == slot:
                return b
        return None


def delexicalize(utterance: list[str], ontology: Ontology, state: BeliefState | None = None) -> DelexUtterance:
    """Replace slot-value token spans with `[slot]` placeholders.

    Matching is left-to-right, longest span first; values informed in `state`
    take precedence over the ontology value lists when spans tie on length.
    Already-placed placeholder tokens are never rewritten, so the operation is
    idempotent.
    """
    state_spans: dict[str, list[tuple[tuple[str, ...], str, str]]] = {}
    if state is not None:
        for (d, s), v in state.informed.items():
            toks = tuple(tokenize(v))
            if toks:
                state_spans.setdefault(toks[0], []).append((toks, d, s))
        for first in state_spans:
            state_spans[first].sort(key=lambda e: (-len(e[0]), e[1], e[2]))
    ont_spans = ontology.span_index()

    out: list[str] = []
    bindings: list[Binding] = []
    i = 0
    n = len(utterance)
    while i < n:
        tok = utterance[i]
        if is_bracket_token(tok):
            out.append(tok)
            i += 1
            continue
        best: tuple[int, int, str, str, int] | None = None  # (-len, priority, domain, slot, len)
        for priority, spans in ((0, state_spans.get(tok, ())), (1, ont_spans.get(tok, ()))):
            for toks, d, s in spans:
                if tuple(utterance[i : i + len(toks)]) == toks:
                    cand = (-len(toks), priority, d, s, len(toks))
                    if best is None or cand < best:
                        best = cand
        if best is None:
            out.append(tok)
            i += 1
        else:
            _, _, _, slot, span_len = best
            bindings.append(Binding(position=len(out), slot=slot, surface=tuple(utterance[i : i + span_len])))
            out.append(placeholder(slot))
            i += span_len
    return DelexUtterance(tokens=tuple(out), bindings=tuple(bindings))


def relexicalize(d: DelexUtterance) -> list[str]:
    """Exact inverse of delexicalize on its own output."""
    by_pos = {b.position: b for b in d.bindings}
    out: list[str] = []
    for pos, tok in enumerate(d.tokens):
        b = by_pos.get(pos)
        if b is not None:
            out.extend(b.surface)
        else:
            out.append(tok)
    return out


@dataclass
class TurnContext:
    """Context override carried by cloned single-turn dialogs (augmentation output)."""

    prev_response: list[str]
    prev_state: BeliefState
    prev_acts: list[DialogAct] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "prev_response": " ".join(self.prev_response),
            "prev_state": self.prev_state.to_json(),
            "prev_acts": [
                {"act": a.act_type, "domain": a.domain, **({"slot": a.slot} if a.slot else {})}
                for a in self.prev_acts
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TurnContext":
        return cls(
            prev_response=tokenize(obj.get("prev_response", "")),
            prev_state=BeliefState.from_json(obj.get("prev_state", {})),
            prev_acts=[
                DialogAct(act_type=a["act"], domain=a["domain"], slot=a.get("slot"))
                for a in obj.get("prev_acts", [])
            ],
        )


@dataclass
class Turn:
    index: int
    user: list[str]
    user_delex: DelexUtterance
    state: BeliefState
    sys_acts: list[DialogAct]
    response: list[str]
    response_delex: DelexUtterance
    domain: str
    context: TurnContext | None = None

    def to_json(self) -> dict:
        obj = {
            "t": self.index,
            "user": " ".join(self.user),
            "state": self.state.to_json(),
            "sys_acts": [
                {"act": a.act_type, "domain": a.domain, **({"slot": a.slot} if a.slot else {})}
                for a in self.sys_acts
            ],
            "response": " ".join(self.response),
            "domain": self.domain,
        }
        if self.context is not None:
            obj["context"] = self.context.to_json()
        return obj


@dataclass
class Goal:
    """Constraints the user pursues and the slots they will request; drives inform/success."""

    constraints: dict[tuple[str, str], str] = field(default_factory=dict)
    requested: set[tuple[str, str]] = field(default_factory=set)

    def domains(self) -> list[str]:
        ds = {d for (d, _s) in self.constraints} | {d for (d, _s) in self.requested}
        return sorted(ds)

    def to_json(self) -> dict:
        constraints: dict[str, dict[str, str]] = {}
        for (d, s) in sorted(self.constraints):
            constraints.setdefault(d, {})[s] = self.constraints[(d, s)]
        requested: dict[str, list[str]] = {}
        for (d, s) in sorted(self.requested):
            requested.setdefault(d, []).append(s)
        return {"constraints": constraints, "requested": requested}

    @classmethod
    def from_json(cls, obj: dict) -> "Goal":
        constraints = {}
        for d, by_slot in obj.get("constraints", {}).items():
            for s, v in by_slot.items():
                constraints[(d, s)] = str(v)
        requested = set()
        for d, slots in obj.get("requested", {}).items():
            for s in slots:
                requested.add((d, s))
        return cls(constraints, requested)


@dataclass
class Dialog:
    id: str
    goal: Goal
    turns: list[Turn]

    def to_json(self) -> dict:
        return {"id": self.id, "goal": self.goal.to_json(), "turns": [t.to_json() for t in self.turns]}


class Corpus:
    """An ontology, an entity database and a list of annotated dialogs."""

    def __init__(self, ontology: Ontology, database: list[dict], dialogs: list[Dialog]):
        self.ontology = ontology
        self.database = database
        self.dialogs = dialogs
        self.oov_values: set[tuple[str, str, str]] = set()
        self._by_id = {d.id: d for d in dialogs}
        if len(self._by_id) != len(dialogs):
            seen: set[str] = set()
            for d in dialogs:
                if d.id in seen:
                    raise SchemaViolation(d.id, None, "id", "duplicate dialog id")
                seen.add(d.id)

    def __len__(self) -> int:
        return len(self.dialogs)

    def get_dialog(self, dialog_id: str) -> Dialog:
        return self._by_id[dialog_id]

    def n_turns(self) -> int:
        return sum(len(d.turns) for d in self.dialogs)

    def user_turns(self):
        """Yield (dialog, turn) over all dialogs in corpus order."""
        for d in self.dialogs:
            for t in d.turns:
                yield d, t

    def prev_response(self, dialog: Dialog, index: int) -> list[str]:
        """Delexicalized previous system response for the turn at `index` (1-based)."""
        turn = dialog.turns[index - 1]
        if index == 1:
            if turn.context is not None:
                prev = turn.context.prev_response
                return list(delexicalize(prev, self.ontology, turn.context.prev_state).tokens)
            return []
        return list(dialog.turns[index - 2].response_delex.tokens)

    def prev_state(self, dialog: Dialog, index: int) -> BeliefState:
        turn = dialog.turns[index - 1]
        if index == 1:
            if turn.context is not None:
                return turn.context.prev_state.copy()
            return BeliefState()
        return dialog.turns[index - 2].state.copy()

    def prev_acts(self, dialog: Dialog, index: int) -> list[DialogAct]:
        turn = dialog.turns[index - 1]
        if index == 1:
            if turn.context is not None:
                return list(turn.context.prev_acts)
            return []
        return list(dialog.turns[index - 2].sys_acts)

    def db_query(self, domain: str, constraints: dict[tuple[str, str], str]) -> list[dict]:
        """Database records of `domain` matching every (domain, slot) -> value constraint."""
        wanted = {s: v for (d, s), v in constraints.items() if d == domain}
        out = []
        for rec in self.database:
            if rec.get("domain") != domain:
                continue
            if all(str(rec.get(s, "")).lower() == v.lower() for s, v in wanted.items()):
                out.append(rec)
        return out

    def db_bucket(self, domain: str, constraints: dict[tuple[str, str], str]) -> int:
        """Entity-count bucket for database conditioning: 0, 1, or 2 (= more than one)."""
        n = len(self.db_query(domain, constraints))
        return min(n, 2)

    def to_json(self) -> dict:
        return {
            "ontology": self.ontology.to_json(),
            "database": self.database,
            "dialogs": [d.to_json() for d in self.dialogs],
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json(), f, ensure_ascii=False, sort_keys=True, indent=1)
            f.write("\n")


def _require(obj: dict, key: str, dialog_id: str | None, turn: int | None):
    if key not in obj:
        raise SchemaViolation(dialog_id, turn, key, "missing required field")
    return obj[key]


def _build_turn(obj: dict, ontology: Ontology, dialog_id: str) -> Turn:
    index = _require(obj, "t", dialog_id, None)
    if not isinstance(index, int) or index < 1:
        raise SchemaViolation(dialog_id, None, "t", f"turn index must be an integer >= 1, got {index!r}")
    user_text = _require(obj, "user", dialog_id, index)
    state_obj = _require(obj, "state", dialog_id, index)
    response_text = _require(obj, "response", dialog_id, index)
    domain = _require(obj, "domain", dialog_id, index)
    if domain not in ontology.domains:
        raise UnknownSymbol(domain, f"turn domain (dialog {dialog_id!r} turn {index})")

    state = BeliefState.from_json(state_obj)
    state.validate(ontology, dialog_id, index)

    acts = []
    for a in obj.get("sys_acts", []):
        act = DialogAct(act_type=_require(a, "act", dialog_id, index), domain=a.get("domain", domain), slot=a.get("slot"))
        act.validate(ontology)
        acts.append(act)

    user = tokenize(user_text)
    if not user:
        # Mining and the paraphrase filter score user turns with BLEU, which
        # is undefined for an empty sentence.
        raise SchemaViolation(dialog_id, index, "user", "empty utterance")
    response = tokenize(response_text)
    user_delex = delexicalize(user, ontology, state)
    response_delex = delexicalize(response, ontology, state)
    if relexicalize(user_delex) != user:
        raise SchemaViolation(dialog_id, index, "user", "delexicalization does not round-trip")

    context = None
    if "context" in obj:
        context = TurnContext.from_json(obj["context"])
        context.prev_state.validate(ontology, dialog_id, index)
        for act in context.prev_acts:
            act.validate(ontology)
    return Turn(
        index=index,
        user=user,
        user_delex=user_delex,
        state=state,
        sys_acts=acts,
        response=response,
        response_delex=response_delex,
        domain=domain,
        context=context,
    )


def corpus_from_json(obj: dict) -> Corpus:
    ontology = Ontology.from_json(_require(obj, "ontology", None, None))
    database = list(obj.get("database", []))
    for rec in database:
        dom = rec.get("domain")
        if dom not in ontology.domains:
            raise UnknownSymbol(str(dom), "database record domain")
        for s in ontology.informable_slots(dom):
            if s not in rec:
                raise SchemaViolation(None, None, "database", f"record {rec.get('name', rec)!r} lacks informable slot {s!r}")
    dialogs = []
    oov_values: set[tuple[str, str, str]] = set()
    for dobj in _require(obj, "dialogs", None, None):
        did = _require(dobj, "id", None, None)
        goal = Goal.from_json(dobj.get("goal", {}))
        turns = []
        for tobj in _require(dobj, "turns", did, None):
            turn = _build_turn(tobj, ontology, did)
            turns.append(turn)
            for (d, s), v in turn.state.informed.items():
                if v.lower() not in (x.lower() for x in ontology.value_strings(d, s)):
                    oov_values.add((d, s, v))
        for want, turn in enumerate(turns, start=1):
            if turn.index != want:
                raise SchemaViolation(did, turn.index, "t", f"turn indices must be contiguous from 1, expected {want}")
        dialogs.append(Dialog(id=did, goal=goal, turns=turns))
    corpus = Corpus(ontology, database, dialogs)
    corpus.oov_values = oov_values
    return corpus


def load_canonical(path) -> Corpus:
    """Load and fully validate a canonical-schema corpus file."""
    with open(path, encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as e:
            raise SchemaViolation(None, None, "<file>", f"not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise SchemaViolation(None, None, "<file>", "top level must be a JSON object")
    return corpus_from_json(obj)


def split(corpus: Corpus, ratios: tuple[float, float, float], seed: int) -> tuple[Corpus, Corpus, Corpus]:
    """Deterministic train/dev/test partition by seeded shuffle of dialog ids.

    Part sizes are floor(ratio * n) with every leftover dialog assigned to train.
    """
    if any(r < 0 for r in ratios) or sum(ratios) <= 0:
        raise ValueError(f"ratios must be non-negative with positive sum, got {ratios}")
    n = len(corpus.dialogs)
    n_parts = sum(1 for r in ratios if r > 0)
    if n < n_parts:
        raise ValueError(f"cannot split {n} dialogs into {n_parts} non-empty parts")
    total = float(sum(ratios))
    sizes = [math.floor(r / total * n) for r in ratios]
    sizes[0] += n - sum(sizes)

    ids = sorted(d.id for d in corpus.dialogs)
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.shuffle(ids)
    cut1, cut2 = sizes[0], sizes[0] + sizes[1]
    parts = (set(ids[:cut1]), set(ids[cut1:cut2]), set(ids[cut2:]))
    out = []
    for chosen in parts:
        dialogs = [d for d in corpus.dialogs if d.id in chosen]
        out.append(Corpus(corpus.ontology, corpus.database, dialogs))
    return out[0], out[1], out[2]


def subsample(corpus: Corpus, fraction: float, seed: int) -> Corpus:
    """Seeded selection of ceil(fraction * n) dialogs, kept in corpus order."""
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n = len(corpus.dialogs)
    k = math.ceil(fraction * n)
    ids = sorted(d.id for d in corpus.dialogs)
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.shuffle(ids)
    chosen = set(ids[:k])
    dialogs = [d for d in corpus.dialogs if d.id in chosen]
    return Corpus(corpus.ontology, corpus.database, dialogs)
