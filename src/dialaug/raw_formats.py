"""Best-effort converters from public raw dialog-corpus layouts to the canonical schema.

Raw formats are inconsistent across releases, so conversion is lossy by design:
whatever cannot be interpreted is skipped with a warning and tallied in the
ConversionLog, never silently dropped.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

from .corpus import Corpus, DialogAct, SlotSpec, corpus_from_json

log = logging.getLogger(__name__)

SCHEMA_CAMREST = "camrest-raw"
SCHEMA_MULTIWOZ = "multiwoz-raw"
SCHEMAS = (SCHEMA_CAMREST, SCHEMA_MULTIWOZ)


class ConversionError(Exception):
    pass


@dataclass
class ConversionLog:
    schema_id: str
    dialogs_in: int = 0
    dialogs_out: int = 0
    skipped_turns: int = 0
    skipped_dialogs: int = 0
    lossy_fields: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def warn(self, msg: str) -> None:
        self.warnings.append(msg)
        log.warning("%s: %s", self.schema_id, msg)

    def lossy(self, msg: str) -> None:
        if msg not in self.lossy_fields:
            self.lossy_fields.append(msg)

    def summary(self) -> str:
        return (
            f"{self.schema_id}: {self.dialogs_out}/{self.dialogs_in} dialogs converted, "
            f"{self.skipped_dialogs} dialogs and {self.skipped_turns} turns skipped, "
            f"{len(self.warnings)} warnings"
        )


def convert_raw(path, schema_id: str, db_path=None) -> tuple[Corpus, ConversionLog]:
    """Convert a raw corpus file to a canonical Corpus plus its conversion log."""
    if schema_id not in SCHEMAS:
        raise ConversionError(f"unknown raw schema {schema_id!r}; expected one of {SCHEMAS}")
    raw = _read_json(path)
    database = _read_json(db_path) if db_path is not None else []
    if schema_id == SCHEMA_CAMREST:
        return _convert_camrest(raw, database)
    return _convert_multiwoz(raw, database)


def _read_json(path):
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
            raise ConversionError(f"{path}: not valid JSON: {e}") from e


def _slot_key(slot: str) -> str:
    return slot.strip().lower().replace(" ", "_")


def _convert_camrest(raw, database: list[dict]) -> tuple[Corpus, ConversionLog]:
    conv = ConversionLog(schema_id=SCHEMA_CAMREST)
    if not isinstance(raw, list):
        raise ConversionError("camrest-raw top level must be a JSON list of dialogs")
    domain = "restaurant"
    informable: dict[str, set[str]] = {}
    requestable: set[str] = set()
    act_types = {"inform", "request"}

    # First pass: collect the ontology from goal and turn annotations.
    for d in raw:
        goal = d.get("goal", {})
        for slot, value in goal.get("constraints", []):
            informable.setdefault(_slot_key(slot), set()).add(str(value).lower())
        for slot in goal.get("request-slots", []):
            requestable.add(_slot_key(slot))
        for turn in d.get("dial", []):
            for item in turn.get("usr", {}).get("slu", []):
                act = item.get("act")
                if act:
                    act_types.add(str(act).lower())
                for pair in item.get("slots", []):
                    if len(pair) != 2:
                        continue
                    slot, value = pair
                    if str(slot) == "slot":  # request acts encode the slot as the value
                        requestable.add(_slot_key(str(value)))
                    else:
                        informable.setdefault(_slot_key(str(slot)), set()).add(str(value).lower())
            for act in _camrest_sys_acts(turn):
                act_types.add(act["act"])
    for rec in database:
        for k, v in rec.items():
            if k in ("id", "location", "type"):
                continue
            requestable.add(_slot_key(k))

    slots = {s: SlotSpec(informable=True, requestable=s in requestable) for s in informable}
    for s in requestable:
        if s not in slots:
            slots[s] = SlotSpec(informable=False, requestable=True)
    values = {s: sorted(vs) for s, vs in informable.items()}
    # Database attribute values are delexicalization targets too (entity names above all).
    for rec in database:
        for k, v in rec.items():
            sk = _slot_key(k)
            if sk in slots and not slots[sk].informable:
                values.setdefault(sk, [])
                if str(v).lower() not in values[sk]:
                    values[sk] = sorted(set(values[sk]) | {str(v).lower()})
    ontology_obj = {
        "domains": [domain],
        "slots": {domain: {s: {"informable": spec.informable, "requestable": spec.requestable} for s, spec in slots.items()}},
        "values": {domain: values},
        "act_types": sorted(act_types),
    }

    db_records = []
    for rec in database:
        out = {"domain": domain}
        for k, v in rec.items():
            out[_slot_key(k)] = str(v).lower()
        for s, spec in slots.items():
            if spec.informable and s not in out:
                out[s] = ""
                conv.lossy(f"database records lacking informable slot {s!r} backfilled with an empty value")
        db_records.append(out)

    dialogs = []
    for d in raw:
        conv.dialogs_in += 1
        did = str(d.get("dialogue_id", d.get("id", conv.dialogs_in - 1)))
        goal_raw = d.get("goal", {})
        goal = {
            "constraints": {domain: {_slot_key(s): str(v).lower() for s, v in goal_raw.get("constraints", [])}},
            "requested": {domain: sorted(_slot_key(s) for s in goal_raw.get("request-slots", []))},
        }
        if "text" in goal_raw:
            conv.lossy("goal.text (free-text goal description) is dropped")
        turns = []
        informed: dict[str, str] = {}
        requested: set[str] = set()
        ok = True
        for i, turn in enumerate(d.get("dial", [])):
            try:
                usr = turn["usr"]["transcript"]
                sys_sent = turn["sys"]["sent"]
            except (KeyError, TypeError):
                conv.skipped_turns += 1
                conv.warn(f"dialog {did}: turn {i} lacks usr/sys text; turn skipped")
                ok = False
                break
            try:
                for item in turn.get("usr", {}).get("slu", []):
                    act = str(item.get("act", "")).lower()
                    for pair in item.get("slots", []):
                        if len(pair) != 2:
                            raise ValueError(f"malformed slot pair {pair!r}")
                        slot, value = str(pair[0]), str(pair[1])
                        if act == "request" or slot == "slot":
                            requested.add(_slot_key(value))
                        else:
                            informed[_slot_key(slot)] = value.lower()
                acts = _camrest_sys_acts(turn)
            except (ValueError, TypeError, AttributeError) as e:
                conv.skipped_turns += 1
                conv.warn(f"dialog {did}: unparseable act annotation in turn {i} ({e}); turn skipped")
                continue
            turns.append(
                {
                    "t": len(turns) + 1,
                    "user": str(usr).lower(),
                    "state": {
                        "informed": {domain: dict(informed)},
                        "requested": [[domain, s] for s in sorted(requested) if s in slots],
                    },
                    "sys_acts": [DialogAct(a["act"], domain, a["slot"]).to_json() for a in acts],
                    "response": str(sys_sent).lower(),
                    "domain": domain,
                }
            )
        if not ok or not turns:
            conv.skipped_dialogs += 1
            continue
        dialogs.append({"id": did, "goal": goal, "turns": turns})
        conv.dialogs_out += 1

    if not any(d0.get("dial") and _camrest_sys_acts(d0["dial"][0]) for d0 in raw if isinstance(d0, dict)):
        conv.lossy("system dialog acts absent from camrest-raw; sys_acts left empty")
    corpus = corpus_from_json({"ontology": ontology_obj, "database": db_records, "dialogs": dialogs})
    return corpus, conv


def _camrest_sys_acts(turn: dict) -> list[dict]:
    """System acts from a camrest-raw turn; the DA field is absent in most releases."""
    out = []
    for item in turn.get("sys", {}).get("DA", []):
        if isinstance(item, str):
            parts = item.split("-", 1)
            out.append({"act": parts[0].lower(), "slot": _slot_key(parts[1]) if len(parts) > 1 else None})
        elif isinstance(item, dict) and "act" in item:
            slot = item.get("slot")
            out.append({"act": str(item["act"]).lower(), "slot": _slot_key(str(slot)) if slot else None})
        else:
            raise ValueError(f"unrecognized DA entry {item!r}")
    return out


def _convert_multiwoz(raw, database: list[dict]) -> tuple[Corpus, ConversionLog]:
    conv = ConversionLog(schema_id=SCHEMA_MULTIWOZ)
    if not isinstance(raw, dict):
        raise ConversionError("multiwoz-raw top level must be a JSON object keyed by dialog id")

    informable: dict[str, dict[str, set[str]]] = {}
    requestable: dict[str, set[str]] = {}
    act_types = {"inform", "request"}

    def note_informable(dom: str, slot: str, value: str) -> None:
        if not value or value in ("not mentioned", "none", "dontcare", ""):
            return
        informable.setdefault(dom, {}).setdefault(_slot_key(slot), set()).add(value.lower())

    parsed: list[tuple[str, dict]] = sorted(raw.items())
    for _did, d in parsed:
        for i, entry in enumerate(d.get("log", [])):
            for dom, meta in (entry.get("metadata") or {}).items():
                for slot, value in (meta.get("semi") or {}).items():
                    note_informable(dom, slot, str(value))
            for act_key, slot_pairs in (entry.get("dialog_act") or {}).items():
                parts = act_key.split("-")
                if len(parts) == 2:
                    act_types.add(parts[1].lower())
                    dom = parts[0].lower()
                    for pair in slot_pairs:
                        if len(pair) >= 1 and parts[1].lower() == "request":
                            requestable.setdefault(dom, set()).add(_slot_key(str(pair[0])))

    domains = sorted(set(informable) | set(requestable))
    if not domains:
        domains = ["general"]
    ontology_obj = {
        "domains": domains,
        "slots": {
            dom: {
                **{s: {"informable": True, "requestable": s in requestable.get(dom, set())}
                   for s in informable.get(dom, {})},
                **{s: {"informable": False, "requestable": True}
                   for s in requestable.get(dom, set()) if s not in informable.get(dom, {})},
            }
            for dom in domains
        },
        "values": {dom: {s: sorted(vs) for s, vs in informable.get(dom, {}).items()} for dom in domains},
        "act_types": sorted(act_types),
    }

    db_records = []
    for rec in database:
        if "domain" not in rec:
            conv.warn(f"database record without domain skipped: {rec}")
            continue
        out = {k: (str(v).lower() if k != "domain" else v) for k, v in rec.items()}
        dom = out["domain"]
        for s, spec in ontology_obj["slots"].get(dom, {}).items():
            if spec["informable"] and s not in out:
                out[s] = ""
                conv.lossy(f"database records lacking informable slot {s!r} backfilled with an empty value")
        db_records.append(out)

    dialogs = []
    for did, d in parsed:
        conv.dialogs_in += 1
        logs = d.get("log", [])
        if len(logs) % 2 != 0:
            conv.warn(f"dialog {did}: odd log length {len(logs)}; trailing entry dropped")
            conv.skipped_turns += 1
            logs = logs[:-1]
        turns = []
        informed: dict[str, dict[str, str]] = {}
        requested: list[list[str]] = []
        active_domain = domains[0]
        for i in range(0, len(logs), 2):
            usr, sys = logs[i], logs[i + 1]
            try:
                user_text = str(usr["text"]).lower()
                sys_text = str(sys["text"]).lower()
            except (KeyError, TypeError):
                conv.skipped_turns += 1
                conv.warn(f"dialog {did}: turn {i // 2} lacks text; turn skipped")
                continue
            acts = []
            try:
                for act_key, slot_pairs in (sys.get("dialog_act") or {}).items():
                    parts = act_key.split("-")
                    if len(parts) != 2:
                        raise ValueError(f"malformed act key {act_key!r}")
                    dom, act = parts[0].lower(), parts[1].lower()
                    if dom not in ontology_obj["slots"]:
                        continue
                    active_domain = dom
                    for pair in slot_pairs:
                        slot = _slot_key(str(pair[0])) if pair else None
                        if slot == "none" or slot not in ontology_obj["slots"][dom]:
                            slot = None
                        acts.append(DialogAct(act, dom, slot).to_json())
            except (ValueError, TypeError, AttributeError) as e:
                conv.skipped_turns += 1
                conv.warn(f"dialog {did}: unparseable act annotation in turn {i // 2} ({e}); turn skipped")
                continue
            for dom, meta in (sys.get("metadata") or {}).items():
                if dom not in ontology_obj["slots"]:
                    continue
                for slot, value in (meta.get("semi") or {}).items():
                    v = str(value)
                    if v and v not in ("not mentioned", "none", "dontcare"):
                        informed.setdefault(dom, {})[_slot_key(slot)] = v.lower()
                        active_domain = dom
            for act_key, slot_pairs in (usr.get("dialog_act") or {}).items():
                parts = act_key.split("-")
                if len(parts) == 2 and parts[1].lower() == "request":
                    dom = parts[0].lower()
                    for pair in slot_pairs:
                        slot = _slot_key(str(pair[0])) if pair else None
                        if slot and dom in ontology_obj["slots"] and slot in ontology_obj["slots"][dom]:
                            if [dom, slot] not in requested:
                                requested.append([dom, slot])
            turns.append(
                {
                    "t": len(turns) + 1,
                    "user": user_text,
                    "state": {"informed": {d_: dict(sv) for d_, sv in informed.items()}, "requested": sorted(requested)},
                    "sys_acts": acts,
                    "response": sys_text,
                    "domain": active_domain,
                }
            )
        if not turns:
            conv.skipped_dialogs += 1
            continue
        goal_raw = d.get("goal", {}) or {}
        goal = {"constraints": {}, "requested": {}}
        for dom, sub in goal_raw.items():
            if not isinstance(sub, dict) or dom not in ontology_obj["slots"]:
                continue
            info = sub.get("info") or {}
            for slot, value in info.items():
                sk = _slot_key(slot)
                if sk in ontology_obj["slots"][dom]:
                    goal["constraints"].setdefault(dom, {})[sk] = str(value).lower()
            for slot in (sub.get("reqt") or []):
                sk = _slot_key(str(slot))
                if sk in ontology_obj["slots"][dom]:
                    goal["requested"].setdefault(dom, []).append(sk)
        for dom in goal["requested"]:
            goal["requested"][dom] = sorted(goal["requested"][dom])
        dialogs.append({"id": did, "goal": goal, "turns": turns})
        conv.dialogs_out += 1

    conv.lossy("booking annotations (metadata.book) are dropped")
    corpus = corpus_from_json({"ontology": ontology_obj, "database": db_records, "dialogs": dialogs})
    return corpus, conv
