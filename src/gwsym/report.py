"""Deterministic verification reports in text and machine form.

The machine format is line-delimited and versioned: tab-separated records
``kind<TAB>field...`` with a schema header.  Rendering is deterministic
(exact values, fixed ordering, no timestamps) and round-trips losslessly.
"""
from __future__ import annotations

from collections import namedtuple

SCHEMA_VERSION = "1"

Verdict = namedtuple("Verdict", "name passed claim detail", defaults=("",))
Value = namedtuple("Value", "key value")
TraceLine = namedtuple("TraceLine", "text")


class Section:
    __slots__ = ("title", "entries")

    def __init__(self, title):
        self.title = title
        self.entries = []

    def verdict(self, name, passed, claim, detail=""):
        self.entries.append(Verdict(name, bool(passed), claim, detail))

    def value(self, key, value):
        self.entries.append(Value(key, str(value)))

    def trace(self, text):
        self.entries.append(TraceLine(str(text)))


class Report:
    __slots__ = ("sections",)

    def __init__(self):
        self.sections = []

    def section(self, title) -> Section:
        s = Section(title)
        self.sections.append(s)
        return s

    def all_passed(self) -> bool:
        return all(e.passed for s in self.sections for e in s.entries
                   if isinstance(e, Verdict))

    def failures(self):
        return [e for s in self.sections for e in s.entries
                if isinstance(e, Verdict) and not e.passed]

    # -- text ---------------------------------------------------------------
    def to_text(self) -> str:
        lines = []
        for s in self.sections:
            lines.append(f"== {s.title} ==")
            for e in s.entries:
                if isinstance(e, Verdict):
                    mark = "PASS" if e.passed else "FAIL"
                    lines.append(f"  [{mark}] {e.name}: {e.claim}")
                    if e.detail:
                        for d in e.detail.splitlines():
                            lines.append(f"         {d}")
                elif isinstance(e, Value):
                    lines.append(f"  {e.key} = {e.value}")
                else:
                    lines.append(f"  | {e.text}")
            lines.append("")
        status = "ALL CHECKS PASSED" if self.all_passed() else \
            f"{len(self.failures())} CHECK(S) FAILED"
        lines.append(status)
        return "\n".join(lines) + "\n"

    # -- machine ------------------------------------------------------------
    def to_machine(self) -> str:
        rows = [f"schema\tgwsym-report\t{SCHEMA_VERSION}"]
        for s in self.sections:
            rows.append(f"section\t{_esc(s.title)}")
            for e in s.entries:
                if isinstance(e, Verdict):
                    rows.append("verdict\t{}\t{}\t{}\t{}".format(
                        _esc(e.name), "pass" if e.passed else "fail",
                        _esc(e.claim), _esc(e.detail)))
                elif isinstance(e, Value):
                    rows.append(f"value\t{_esc(e.key)}\t{_esc(e.value)}")
                else:
                    rows.append(f"trace\t{_esc(e.text)}")
        rows.append(f"status\t{'pass' if self.all_passed() else 'fail'}")
        return "\n".join(rows) + "\n"


def _esc(text: str) -> str:
    return (str(text).replace("\\", "\\\\").replace("\t", "\\t")
            .replace("\n", "\\n"))


def _unesc(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"\\": "\\", "t": "\t", "n": "\n"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


#: number of fields after the kind, per record kind
_FIELDS = {"section": 1, "verdict": 4, "value": 2, "trace": 1, "status": 1}


def parse_machine(text: str) -> Report:
    """Inverse of to_machine (loses nothing).

    Blank lines are skipped; any other malformed line raises
    ``ValueError("line N: ...")``.
    """
    report = Report()
    section = None
    lines = text.split("\n")  # the only line break _esc escapes
    header = lines[0].split("\t")
    if header[:2] != ["schema", "gwsym-report"] or len(header) != 3:
        raise ValueError("line 1: expected 'schema<TAB>gwsym-report<TAB>N'")
    if header[2] != SCHEMA_VERSION:
        raise ValueError(f"line 1: unsupported schema version {header[2]}")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        kind, *fields = map(_unesc, line.split("\t"))
        if kind not in _FIELDS:
            raise ValueError(f"line {lineno}: unknown record kind {kind!r}")
        if len(fields) != _FIELDS[kind]:
            raise ValueError(f"line {lineno}: {kind} record needs "
                             f"{_FIELDS[kind]} fields, got {len(fields)}")
        if kind == "section":
            section = report.section(fields[0])
        elif kind != "status" and section is None:
            raise ValueError(f"line {lineno}: {kind} record before any "
                             "section")
        elif kind == "verdict":
            name, status, claim, detail = fields
            if status not in ("pass", "fail"):
                raise ValueError(f"line {lineno}: verdict status {status!r} "
                                 "is neither 'pass' nor 'fail'")
            section.entries.append(Verdict(name, status == "pass", claim,
                                           detail))
        elif kind == "value":
            section.entries.append(Value(*fields))
        elif kind == "trace":
            section.entries.append(TraceLine(*fields))
    return report
