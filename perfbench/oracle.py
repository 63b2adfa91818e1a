"""The README classification table as data, and the checks every op must pass.

The table (it holds for -f exactly as for f):

    structure      Kill f                  NKf                  G1 f
    f0, f1         exactly (s,t) = (1,4/3) exactly the line s=1 all (s, t)
    f2, f3         never                   all (s, t)           all (s, t)
    f4             never                   never                all (s, t)

Each check returns a list of problems ``(kind, detail)``.  ``kind`` is one of
PROBLEM_KINDS; an op with any problem is a failed op, and an op with a
"wrong" problem also counts towards the wrong fraction.
"""

from __future__ import annotations

import json

CONDITIONS = ("kill", "nk", "g1")
KILL_POINT = (1.0, 4.0 / 3.0)

# Zero set of each condition: "point" is KILL_POINT, "line" is s = 1.
TABLE = {
    "f0": {"kill": "point", "nk": "line", "g1": "all"},
    "f1": {"kill": "point", "nk": "line", "g1": "all"},
    "f2": {"kill": "empty", "nk": "all", "g1": "all"},
    "f3": {"kill": "empty", "nk": "all", "g1": "all"},
    "f4": {"kill": "empty", "nk": "empty", "g1": "all"},
}

# Structures the table names for each order k, up to sign.
LABELS_BY_ORDER = {4: ("f0",), 6: ("f1", "f2", "f3", "f4")}

# README verdict policy: member below 1e-9, non-member above 1e-3, and the
# band in between is indeterminate.  Sweep files carry memberships and
# residuals but no indeterminate flag, so a non-member at or below the margin
# is read as indeterminate.
NONMEMBER_MARGIN = 1e-3

# Refined zero-set coordinates are compared at this absolute tolerance.
COORD_TOL = 1e-5

PROBLEM_KINDS = ("wrong", "indeterminate", "bytes-mismatch", "malformed")


def expected_member(label: str, condition: str, s: float, t: float) -> bool:
    """Membership the table asserts for structure ``label`` at (s, t)."""
    zero_set = TABLE[label.lstrip("-")][condition]
    if zero_set == "all":
        return True
    if zero_set == "empty":
        return False
    if zero_set == "line":
        return s == 1.0
    return (s, t) == KILL_POINT


def check_verdicts(label: str, s: float, t: float, members: dict, indeterminate: dict) -> list:
    """Problems in one structure's three verdicts at one (s, t)."""
    problems = []
    for cond in CONDITIONS:
        if indeterminate[cond]:
            problems.append(("indeterminate", f"{label} {cond} at ({s!r}, {t!r})"))
        elif members[cond] != expected_member(label, cond, s, t):
            problems.append(("wrong", f"{label} {cond} at ({s!r}, {t!r}): member={members[cond]}"))
    return problems


def check_verify(k: int, code: int, text: str) -> list:
    """Problems in the output of one ``flagf verify --format json`` call."""
    try:
        doc = json.loads(text)
    except ValueError:
        return [("malformed", f"verify exit {code}: output is not JSON")]
    problems = []
    if code != 0 or not doc.get("passed"):
        problems.append(("wrong", f"verify exit {code}, passed={doc.get('passed')}"))
    checks = doc.get("checks") or []
    if not checks:
        problems.append(("malformed", "verify reported no checks"))
    for chk in checks:
        if not chk.get("passed"):
            problems.append(("wrong", f"check {chk.get('name')} failed"))
    want = sorted(lab for base in LABELS_BY_ORDER[k] for lab in (base, "-" + base))
    got = sorted(doc.get("structures", {}).get("f", []))
    if got != want:
        problems.append(("wrong", f"f-structures {got}, expected {want}"))
    return problems


def check_zero_set(label: str, condition: str, entry: dict) -> list:
    """Problems in one summary row (a detected zero set) of a sweep."""
    zero_set = TABLE[label.lstrip("-")][condition]
    kind, lines, points = entry.get("kind"), entry.get("lines", []), entry.get("points", [])
    if zero_set in ("all", "empty"):
        ok = kind == zero_set
    elif zero_set == "line":
        ok = (
            kind == "line"
            and not points
            and len(lines) == 1
            and lines[0]["axis"] == "s"
            and abs(lines[0]["value"] - 1.0) < COORD_TOL
        )
    else:
        ok = (
            kind == "points"
            and not lines
            and len(points) == 1
            and all(abs(a - b) < COORD_TOL for a, b in zip(points[0], KILL_POINT))
        )
    if ok:
        return []
    return [("wrong", f"{label} {condition} zero set is {entry.get('description')!r}, table says {zero_set}")]


def check_sweep(k: int, code: int, files: dict) -> list:
    """Problems in the files one ``flagf sweep --format json`` call wrote.

    ``files`` maps file name to its text.  The summary rows must match the
    table, and so must every grid-point verdict in the per-structure files.
    """
    if code != 0 or "summary.json" not in files:
        return [("malformed", f"sweep exit {code}, files {sorted(files)}")]
    try:
        summary = json.loads(files["summary.json"])["structures"]
        docs = {name: json.loads(text) for name, text in files.items() if name != "summary.json"}
    except (ValueError, KeyError) as exc:
        return [("malformed", f"sweep output does not parse: {exc!r}")]
    problems = []
    want = sorted(LABELS_BY_ORDER[k])
    if sorted(summary) != want or sorted(docs) != [f"{lab}.json" for lab in want]:
        problems.append(("wrong", f"sweep structures {sorted(summary)}, expected {want}"))
    for label, rows in sorted(summary.items()):
        for cond in CONDITIONS:
            problems += check_zero_set(label, cond, rows[cond])
    for name, doc in sorted(docs.items()):
        label = name[: -len(".json")]
        if label.lstrip("-") not in TABLE:
            continue
        for row in doc["sweep"]:
            members = row["memberships"]
            indet = {
                c: (not members[c]) and row["residuals"][c] <= NONMEMBER_MARGIN for c in CONDITIONS
            }
            problems += check_verdicts(label, row["s"], row["t"], members, indet)
    return problems


class Ledger:
    """Tallies op outcomes and checks that every pass reproduces pass 1.

    Ops are identified by their index in the workload's fixed op list; the
    first digest seen for an op is the reference for all later passes.  The
    tally is per op, not per execution: an op fails if any of its passes
    failed.  How many passes fit in a run depends on the machine's speed, so
    counting executions would make ``failed`` and ``attempted`` vary between
    runs of the same inputs; counting ops keeps them a function of the seed.
    """

    def __init__(self):
        self.reference: dict[int, str] = {}
        self.kinds: dict[int, set[str]] = {}  # op index -> problem kinds seen in any pass
        self.executions = 0
        self.examples: list[str] = []

    def record(self, op_index: int, digest: str, problems: list) -> bool:
        """Add one execution's outcome; returns True iff it passed."""
        problems = list(problems)
        ref = self.reference.setdefault(op_index, digest)
        if digest != ref:
            problems.append(("bytes-mismatch", f"op {op_index} output differs from pass 1"))
        self.executions += 1
        kinds = self.kinds.setdefault(op_index, set())
        if problems and not kinds and len(self.examples) < 8:
            self.examples.append(problems[0][1])
        kinds.update(kind for kind, _ in problems)
        return not problems

    @property
    def attempted(self) -> int:
        return len(self.kinds)

    @property
    def failed(self) -> int:
        return sum(1 for kinds in self.kinds.values() if kinds)

    @property
    def wrong(self) -> int:
        return sum(1 for kinds in self.kinds.values() if "wrong" in kinds)

    @property
    def by_kind(self) -> dict[str, int]:
        """Number of ops that showed each kind of problem."""
        return {kind: sum(1 for kinds in self.kinds.values() if kind in kinds) for kind in PROBLEM_KINDS}

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted

    @property
    def wrong_frac(self) -> float:
        return self.wrong / self.attempted

    @property
    def sound(self) -> bool:
        """No op crashed, produced malformed output or changed its bytes."""
        by_kind = self.by_kind
        return not (by_kind["malformed"] or by_kind["bytes-mismatch"])
