"""Correctness gate: every report is checked against what the benchmark
predicts for its input, and against the stored output of the default
seed where one exists."""
from __future__ import annotations

import re

from gpdalg.rings import parse_ring_descriptor

_BLOCK = re.compile(r"M_(\d+)\((.*)\)")
SHAPE_UNPARSED = "shape entry ring does not parse"


def parse_report(stdout: str, fmt: str) -> dict:
    """The verdict fields of a report in either output format."""
    if fmt == "machine":
        raw = dict(line.partition("=")[::2] for line in stdout.splitlines())
        return {
            "semisimple": {"true": True, "false": False}.get(raw.get("semisimple")),
            "shape": raw.get("shape"),
            "verified": raw.get("verified_pairs"),
            "oracle": raw.get("oracle_agreement"),
        }
    raw = dict(line.partition(": ")[::2] for line in stdout.splitlines())
    return {
        "semisimple": {"yes": True, "no": False}.get(raw.get("semisimple")),
        "shape": raw.get("shape"),
        "verified": (raw.get("verification") or "").split(" ", 1)[0],
        "oracle": (raw.get("oracle") or "").split(" ", 1)[0],
    }


def checks_done(report: dict) -> int:
    """T of verified_pairs=P/T, 0 when nothing was verified."""
    total = (report.get("verified") or "").partition("/")[2]
    return int(total) if total.isdigit() else 0


def shape_entry_rings(shape: str):
    """Entry ring descriptors of a shape string, group suffix removed.
    Raises ValueError when the string is not a product of M_n(...)."""
    if shape == "infinite":
        return []
    out = []
    for block in shape.split(" x "):
        m = _BLOCK.fullmatch(block)
        if m is None:
            raise ValueError(f"malformed block {block!r}")
        entry = m.group(2)
        if entry.endswith("]"):
            entry = entry[: entry.rindex("[")]
        out.append(entry)
    return out


def check(case, rc, stdout: str, stderr: str, expected: str | None) -> list:
    """Reasons the report fails the gate; empty when it passes."""
    bad = []
    if "Traceback" in stderr:
        bad.append("traceback")
    if rc != case.expect_exit:
        bad.append(f"exit {rc}, expected {case.expect_exit}")
    if expected is not None and stdout != expected:
        bad.append("stdout differs from the stored output")
    if bad or case.expect_exit != 0:
        return bad
    report = parse_report(stdout, case.fmt)
    if case.verify:
        if "skipped" in stdout:
            bad.append("skipped under --verify")
        want = f"{case.checks}/{case.checks}" if case.checks is not None else "unsupported"
        want_oracle = case.oracle
    else:
        want, want_oracle = "skipped", "skipped"
    if report["verified"] != want:
        bad.append(f"verified {report['verified']}, expected {want}")
    if report["oracle"] != want_oracle:
        bad.append(f"oracle {report['oracle']}, expected {want_oracle}")
    if report["semisimple"] != case.semisimple:
        bad.append(f"semisimple {report['semisimple']} disagrees with Maschke")
    try:
        entries = shape_entry_rings(report["shape"] or "")
    except ValueError as e:
        bad.append(f"shape: {e}")
        entries = []
    for entry in entries:
        try:
            parse_ring_descriptor(entry)
        except ValueError:
            bad.append(f"{SHAPE_UNPARSED}: {entry}")
    return bad


def unexpected(case, reasons) -> list:
    """The reasons not explained by the case's recorded known defect."""
    if case.known_defect is None:
        return list(reasons)
    return [r for r in reasons if not r.startswith(SHAPE_UNPARSED)]
