"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gpdalg.cli  # noqa: E402
import gate  # noqa: E402
import spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build_cases, within_budget  # noqa: E402

EXPECTED = json.loads((ROOT / "bench" / "expected.json").read_text(encoding="utf-8"))


def _run(case, tmp_path):
    if case.text is None:
        path = ROOT / case.filename
    else:
        path = tmp_path / case.filename
        path.write_text(case.text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = gpdalg.cli.main(case.argv(str(path)))
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    first, again = build_cases(workload, 7), build_cases(workload, 7)
    assert [(c.name, c.text) for c in first] == [(c.name, c.text) for c in again]
    other = build_cases(workload, 8)
    assert [c.name for c in other] == [c.name for c in first]
    assert any(a.text != b.text for a, b in zip(first, other) if a.text is not None)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_verify_inputs_within_budget(workload):
    for case in build_cases(workload, DEFAULT_SEED):
        assert within_budget(case), case.name
        stored = EXPECTED[workload].get(case.key(ROOT))
        if case.verify and stored is not None:
            assert "skipped" not in stored, case.name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_predictions_match_the_program(workload, tmp_path):
    """Check counts, Maschke verdicts, oracle status and stored outputs
    hold at the default seed; only the recorded known defect fails."""
    for case in build_cases(workload, DEFAULT_SEED):
        rc, out, err = _run(case, tmp_path)
        stored = EXPECTED[workload].get(case.key(ROOT))
        reasons = gate.check(case, rc, out, err, stored)
        assert gate.unexpected(case, reasons) == [], (case.name, reasons)
        assert bool(reasons) == (case.known_defect is not None), case.name
        if case.verify and case.checks is not None and rc == 0:
            assert gate.checks_done(gate.parse_report(out, case.fmt)) == case.checks
            assert case.checks > 0


def test_groupoid_check_count_is_arrows_plus_one_squared():
    for case in build_cases("groupoid_verify", DEFAULT_SEED):
        assert case.checks == (case.sizes["arrows"] + 1) ** 2


def test_gate_flags_corrupted_expected_output(tmp_path):
    case = next(c for c in build_cases("groupoid_verify", DEFAULT_SEED) if c.ring == "Q")
    rc, out, err = _run(case, tmp_path)
    stored = EXPECTED["groupoid_verify"][case.key(ROOT)]
    assert gate.check(case, rc, out, err, stored) == []
    corrupted = stored.replace("semisimple=true", "semisimple=false")
    assert corrupted != stored
    assert "stdout differs from the stored output" in gate.check(case, rc, out, err, corrupted)


def test_gate_flags_wrong_reports(tmp_path):
    case = next(c for c in build_cases("charp_oracle", DEFAULT_SEED) if c.semisimple is False)
    rc, out, err = _run(case, tmp_path)
    assert gate.check(case, rc, out, err, None) == []
    t = case.checks
    wrong = {
        "count": out.replace(f"verified_pairs={t}/{t}", f"verified_pairs={t - 1}/{t}"),
        "skipped": out.replace("oracle_agreement=agree", "oracle_agreement=skipped"),
        "maschke": out.replace("semisimple=false", "semisimple=true"),
        "shape": out.replace("shape=M_", "shape=M_1(GF(9)) x M_"),
    }
    for label, text in wrong.items():
        assert text != out, label
        assert gate.check(case, rc, text, err, None), label
    assert gate.check(case, 2, out, err, None)
    assert gate.check(case, rc, out, "Traceback (most recent call last):\n", None)


def test_nested_laurent_shape_is_the_only_known_failure(tmp_path):
    cases = build_cases("leavitt_verify", DEFAULT_SEED)
    known = [c for c in cases if c.known_defect]
    assert known and all(c.ring == "Laurent(Q)" for c in known)
    rc, out, err = _run(known[0], tmp_path)
    reasons = gate.check(known[0], rc, out, err, None)
    assert reasons and all(r.startswith(gate.SHAPE_UNPARSED) for r in reasons)
    assert gate.unexpected(known[0], reasons) == []


def test_traced_report_matches_untraced(tmp_path):
    case = next(c for c in build_cases("leavitt_verify", DEFAULT_SEED) if c.oracle == "agree")
    plain = _run(case, tmp_path)
    tracer = spans.Tracer()
    restore = spans.install(gpdalg.cli, tracer)
    try:
        with tracer.span(spans.ROOT):
            traced = _run(case, tmp_path)
    finally:
        restore()
    assert traced == plain
    names = {rec[0] for rec in tracer.spans}
    assert {"leavitt.verify_relations", "verdicts.oracle", "report.render"} <= names
    times, counts = spans.layer_totals(tracer.spans)
    assert times["verdicts.oracle_s.trace_form"] > 0
    assert counts["leavitt.relation_checks"] == case.checks


def test_every_layer_exists_in_the_cli_namespace():
    for name in spans.LAYERS:
        assert callable(getattr(gpdalg.cli, name)), name
