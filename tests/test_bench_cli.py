"""Scenario configs, CSV output, determinism, CLI behavior."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from sidenet import CHANNEL_CAPACITY, bench, cli
from sidenet.config import (FABRIC_KEYS, HOST_KEYS, KIND_KEY, REQUIRED,
                            RUN_KEYS, WORKLOAD_KEYS, ConfigError,
                            parse_scenario)
from sidenet.transport import RTO_BASE_US

GOOD_ECHO = """
# minimal echo scenario
[fabric]
loss = 0.0
base_delay_us = 20

[host.client]
ip = "10.0.0.1"
engines = 1

[host.server]
ip = "10.0.0.2"
engines = 1

[workload]
kind = "echo"
msg_size = 64
inflight = 2
count = 200

[run]
seed = 5
"""


def test_scenario_parses():
    sc = parse_scenario(GOOD_ECHO)
    assert sc.hosts["client"]["ip"] == "10.0.0.1"
    assert sc.workload == {"kind": "echo", "msg_size": 64, "inflight": 2,
                           "count": 200}
    assert sc.seed == 5
    assert sc.fabric["loss"] == 0.0


def test_unquoted_string_value_parses():
    sc = parse_scenario(GOOD_ECHO.replace('ip = "10.0.0.1"', "ip = 10.0.0.1"))
    assert sc == parse_scenario(GOOD_ECHO)


@pytest.mark.parametrize("mutation, fragment", [
    ("kind = \"echo\"", "kind = \"warp\""),
    ("engines = 1", "engines = 0"),
    ("loss = 0.0", "loss = 1.5"),
    ("msg_size = 64", "msg_size = 99999999"),
    ("inflight = 2", "inflight = 0"),
    ("base_delay_us = 20", "base_delay_us = -1"),
    ("loss = 0.0", "jitter_us = -3"),
    ("msg_size = 64", "msg_size = 3"),  # below the 8-byte tag
    ("inflight = 2", 'mode = "polling"'),  # a receive mode, not a handshake
    ('ip = "10.0.0.1"', 'ip = "banana"'),
    ('ip = "10.0.0.1"', 'ip = "10.0.0.300"'),
    ("count = 200", "count = true"),  # no boolean values: a bare string
])
def test_schema_violations_carry_line_numbers(mutation, fragment):
    _assert_rejected_at(GOOD_ECHO.replace(mutation, fragment, 1), fragment)


def _assert_rejected_at(broken, fragment):
    expected_line = next(i for i, line in enumerate(broken.splitlines(), 1)
                         if fragment in line)
    with pytest.raises(ConfigError) as err:
        parse_scenario(broken)
    assert err.value.line == expected_line
    assert "line %d" % expected_line in str(err.value)


ECHO_WORKLOAD = 'kind = "echo"\nmsg_size = 64\ninflight = 2\ncount = 200'


def _workload(kind, entry):
    return GOOD_ECHO.replace(ECHO_WORKLOAD, 'kind = "%s"\n%s' % (kind, entry))


@pytest.mark.parametrize("kind, entry", [
    ("isolation", "bulk_apps = 0"),
    ("isolation", "bulk_msg_size = 9000000"),
    ("isolation", "tick_us = 0"),
    ("blocking", "threads = 0"),
    ("blocking", 'mode = "naive"'),  # a handshake mode, not a receive mode
    ("blocking", "threads = 57537"),  # receiver 57536 would listen on 65536
])
def test_workload_schema_violations_carry_line_numbers(kind, entry):
    _assert_rejected_at(_workload(kind, entry), entry)


def test_threads_bound_keeps_listen_ports_in_range():
    sc = parse_scenario(_workload("blocking", "threads = 57536"))
    assert 8000 + sc.workload["threads"] - 1 == 65535


def test_unknown_key_and_section_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_scenario(GOOD_ECHO.replace("[fabric]\nloss = 0.0",
                                         "[fabric]\nloses = 0.0"))
    with pytest.raises(ConfigError, match="unknown section"):
        parse_scenario(GOOD_ECHO + "\n[extra]\nx = 1\n")
    with pytest.raises(ConfigError, match="missing"):
        parse_scenario("[workload]\nkind = \"echo\"\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_scenario("[fabric]\nloss 0.0\n")
    assert err.value.line == 2


def test_echo_scenario_runs_clean():
    sc = parse_scenario(GOOD_ECHO)
    rows, stats = bench.run_scenario(sc)
    assert len(rows) == 1
    row = rows[0]
    assert row["completed"] == row["messages"] == 200
    assert row["retransmits"] == 0
    assert row["p50_us"] <= row["p99_us"] <= row["p999_us"]
    assert any(s["host"] == "fabric" for s in stats)


def test_echo_inflight_above_channel_capacity_completes():
    # A send that the full channel refuses is retried on a later step, not
    # counted as outstanding.
    count = CHANNEL_CAPACITY + 100
    text = GOOD_ECHO.replace("inflight = 2",
                             "inflight = %d" % (2 * CHANNEL_CAPACITY))
    sc = parse_scenario(text.replace("count = 200", "count = %d" % count))
    (row,), _ = bench.run_scenario(sc)
    assert row["completed"] == row["messages"] == count


def test_echo_replay_is_byte_identical():
    sc = parse_scenario(GOOD_ECHO)
    first = bench.write_csv(bench.run_scenario(sc)[0])
    second = bench.write_csv(bench.run_scenario(sc)[0])
    assert first == second
    shifted = bench.write_csv(bench.run_scenario(sc, seed_override=6)[0])
    assert shifted != second


def test_conn_setup_rows_and_success_rate():
    sc = parse_scenario(GOOD_ECHO.replace(
        'kind = "echo"\nmsg_size = 64\ninflight = 2\ncount = 200',
        'kind = "conn_setup"\ntrials = 60').replace(
        "engines = 1", "engines = 2"))
    rows, _ = bench.run_scenario(sc)
    assert len(rows) == 60
    established = sum(r["established"] for r in rows)
    assert established == 60
    first_batch = sum(r["attempts"] == 1 for r in rows)
    assert first_batch >= 48  # generous floor for a small sample
    assert all(r["latency_us"] > 0 for r in rows)


def test_formula_table_rows():
    rows = bench.formulas_rows([1, 4, 8], 0.95)
    by_n = {r["engines"]: r for r in rows}
    assert by_n[4]["naive_batch"] == 47
    assert by_n[8]["naive_batch"] == 191
    assert by_n[4]["optimized_total"] == 25
    assert by_n[8]["optimized_total"] == 55
    assert by_n[4]["optimized_per_side"] == 13
    assert by_n[1] == {"engines": 1, "target_p": 0.95, "naive_batch": 1,
                       "optimized_per_side": 1, "optimized_total": 1}


def test_blocking_scenario_small():
    rows, _, _ = bench.run_blocking(
        {"client": {"ip": "10.0.0.1", "engines": 1},
         "server": {"ip": "10.0.0.2", "engines": 1}},
        {}, {"threads": 2, "mode": "blocking", "requests": 40}, seed=2)
    row = rows[0]
    assert row["completed"] == 40
    assert row["receiver_spins"] == 0
    assert row["wakeups"] == 40


def test_polling_scenario_spins():
    rows, _, _ = bench.run_blocking(
        {"client": {"ip": "10.0.0.1", "engines": 1},
         "server": {"ip": "10.0.0.2", "engines": 1}},
        {}, {"threads": 2, "mode": "polling", "requests": 10}, seed=2)
    row = rows[0]
    assert row["completed"] == 10
    assert row["receiver_spins"] > 10_000  # polling burns the shared core


def test_cli_run_and_formulas(tmp_path):
    cfg = tmp_path / "echo.cfg"
    cfg.write_text(GOOD_ECHO)
    out = tmp_path / "echo.csv"
    stats = tmp_path / "stats.csv"
    assert cli.main(["run", str(cfg), "--out", str(out),
                     "--stats", str(stats)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[0].startswith("scenario,")
    assert stats.read_text().count("\n") >= 3

    table = tmp_path / "formulas.csv"
    assert cli.main(["formulas", "--n", "4,8", "--out", str(table)]) == 0
    text = table.read_text()
    assert "47" in text and "191" in text


def test_cli_says_when_a_scenario_writes_no_counters(tmp_path, capsys):
    cfg = tmp_path / "isolation.cfg"
    cfg.write_text("""
[host.client]
ip = "10.0.0.1"
engines = 2

[host.server]
ip = "10.0.0.2"
engines = 2

[workload]
kind = "isolation"
bulk_apps = 1
bulk_flows = 1
bulk_inflight = 2
probe_count = 3
warmup_us = 100
""")
    stats = tmp_path / "stats.csv"
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out.csv"),
                     "--stats", str(stats)]) == 0
    assert not stats.exists()
    err = capsys.readouterr().err
    assert "isolation" in err and str(stats) in err


def test_cli_rejects_bad_scenario(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(GOOD_ECHO.replace('kind = "echo"', 'kind = "nope"'))
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "nope" in err
    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_cli_entry_point_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "sidenet.cli", "formulas", "--n", "4"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "47,13,25" in proc.stdout


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# SHA-256 of the results and stats CSVs of `sidenet run` at each scenario's
# pinned seed. A change that must not alter behaviour leaves these alone; a
# protocol change updates them and says why in CHANGES.md.
PINNED_CSV_SHA256 = {
    "echo": (
        "33534682b507907a13e250050e80e8c1a32a6da230e44bfc9cbfbb5f8702eba0",
        "5aaa5a29234da94af0c014f3e2cea034223f517b057fa719568cd12cd020cd91"),
    "echo_lossy": (
        "ab326071af3321c84a40b17d0b7d3358e20fcc4a93f97cf679ed86b2fdced41a",
        "fe09e2d89024329ee9dd55afa9e99fe49a46cc193476a1620ae7942d8d66e9b7"),
    "conn_setup_8x8": (
        "ba3c03cb534e4d637f70b87cd4e3465fb15e54e5623f326a4b7c968ec466480c",
        "c1487ba86140acd78f0472de1c039a6853ad7404f6c1d538b53e97240048825a"),
}


@pytest.mark.parametrize("name", sorted(PINNED_CSV_SHA256))
def test_scenario_csvs_replay_pinned_bytes(name, tmp_path):
    out, stats = tmp_path / "out.csv", tmp_path / "stats.csv"
    assert cli.main(["run", str(SCENARIOS / ("%s.cfg" % name)),
                     "--out", str(out), "--stats", str(stats)]) == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (out, stats))
    assert digests == PINNED_CSV_SHA256[name]


def _jitter_only_echo():
    """200 x 32 KiB echoes, 4 in flight, +-5 us jitter, no loss, seed 1."""
    sc = parse_scenario((SCENARIOS / "echo_lossy.cfg").read_text())
    sc.fabric.update(loss=0.0, reorder=0.0)
    sc.workload["count"] = 200
    return bench.run_scenario(sc, seed_override=1)[0][0]


def test_jitter_alone_causes_almost_no_spurious_retransmits():
    row = _jitter_only_echo()
    assert row["completed"] == 200
    # Every retransmission here is spurious; the three-report fast
    # retransmit sent 3259 for 9600 unique fragments (0.339).
    assert row["spurious_ratio"] <= 0.01
    assert row["retransmits"] <= 0.01 * 9600


def test_lossy_echo_bounds_spurious_retransmits_and_tail():
    sc = parse_scenario((SCENARIOS / "echo_lossy.cfg").read_text())
    (row,), _ = bench.run_scenario(sc)
    assert row["completed"] == 500
    # The three-report fast retransmit read 0.371 here, and its p99 was a
    # 10 ms retransmission timeout.
    assert row["spurious_ratio"] <= 0.05
    assert row["p99_us"] < RTO_BASE_US


# SHA-256 of a small isolation run's results CSV (all three variants).
PINNED_ISOLATION_SHA256 = (
    "f0aa7cfcbbb3fe17404cd6aad868dc3030869772939a7b4bf7884e288ed41199")


def test_small_isolation_replays_pinned_bytes():
    hosts = {"client": {"ip": "10.0.0.1", "engines": 2},
             "server": {"ip": "10.0.0.2", "engines": 2}}
    rows, _, _ = bench.run_isolation(
        hosts, {"base_delay_us": 20},
        {"kind": "isolation", "probe_count": 20, "bulk_apps": 1}, seed=4)
    assert [r["variant"] for r in rows] == ["baseline", "pinned", "unpinned"]
    digest = hashlib.sha256(bench.write_csv(rows).encode()).hexdigest()
    assert digest == PINNED_ISOLATION_SHA256


def _doc_literal(value):
    if value is REQUIRED:
        return "required"
    if isinstance(value, str):
        return '"%s"' % value
    return str(value)


def _doc_allowed(spec):
    if spec.allowed is None:
        return ""
    if spec.type is str:
        return ", ".join(spec.allowed)
    return "%s to %s" % spec.allowed


def test_docs_list_every_scenario_key_with_its_default():
    tables = {"fabric": FABRIC_KEYS, "host.*": HOST_KEYS, "run": RUN_KEYS,
              "workload": {"kind": KIND_KEY}, **WORKLOAD_KEYS}
    expected = {(section, key, spec.type.__name__, _doc_literal(spec.default),
                 _doc_allowed(spec))
                for section, table in tables.items()
                for key, spec in table.items()}
    doc = Path(__file__).resolve().parent.parent / "docs" / "bench.md"
    listed = {tuple(cell.strip().strip("`")
                    for cell in line.strip("|").split("|"))
              for line in doc.read_text().splitlines()
              if line.startswith("| `")}
    assert listed == expected
