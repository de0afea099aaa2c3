"""Scenario files: a small TOML-style format parsed with line diagnostics.

Sections are `[name]` headers; entries are `key = value` with integers,
floats, booleans, and (optionally quoted) strings. Every schema complaint
carries the offending line number. Each section, and each workload kind,
has one table of its keys (type, default, allowed values); parsing checks
every given key against it and the harness fills in the missing ones from
it. docs/bench.md lists the same tables.
"""

import ipaddress
import math
from dataclasses import dataclass

from .engine import DEFAULT_TICK_US
from .fabric import FabricConfig
from .handshake import MODE_NAIVE, MODE_OPTIMIZED
from .wire import MAX_MESSAGE_BYTES


class ConfigError(Exception):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


@dataclass
class Scenario:
    hosts: dict
    fabric: dict
    workload: dict
    seed: int = 0


def _parse_value(raw, line):
    if raw.startswith('"') or raw.startswith("'"):
        quote = raw[0]
        if len(raw) < 2 or not raw.endswith(quote):
            raise ConfigError("unterminated string", line)
        return raw[1:-1]
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw, 0)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw  # bare string (e.g. an IP address or mode name)


def parse_text(text):
    """Parse scenario text into {section: {key: (value, line)}}."""
    sections = {}
    current = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError("malformed section header %r" % raw_line,
                                  lineno)
            name = line[1:-1].strip()
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value', got %r" % raw_line,
                              lineno)
        if current is None:
            raise ConfigError("entry before any [section]", lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if not key or not raw_value:
            raise ConfigError("expected 'key = value', got %r" % raw_line,
                              lineno)
        if key in current:
            raise ConfigError("duplicate key %r" % key, lineno)
        current[key] = (_parse_value(raw_value, lineno), lineno)
    return sections


REQUIRED = object()  # the default of a key that a scenario must give


@dataclass(frozen=True)
class Key:
    """One scenario key: its type, its default and what it allows.

    `allowed` is the (low, high) bounds of a number, high possibly
    math.inf, or the accepted strings. `field` names the FabricConfig
    field that a [fabric] key sets.
    """

    type: type
    default: object = REQUIRED
    allowed: tuple | None = None
    field: str | None = None

    def check(self, name, value, line):
        if self.type is float and type(value) is int:
            value = float(value)
        elif self.type is str:
            value = str(value)
        if type(value) is not self.type:
            raise ConfigError("%r must be %s, got %r"
                              % (name, self.type.__name__, value), line)
        if self.type is str:
            if self.allowed is not None and value not in self.allowed:
                raise ConfigError("%r must be one of %s, got %r"
                                  % (name, "/".join(self.allowed), value), line)
        elif (self.allowed is not None
              and not self.allowed[0] <= value <= self.allowed[1]):
            raise ConfigError("%r must be within [%s, %s], got %r"
                              % (name, *self.allowed, value), line)
        return value


def _fabric_key(field, allowed=None):
    """A [fabric] key whose type and default are FabricConfig's own."""
    spec = FabricConfig.__dataclass_fields__[field]
    return Key(spec.type, spec.default, allowed, field)


MAX_ENGINES = 64
MAX_PORT = 65535
TRIAL_PORT = 1000     # conn_setup trial i listens on TRIAL_PORT + i
RECEIVER_PORT = 8000  # blocking receiver i listens on RECEIVER_PORT + i
TAG_BYTES = 8         # a closed-loop message opens with its 8-byte tag

_HANDSHAKE_MODES = (MODE_NAIVE, MODE_OPTIMIZED)
_POSITIVE = (1, math.inf)
_MESSAGE = (TAG_BYTES, MAX_MESSAGE_BYTES)

FABRIC_KEYS = {
    "loss": _fabric_key("loss_probability", (0.0, 1.0)),
    "reorder": _fabric_key("reorder_probability", (0.0, 1.0)),
    "base_delay_us": _fabric_key("base_delay_us", (0, math.inf)),
    "jitter_us": _fabric_key("delay_jitter_us", (0, math.inf)),
    "byteswap": _fabric_key("hash_byteswap"),
}
HOST_KEYS = {"ip": Key(str), "engines": Key(int, allowed=(1, MAX_ENGINES))}
RUN_KEYS = {"seed": Key(int, 0)}
WORKLOAD_KEYS = {
    "echo": {
        "msg_size": Key(int, 64, _MESSAGE),
        "inflight": Key(int, 1, _POSITIVE),
        "count": Key(int, 1000, _POSITIVE),
        "mode": Key(str, MODE_OPTIMIZED, _HANDSHAKE_MODES),
        "tick_us": Key(int, DEFAULT_TICK_US, _POSITIVE),
    },
    "conn_setup": {
        "trials": Key(int, 1000, (1, MAX_PORT - TRIAL_PORT + 1)),
        "mode": Key(str, MODE_OPTIMIZED, _HANDSHAKE_MODES),
    },
    "isolation": {
        "bulk_apps": Key(int, 3, (1, MAX_ENGINES)),  # one engine per app
        "bulk_flows": Key(int, 3, _POSITIVE),
        "bulk_inflight": Key(int, 64, _POSITIVE),
        "bulk_msg_size": Key(int, 128, _MESSAGE),
        "probe_count": Key(int, 200, _POSITIVE),
        "warmup_us": Key(int, 5000, (0, math.inf)),
        "tick_us": Key(int, 20, _POSITIVE),
    },
    "blocking": {
        "threads": Key(int, 4, (1, MAX_PORT - RECEIVER_PORT + 1)),
        "mode": Key(str, "blocking", ("blocking", "polling")),
        "requests": Key(int, 1000, _POSITIVE),
    },
}
KIND_KEY = Key(str, REQUIRED, tuple(WORKLOAD_KEYS))


def workload_params(kind, given):
    """Every key of workload `kind`: the value in `given`, else its default."""
    return {key: given.get(key, spec.default)
            for key, spec in WORKLOAD_KEYS[kind].items()}


def _section(section, table, name):
    """Check each entry of a parsed section against its key table."""
    values = {}
    for key, (value, line) in section.items():
        if key not in table:
            raise ConfigError("unknown key %r in [%s]" % (key, name), line)
        values[key] = table[key].check(key, value, line)
    for key, spec in table.items():
        if spec.default is REQUIRED and key not in values:
            raise ConfigError("[%s] is missing required key %r" % (name, key))
    return values


def parse_scenario(text):
    sections = parse_text(text)
    fabric = _section(sections.pop("fabric", {}), FABRIC_KEYS, "fabric")

    hosts = {}
    for name in ("client", "server"):
        sec_name = "host.%s" % name
        sec = sections.pop(sec_name, None)
        if sec is None:
            raise ConfigError("missing [%s] section" % sec_name)
        hosts[name] = _section(sec, HOST_KEYS, sec_name)
        try:  # four decimal parts, each 0-255
            ipaddress.IPv4Address(hosts[name]["ip"])
        except ValueError as exc:
            raise ConfigError("invalid 'ip': %s" % exc, sec["ip"][1])
    if hosts["client"]["ip"] == hosts["server"]["ip"]:
        raise ConfigError("client and server must have distinct ips")

    wl = sections.pop("workload", None)
    if wl is None:
        raise ConfigError("missing [workload] section")
    if "kind" not in wl:
        raise ConfigError("[workload] is missing required key 'kind'")
    kind = KIND_KEY.check("kind", *wl["kind"])
    workload = _section(wl, dict(WORKLOAD_KEYS[kind], kind=KIND_KEY),
                        "workload")

    seed = _section(sections.pop("run", {}), RUN_KEYS, "run").get(
        "seed", RUN_KEYS["seed"].default)

    if sections:
        name = sorted(sections)[0]
        raise ConfigError("unknown section [%s]" % name)
    return Scenario(hosts=hosts, fabric=fabric, workload=workload, seed=seed)


def load_scenario(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc))
    return parse_scenario(text)
