"""Scenario files: a small TOML-style format parsed with line diagnostics.

Sections are `[name]` headers; entries are `key = value` with integers,
floats, booleans, and (optionally quoted) strings. Every schema complaint
carries the offending line number. The full key reference lives in
docs/bench.md.
"""

from dataclasses import dataclass

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
    source: str = "<memory>"


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


def parse_text(text, source="<memory>"):
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


_FABRIC_KEYS = {"loss": float, "reorder": float, "base_delay_us": int,
                "jitter_us": int, "byteswap": bool}
_WORKLOAD_KEYS = {
    "echo": {"msg_size": int, "inflight": int, "count": int, "mode": str,
             "tick_us": int},
    "conn_setup": {"trials": int, "mode": str},
    "isolation": {"bulk_apps": int, "bulk_flows": int, "bulk_inflight": int,
                  "bulk_msg_size": int, "probe_count": int, "warmup_us": int,
                  "tick_us": int},
    "blocking": {"threads": int, "mode": str, "requests": int},
}


def _typed(section, key, expected, default=None, required=False,
           section_name=""):
    if key not in section:
        if required:
            raise ConfigError("[%s] is missing required key %r"
                              % (section_name, key))
        return default
    value, line = section[key]
    if expected is float and isinstance(value, int):
        value = float(value)
    if expected is str:
        value = str(value)
    if not isinstance(value, expected) or (expected is int
                                           and isinstance(value, bool)):
        raise ConfigError("%r must be %s, got %r"
                          % (key, expected.__name__, value), line)
    return value


def _reject_unknown(section, known, section_name):
    for key, (_, line) in section.items():
        if key not in known:
            raise ConfigError("unknown key %r in [%s]" % (key, section_name),
                              line)


def parse_scenario(text, source="<memory>"):
    sections = parse_text(text, source)

    fabric = {}
    fab = sections.pop("fabric", {})
    _reject_unknown(fab, _FABRIC_KEYS, "fabric")
    for key, expected in _FABRIC_KEYS.items():
        value = _typed(fab, key, expected, section_name="fabric")
        if value is not None:
            fabric[key] = value
    for key in ("loss", "reorder"):
        if key in fabric and not 0.0 <= fabric[key] <= 1.0:
            raise ConfigError("%r must be within [0, 1]" % key,
                              fab[key][1])

    hosts = {}
    for name in ("client", "server"):
        sec_name = "host.%s" % name
        sec = sections.pop(sec_name, None)
        if sec is None:
            raise ConfigError("missing [%s] section" % sec_name)
        _reject_unknown(sec, {"ip", "engines"}, sec_name)
        ip = _typed(sec, "ip", str, required=True, section_name=sec_name)
        engines = _typed(sec, "engines", int, required=True,
                         section_name=sec_name)
        if not 1 <= engines <= 64:
            raise ConfigError("engines must be in [1, 64]",
                              sec["engines"][1])
        hosts[name] = {"ip": ip, "engines": engines}
    if hosts["client"]["ip"] == hosts["server"]["ip"]:
        raise ConfigError("client and server must have distinct ips")

    wl = sections.pop("workload", None)
    if wl is None:
        raise ConfigError("missing [workload] section")
    kind = _typed(wl, "kind", str, required=True, section_name="workload")
    if kind not in _WORKLOAD_KEYS:
        raise ConfigError("unknown workload kind %r (expected one of %s)"
                          % (kind, sorted(_WORKLOAD_KEYS)), wl["kind"][1])
    allowed = dict(_WORKLOAD_KEYS[kind], kind=str)
    _reject_unknown(wl, allowed, "workload")
    workload = {"kind": kind}
    for key, expected in _WORKLOAD_KEYS[kind].items():
        value = _typed(wl, key, expected, section_name="workload")
        if value is not None:
            workload[key] = value
    if workload.get("mode") not in (None, "naive", "optimized", "blocking",
                                    "polling"):
        raise ConfigError("unknown mode %r" % workload["mode"],
                          wl["mode"][1])
    if "msg_size" in workload and not 1 <= workload["msg_size"] <= MAX_MESSAGE_BYTES:
        raise ConfigError("msg_size must be within [1, 8 MiB]",
                          wl["msg_size"][1])
    for key in ("tick_us", "inflight"):
        if key in workload and workload[key] < 1:
            raise ConfigError("%s must be >= 1" % key, wl[key][1])

    run = sections.pop("run", {})
    _reject_unknown(run, {"seed"}, "run")
    seed = _typed(run, "seed", int, default=0, section_name="run")

    if sections:
        name = sorted(sections)[0]
        raise ConfigError("unknown section [%s]" % name)
    return Scenario(hosts=hosts, fabric=fabric, workload=workload, seed=seed,
                    source=source)


def load_scenario(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc))
    return parse_scenario(text, source=path)
