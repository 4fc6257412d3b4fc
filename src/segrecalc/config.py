"""Declarative config files: ring, semigroup, module and job blocks.

The grammar is a sectioned key-value text format:

    # comment
    [ring A]
    variables = x y z
    weights = 1 1 1

    [semigroup S]
    group = 2 2
    generators = 1:00 1:10 1:01

    [module omega]
    pair = k2_k3          # a bundled ring pair: k2_k3, k3_w12 or k3_k3
    shift = 1

    [job report]
    kind = segre-report
    ring_a = A
    ring_b = B
    shifts = -1 0 1 2 3

Values are whitespace-separated tokens; numbers are exact integers, and
no expression evaluation happens.  Ring weights are positive integers,
one per variable: every ring is graded by Z.  Parse errors carry line
and column.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ConfigError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


BLOCK_KINDS = ("ring", "semigroup", "module", "job")


@dataclass
class Config:
    rings: dict = field(default_factory=dict)
    semigroups: dict = field(default_factory=dict)
    modules: dict = field(default_factory=dict)
    jobs: dict = field(default_factory=dict)

    def table(self, kind: str) -> dict:
        return {
            "ring": self.rings,
            "semigroup": self.semigroups,
            "module": self.modules,
            "job": self.jobs,
        }[kind]


def parse_config(text: str) -> Config:
    cfg = Config()
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header", lineno, len(line))
            parts = stripped[1:-1].split()
            if len(parts) != 2:
                raise ConfigError(
                    "section header must be '[kind name]'", lineno, 2
                )
            kind, name = parts
            if kind not in BLOCK_KINDS:
                raise ConfigError(f"unknown block kind {kind!r}", lineno, 2)
            table = cfg.table(kind)
            if name in table:
                raise ConfigError(f"duplicate {kind} block {name!r}", lineno, 2)
            current = table.setdefault(name, {"_line": lineno})
            continue
        if current is None:
            raise ConfigError("key outside of any block", lineno, 1)
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno, 1 + len(line) - len(line.lstrip()))
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError("empty key", lineno, 1)
        if key in current:
            raise ConfigError(f"duplicate key {key!r}", lineno, 1)
        current[key] = value.split()
    return cfg


def want_int(block: dict, key: str, default=None) -> int:
    if key not in block:
        if default is None:
            raise KeyError(f"missing key {key!r}")
        return default
    toks = block[key]
    if len(toks) != 1:
        raise ValueError(f"key {key!r} expects a single integer")
    return int(toks[0])


def want_ints(block: dict, key: str, default=None) -> list[int]:
    if key not in block:
        if default is None:
            raise KeyError(f"missing key {key!r}")
        return list(default)
    return [int(t) for t in block[key]]


def want_str(block: dict, key: str, default=None) -> str:
    if key not in block:
        if default is None:
            raise KeyError(f"missing key {key!r}")
        return default
    toks = block[key]
    if len(toks) != 1:
        raise ValueError(f"key {key!r} expects a single token")
    return toks[0]
