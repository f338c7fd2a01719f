"""Reading the Prometheus text exposition format back.

The inverse of :meth:`~repro.obs.metrics.MetricsRegistry.render_prometheus`,
for whoever checks a scrape: :func:`parse_exposition` is a structural
parse that :func:`render_exposition` turns back into the same bytes, and
:func:`parse_prometheus_text` flattens it to ``{sample key: value}``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from repro.obs.metrics import MetricsError, _escape, _escape_help


_METRIC_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
_TYPE_KINDS = ("counter", "gauge", "histogram", "summary", "untyped")


def _unescape(text: str, quotes: bool) -> str:
    """Invert :func:`_escape` / :func:`_escape_help`.  Unknown escape
    sequences pass through backslash-and-all (Prometheus behaviour)."""
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == "n":
                out.append("\n")
            elif nxt == '"' and quotes:
                out.append('"')
            else:
                out.append(ch + nxt)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


@dataclass(frozen=True)
class PromSample:
    """One parsed sample line, labels unescaped, raw value preserved."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float
    raw_value: str

    @property
    def key(self) -> str:
        """The sample's canonical text key, ``name{l="v",...}``."""
        return self.name + self.label_suffix

    @property
    def label_suffix(self) -> str:
        if not self.labels:
            return ""
        pairs = ",".join(
            f'{name}="{_escape(value)}"' for name, value in self.labels
        )
        return "{" + pairs + "}"

    def render(self) -> str:
        return f"{self.key} {self.raw_value}"


#: One exposition entry: ``("help", name, text)`` | ``("type", name,
#: kind)`` | ``("sample", PromSample)``.
PromEntry = tuple


def _parse_sample_line(line: str, lineno: int) -> PromSample:
    def bad(why: str) -> MetricsError:
        return MetricsError(f"{why} at line {lineno}: {line!r}")

    match = _METRIC_NAME_RE.match(line)
    if match is None:
        raise bad("bad sample name")
    name = match.group(0)
    i = match.end()
    labels: list[tuple[str, str]] = []
    if i < len(line) and line[i] == "{":
        i += 1
        while True:
            if i >= len(line):
                raise bad("unterminated label block")
            if line[i] == "}":
                i += 1
                break
            lmatch = _LABEL_NAME_RE.match(line, i)
            if lmatch is None:
                raise bad("bad label name")
            lname = lmatch.group(0)
            i = lmatch.end()
            if line[i : i + 2] != '="':
                raise bad("label value must be quoted")
            i += 2
            start = i
            while i < len(line) and line[i] != '"':
                if line[i] == "\\":
                    if i + 1 >= len(line):
                        raise bad("dangling escape in label value")
                    i += 1  # an escaped quote does not close the value
                i += 1
            if i >= len(line):
                raise bad("unterminated label value")
            labels.append((lname, _unescape(line[start:i], quotes=True)))
            i += 1  # closing quote
            if i < len(line) and line[i] == ",":
                i += 1
    if i >= len(line) or line[i] != " ":
        raise bad("bad sample")
    raw = line[i + 1 :]
    if not raw or " " in raw:  # no timestamp support: value only
        raise bad("bad value")
    try:
        value = float(raw)
    except ValueError as exc:
        raise MetricsError(f"bad value at line {lineno}: {line!r}") from exc
    return PromSample(name, tuple(labels), value, raw)


def parse_exposition(text: str) -> list[PromEntry]:
    """A structural parse of the text exposition format: label values
    are unescaped (``\\\\``, ``\\"``, ``\\n``), HELP text is unescaped,
    raw sample values are preserved verbatim so
    :func:`render_exposition` round-trips our exporter's output
    byte-identically (``+Inf``/``-Inf``/``NaN`` included).  Raises
    :class:`MetricsError` on malformed lines."""
    entries: list[PromEntry] = []
    # The format is \n-delimited; splitlines() would also split on
    # \x1c-\x1e, \x85,  ... which are legal *raw* inside a quoted
    # label value (only \n, \" and \\ are escaped).
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[0] != "#" or parts[1] not in (
                "HELP",
                "TYPE",
            ):
                raise MetricsError(f"bad comment at line {lineno}: {line!r}")
            if _METRIC_NAME_RE.fullmatch(parts[2]) is None:
                raise MetricsError(
                    f"bad metric name at line {lineno}: {line!r}"
                )
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _TYPE_KINDS:
                    raise MetricsError(f"bad TYPE at line {lineno}: {line!r}")
                entries.append(("type", parts[2], parts[3]))
            else:
                help_text = parts[3] if len(parts) == 4 else ""
                entries.append(("help", parts[2], _unescape(help_text, quotes=False)))
            continue
        entries.append(("sample", _parse_sample_line(line, lineno)))
    return entries


def render_exposition(entries: Iterable[PromEntry]) -> str:
    """Render parsed entries back to exposition text -- the inverse of
    :func:`parse_exposition` on exporter-produced input."""
    lines: list[str] = []
    for entry in entries:
        if entry[0] == "help":
            lines.append(f"# HELP {entry[1]} {_escape_help(entry[2])}")
        elif entry[0] == "type":
            lines.append(f"# TYPE {entry[1]} {entry[2]}")
        elif entry[0] == "sample":
            lines.append(entry[1].render())
        else:
            raise MetricsError(f"unknown exposition entry {entry[0]!r}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Flat view of :func:`parse_exposition`: ``{sample key (with
    canonical label text): value}``, rejecting duplicate samples."""
    samples: dict[str, float] = {}
    for entry in parse_exposition(text):
        if entry[0] != "sample":
            continue
        sample = entry[1]
        if sample.key in samples:
            raise MetricsError(f"duplicate sample {sample.key!r}")
        samples[sample.key] = sample.value
    return samples
