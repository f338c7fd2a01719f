"""Variable domains for guarded-command programs.

Every variable in a paper program ranges over a finite domain: control
positions range over an enumeration, phases over ``{0..n-1}``, and the
token-ring sequence numbers over ``{0..K-1} + {BOT, TOP}`` where ``BOT``
(the paper's bottom) marks a detectably-corrupted sequence number and
``TOP`` is used to flush a fully-corrupted ring.

Domains serve three roles:

* validation -- ``contains`` guards against out-of-domain writes;
* fault modelling -- an undetectable fault assigns a *nondeterministically
  chosen* value from the domain (``sample``), exactly as in Section 2 of
  the paper;
* model checking -- ``values`` enumerates the finite domain so the
  explicit-state explorer can build the full state space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Protocol, Sequence, runtime_checkable

from repro._pcg64 import Rng


class _Special:
    """Singleton marker values (the paper's special sequence numbers)."""

    __slots__ = ("_name", "_rank")

    def __init__(self, name: str, rank: int) -> None:
        self._name = name
        self._rank = rank

    def __repr__(self) -> str:
        return self._name

    def __reduce__(self):
        # Preserve singleton identity across pickling (deep copies of
        # states must keep ``is``-comparability).
        return (_special_by_name, (self._name,))

    def __lt__(self, other: object) -> bool:
        if isinstance(other, _Special):
            return self._rank < other._rank
        # Specials sort after all integers so state keys are orderable.
        if isinstance(other, int):
            return False
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, _Special):
            return self._rank > other._rank
        if isinstance(other, int):
            return True
        return NotImplemented


#: The paper's bottom sequence number: "when the sequence number of a
#: process is corrupted, it is set to BOT".
BOT = _Special("BOT", 0)

#: The paper's top sequence number, "used to detect whether a detectable
#: fault has occurred at that process" and to flush a fully-corrupted ring.
TOP = _Special("TOP", 1)


def _special_by_name(name: str) -> _Special:
    if name == "BOT":
        return BOT
    if name == "TOP":
        return TOP
    raise ValueError(f"unknown special value {name!r}")


@runtime_checkable
class Domain(Protocol):
    """A finite value domain for one program variable."""

    def contains(self, value: Any) -> bool:
        """Return whether ``value`` lies in the domain."""
        ...

    def values(self) -> Sequence[Any]:
        """Enumerate the domain (finite, stable order)."""
        ...

    def sample(self, rng: Rng) -> Any:
        """Draw a uniformly random element (undetectable-fault ``?``)."""
        ...


@dataclass(frozen=True)
class IntRange:
    """The integer domain ``{lo .. hi}`` inclusive.

    Used for phase counters (``{0..n-1}``) and plain sequence numbers.
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"empty IntRange [{self.lo}, {self.hi}]")

    def contains(self, value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool) and (
            self.lo <= value <= self.hi
        )

    def values(self) -> Sequence[int]:
        return range(self.lo, self.hi + 1)

    def sample(self, rng: Rng) -> int:
        return int(rng.integers(self.lo, self.hi + 1))

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def succ(self, value: int) -> int:
        """Successor in modulo ``size`` arithmetic, offset by ``lo``.

        The paper's ``+`` on phases is modulo-n and on sequence numbers
        modulo-K; both are instances of this helper.
        """
        return self.lo + ((value - self.lo + 1) % self.size)


@dataclass(frozen=True)
class EnumDomain:
    """A finite enumeration domain (e.g. control positions)."""

    members: tuple

    def __init__(self, members: Iterable[Any]) -> None:
        object.__setattr__(self, "members", tuple(members))
        if not self.members:
            raise ValueError("EnumDomain needs at least one member")
        if len(set(map(id, self.members))) != len(self.members) and len(
            set(self.members)
        ) != len(self.members):
            raise ValueError("EnumDomain members must be distinct")

    def contains(self, value: Any) -> bool:
        return value in self.members

    def values(self) -> Sequence[Any]:
        return self.members

    def sample(self, rng: Rng) -> Any:
        return self.members[int(rng.integers(0, len(self.members)))]


@dataclass(frozen=True)
class SequenceNumberDomain:
    """The token-ring sequence-number domain ``{0..K-1} + {BOT, TOP}``.

    ``K`` must exceed the ring length ``N`` (Section 4.1); the
    message-passing refinement MB widens it to ``L > 2N + 1`` (Section 5).
    """

    k: int
    include_specials: bool = field(default=True)

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("sequence-number domain needs K >= 2")

    def contains(self, value: Any) -> bool:
        if value is BOT or value is TOP:
            return self.include_specials
        return (
            isinstance(value, int)
            and not isinstance(value, bool)
            and 0 <= value < self.k
        )

    def values(self) -> Sequence[Any]:
        base: list[Any] = list(range(self.k))
        if self.include_specials:
            base.extend((BOT, TOP))
        return base

    def sample(self, rng: Rng) -> Any:
        vals = self.values()
        return vals[int(rng.integers(0, len(vals)))]

    def is_ordinary(self, value: Any) -> bool:
        """True iff ``value`` is a plain number (not BOT/TOP)."""
        return value is not BOT and value is not TOP and self.contains(value)

    def succ(self, value: int) -> int:
        """Modulo-K successor (the paper's ``sn + 1``)."""
        if not self.is_ordinary(value):
            raise ValueError(f"succ of non-ordinary sequence number {value!r}")
        return (value + 1) % self.k


def check_value(domain: Domain, name: str, value: Any) -> None:
    """Raise ``ValueError`` when ``value`` is outside ``domain``."""
    if not domain.contains(value):
        raise ValueError(f"value {value!r} outside domain of variable {name!r}")
