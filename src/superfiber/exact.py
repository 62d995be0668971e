"""Exact scalar and projective-coordinate arithmetic.

All scalars are `fractions.Fraction` values, which are always stored
reduced with a positive denominator, so equality is structural and
hashing is free.  Floats only give the starting estimate of an integer
root; an exact integer comparison decides every result.

Projective tuples are kept in a canonical integer form: denominators
cleared, content (gcd) reduced to 1, first nonzero entry positive.  Two
inputs that differ by a nonzero rational scale normalize identically.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Collection, Sequence
from fractions import Fraction

from .errors import DomainError

RationalLike = Fraction | int | str


def rational(value: RationalLike) -> Fraction:
    """Parse a rational from an int, Fraction, or a "p/q" / "p" / decimal
    string.  Exponent notation is refused: "1e300000000" would expand to
    an integer of 300 million digits before anything could check it.  A
    zero denominator ("1/0"), a bool or a float is not a rational either.
    Every refusal is a "not a rational: ..." line that shows the value as
    shown() does, noting a run of more than L digits (digit_limit)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"not a rational: {shown(value)} (exponent notation is not accepted)")
        try:
            # tolerate unicode minus from copied sources
            return Fraction(value.strip().replace("−", "-"))
        except ZeroDivisionError:
            raise ValueError(f"not a rational: {shown(value)} (zero denominator)") from None
        except ValueError:
            limit = digit_limit()
            # the runs int() reads, underscores between digits dropped
            if any(len(run) > limit for run in re.split(r"\D+", value.replace("_", ""))):
                raise ValueError(
                    f"not a rational: {shown(value)} (more than {limit} digits)") from None
    raise ValueError(f"not a rational: {shown(value)}")


def integer(value: object, name: str) -> int:
    """An int field of a record (see record): a Python int that is not a bool,
    so 3.9 and True are refused rather than read as 3 and 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {shown(value)}")
    return value


def clip(text: str) -> str:
    """The one rule for echoing input in an error line: at most the first 20
    characters of text, then "..." if any were cut."""
    return text if len(text) <= 20 else text[:20] + "..."


def shown(value: object) -> str:
    """A bad value as an error line shows it: a string's repr after clip(),
    any other value's repr clipped."""
    return repr(clip(value)) if isinstance(value, str) else clip(repr(value))


def digit_limit() -> int:
    """L, the digits an int may print with (0, no limit, counts as the default)."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def refuse_power(values: Sequence[RationalLike], exponent: int, what: str) -> None:
    """The one rule on powers the input sizes: raise ValueError("<what> exceeds
    L digits") before some value^exponent passes 4*L bits, more than L digits."""
    limit = digit_limit()
    if any(exponent * (max(abs(q.numerator), q.denominator).bit_length() - 1) > 4 * limit
           for q in values):
        raise ValueError(f"{what} exceeds {limit} digits")


def printed(values: Collection[Fraction | int], what: str) -> list[str]:
    """The one place a number a command prints turns into text: the "p/q" or "p"
    of each value, or ValueError("<what> exceeds L digits") at a numerator or
    denominator of 10^L or more (none below 2^(3L))."""
    limit = digit_limit()
    if any(n.bit_length() > 3 * limit and abs(n) >= 10 ** limit
           for q in values for n in (q.numerator, q.denominator)):
        raise ValueError(f"{what} exceeds {limit} digits")
    return [str(q) for q in values]


def _nth_root(n: int, s: int) -> tuple[int, bool]:
    # (floor(n ** (1/s)), whether n is its s-th power) for s >= 3 and n >= 2^s.
    # Floats give the root of n >> s*e, for the least shift e >= 0 that puts
    # it below 2^32, to within 10^-4: log(n >> s*e) / s is off by a few ulp of
    # 32*log(2), whatever s is.  A short root (e = 0) is that estimate rounded,
    # so its power decides.  A longer one starts Newton above the root within
    # 2^-30, where each step doubles the correct bits; from 2^ceil(bits/s),
    # each step would cut x only by about 1 - 1/s.
    k = -(-n.bit_length() // s)  # the root is below 2^k
    e = k - 32 if k > 32 else 0
    x = int(math.exp(math.log(n >> s * e) / s) + 0.5)
    if e:
        x = (x + 1) << e  # > root, as n >> s*e < (x + 1)^s
        while True:
            y = ((s - 1) * x + n // x ** (s - 1)) // s
            if y >= x:
                break
            x = y
    power = x ** s
    return (x - 1 if power > n else x), power == n


def int_nth_root(n: int, s: int) -> int | None:
    """Exact integer s-th root of n >= 0, or None if n is not a perfect power.

    For s = 2 this is one math.isqrt and one product.  For s >= 3 floats
    estimate the root, and one s-th power, after a few Newton steps for a
    root of 2^32 or more, decides it exactly."""
    if s < 2:
        raise ValueError("root order must be >= 2")
    if n < 0:
        raise ValueError("negative radicand")
    if n.bit_length() <= s:
        # n < 2^s, whose root is below 2: this spares the power 2^s of s bits
        return n if n < 2 else None
    if s == 2:
        root = math.isqrt(n)
        return root if root * root == n else None
    root, is_power = _nth_root(n, s)
    return root if is_power else None


def sth_root_exact(x: RationalLike, s: int) -> Fraction | None:
    """Exact rational s-th root of x, or None if no rational root exists.

    For even s the non-negative root is returned; for odd s the root has
    the sign of x.  An int at s = 2, the usual radicand of both search
    kernels, is int_nth_root's square-root test inline.  Any other x (an
    int or Fraction as it is, anything else through rational()) has its
    numerator and denominator rooted by int_nth_root, which is valid
    because they are coprime; a denominator of 1 costs no power.
    """
    if s == 2 and type(x) is int:
        if x < 0:
            return None
        root = math.isqrt(x)
        return Fraction(root) if root * root == x else None
    if s < 2:
        raise ValueError("root order must be >= 2")
    q = x if isinstance(x, (int, Fraction)) else rational(x)
    num = q.numerator
    if num < 0 and s % 2 == 0:
        return None
    rn = int_nth_root(-num if num < 0 else num, s)
    rd = None if rn is None else int_nth_root(q.denominator, s)
    return None if rd is None else Fraction(-rn if num < 0 else rn, rd)


# the annotations of the fields that record parses or checks, as every module
# of the package writes them: as text, under `from __future__ import annotations`
_PARSED_FIELDS = {"Fraction": lambda value, name: rational(value),
                  "tuple[Fraction, ...]": lambda values, name: tuple(map(rational, values)),
                  "int": integer,
                  "tuple[int, int]": lambda values, name: tuple(integer(v, name) for v in values)}


def record(cls):
    """Make cls an immutable value class over its own annotations, in order.

    A class-level value is a field's default.  Fields are given by position
    or keyword.  Then, in field order, rational() parses each field annotated
    Fraction and each element of a field annotated tuple[Fraction, ...],
    stored as a tuple, so a bad value raises its ValueError, and integer()
    checks each field annotated int and each element of a field annotated
    tuple[int, int], stored as a tuple, so a bool or non-int raises its
    TypeError; any other field is stored as given.  Then self.__post_init__
    runs, looked up at each call so that a method rebound on the class later
    is the one that runs.  A record equals only a record of its own class
    with an equal field tuple, and hashes as that tuple; what __post_init__
    sets with object.__setattr__ is not a field.  Unlike dataclass(frozen=True), this imports nothing and
    generates no code, which every process paid for at start-up.  An
    annotation that is not text raises TypeError here, since the parsed
    fields are known by their text.
    """
    annotations = cls.__dict__.get("__annotations__", {})
    for name, ann in annotations.items():
        if not isinstance(ann, str):
            raise TypeError(f"{cls.__name__}.{name}: a record's annotations must be text "
                            "(from __future__ import annotations)")
    names = tuple(annotations)
    parsed = [(name, _PARSED_FIELDS[ann]) for name, ann in annotations.items()
              if ann in _PARSED_FIELDS]
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        given = dict(zip(names, args))
        if len(args) > len(names) or not kwargs.keys() <= set(names) - given.keys():
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
        values = {**defaults, **given, **kwargs}
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() is missing {', '.join(missing)}")
        for name, parse in parsed:
            values[name] = parse(values[name], name)
        self.__dict__.update((name, values[name]) for name in names)
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def fields(self):
        return tuple(self.__dict__[name] for name in names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __repr__(self):
        body = ", ".join(f"{name}={self.__dict__[name]!r}" for name in names)
        return f"{cls.__qualname__}({body})"

    def frozen(self, name, value=None):  # both __setattr__ and __delattr__
        raise AttributeError(f"cannot change {cls.__name__}.{name}: records are immutable")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(fields(self))
    cls.__setattr__ = cls.__delattr__ = frozen
    return cls


@record
class ProjectivePoint:
    """Canonical integer representative of a point [c_0 : ... : c_k].

    Construct via normalize_projective(); the tuple stored here already
    has content 1 and a positive leading nonzero entry.
    """

    coords: tuple[int, ...]

    def to_obj(self) -> list[str]:
        return printed(self.coords, "point")


def normalize_projective(coords: Sequence[RationalLike]) -> ProjectivePoint:
    """Canonical projective representative of a coordinate tuple.

    Raises DomainError when every coordinate vanishes.  Scaling the input by
    any nonzero rational yields the identical output.
    """
    values = [rational(c) for c in coords]
    if len(values) < 2:
        raise ValueError("projective point needs at least 2 coordinates")
    if all(v == 0 for v in values):
        raise DomainError("all projective coordinates are zero")
    scale = math.lcm(*(v.denominator for v in values))
    ints = [int(v * scale) for v in values]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    lead = next(c for c in ints if c != 0)
    if lead < 0:
        ints = [-c for c in ints]
    return ProjectivePoint(tuple(ints))
