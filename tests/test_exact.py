import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superfiber import exact
from superfiber.errors import DomainError
from superfiber.exact import (
    ProjectivePoint,
    int_nth_root,
    normalize_projective,
    rational,
    record,
    sth_root_exact,
)
from superfiber.family import AffinePoint, Curve, CurveWithPoints, FamilyParams
from superfiber.fiber import XCoordinates
from superfiber.maps import DiagonalCubicPoint, WeierstrassPoint
from superfiber.search import SearchConfig, enumerate_curves


def test_normalize_clears_denominators_and_content():
    P = normalize_projective([Fraction(2, 3), Fraction(4, 3), -2])
    assert P.coords == (1, 2, -3)


def test_normalize_single_nonzero_entry():
    assert normalize_projective([0, 5, 0]).coords == (0, 1, 0)


def test_normalize_all_zero_rejected():
    with pytest.raises(DomainError, match="all projective coordinates are zero"):
        normalize_projective([0, 0])
    with pytest.raises(ValueError):
        normalize_projective([3])  # projective points need >= 2 coordinates


def test_normalize_leading_sign():
    assert normalize_projective([-2, 4]).coords == (1, -2)
    assert normalize_projective([0, -3, 6]).coords == (0, 1, -2)


def test_normalize_scale_invariance():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(2, 6)
        coords = [Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(n)]
        if all(c == 0 for c in coords):
            continue
        lam = Fraction(0)
        while lam == 0:
            lam = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        assert normalize_projective(coords) == normalize_projective([lam * c for c in coords])


def test_normalize_idempotent_canonical():
    rng = random.Random(7)
    for _ in range(200):
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        if all(c == 0 for c in coords):
            continue
        P = normalize_projective(coords)
        assert normalize_projective(P.coords) == P
        assert math.gcd(*P.coords) == 1
        assert next(c for c in P.coords if c != 0) > 0


def test_sth_root_examples():
    assert sth_root_exact(Fraction(8, 27), 3) == Fraction(2, 3)
    assert sth_root_exact(-8, 3) == -2
    assert sth_root_exact(2, 2) is None
    assert sth_root_exact(-4, 2) is None


def test_sth_root_of_sth_power_always_exists():
    rng = random.Random(2024)
    for _ in range(300):
        s = rng.randint(2, 6)
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        power = q ** s
        root = sth_root_exact(power, s)
        assert root is not None
        assert root ** s == power
        if s % 2 == 0:
            assert root >= 0
        else:
            assert root == q


@given(k=st.integers(0, 2 ** 210), offset=st.integers(-1, 1) | st.integers(),
       sign=st.sampled_from((1, -1)), s=st.integers(2, 7))
@example(k=0, offset=0, sign=1, s=2)
@example(k=0, offset=-1, sign=1, s=7)
@example(k=2 ** 41 + 3, offset=0, sign=-1, s=5)
@example(k=2 ** 67 + 3, offset=1, sign=1, s=3)
@example(k=2 ** 201 + 1, offset=0, sign=1, s=2)
@example(k=2 ** 201 + 1, offset=-1, sign=-1, s=7)
@example(k=3, offset=0, sign=-1, s=4)
@example(k=2, offset=-4, sign=1, s=2)
@example(k=0, offset=1, sign=-1, s=2)
@example(k=0, offset=1, sign=-1, s=3)
def test_sth_root_of_int_matches_its_fraction(k, offset, sign, s):
    # the int path against the Fraction path, on s-th powers, their
    # neighbours and, with any offset, on any int
    n = sign * (k ** s + offset)
    root = sth_root_exact(n, s)
    assert root == sth_root_exact(Fraction(n), s)
    assert root is None or type(root) is Fraction
    if offset == 0 and (sign > 0 or s % 2):
        assert root == sign * k


def test_sth_root_of_int_skips_the_denominator(monkeypatch):
    # an int at s = 2 is rooted inline; any other input roots its numerator
    # and then its denominator, 1 for an int; a bool is not read as an int
    calls = []
    monkeypatch.setattr(exact, "int_nth_root", lambda n, s: calls.append(n) or 1)
    assert sth_root_exact(1, 2) == 1
    assert calls == []
    sth_root_exact(-27, 3)
    assert calls == [27, 1]
    calls.clear()
    root = sth_root_exact(True, 2)
    assert root == 1 and type(root) is Fraction
    assert calls == [1, 1]


def test_sth_root_order_validated():
    with pytest.raises(ValueError):
        sth_root_exact(4, 1)


@pytest.mark.parametrize("s", [1, 0, -1])
def test_int_nth_root_refuses_an_order_below_2(s):
    with pytest.raises(ValueError, match="root order must be >= 2"):
        int_nth_root(5, s)


def test_int_nth_root_edges_and_large_values():
    assert int_nth_root(0, 5) == 0
    assert int_nth_root(1, 7) == 1
    big = 123456789123456789
    for s in (2, 3, 5):
        assert int_nth_root(big ** s, s) == big
        assert int_nth_root(big ** s + 1, s) is None
        assert int_nth_root(big ** s - 1, s) is None
    with pytest.raises(ValueError):
        int_nth_root(-8, 3)


# up to 10^5 random bits; hypothesis refuses to draw integers this large itself
RADICANDS = st.builds(lambda bits, seed: random.Random(seed).getrandbits(bits),
                      st.integers(0, 10 ** 5), st.integers(0, 2 ** 32))


@settings(max_examples=60)
@given(st.integers(2, 10 ** 4), RADICANDS)
# the radicands of `search --alphas=<2**1000>,0,1 --r 17 --s 999 --height 8`
# and `search --alphas=0,100,1 --r 3 --s 20001 --height 1 --mode fiber-pairs`,
# for which Newton started at 2^ceil(bits/s) took about 0.7*s steps
@example(999, 8 * 2 ** 17000 + 1)
@example(20001, 999998 * 10 ** 120000)
# roots at 2^32, where a root stops being short enough for floats alone
@example(3, 2 ** 96 - 1)
@example(5, (2 ** 32 + 1) ** 5)
def test_floor_nth_root_brackets_the_root(s, n):
    if s == 2 or n < 2 ** s:
        # int_nth_root settles these without the helper
        r = math.isqrt(n) if s == 2 else min(n, 1)
        assert int_nth_root(n, s) == (r if r ** s == n else None)
        return
    r, is_power = exact._nth_root(n, s)
    assert r ** s <= n < (r + 1) ** s
    assert is_power == (r ** s == n)
    # at the perfect power r^s and, while it is in the helper's range, just below it
    assert exact._nth_root(r ** s, s) == (r, True)
    if r > 2:
        assert exact._nth_root(r ** s - 1, s) == (r - 1, False)


@settings(max_examples=60)
@given(st.integers(3, 10 ** 4), st.integers(2, 2 ** 34))
# the largest short root, and the first root past it
@example(3, 2 ** 32 - 1)
@example(7, 2 ** 32)
def test_exact_root_of_a_power_and_its_neighbours(s, r):
    # a short root is decided by one power of the float estimate, so the
    # estimate of an exact power must be its root
    n = r ** s
    assert int_nth_root(n, s) == r
    assert sth_root_exact(-n, s) == (-r if s % 2 else None)
    assert int_nth_root(n - 1, s) is None and int_nth_root(n + 1, s) is None


def test_int_nth_root_of_huge_order_is_immediate():
    # n < 2^s has floor root 1; no Newton step with an s-bit power runs
    assert int_nth_root(5, 10 ** 9) is None
    assert int_nth_root(1, 10 ** 9) == 1


def test_refuse_power_refuses_past_4L_bits_before_forming_the_power():
    limit = exact.digit_limit()
    # 2 has bits - 1 = 1 and 3/2 has 1, so the exponent 4*L is the last one admitted
    exact.refuse_power([2, Fraction(3, 2), 0, 1], 4 * limit, "x^e")
    for value in (2, -2, Fraction(3, 2), Fraction(1, 2)):
        with pytest.raises(ValueError, match=f"^x\\^e exceeds {limit} digits$"):
            exact.refuse_power([1, value], 4 * limit + 1, "x^e")
    # a negative exponent forms no large power
    exact.refuse_power([2 ** 100], -10 ** 9, "x^e")


def test_rational_parse_and_serialize():
    assert rational("-3/4") == Fraction(-3, 4)
    assert rational("7") == 7
    # unicode minus from copied text is tolerated
    assert rational("−4") == -4
    with pytest.raises(ValueError):
        rational("x")
    # a token an error line echoes is cut after its first 20 characters
    assert exact.clip("x" * 20) == "x" * 20
    assert exact.clip("x" * 21) == "x" * 20 + "..."


def test_projective_point_helpers():
    P = normalize_projective([1, -3, 2])
    assert P.coords == (1, -3, 2)
    assert P.to_obj() == ["1", "-3", "2"]
    assert tuple(map(Fraction, P.coords)) == (Fraction(1), Fraction(-3), Fraction(2))
    assert P == ProjectivePoint((1, -3, 2))
    assert normalize_projective(P.to_obj()) == P


def _str_calls(node: ast.AST, function: str):
    # (function, line) of each str() call below node, and of each str passed to a
    # call as its argument (map(str, ...)), isinstance's type aside
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            args = [] if ast.unparse(child.func) == "isinstance" else child.args
            if any(isinstance(f, ast.Name) and f.id == "str"
                   for f in [child.func, *args, *(k.value for k in child.keywords)]):
                yield function, child.lineno
        yield from _str_calls(child, child.name if isinstance(child, ast.FunctionDef) else function)


def test_every_printed_number_becomes_text_in_exact_printed():
    # str() of a number past L digits ends in the interpreter's own error after
    # the work, so printed() is the one place a number becomes text, where the
    # digit rule refuses it; the manifest's str() reads argv values, each parsed
    # from text of at most L digits
    allowed = {("exact.py", "printed"), ("cli.py", "_write_manifest")}
    found = [(path.name, function, line)
             for path in sorted(Path(exact.__file__).parent.glob("*.py"))
             for function, line in _str_calls(ast.parse(path.read_text()), "")
             if (path.name, function) not in allowed]
    assert found == []
    limit = exact.digit_limit()
    assert exact.printed([Fraction(-2, 3), 10 ** limit - 1], "x") == ["-2/3", "9" * limit]
    with pytest.raises(ValueError, match=f"^x exceeds {limit} digits$"):
        exact.printed([Fraction(1, 10 ** limit)], "x")


# annotations as text, as record requires: this module has no
# `from __future__ import annotations`
@record
class _Pair:
    x: "int"
    y: "int" = 0


@record
class _OtherPair:
    x: "int"
    y: "int"


@record
class _Parsed:
    q: "Fraction"
    qs: "tuple[Fraction, ...]"
    tag: "str" = ""


def test_record_fields_equality_hash_and_repr():
    assert _Pair(1, 2) == _Pair(x=1, y=2) == _Pair(1, y=2)
    assert _Pair(1) == _Pair(1, 0)
    assert _Pair(1, 2) != _Pair(2, 1)
    assert _Pair(1, 2) != _OtherPair(1, 2)
    assert _Pair(1, 2) != (1, 2)
    assert hash(_Pair(1, 2)) == hash((1, 2))
    assert repr(_Pair(1, 2)) == "_Pair(x=1, y=2)"
    assert CurveWithPoints(Curve(FamilyParams(3, 2), 1, 1), [AffinePoint(0, 1)]).base_index == 0


def test_record_refuses_bad_arguments_and_changes():
    for args, kwargs in (((), {}), ((1, 2, 3), {}), ((1,), {"x": 1}), ((1,), {"z": 1})):
        with pytest.raises(TypeError):
            _Pair(*args, **kwargs)
    with pytest.raises(TypeError):
        _OtherPair(1)
    P = _Pair(1, 2)
    with pytest.raises(AttributeError, match="cannot change _Pair.x: records are immutable"):
        P.x = 3
    with pytest.raises(AttributeError, match="cannot change _Pair.y: records are immutable"):
        del P.y
    with pytest.raises(AttributeError):
        P.z = 3
    assert P == _Pair(1, 2)


def test_record_refuses_an_annotation_that_is_not_text():
    # without the future import an annotation is the class itself, which no
    # parsed field's text matches, so record would store the field unparsed
    source = "@record\nclass Plain:\n    x: int\n"
    code = compile(source, "<plain>", "exec", dont_inherit=True)
    with pytest.raises(TypeError, match=r"^Plain\.x: a record's annotations must be text"):
        exec(code, {"record": record})


def test_record_parses_its_rational_fields():
    value = _Parsed("1/2", ["−2", 3, Fraction(1, 3)], "1/2")
    assert (value.q, value.qs) == (Fraction(1, 2), (-2, 3, Fraction(1, 3)))
    assert all(type(q) is Fraction for q in (value.q, *value.qs))
    # a field of any other annotation is left as given
    assert value.tag == "1/2"
    # an int field is checked, not converted
    for bad in ("1/2", 2.0, True):
        with pytest.raises(TypeError) as raised:
            _Pair(bad)
        assert str(raised.value) == f"x must be an integer, got {bad!r}"
    # the package's values hold Fractions however they are built
    assert type(WeierstrassPoint(1, 2, 3).T) is Fraction
    assert type(DiagonalCubicPoint(1, 2, 3).W) is Fraction
    for bad, message in (("1e3", "not a rational: '1e3' (exponent notation is not accepted)"),
                         (True, "not a rational: True")):
        with pytest.raises(ValueError) as raised:
            _Parsed(bad, ())
        assert str(raised.value) == message
    with pytest.raises(ValueError, match="not a rational: True"):
        _Parsed(1, [1, True])


def test_int_fields_refuse_non_integers():
    # each was accepted, or ended in an AttributeError, before records checked
    # their int fields; a curve with s = 2.0 came out of the box
    for call, message in (
        (lambda: FamilyParams(3, 2.5), "s must be an integer, got 2.5"),
        (lambda: SearchConfig(True), "height_bound must be an integer, got True"),
        (lambda: enumerate_curves(XCoordinates((0, 1, 2), 3), 2.0, SearchConfig(3)),
         "s must be an integer, got 2.0"),
        (lambda: XCoordinates((0, 1, 2), 2.5), "r must be an integer, got 2.5"),
        (lambda: SearchConfig(3, (0.5, 1)), "partition must be an integer, got 0.5"),
        (lambda: SearchConfig(3, (0, True)), "partition must be an integer, got True"),
    ):
        with pytest.raises(TypeError) as raised:
            call()
        assert str(raised.value) == message


def test_xcoordinates_powers_are_not_a_field():
    a, b = XCoordinates((0, 1, 2), 3), XCoordinates((0, 1, 2), 3)
    object.__setattr__(b, "_powers", ())
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.alphas, 3))
    assert "_powers" not in repr(a)
    assert a.rth_powers() == (0, 1, 8)


def test_record_runs_post_init_bound_after_import(monkeypatch):
    # the benchmark's tracer rebinds CurveWithPoints.__post_init__ on the class
    calls = []
    original = CurveWithPoints.__post_init__
    monkeypatch.setattr(CurveWithPoints, "__post_init__",
                        lambda self: calls.append(self.base_index) or original(self))
    CurveWithPoints(Curve(FamilyParams(3, 2), 1, 1), (AffinePoint(0, 1), AffinePoint(2, 3)), 1)
    assert calls == [1]
