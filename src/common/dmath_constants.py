#!/usr/bin/env python3
"""Derives the constants of src/common/dmath.cpp with exact arithmetic.

    python3 src/common/dmath_constants.py             # print the C++ block
    python3 src/common/dmath_constants.py --check src/common/dmath.cpp

Only integers and fractions.Fraction are used: pi comes from Machin's
formula, ln 2 from 2 atanh(1/3), and the reciprocal factorials are exact.
Each constant is rounded to the nearest double (ties to even), or truncated
to a stated number of significant bits for the split heads, and printed as
a hexadecimal floating literal.

--check reads the block between the "BEGIN derived constants" and "END
derived constants" lines of the given file and exits non-zero when it names
a different set of constants or when any literal's value differs from the
derived one.
"""

import argparse
import re
import sys
from fractions import Fraction

# Fixed-point precision of the series, in bits. The truncation error of each
# series is a few units of 2^-PREC, far below the last bit of any constant;
# constants() below proves that every rounding is unaffected by it.
PREC = 512
SERIES_ERROR = Fraction(1024, 2**PREC)


def atan_inv(n):
    """atan(1/n) in fixed point (scaled by 2^PREC), by its Taylor series."""
    one = 1 << PREC
    total, power, k, sign = 0, one // n, 1, 1
    while power:
        total += sign * (power // k)
        power //= n * n
        k += 2
        sign = -sign
    return total


def atanh_inv(n):
    """atanh(1/n) in fixed point (scaled by 2^PREC)."""
    one = 1 << PREC
    total, power, k = 0, one // n, 1
    while power:
        total += power // k
        power //= n * n
        k += 2
    return total


PI = Fraction(16 * atan_inv(5) - 4 * atan_inv(239), 1 << PREC)
LN2 = Fraction(2 * atanh_inv(3), 1 << PREC)


def factorial(n):
    result = 1
    for k in range(2, n + 1):
        result *= k
    return result


def scale_exponent(q, bits):
    """The s with 2^(bits-1) <= |q| * 2^s < 2^bits."""
    q = abs(q)
    s = bits - (q.numerator.bit_length() - q.denominator.bit_length())
    while q * Fraction(2) ** s >= 2**bits:
        s -= 1
    while q * Fraction(2) ** s < 2 ** (bits - 1):
        s += 1
    return s


def round_double(q):
    """q rounded to the nearest double, ties to even (normal range)."""
    if q == 0:
        return Fraction(0)
    s = scale_exponent(q, 53)
    m = round(abs(q) * Fraction(2) ** s)  # Fraction rounds ties to even
    value = Fraction(m) / Fraction(2) ** s
    return value if q > 0 else -value


def truncate_bits(q, bits):
    """q truncated toward zero to `bits` significant bits."""
    s = scale_exponent(q, bits)
    m = int(abs(q) * Fraction(2) ** s)
    value = Fraction(m) / Fraction(2) ** s
    return value if q > 0 else -value


def derive(pi, ln2):
    """(name, exact value) for every constant, in file order."""
    out = [("kShifter", Fraction(3 * 2**51)),
           ("kTwoOverPi", round_double(2 / pi))]
    # pi/2 as three 33-bit heads (fdlibm's split): fn * head is exact for
    # |fn| <= 2^19. Stages 2 and 3 also take the rounded rest as their tail;
    # stage 1 is always followed by stage 2, so it needs none.
    half_pi = pi / 2
    rest = half_pi
    for stage in (1, 2, 3):
        head = truncate_bits(rest, 33)
        rest -= head
        out.append((f"kPio2_{stage}", head))
        if stage > 1:
            out.append((f"kPio2_{stage}t", round_double(rest)))
    out.append(("kFastBound", round_double(half_pi * 2**19)))
    # Taylor coefficients of cos (x^4 .. x^16) and sin (x^3 .. x^17).
    for degree in list(range(4, 17, 2)) + list(range(3, 18, 2)):
        name = f"kC{degree}" if degree % 2 == 0 else f"kS{degree}"
        sign = (-1) ** (degree // 2)
        out.append((name, round_double(Fraction(sign, factorial(degree)))))
    # exp: ln 2 as a 32-bit head (k * head is exact for |k| < 2^21) plus
    # its rounded rest, and the Taylor coefficients of exp (x^2 .. x^13).
    ln2_hi = truncate_bits(ln2, 32)
    out += [("kInvLn2", round_double(1 / ln2)), ("kLn2Hi", ln2_hi),
            ("kLn2Lo", round_double(ln2 - ln2_hi))]
    for degree in range(2, 14):
        out.append((f"kE{degree}",
                    round_double(Fraction(1, factorial(degree)))))
    return out


def constants():
    """derive() at the series values, checked to give the same table at both
    ends of their error bounds, so the series truncation cannot show."""
    table = derive(PI, LN2)
    for error in (-SERIES_ERROR, SERIES_ERROR):
        if derive(PI + error, LN2 + error) != table:
            raise SystemExit("dmath_constants: series precision too low")
    return table


def hex_literal(q):
    """A C++ hexadecimal floating literal for the double q."""
    if q == 0:
        return "0x0p+0"
    s = scale_exponent(q, 53)
    m = int(abs(q) * Fraction(2) ** s)
    exponent = 52 - s
    mantissa = m - 2**52
    digits = f"{mantissa:013x}".rstrip("0")
    body = f"0x1.{digits}p{exponent:+d}" if digits else f"0x1p{exponent:+d}"
    return body if q > 0 else "-" + body


def parse_literal(text):
    """The exact value of a C++ hexadecimal floating literal."""
    match = re.fullmatch(
        r"(-?)0x([0-9a-fA-F]+)(?:\.([0-9a-fA-F]*))?p([+-]?\d+)", text)
    if not match:
        raise ValueError(f"not a hexadecimal floating literal: {text}")
    sign, whole, frac, exponent = match.groups()
    frac = frac or ""
    mantissa = int(whole + frac, 16)
    value = Fraction(mantissa) * Fraction(2) ** (int(exponent) - 4 * len(frac))
    return -value if sign else value


def read_block(path):
    """(name, literal) pairs between the BEGIN/END derived-constants lines."""
    pairs = []
    inside = False
    with open(path) as source:
        for line in source:
            if "BEGIN derived constants" in line:
                inside = True
            elif "END derived constants" in line:
                inside = False
            elif inside:
                match = re.match(
                    r"\s*constexpr double (k\w+) = (\S+);", line)
                if match:
                    pairs.append(match.groups())
    return pairs


def check(path):
    derived = dict(constants())
    found = read_block(path)
    problems = []
    names = [name for name, _ in found]
    if sorted(names) != sorted(derived):
        missing = sorted(set(derived) - set(names))
        extra = sorted(set(names) - set(derived))
        problems.append(f"constant set differs: missing {missing}, "
                        f"not derived {extra}")
    for name, literal in found:
        if name in derived and parse_literal(literal) != derived[name]:
            problems.append(f"{name} = {literal}, derived "
                            f"{hex_literal(derived[name])}")
    for problem in problems:
        print(f"dmath_constants: {path}: {problem}", file=sys.stderr)
    if not problems:
        print(f"dmath_constants: {len(found)} constants match")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE",
                        help="compare FILE's derived-constants block")
    args = parser.parse_args()
    if args.check:
        return check(args.check)
    for name, value in constants():
        print(f"constexpr double {name} = {hex_literal(value)};")
    return 0


if __name__ == "__main__":
    sys.exit(main())
