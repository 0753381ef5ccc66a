"""Known answers for the benchmark, derived from closed forms and by hand.

Nothing here imports rdp or reads its output: every expected verdict,
value, step count and certificate is computed from the definitions of the
rewrite systems and the PVS0 program that the workload generators write.
"""

from __future__ import annotations


def nat(n: int, succ: str = "s", zero: str = "0") -> str:
    """The unary numeral ``succ^n(zero)`` as rdp prints it."""
    return f"{succ}(" * n + zero + ")" * n


def ackermann(m: int, n: int) -> int:
    """A(0, n) = n + 1, A(m + 1, 0) = A(m, 1), A(m + 1, n + 1) = A(m, A(m + 1, n)).

    Evaluated with an explicit stack of pending first arguments.
    """
    pending = [m]
    while pending:
        m = pending.pop()
        if m == 0:
            n += 1
        elif n == 0:
            pending.append(m - 1)
            n = 1
        else:
            pending.extend((m - 1, m))
            n -= 1
    return n


def _ackermann_shaped(m: int, n: int, combine) -> int:
    """F(0, n) = 1, F(m, 0) = 1 + F(m - 1, 1),
    F(m, n) = 1 + combine(F(m, n - 1), F(m - 1, A(m, n - 1))).

    Rows are filled left to right, so recursion only goes down in m.
    """
    rows: dict[int, list[int]] = {}

    def get(mm: int, nn: int) -> int:
        row = rows.setdefault(mm, [])
        while len(row) <= nn:
            j = len(row)
            if mm == 0:
                row.append(1)
            elif j == 0:
                row.append(1 + get(mm - 1, 1))
            else:
                row.append(1 + combine(row[j - 1], get(mm - 1, ackermann(mm, j - 1))))
        return row[nn]

    return get(m, n)


def ackermann_steps(m: int, n: int) -> int:
    """Rewrite steps to normalize ``a(m, n)`` with the Ackermann rules.

    Innermost rewriting is call by value: ``a(s(x), s(y))`` first
    normalizes the inner ``a(s(x), y)`` and then the outer call, so
    S(0, n) = 1, S(m + 1, 0) = 1 + S(m, 1) and
    S(m + 1, n + 1) = 1 + S(m + 1, n) + S(m, A(m + 1, n)).
    Leftmost-outermost full rewriting takes the same number of steps:
    first arguments are always numerals, so no redex is ever copied.
    """
    return _ackermann_shaped(m, n, lambda inner, outer: inner + outer)


def pvs0_least_fuel(m: int, n: int) -> int:
    """Least fuel on which the Ackermann PVS0 program is defined on (m, n).

    Only ``rec`` spends fuel, one unit per nesting level.  For m = 0 the body
    answers without recursion, so R(0, n) = 1.  For n = 0 it recurses once on
    (m - 1, 1): R(m, 0) = 1 + R(m - 1, 1).  Otherwise the inner call on
    (m, n - 1) and the outer call on (m - 1, A(m, n - 1)) both run one level
    down: R(m, n) = 1 + max(R(m, n - 1), R(m - 1, A(m, n - 1))).
    """
    return _ackermann_shaped(m, n, max)


# --- chain witnesses of looping instances ------------------------------------


def loop_witness(shape: str, k: int, names: dict[str, str]) -> list[dict]:
    """The k-entry witness ``chain_from_loop`` must build for a cycle shape.

    self:      f(x) -> f(x) fires at the root with x = c every time.
    alternate: d(x) -> e(x) (rule 0) and e(x) -> d(x) (rule 1) take turns.
    swap:      sw(x, y) -> sw(y, x) alternates x = c, y = w(c) and back.
    The inert context and the optional m(x) -> x rule never enter a witness:
    the minimal looping subterm sits below the context.
    """
    c, w = names["c"], names["w"]
    x, y = names["x"], names["y"]
    entries = []
    for i in range(k):
        if shape == "self":
            rule, sub = 0, {x: c}
        elif shape == "alternate":
            rule, sub = i % 2, {x: c}
        elif shape == "swap":
            first, second = (c, f"{w}({c})") if i % 2 == 0 else (f"{w}({c})", c)
            rule, sub = 0, {x: first, y: second}
        else:
            raise ValueError(f"unknown shape {shape!r}")
        entries.append({"rule": rule, "position": "ε", "substitution": dict(sorted(sub.items()))})
    return entries


def loop_denoted_terms(shape: str, k: int, names: dict[str, str]) -> list[str]:
    """The terms a loop witness denotes: each entry's instantiated rhs."""
    c, w = names["c"], names["w"]
    out = []
    for i in range(k):
        if shape == "self":
            out.append(f"{names['f']}({c})")
        elif shape == "alternate":
            out.append(f"{names['e'] if i % 2 == 0 else names['d']}({c})")
        else:
            first, second = (f"{w}({c})", c) if i % 2 == 0 else (c, f"{w}({c})")
            out.append(f"{names['sw']}({first},{second})")
    return out


LOOP_CYCLE_LENGTH = {"self": 1, "alternate": 2, "swap": 2}


# --- Ackermann chain witnesses -----------------------------------------------


def descending_chain(m: int, length: int) -> list[tuple[int, int]]:
    """(x, y) numerals of the descending chain along pair (2, 2).

    Entry j binds x = s^m(0) and y = s^(length - 1 - j)(0): the instantiated
    rhs subterm a(s(x), y) of entry j is exactly the lhs instance
    a(s(x), s(y)) of entry j + 1, so every link is the empty derivation.
    """
    return [(m, length - 1 - j) for j in range(length)]


def descending_denoted_terms(m: int, length: int, a: str, succ: str, zero: str) -> list[str]:
    """Terms a descending (2, 2) chain denotes, with their positions.

    Entry 0 contributes a(x, a(s(x), y0)) at position 2; each later entry is
    plugged in one level deeper, giving j + 1 layers a(x, .) around
    a(s(x), y_j).
    """
    x = nat(m, succ, zero)
    sx = nat(m + 1, succ, zero)
    out = []
    for j, (_, yv) in enumerate(descending_chain(m, length)):
        inner = f"{a}({sx},{nat(yv, succ, zero)})"
        for _ in range(j + 1):
            inner = f"{a}({x},{inner})"
        out.append(inner)
    return out


def criterion2_link_trace(a: str, succ: str, zero: str, x: str, y: str) -> dict:
    """The shortest non-root derivation of the published chain link.

    From a(s(0), a(s(s(0)), 0)) the only non-root redex is at position 2
    (rule 1), then rule 2 and rule 0 fire there, reaching the second lhs
    instance a(s(0), s(a(s(0), 0))) in three steps.
    """
    n = lambda k: nat(k, succ, zero)  # noqa: E731
    inner = f"{a}({n(1)},{zero})"
    return {
        "start": f"{a}({n(1)},{a}({n(2)},{zero}))",
        "mode": "non-root",
        "steps": [
            {"position": "2", "rule_index": 1, "substitution": {x: n(1)},
             "term": f"{a}({n(1)},{a}({n(1)},{n(1)}))"},
            {"position": "2", "rule_index": 2, "substitution": dict(sorted({x: zero, y: zero}.items())),
             "term": f"{a}({n(1)},{a}({zero},{inner}))"},
            {"position": "2", "rule_index": 0, "substitution": {y: inner},
             "term": f"{a}({n(1)},{succ}({inner}))"},
        ],
    }


# --- the CC/DP correspondence of the Ackermann program --------------------------


def cc_dp_rows(pairing: str, samples: list[tuple[int, int]]) -> list[dict]:
    """Per-sample rows of ``cc-dp-check`` for the pairings 0:1@ε and 2:2@2.

    Context 0 (m > 0, n = 0, actual (m - 1, 1)) lines up with rule 1
    a(s(x), 0) -> a(x, s(0)) at the root; context 2 (m > 0, n > 0, actual
    (m, n - 1)) with rule 2's inner call a(s(x), y).  Both sides agree on
    every sample, and the next call is compared exactly when both hold.
    """
    rows = []
    for m, n in samples:
        holds = m > 0 and (n == 0 if pairing == "0:1@ε" else n > 0)
        rows.append({"value": [m, n], "condition": holds, "match": holds, "iff": True,
                     "next_call": True if holds else None})
    return rows
