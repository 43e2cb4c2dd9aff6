"""Fourier-Motzkin elimination over the rationals.

This is the "potentially exponential" engine the paper leans on for all
array-section operations (section 5.2.3: "operations on array summaries use
the potentially exponential Fourier-Motzkin method").  Sizes here are tiny
(a handful of loop indices and symbolic constants), so the classical
algorithm with redundancy pruning is plenty.

Equalities are removed first by Gaussian substitution, which both speeds up
elimination and keeps it exact.

Two paths share the algorithm.  :func:`project` works on
:class:`~repro.poly.linexpr.LinExpr` rows with ``Fraction`` coefficients,
because its result flows into sections and artifacts.  The emptiness test
:func:`system_is_empty` only needs a yes/no answer, so it runs the same
elimination fraction-free on dense integer rows.  :func:`decide_empty`
puts a process-wide memo in front of it: rational emptiness does not
depend on constraint order, so one answer serves every system with the
same :meth:`~repro.poly.system.System.key`.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .linexpr import LinExpr
from .system import Constraint, System

# Safety valve: beyond this many inequalities we conservatively keep the
# variable unconstrained (the projection becomes an over-approximation,
# which is sound for may-information and handled by callers for must-).
MAX_CONSTRAINTS = 600

#: Entries in the process-wide emptiness memo before it is cleared.  A
#: cold hydro request, the corpus's largest, needs about 13,100.
MEMO_CAP = 1 << 14

_memo: Dict[Tuple, bool] = {}
_lock = threading.Lock()
_counters = {"queries": 0, "memo_hits": 0, "fm_runs": 0, "over_approx": 0}


def emptiness_stats() -> Dict[str, int]:
    """Monotonic counters: ``queries`` (emptiness decisions a
    :class:`System` asked for), ``memo_hits`` (answered by the process
    memo), ``fm_runs`` (answered by running :func:`system_is_empty`) and
    ``over_approx`` (``MAX_CONSTRAINTS`` bail-outs, in emptiness tests and
    in :func:`project`).  Queries neither a hit nor a run had a trivially
    false constraint."""
    with _lock:
        return dict(_counters)


def emptiness_metrics() -> Dict[str, int]:
    """:func:`emptiness_stats` under the names the ``parallelize`` span
    tags and the service metrics use: ``fm_queries``, ``fm_memo_hits``,
    ``fm_runs`` and ``fm_over_approx``."""
    return {f"fm_{k.removeprefix('fm_')}": v
            for k, v in emptiness_stats().items()}


def _count(what: str) -> None:
    with _lock:
        _counters[what] += 1


def decide_empty(system: System) -> bool:
    """Rational emptiness of ``system`` through the process-wide memo.

    A miss runs :func:`system_is_empty` (looked up at call time, so a
    wrapper installed on this module sees every real run).  Answers from
    a ``MAX_CONSTRAINTS`` bail-out depend on constraint order and are
    never cached."""
    _count("queries")
    for c in system.constraints:
        if c.is_trivially_false():
            return True
    key = system.key()
    hit = _memo.get(key)
    if hit is not None:
        _count("memo_hits")
        return hit
    bail_outs = _counters["over_approx"]
    result = system_is_empty(system)
    _count("fm_runs")
    if _counters["over_approx"] == bail_outs:
        if len(_memo) >= MEMO_CAP:
            _memo.clear()
        _memo[key] = result
    return result


def _split(system: System) -> Tuple[List[Constraint], List[Constraint]]:
    eqs = [c for c in system.constraints if c.is_equality]
    ineqs = [c for c in system.constraints if not c.is_equality]
    return eqs, ineqs


def _solve_equalities(system: System, protect: Sequence[str] = ()
                      ) -> System | None:
    """Use equalities to substitute variables away (Gaussian elimination).

    Returns an equivalent system whose equalities involve only variables in
    ``protect`` (or constants), or ``None`` if a contradiction was found.
    Variables in ``protect`` are never chosen as substitution targets.
    """
    protected = set(protect)
    current = system
    changed = True
    while changed:
        changed = False
        eqs, _ = _split(current)
        for eq in eqs:
            # pick a variable to solve for
            pivot = None
            for var in eq.expr.coeffs:
                if var not in protected:
                    pivot = var
                    break
            if pivot is None:
                if eq.expr.is_constant() and eq.expr.const != 0:
                    return None
                continue
            coef = eq.expr.coeffs[pivot]
            # pivot = -(rest)/coef
            rest = LinExpr({v: c for v, c in eq.expr.coeffs.items()
                            if v != pivot}, eq.expr.const)
            replacement = rest * Fraction(-1, 1) * (Fraction(1, 1) / coef)
            new_constraints = []
            for c in current.constraints:
                if c is eq:
                    continue
                new_constraints.append(c.substitute(pivot, replacement))
            current = System(new_constraints)
            changed = True
            break
        else:
            break
    # check remaining constant equalities
    for c in current.constraints:
        if c.is_trivially_false():
            return None
    return current


def eliminate_variable(ineqs: List[Constraint], var: str) -> List[Constraint]:
    """One Fourier-Motzkin step: eliminate ``var`` from inequalities."""
    lower: List[LinExpr] = []   # var >= expr  (normalized)
    upper: List[LinExpr] = []   # var <= expr
    free: List[Constraint] = []
    for c in ineqs:
        coef = c.expr.coeff(var)
        if coef == 0:
            free.append(c)
            continue
        # c.expr = coef*var + rest >= 0
        rest = LinExpr({v: k for v, k in c.expr.coeffs.items() if v != var},
                       c.expr.const)
        if coef > 0:
            # var >= -rest/coef
            lower.append(rest * (Fraction(-1) / coef))
        else:
            # var <= rest/(-coef)
            upper.append(rest * (Fraction(1) / (-coef)))
    result = list(free)
    for lo in lower:
        for hi in upper:
            # lo <= var <= hi  =>  hi - lo >= 0
            result.append(Constraint(hi - lo))
    return _prune(result)


def _prune(constraints: List[Constraint]) -> List[Constraint]:
    """Drop trivially-true and syntactically duplicate constraints, and
    inequalities dominated by another with the same linear part."""
    best: dict = {}
    order: List[Tuple] = []
    for c in constraints:
        if c.is_trivially_true():
            continue
        lin = tuple(sorted(c.expr.coeffs.items()))
        key = (lin, c.is_equality)
        prev = best.get(key)
        if prev is None:
            best[key] = c
            order.append(key)
        elif not c.is_equality:
            # same linear part: expr+c1 >= 0 dominated by expr+c2 >= 0, c2<c1
            if c.expr.const < prev.expr.const:
                best[key] = c
    return [best[k] for k in order]


def project(system: System, variables: Sequence[str]) -> System:
    """Existentially project away ``variables``."""
    # Equality substitution may only eliminate the variables being
    # projected — every other variable must survive into the result.
    keep = [v for v in system.variables() if v not in set(variables)]
    solved = _solve_equalities(system, protect=keep)
    if solved is None:
        # Contradictory system: projection of the empty set is empty.
        return System([Constraint(LinExpr.constant(-1))])
    remaining = set(variables)
    # Substitution may already have removed some of them.
    constraints = list(solved.constraints)
    for var in list(remaining):
        present = any(c.expr.references(var) for c in constraints)
        if not present:
            remaining.discard(var)
    for var in sorted(remaining):
        # separate equalities mentioning var: substitute through one of them
        eq_with = [c for c in constraints
                   if c.is_equality and c.expr.references(var)]
        if eq_with:
            eq = eq_with[0]
            coef = eq.expr.coeffs[var]
            rest = LinExpr({v: k for v, k in eq.expr.coeffs.items()
                            if v != var}, eq.expr.const)
            repl = rest * (Fraction(-1) / coef)
            constraints = [c.substitute(var, repl) for c in constraints
                           if c is not eq]
            constraints = _prune(constraints)
            continue
        ineqs_all = [c for c in constraints if not c.is_equality]
        eqs_all = [c for c in constraints if c.is_equality]
        new_ineqs = eliminate_variable(ineqs_all, var)
        if len(new_ineqs) > MAX_CONSTRAINTS:
            # over-approximate: drop every constraint that mentions var
            _count("over_approx")
            new_ineqs = [c for c in ineqs_all if not c.expr.references(var)]
        constraints = eqs_all + new_ineqs
    return System(constraints)


# -- fraction-free emptiness --------------------------------------------------
# A row is a list of ints: one coefficient per variable, constant last,
# standing for ``row . (x, 1) >= 0`` (or ``== 0`` for an equality).  Rows
# are only ever scaled by positive factors and divided by the gcd of all
# their entries, constant included, so each row denotes exactly the
# rational constraint it came from; the constant is never rounded.

def _integer_row(expr: LinExpr, index: Dict[str, int]) -> List[int]:
    """``expr`` scaled by the LCM of its denominators."""
    scale = lcm(expr.const.denominator,
                *(f.denominator for f in expr.coeffs.values()))
    row = [0] * (len(index) + 1)
    for var, f in expr.coeffs.items():
        row[index[var]] = f.numerator * (scale // f.denominator)
    row[-1] = expr.const.numerator * (scale // expr.const.denominator)
    return row


def _reduce(row: List[int]) -> List[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _solve_integer_equalities(system: System) -> Optional[List[List[int]]]:
    """Integer Gaussian substitution of every equality.  Returns the
    remaining inequality rows, or ``None`` on a contradiction."""
    index = {v: i for i, v in enumerate(system.variables())}
    eqs: List[List[int]] = []
    ineqs: List[List[int]] = []
    for c in system.constraints:
        (eqs if c.is_equality else ineqs).append(
            _reduce(_integer_row(c.expr, index)))
    while eqs:
        eq = eqs.pop()
        cols = [j for j, a in enumerate(eq[:-1]) if a]
        if not cols:
            if eq[-1]:
                return None
            continue
        # a unit pivot keeps the numbers small
        pivot = next((j for j in cols if abs(eq[j]) == 1), cols[0])
        scale = abs(eq[pivot])
        sign = 1 if eq[pivot] > 0 else -1

        def substitute(row: List[int]) -> List[int]:
            # scale * row - (row[pivot] / eq[pivot]) * scale * eq: the
            # multiplier on ``row`` is positive, so inequalities keep
            # their direction
            k = sign * row[pivot]
            if not k:
                return row
            return _reduce([scale * x - k * y for x, y in zip(row, eq)])

        eqs = [substitute(r) for r in eqs]
        ineqs = [substitute(r) for r in ineqs]
    for row in ineqs:
        if row[-1] < 0 and not any(row[:-1]):
            return None
    return ineqs


def _prune_rows(rows: List[List[int]]) -> Tuple[List[List[int]], bool]:
    """The integer twin of :func:`_prune`: drop trivially-true rows and,
    of rows whose linear parts point the same way, keep the tightest.
    Also says whether a trivially false row is among those kept."""
    best: Dict[Optional[Tuple], Tuple[List[int], int]] = {}
    for row in rows:
        lin = row[:-1]
        g = gcd(*lin)
        if not g:
            if row[-1] >= 0:
                continue
            best.setdefault(None, (row, 1))
            continue
        key = tuple(lin) if g == 1 else tuple(x // g for x in lin)
        d = gcd(g, row[-1])
        if d > 1:
            row = [x // d for x in row]
            g //= d
        prev = best.get(key)
        # g*(key . x) + c >= 0 is key . x >= -c/g: tighter for smaller c/g
        if prev is None or row[-1] * prev[1] < prev[0][-1] * g:
            best[key] = (row, g)
    return [row for row, _ in best.values()], None in best


def _eliminate_first(rows: List[List[int]]) -> List[List[int]]:
    """One Fourier-Motzkin step on the first column, which it drops:
    ``b*lower + a*upper`` for each pair with ``a, b > 0``."""
    lower: List[Tuple[int, List[int]]] = []
    upper: List[Tuple[int, List[int]]] = []
    out: List[List[int]] = []
    for row in rows:
        a = row[0]
        if a > 0:
            lower.append((a, row[1:]))
        elif a < 0:
            upper.append((-a, row[1:]))
        else:
            out.append(row[1:])
    for a, lo in lower:
        for b, hi in upper:
            out.append([b * x + a * y for x, y in zip(lo, hi)])
    return out


def system_is_empty(system: System) -> bool:
    """Decide rational emptiness by eliminating every variable, in sorted
    order, on integer rows."""
    rows = _solve_integer_equalities(system)
    if rows is None:
        return True
    # no row is trivially false here: the substitution checked
    rows, _ = _prune_rows(rows)
    width = len(rows[0]) - 1 if rows else 0
    present = [j for j in range(width) if any(row[j] for row in rows)]
    rows = [[row[j] for j in present] + row[-1:] for row in rows]
    for _ in present:
        rows, infeasible = _prune_rows(_eliminate_first(rows))
        if len(rows) > MAX_CONSTRAINTS:
            # Over-approximate (treat as non-empty): sound for dependence
            # testing where non-empty means "assume a dependence".
            _count("over_approx")
            return False
        if infeasible:
            return True
    return False
