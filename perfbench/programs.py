"""Benchmark inputs: seeded request orders, source stamps and source
edits, and the fixed ``pbench`` kernel.

Everything here is a pure function of the seed and the program text, so
the same seed gives byte-identical requests on every commit.  Nothing
here imports the system under test; callers pass built programs in.
"""

from __future__ import annotations

import random
import re
from typing import Dict, List, Sequence, Tuple

# A real literal with a fractional part, not part of an identifier or an
# exponent: editing one changes a value, never a shape, bound or label.
_REAL = re.compile(r"(?<![\w.])(\d+\.\d+)(?![\w.])")
_COMMENT_OR_DECL = re.compile(
    r"^\s*(C\s|C$|\*|!|DIMENSION|COMMON|INTEGER|REAL|PARAMETER|DATA)",
    re.IGNORECASE)


#: The DOALL kernel of ``benchmarks/bench_perf_parallel.py``: a sequential
#: stepping loop around a large parallel loop with a scalar reduction.
PBENCH_SOURCE = """
      PROGRAM pbench
      COMMON /st/ s, d
      COMMON /fld/ c(4096)
      d = 1.0
      DO 30 it = 1, 3
        s = 0.0
        DO 20 i = 1, 4096
          t = 0.0
          DO 10 k = 1, 64
            t = t + SQRT(i * d + k) * COS(k * 0.5) + EXP(-k * 0.01)
10        CONTINUE
          c(i) = t
          s = s + t
20      CONTINUE
        d = d + s * 0.0000001
        PRINT *, s
30    CONTINUE
      END
"""


def rng_for(seed: int, *labels) -> random.Random:
    """An independent stream per (seed, purpose), stable across Pythons."""
    return random.Random("/".join(["perfbench", str(seed)]
                                  + [str(x) for x in labels]))


def stamp(source: str, tag: str) -> str:
    """``source`` with a leading comment line: new bytes, same program."""
    return f"C perfbench {tag}\n{source}"


def cold_order(names: Sequence[str], seed: int, lane: int = 0) -> List[str]:
    """The order in which client lane ``lane`` sends ``names``."""
    order = sorted(names)
    rng_for(seed, "order", *([lane] if lane else [])).shuffle(order)
    return order


def comment_edit(source: str, line: int, tag: str) -> str:
    """Insert a comment after 0-based ``line`` (a procedure header)."""
    lines = source.splitlines()
    return "\n".join(lines[:line + 1] + [f"C edit {tag}"]
                     + lines[line + 1:]) + "\n"


def literal_sites(source: str, lines: range) -> List[Tuple[int, int, int]]:
    """(line, start, end) of every editable real literal in ``lines``:
    executable statements only, so declarations keep their shapes."""
    text = source.splitlines()
    sites = []
    for i in lines:
        if i >= len(text) or _COMMENT_OR_DECL.match(text[i]):
            continue
        for m in _REAL.finditer(text[i]):
            sites.append((i, m.start(1), m.end(1)))
    return sites


def literal_edit(source: str, site: Tuple[int, int, int],
                 rng: random.Random) -> str:
    i, start, end = site
    lines = source.splitlines()
    old = lines[i][start:end]
    decimals = len(old.split(".")[1])
    value = float(old) * rng.choice((0.5, 0.75, 1.25, 1.5))
    new = f"{value:.{decimals}f}"
    if new == old:                       # 0.0, or lost to rounding
        new = f"{float(old) + 1:.{decimals}f}"
    lines[i] = lines[i][:start] + new + lines[i][end:]
    return "\n".join(lines) + "\n"


def edit_step(source: str, procs: Dict[str, range], rng: random.Random,
              tag: str) -> Dict:
    """One edit-session step on one program: a procedure drawn uniformly
    from all of its procedures (leaves or not), then either a comment
    edit or a numeric-literal edit of it.  A literal edit falls back to a
    comment edit in a procedure without real literals; ``kind`` says
    which."""
    proc = rng.choice(sorted(procs))
    span = procs[proc]
    sites = literal_sites(source, span)
    if rng.random() < 0.5 and sites:
        edited, kind = literal_edit(source, rng.choice(sites), rng), \
            "literal"
    else:
        edited, kind = comment_edit(source, span.start, tag), "comment"
    return {"proc": proc, "kind": kind, "source": edited}


def zipf_weights(n: int, s: float = 1.1) -> List[float]:
    return [1.0 / (rank + 1) ** s for rank in range(n)]
