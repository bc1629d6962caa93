"""Line-oriented text formats for matroids, sets, families and tasks.

Matroid files:

    matroid <name>
    kind uniform|graphic|linear|explicit|free|periodic-sum
    params k=2 n=4            # uniform
    edge u v                  # graphic (element ids follow file order, 1-based)
    prime 2                   # linear
    row 1 0 1 1
    ground 1 2 3              # explicit
    base 1 2
    component <directive>     # periodic-sum: nested body of the block matroid

Set specs (one per line, used in family/task files and inline CLI args):

    set 1 2 3
    template d=4 res=1,3 t=5 low=0,2 minus=8
    evens | odds | all | mult <k> [offset]

Family files hold `set` lines (finite) or `class <setspec>` lines
(class representatives); task files hold `lower <setspec>` and
`upper <setspec>` lines.  Lines starting with `#` are comments.  Parsing is
strict: unknown directives and directives outside their kind fail with the
line number; emit(parse(x)) is the canonical form.
"""

from __future__ import annotations

from typing import Iterable

from .core import (
    ExplicitMatroid,
    FiniteMatroid,
    GraphicMatroid,
    LinearMatroid,
    UniformMatroid,
    check_prime,
)
from .errors import MatroidForgeError, ParseError
from .finitary import FinitaryMatroid, FreeMatroid, PeriodicSumMatroid
from .templates import TemplateSet


def _tokens(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((i, line.split()))
    return out


def _ints(words: Iterable[str], line: int) -> list[int]:
    try:
        return list(map(int, words))
    except ValueError as exc:
        raise ParseError(f"expected integers, got {' '.join(words)}", line) from exc


def _int(word: str, line: int) -> int:
    try:
        return int(word)
    except ValueError as exc:
        raise ParseError(f"expected an integer, got {word!r}", line) from exc


def _kv(words: list[str], line: int) -> dict[str, str]:
    out = {}
    for w in words:
        if "=" not in w:
            raise ParseError(f"expected key=value, got {w!r}", line)
        k, v = w.split("=", 1)
        out[k] = v
    return out


def _comma_list(value: str) -> list[str]:
    return value.split(",") if value else []


def _template_error(exc: Exception, fields: tuple, line: int) -> ParseError:
    """The error of a set spec whose template could not be built, naming `line`.

    A malformed number is reported before any template error, and the first
    one in field order is named; `fields` pairs each value with its parser.
    """
    for value, parse in fields:
        parse(value, line)
    return ParseError(str(exc), line)


def parse_setspec(words: list[str], line: int = 0) -> TemplateSet:
    """One set spec: a `set` line, a `template` line, or a shorthand."""
    if not words:
        raise ParseError("empty set spec", line)
    head, rest = words[0], words[1:]
    # members go to the template as text: its constructor converts each once
    if head == "set":
        try:
            return TemplateSet.from_finite(rest)
        except (ValueError, MatroidForgeError) as exc:
            raise _template_error(exc, ((rest, _ints),), line) from exc
    if head == "template":
        kv = _kv(rest, line)
        unknown = set(kv) - {"d", "res", "t", "low", "minus"}
        if unknown:
            raise ParseError(f"unknown template fields {sorted(unknown)}", line)
        fields = ((kv.get("d", "1"), _int), (_comma_list(kv.get("res", "")), _ints),
                  (kv.get("t", "0"), _int), (_comma_list(kv.get("low", "")), _ints),
                  (_comma_list(kv.get("minus", "")), _ints))
        try:
            return TemplateSet(*(value for value, _ in fields))
        except (ValueError, MatroidForgeError) as exc:
            raise _template_error(exc, fields, line) from exc
    if head in ("evens", "odds", "all") and rest:
        raise ParseError(f"{head} takes no arguments", line)
    if head == "evens":
        return TemplateSet(2, [0])
    if head == "odds":
        return TemplateSet(2, [1])
    if head == "all":
        return TemplateSet.full()
    if head == "mult":
        nums = _ints(rest, line)
        if len(nums) not in (1, 2):
            raise ParseError("mult takes a modulus and an optional offset", line)
        k = nums[0]
        if k < 1:
            raise ParseError("mult modulus must be positive", line)
        offset = nums[1] % k if len(nums) == 2 else 0
        return TemplateSet(k, [offset])
    raise ParseError(f"unknown set spec {head!r}", line)


def parse_setspec_text(text: str) -> TemplateSet:
    body = _tokens(text)
    if len(body) != 1:
        raise ParseError("expected exactly one set spec line")
    line, words = body[0]
    return parse_setspec(words, line)


def _build_matroid(name: str, kind: str | None, state: dict, line: int):
    """Construct the matroid.  An error names `line`, the file's last, except
    one about the uniform parameters, which names their `params` line (a bad
    prime has already failed on its `prime` line)."""
    if kind is None:
        raise ParseError("missing `kind` directive", line)
    try:
        if kind == "uniform":
            if "params" not in state:
                raise ParseError("uniform matroid needs a `params k=.. n=..` line", line)
            (k, n), line = state["params"]
            return UniformMatroid(k, n, name)
        if kind == "graphic":
            return GraphicMatroid(state.get("edges", []), name)
        if kind == "linear":
            if "prime" not in state:
                raise ParseError("linear matroid needs a `prime` line", line)
            # the `prime` line ran check_prime already
            return LinearMatroid(state["prime"], state.get("rows", []), name, _checked=True)
        if kind == "explicit":
            if "ground" not in state:
                raise ParseError("explicit matroid needs a `ground` line", line)
            return ExplicitMatroid(state["ground"], state.get("bases", []), name)
        if kind == "free":
            return FreeMatroid()
        if kind == "periodic-sum":
            body = state.get("component_lines")
            if not body:
                raise ParseError("periodic-sum matroid needs `component` lines", line)
            if not body[0].startswith("matroid"):
                body = ["matroid component"] + body
            inner = parse_matroid_text("\n".join(body))
            if not isinstance(inner, FiniteMatroid):
                raise ParseError("component matroid must be finite", line)
            return PeriodicSumMatroid(inner)
    except MatroidForgeError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc), line) from exc
    raise ParseError(f"unknown matroid kind {kind!r}", line)


# the matroid kind each kind-specific directive belongs to
_DIRECTIVE_KIND = {"params": "uniform", "edge": "graphic", "prime": "linear", "row": "linear",
                   "ground": "explicit", "base": "explicit", "component": "periodic-sum"}


def parse_matroid_text(text: str):
    """Parse one matroid block; returns a FiniteMatroid or FinitaryMatroid."""
    name = "m"
    kind: str | None = None
    state: dict = {}
    last = 0
    seen_header = False
    for line, words in _tokens(text):
        last = line
        head, rest = words[0], words[1:]
        owner = _DIRECTIVE_KIND.get(head)
        if owner is not None and kind != owner:
            raise ParseError(f"`{head}` only applies to kind {owner}", line)
        if head == "matroid":
            if seen_header:
                raise ParseError("only one matroid block per file", line)
            seen_header = True
            name = rest[0] if rest else "m"
        elif head == "kind":
            if len(rest) != 1:
                raise ParseError("kind takes exactly one value", line)
            kind = rest[0]
        elif head == "params":
            kv = _kv(rest, line)
            unknown = set(kv) - {"k", "n"}
            if unknown:
                raise ParseError(f"unknown params fields {sorted(unknown)}", line)
            values = {k: _int(v, line) for k, v in kv.items()}
            for key in ("k", "n"):
                if key not in values:
                    raise ParseError(f"missing parameter {key!r}", line)
            state["params"] = (values["k"], values["n"]), line
        elif head == "edge":
            if len(rest) != 2:
                raise ParseError("edge takes two vertex names", line)
            state.setdefault("edges", []).append((rest[0], rest[1]))
        elif head == "prime":
            if len(rest) != 1:
                raise ParseError("prime takes exactly one value", line)
            state["prime"] = _int(rest[0], line)
            try:
                check_prime(state["prime"])
            except MatroidForgeError as exc:
                raise ParseError(str(exc), line) from exc
        elif head == "row":
            state.setdefault("rows", []).append(_ints(rest, line))
        elif head == "ground":
            state["ground"] = _ints(rest, line)
        elif head == "base":
            state.setdefault("bases", []).append(_ints(rest, line))
        elif head == "component":
            state.setdefault("component_lines", []).append(" ".join(rest))
        else:
            raise ParseError(f"unknown directive {head!r}", line)
    if not seen_header:
        raise ParseError("missing `matroid <name>` header", last or 1)
    return _build_matroid(name, kind, state, last)


def emit_matroid_text(matroid) -> str:
    """Canonical text form; finite backends without a native form normalise to explicit."""
    if isinstance(matroid, FreeMatroid):
        return "matroid free\nkind free\n"
    if isinstance(matroid, PeriodicSumMatroid):
        inner = emit_matroid_text(matroid.component)
        body = "".join(f"component {line}\n" for line in inner.splitlines() if line)
        return "matroid periodic\nkind periodic-sum\n" + body
    assert isinstance(matroid, FiniteMatroid)
    lines = [f"matroid {matroid.name}"]
    if isinstance(matroid, UniformMatroid):
        lines.append("kind uniform")
        lines.append(f"params k={matroid.k} n={matroid.n}")
    elif isinstance(matroid, GraphicMatroid):
        lines.append("kind graphic")
        lines.extend(f"edge {u} {v}" for u, v in matroid.edges)
    elif isinstance(matroid, LinearMatroid):
        lines.append("kind linear")
        lines.append(f"prime {matroid.prime}")
        lines.extend("row " + " ".join(str(v) for v in row) for row in matroid.rows)
    else:
        lines.append("kind explicit")
        lines.append("ground " + " ".join(str(e) for e in sorted(matroid.ground)))
        lines.extend(
            "base " + " ".join(str(e) for e in sorted(b)) for b in matroid.bases()
        )
    return "\n".join(lines) + "\n"


def parse_family_text(text: str):
    """Parse a family file; returns (name, 'finite', [frozenset]) or (name, 'classes', [TemplateSet])."""
    name = "f"
    mode: str | None = None
    finite: list[frozenset] = []
    classes: list[TemplateSet] = []
    seen_header = False
    for line, words in _tokens(text):
        head, rest = words[0], words[1:]
        if head == "family":
            if seen_header:
                raise ParseError("only one family block per file", line)
            seen_header = True
            name = rest[0] if rest else "f"
        elif head == "set":
            if mode == "classes":
                raise ParseError("cannot mix `set` and `class` lines", line)
            mode = "finite"
            finite.append(frozenset(_ints(rest, line)))
        elif head == "class":
            if mode == "finite":
                raise ParseError("cannot mix `set` and `class` lines", line)
            mode = "classes"
            classes.append(parse_setspec(rest, line))
        else:
            raise ParseError(f"unknown directive {head!r}", line)
    if not seen_header:
        raise ParseError("missing `family <name>` header", 1)
    if mode is None:
        raise ParseError("family has no members", 1)
    if mode == "finite":
        return name, "finite", finite
    return name, "classes", classes


def emit_family_text(name: str, members) -> str:
    lines = [f"family {name}"]
    for m in members:
        if isinstance(m, TemplateSet):
            lines.append(f"class {m.directive()}")
        else:
            lines.append("set " + " ".join(str(e) for e in sorted(m)))
    return "\n".join(lines) + "\n"


def parse_tasks_text(text: str) -> list[tuple[str, TemplateSet, TemplateSet]]:
    """Parse one or more task blocks; each needs a lower and an upper set spec."""
    tasks: list[tuple[str, TemplateSet, TemplateSet]] = []
    current: dict | None = None

    def flush(line: int):
        if current is None:
            return
        if "lower" not in current or "upper" not in current:
            raise ParseError(f"task {current['name']!r} needs lower and upper lines", line)
        tasks.append((current["name"], current["lower"], current["upper"]))

    last = 1
    for line, words in _tokens(text):
        last = line
        head, rest = words[0], words[1:]
        if head == "task":
            flush(line)
            current = {"name": rest[0] if rest else f"t{len(tasks) + 1}"}
        elif head in ("lower", "upper"):
            if current is None:
                raise ParseError("set lines must follow a `task` header", line)
            current[head] = parse_setspec(rest, line)
        else:
            raise ParseError(f"unknown directive {head!r}", line)
    flush(last)
    if not tasks:
        raise ParseError("no task blocks found", last)
    return tasks
