import random

import pytest

from matroid_forge import (
    FiniteMatroid,
    FreeMatroid,
    LinearMatroid,
    ParseError,
    PeriodicSumMatroid,
    SpecError,
    TemplateSet,
    UniformMatroid,
    core,
)
from matroid_forge.files import (
    _int,
    _ints,
    emit_family_text,
    emit_matroid_text,
    parse_family_text,
    parse_matroid_text,
    parse_setspec_text,
    parse_tasks_text,
)

UNIFORM_TEXT = """\
# comment line
matroid u24
kind uniform
params k=2 n=4
"""


class TestMatroidFiles:
    def test_uniform_roundtrip(self):
        m = parse_matroid_text(UNIFORM_TEXT)
        assert isinstance(m, UniformMatroid) and (m.k, m.n) == (2, 4)
        again = parse_matroid_text(emit_matroid_text(m))
        assert again.bases_set() == m.bases_set()
        assert emit_matroid_text(again) == emit_matroid_text(m)

    def test_graphic(self):
        text = "matroid tri\nkind graphic\nedge a b\nedge b c\nedge c a\n"
        m = parse_matroid_text(text)
        assert m.full_rank == 2
        assert emit_matroid_text(parse_matroid_text(emit_matroid_text(m))) == emit_matroid_text(m)

    def test_linear(self):
        text = "matroid l\nkind linear\nprime 2\nrow 1 0 1\nrow 0 1 1\n"
        m = parse_matroid_text(text)
        assert m.full_rank == 2 and not m.is_independent({1, 2, 3})

    def test_explicit(self):
        text = "matroid e\nkind explicit\nground 1 2 3\nbase 1 2\nbase 2 3\n"
        m = parse_matroid_text(text)
        assert m.bases_set() == {frozenset({1, 2}), frozenset({2, 3})}

    def test_explicit_empty_base_line(self):
        text = "matroid z\nkind explicit\nground 1 2\nbase\n"
        m = parse_matroid_text(text)
        assert m.full_rank == 0

    def test_free_and_periodic(self):
        assert isinstance(parse_matroid_text("matroid f\nkind free\n"), FreeMatroid)
        text = (
            "matroid ds\nkind periodic-sum\n"
            "component kind uniform\ncomponent params k=1 n=2\n"
        )
        m = parse_matroid_text(text)
        assert isinstance(m, PeriodicSumMatroid)
        assert m.block == 2
        again = parse_matroid_text(emit_matroid_text(m))
        assert isinstance(again, PeriodicSumMatroid) and again.block == 2

    def test_directive_outside_kind(self):
        with pytest.raises(ParseError) as err:
            parse_matroid_text("matroid x\nkind uniform\nbase 1 2\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("text, line, message", [
        ("matroid l\nkind linear\nprime 4\nrow 1 0\n", 3, "4 is not prime"),
        ("kind uniform\nparams k=4 n=3\nmatroid u\n", 2,
         "uniform matroid needs 0 <= k <= n, got k=4, n=3"),
        ("kind uniform\nparams k=1\nmatroid u\n", 2, "missing parameter 'n'"),
        # errors of no single directive name the last line
        ("matroid l\nkind linear\nprime 3\nrow 1 0\nrow 1\n", 5,
         "matrix rows must have equal length"),
        ("kind linear\nrow 1 0\nmatroid l\n", 3, "linear matroid needs a `prime` line"),
    ])
    def test_value_error_names_its_line(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_matroid_text(text)
        assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")

    def test_prime_trial_divided_once(self, monkeypatch):
        calls = []
        is_prime = core._is_prime
        monkeypatch.setattr(core, "_is_prime", lambda p: calls.append(p) or is_prime(p))
        m = parse_matroid_text("matroid l\nkind linear\nprime 2147483647\nrow 1 2\n")
        assert m.prime == 2147483647 and m.full_rank == 1
        assert calls == [2147483647]
        # a component is parsed as its own file: once there too
        calls.clear()
        parse_matroid_text("matroid s\nkind periodic-sum\ncomponent kind linear\n"
                           "component prime 3\ncomponent row 1 2\n")
        assert calls == [3]
        # built directly, a linear matroid still checks its prime
        with pytest.raises(SpecError, match="4 is not prime"):
            LinearMatroid(4, [[1, 0]])

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_matroid_text("matroid x\nkind uniform\nparams k=1 n=2\nfrobnicate\n")

    def test_missing_kind(self):
        with pytest.raises(ParseError):
            parse_matroid_text("matroid x\n")

    def test_minor_normalises_to_explicit(self):
        # a finite restriction of a schema is an oracle matroid with no native text form
        m = PeriodicSumMatroid(UniformMatroid(1, 2)).restrict(4)
        text = emit_matroid_text(m)
        assert "kind explicit" in text
        again = parse_matroid_text(text)
        assert isinstance(again, FiniteMatroid)
        assert again.bases_set() == m.bases_set()


class TestSetSpecs:
    def test_shorthands(self):
        assert parse_setspec_text("evens") == TemplateSet(2, [0])
        assert parse_setspec_text("odds") == TemplateSet(2, [1])
        assert parse_setspec_text("all") == TemplateSet.full()
        assert parse_setspec_text("mult 4") == TemplateSet(4, [0])
        assert parse_setspec_text("mult 4 2") == TemplateSet(4, [2])

    def test_finite(self):
        assert parse_setspec_text("set 3 1 4") == TemplateSet.from_finite([1, 3, 4])
        assert parse_setspec_text("set") == TemplateSet.empty()

    def test_template(self):
        t = parse_setspec_text("template d=4 res=1,3 t=5 low=0,2 minus=9")
        assert t == TemplateSet(4, [1, 3], 5, [0, 2], [9])

    def test_roundtrip_directive(self):
        for spec in ("evens", "mult 8 3", "set 1 2 9", "template d=6 res=0,3 t=4 low=1"):
            t = parse_setspec_text(spec)
            assert parse_setspec_text(t.directive()) == t

    def test_bad_spec(self):
        with pytest.raises(ParseError):
            parse_setspec_text("bogus 1 2")
        with pytest.raises(ParseError):
            parse_setspec_text("template q=1")
        for spec in ("evens 3", "odds x", "all all"):
            with pytest.raises(ParseError, match=f"^line 1: {spec.split()[0]} takes no arguments$"):
                parse_setspec_text(spec)

    def test_set_errors_name_their_line(self):
        # a `set` member the template refuses is reported on its line, as a
        # bad `template` line is
        for spec, message in (("set -1", "template members are natural numbers"),
                              ("template res=-1", r"residues must lie in \[0, period\)")):
            with pytest.raises(ParseError, match=f"^line 3: {message}$"):
                parse_family_text(f"family f\nclass evens\nclass {spec}\n")

    def test_errors_match_field_by_field_parse(self):
        # the parser hands members to the template as text; its errors must stay
        # those of converting each field in order, then building the template
        def reference(spec):
            head, *rest = spec.split()
            if head == "set":
                make, numbers = TemplateSet.from_finite, [_ints(rest, 1)]
            else:
                kv = dict(w.split("=", 1) for w in rest)
                make = TemplateSet
                numbers = [_int(kv["d"], 1), _ints(kv["res"].split(","), 1), _int(kv["t"], 1),
                           _ints(kv["low"].split(","), 1), _ints(kv["minus"].split(","), 1)]
            try:
                return make(*numbers)
            except SpecError as exc:
                raise ParseError(str(exc), 1) from exc

        def outcome(fn, spec):
            try:
                return fn(spec)
            except (ParseError, SpecError) as exc:
                return type(exc), str(exc)

        rng = random.Random(21)
        fields = {"d": ["4", "0", "x", "2000000"], "res": ["1,3", "1,9", "1,a", "-1"],
                  "t": ["5", "-1", "y", "7"], "low": ["0,2", "0,6", "0,b", "-2"],
                  "minus": ["9", "-3", "c", "3000000"]}
        for _ in range(400):
            spec = "template " + " ".join(f"{k}={rng.choice(v)}" for k, v in fields.items())
            assert outcome(parse_setspec_text, spec) == outcome(reference, spec), spec
        for spec in ("set 1 2", "set 1 x 3", "set -1 2", "set 1000001", "set 1_0 ٣"):
            assert outcome(parse_setspec_text, spec) == outcome(reference, spec), spec


class TestFamilyFiles:
    def test_finite_family(self):
        name, mode, members = parse_family_text("family f\nset 1 2\nset 2 3\n")
        assert (name, mode) == ("f", "finite")
        assert members == [frozenset({1, 2}), frozenset({2, 3})]

    def test_class_family(self):
        name, mode, members = parse_family_text("family g\nclass evens\nclass mult 4 1\n")
        assert mode == "classes" and members[0] == TemplateSet(2, [0])

    def test_mixed_rejected(self):
        with pytest.raises(ParseError):
            parse_family_text("family f\nset 1\nclass evens\n")

    def test_roundtrip(self):
        text = emit_family_text("s", [TemplateSet(2, [1]), TemplateSet(8, [2])])
        name, mode, members = parse_family_text(text)
        assert mode == "classes" and len(members) == 2
        assert emit_family_text(name, members) == text


class TestTaskFiles:
    def test_single(self):
        tasks = parse_tasks_text("task t\nlower set\nupper odds\n")
        assert tasks == [("t", TemplateSet.empty(), TemplateSet(2, [1]))]

    def test_multiple(self):
        text = "task a\nlower set\nupper odds\ntask b\nlower evens\nupper all\n"
        tasks = parse_tasks_text(text)
        assert [t[0] for t in tasks] == ["a", "b"]

    def test_missing_part(self):
        with pytest.raises(ParseError):
            parse_tasks_text("task t\nlower set 1\n")

    def test_roundtrip(self):
        # the directives that `TemplateSet.directive` emits
        text = "task t\nlower set \nupper template d=2 res=1 t=0\n"
        assert parse_tasks_text(text) == [("t", TemplateSet.empty(), TemplateSet(2, [1]))]
