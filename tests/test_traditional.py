"""Tests for the five traditional checkers (§3.5)."""

from repro.analysis.alias import run_alias_analysis
from repro.analysis.callgraph import build_call_graph
from repro.detector.traditional.double_lock import check_double_lock
from repro.detector.traditional.fatal_goroutine import check_fatal_goroutine
from repro.detector.traditional.forget_unlock import check_forget_unlock
from repro.detector.traditional.lock_order import check_lock_order
from repro.detector.traditional.struct_race import check_struct_races
from tests.conftest import build


def prepared(source: str):
    prog = build(source)
    cg = build_call_graph(prog)
    alias = run_alias_analysis(prog, cg)
    return prog, cg, alias


class TestForgetUnlock:
    def test_early_return_holding(self):
        prog, cg, alias = prepared(
            "func f(d bool) {\n\tvar mu sync.Mutex\n\tmu.Lock()\n"
            "\tif d {\n\t\treturn\n\t}\n\tmu.Unlock()\n}"
        )
        reports = check_forget_unlock(prog, alias)
        assert len(reports) == 1
        assert reports[0].category == "forget-unlock"

    def test_balanced_clean(self):
        prog, cg, alias = prepared(
            "func f() {\n\tvar mu sync.Mutex\n\tmu.Lock()\n\tmu.Unlock()\n}"
        )
        assert check_forget_unlock(prog, alias) == []

    def test_defer_unlock_clean(self):
        prog, cg, alias = prepared(
            "func f(d bool) {\n\tvar mu sync.Mutex\n\tmu.Lock()\n"
            "\tdefer mu.Unlock()\n\tif d {\n\t\treturn\n\t}\n}"
        )
        assert check_forget_unlock(prog, alias) == []

    def test_wrapper_lock_is_false_positive(self):
        # semantic FP: begin() locks, end() unlocks — intra-procedural
        # analysis cannot see the pairing (paper: 18 semantic FPs)
        prog, cg, alias = prepared(
            "type s struct {\n\tmu sync.Mutex\n}\n"
            "func (x *s) begin() {\n\tx.mu.Lock()\n}\n"
            "func (x *s) end() {\n\tx.mu.Unlock()\n}\n"
            "func f() {\n\tv := s{}\n\tv.begin()\n\tv.end()\n}"
        )
        assert len(check_forget_unlock(prog, alias)) == 1


class TestDoubleLock:
    def test_intraprocedural(self):
        prog, cg, alias = prepared(
            "func f() {\n\tvar mu sync.Mutex\n\tmu.Lock()\n\tmu.Lock()\n}"
        )
        assert len(check_double_lock(prog, alias)) == 1

    def test_interprocedural_via_summary(self):
        prog, cg, alias = prepared(
            "type r struct {\n\tmu sync.Mutex\n\tn int\n}\n"
            "func (x *r) inner() {\n\tx.mu.Lock()\n\tx.mu.Unlock()\n}\n"
            "func (x *r) outer() {\n\tx.mu.Lock()\n\tx.inner()\n\tx.mu.Unlock()\n}\n"
            "func f() {\n\tv := r{}\n\tv.outer()\n}"
        )
        reports = check_double_lock(prog, alias)
        assert len(reports) == 1
        assert "inner" in reports[0].description

    def test_lock_unlock_lock_clean(self):
        prog, cg, alias = prepared(
            "func f() {\n\tvar mu sync.Mutex\n\tmu.Lock()\n\tmu.Unlock()\n\tmu.Lock()\n\tmu.Unlock()\n}"
        )
        assert check_double_lock(prog, alias) == []

    def test_two_different_mutexes_clean(self):
        prog, cg, alias = prepared(
            "func f() {\n\tvar a sync.Mutex\n\tvar b sync.Mutex\n"
            "\ta.Lock()\n\tb.Lock()\n\tb.Unlock()\n\ta.Unlock()\n}"
        )
        assert check_double_lock(prog, alias) == []


class TestLockOrder:
    def test_conflicting_orders(self):
        prog, cg, alias = prepared(
            "type s struct {\n\ta sync.Mutex\n\tb sync.Mutex\n}\n"
            "func (x *s) ab() {\n\tx.a.Lock()\n\tx.b.Lock()\n\tx.b.Unlock()\n\tx.a.Unlock()\n}\n"
            "func (x *s) ba() {\n\tx.b.Lock()\n\tx.a.Lock()\n\tx.a.Unlock()\n\tx.b.Unlock()\n}\n"
            "func f() {\n\tv := s{}\n\tv.ab()\n\tv.ba()\n}"
        )
        assert len(check_lock_order(prog, alias)) == 1

    def test_consistent_order_clean(self):
        prog, cg, alias = prepared(
            "type s struct {\n\ta sync.Mutex\n\tb sync.Mutex\n}\n"
            "func (x *s) one() {\n\tx.a.Lock()\n\tx.b.Lock()\n\tx.b.Unlock()\n\tx.a.Unlock()\n}\n"
            "func (x *s) two() {\n\tx.a.Lock()\n\tx.b.Lock()\n\tx.b.Unlock()\n\tx.a.Unlock()\n}\n"
            "func f() {\n\tv := s{}\n\tv.one()\n\tv.two()\n}"
        )
        assert check_lock_order(prog, alias) == []

    def test_order_through_call(self):
        prog, cg, alias = prepared(
            "type s struct {\n\ta sync.Mutex\n\tb sync.Mutex\n}\n"
            "func (x *s) lockB() {\n\tx.b.Lock()\n\tx.b.Unlock()\n}\n"
            "func (x *s) ab() {\n\tx.a.Lock()\n\tx.lockB()\n\tx.a.Unlock()\n}\n"
            "func (x *s) ba() {\n\tx.b.Lock()\n\tx.a.Lock()\n\tx.a.Unlock()\n\tx.b.Unlock()\n}\n"
            "func f() {\n\tv := s{}\n\tv.ab()\n\tv.ba()\n}"
        )
        assert len(check_lock_order(prog, alias)) == 1


class TestStructRace:
    PROTECTED = (
        "type c struct {\n\tmu sync.Mutex\n\tval int\n}\n"
        "func (x *c) a() {\n\tx.mu.Lock()\n\tx.val = 1\n\tx.mu.Unlock()\n}\n"
        "func (x *c) b() int {\n\tx.mu.Lock()\n\tv := x.val\n\tx.mu.Unlock()\n\treturn v\n}\n"
        "func (x *c) cc() {\n\tx.mu.Lock()\n\tx.val = 2\n\tx.mu.Unlock()\n}\n"
    )

    def test_unprotected_write_reported(self):
        prog, cg, alias = prepared(
            self.PROTECTED
            + "func (x *c) racy() {\n\tx.val = 9\n}\n"
            + "func f() {\n\tv := c{}\n\tv.a()\n\tv.b()\n\tv.cc()\n\tv.racy()\n}"
        )
        reports = check_struct_races(prog, alias)
        assert len(reports) == 1
        assert "racy" in reports[0].description

    def test_all_protected_clean(self):
        prog, cg, alias = prepared(
            self.PROTECTED + "func f() {\n\tv := c{}\n\tv.a()\n\tv.b()\n\tv.cc()\n}"
        )
        assert check_struct_races(prog, alias) == []

    def test_never_protected_field_not_reported(self):
        prog, cg, alias = prepared(
            "type c struct {\n\tval int\n}\n"
            "func (x *c) a() {\n\tx.val = 1\n}\n"
            "func (x *c) b() int {\n\treturn x.val\n}\n"
            "func (x *c) d() {\n\tx.val = 2\n}\n"
            "func f() {\n\tv := c{}\n\tv.a()\n\tv.b()\n\tv.d()\n}"
        )
        assert check_struct_races(prog, alias) == []

    def test_unprotected_reads_only_not_reported(self):
        prog, cg, alias = prepared(
            self.PROTECTED
            + "func (x *c) peek() int {\n\treturn x.val\n}\n"
            + "func f() {\n\tv := c{}\n\tv.a()\n\tv.b()\n\tv.cc()\n\tv.peek()\n}"
        )
        assert check_struct_races(prog, alias) == []


class TestFatalGoroutine:
    def test_fatal_in_spawned_closure(self):
        prog, cg, alias = prepared(
            'func TestX(t *testing.T) {\n\tgo func() {\n\t\tt.Fatal("x")\n\t}()\n}'
        )
        reports = check_fatal_goroutine(prog, cg)
        assert len(reports) == 1

    def test_fatal_in_main_test_goroutine_clean(self):
        prog, cg, alias = prepared('func TestX(t *testing.T) {\n\tt.Fatal("x")\n}')
        assert check_fatal_goroutine(prog, cg) == []

    def test_fatal_reached_through_call_chain(self):
        prog, cg, alias = prepared(
            "func helper(t *testing.T) {\n\tt.FailNow()\n}\n"
            "func TestX(t *testing.T) {\n\tgo func() {\n\t\thelper(t)\n\t}()\n}"
        )
        assert len(check_fatal_goroutine(prog, cg)) == 1

    def test_errorf_not_reported(self):
        prog, cg, alias = prepared(
            'func TestX(t *testing.T) {\n\tgo func() {\n\t\tt.Errorf("x")\n\t}()\n}'
        )
        assert check_fatal_goroutine(prog, cg) == []

    def test_same_line_fatals_in_two_files_are_two_reports(self, tmp_path):
        # one package split over two files: each file's goroutine calls
        # t.Fatal on line 5, so only the function tells the reports apart
        from repro.api import Project

        for name in ("A", "B"):
            (tmp_path / f"{name.lower()}.go").write_text(
                f"package main\n\nfunc Test{name}(t *testing.T) {{\n"
                '\tgo func() {\n\t\tt.Fatal("boom")\n\t}()\n}\n'
            )
        reports = Project.from_path(str(tmp_path)).detect().all_reports()
        fatal = [r for r in reports if r.category == "fatal-goroutine"]
        assert [r.lines for r in fatal] == [[5], [5]]
        assert sorted(r.blocked_ops[0].function for r in fatal) == [
            "TestA$lit1", "TestB$lit1"
        ]
