package faultfs

import (
	"errors"
	"testing"
)

// TestAfterAndTimesCount: a rule skips its first After matching calls,
// fails the next Times (1 when unset), then goes quiet — the schedule
// every WAL fault test states its scenario in.
func TestAfterAndTimesCount(t *testing.T) {
	boom := errors.New("boom")
	in := New()
	in.Arm(Rule{Op: OpSync, After: 2, Times: 2, Err: boom})
	var got []bool
	for i := 0; i < 6; i++ {
		got = append(got, in.Check(OpSync) != nil)
	}
	want := []bool{false, false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("failures by call = %v, want %v", got, want)
		}
	}
	if n := in.Calls(OpSync); n != 6 {
		t.Fatalf("Calls(sync) = %d, want 6", n)
	}

	// Times unset fires once, with a default error naming the op.
	in = New()
	in.Arm(Rule{Op: OpCreate})
	if err := in.Check(OpCreate); err == nil {
		t.Fatal("a rule with Times unset never fired")
	}
	if err := in.Check(OpCreate); err != nil {
		t.Fatalf("a rule with Times unset fired twice: %v", err)
	}
}

// TestRulesAreScopedToTheirOp: calls of one op neither trigger nor use
// up a rule armed for another, and do not advance its After count.
func TestRulesAreScopedToTheirOp(t *testing.T) {
	in := New()
	in.Arm(Rule{Op: OpSync, After: 1})
	for i := 0; i < 3; i++ {
		if err := in.Check(OpCreate); err != nil {
			t.Fatalf("create failed on a sync rule: %v", err)
		}
		if n, err := in.CheckWrite(10); n != 10 || err != nil {
			t.Fatalf("write = %d, %v on a sync rule", n, err)
		}
	}
	if err := in.Check(OpSync); err != nil {
		t.Fatalf("first sync failed; After: 1 must skip it whatever other ops ran: %v", err)
	}
	if err := in.Check(OpSync); err == nil {
		t.Fatal("second sync did not fail")
	}
	if c, w, s := in.Calls(OpCreate), in.Calls(OpWrite), in.Calls(OpSync); c != 3 || w != 3 || s != 2 {
		t.Fatalf("calls create/write/sync = %d/%d/%d, want 3/3/2", c, w, s)
	}
}

// TestCheckWriteTears: a torn write reports how many bytes still reach
// the file (capped at the batch), a clean failure reports none, and
// both carry the rule's error.
func TestCheckWriteTears(t *testing.T) {
	boom := errors.New("boom")
	in := New()
	in.Arm(Rule{Op: OpWrite, TearBytes: 7, Err: boom})
	in.Arm(Rule{Op: OpWrite, TearBytes: 100, Err: boom})
	in.Arm(Rule{Op: OpWrite, Err: boom})
	for _, want := range []int{7, 20, 0} {
		if n, err := in.CheckWrite(20); n != want || !errors.Is(err, boom) {
			t.Fatalf("CheckWrite(20) = %d, %v, want %d with the rule's error", n, err, want)
		}
	}
	if n, err := in.CheckWrite(20); n != 20 || err != nil {
		t.Fatalf("CheckWrite(20) = %d, %v once every rule is spent", n, err)
	}
}

// TestNilInjectorInjectsNothing: production passes no injector and
// hooks it unconditionally.
func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if err := in.Check(OpSync); err != nil {
		t.Fatal(err)
	}
	if n, err := in.CheckWrite(5); n != 5 || err != nil {
		t.Fatalf("CheckWrite = %d, %v", n, err)
	}
	if in.Calls(OpWrite) != 0 {
		t.Fatal("a nil injector counted a call")
	}
}
