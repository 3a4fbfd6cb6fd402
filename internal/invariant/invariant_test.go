package invariant

import (
	"errors"
	"strings"
	"testing"
)

func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

func TestViolatef(t *testing.T) {
	v := recovered(func() { Violatef("code %d out of range", 99) })
	viol, ok := v.(violation)
	if !ok {
		t.Fatalf("panic value %T, want Violation", v)
	}
	if want := "invariant violation: code 99 out of range"; viol.Error() != want {
		t.Fatalf("Error() = %q, want %q", viol.Error(), want)
	}
	if viol.String() != viol.Error() {
		t.Fatalf("String() = %q != Error() = %q", viol.String(), viol.Error())
	}
}

func TestCheck(t *testing.T) {
	if v := recovered(func() { Check(true, "unreachable") }); v != nil {
		t.Fatalf("Check(true) panicked: %v", v)
	}
	if v := recovered(func() { Check(false, "bad %s", "state") }); v == nil {
		t.Fatal("Check(false) did not panic")
	}
}

func TestMust(t *testing.T) {
	if v := recovered(func() { Must(nil) }); v != nil {
		t.Fatalf("Must(nil) panicked: %v", v)
	}
	v := recovered(func() { Must(errors.New("boom")) })
	viol, ok := v.(violation)
	if !ok || !strings.Contains(viol.Msg, "boom") {
		t.Fatalf("Must(err) panic = %#v, want Violation containing boom", v)
	}
}

func TestWidth(t *testing.T) {
	for _, n := range []int{1, 7, 64} {
		if got := Width(n); got != n {
			t.Fatalf("Width(%d) = %d", n, got)
		}
	}
	for _, n := range []int{0, -1, 65} {
		if v := recovered(func() { Width(n) }); v == nil {
			t.Fatalf("Width(%d) did not panic", n)
		}
	}
}
