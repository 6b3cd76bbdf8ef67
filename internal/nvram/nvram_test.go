package nvram

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	d := New(64)
	if err := d.WriteAt(10, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if err := d.ReadAt(10, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("read back %q", buf)
	}
	if d.BytesWritten() != 5 {
		t.Fatal("accounting wrong")
	}
}

func TestBoundsChecking(t *testing.T) {
	d := New(10)
	if err := d.WriteAt(8, []byte("abc")); err == nil {
		t.Fatal("expected out-of-range write error")
	}
	if err := d.WriteAt(-1, []byte("a")); err == nil {
		t.Fatal("expected negative-offset error")
	}
	if err := d.ReadAt(8, make([]byte, 3)); err == nil {
		t.Fatal("expected out-of-range read error")
	}
}

func TestCrashStopsWrites(t *testing.T) {
	d := New(64)
	d.ArmCrash(0)
	err := d.WriteAt(0, []byte("x"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if !d.Crashed() {
		t.Fatal("device should be crashed")
	}
	// contents untouched
	buf := make([]byte, 1)
	d.ReadAt(0, buf)
	if buf[0] != 0 {
		t.Fatal("crashed write leaked data")
	}
}

func TestTornWrite(t *testing.T) {
	d := New(64)
	d.ArmCrash(3)
	err := d.WriteAt(0, []byte("abcdef"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatal("straddling write must report crash")
	}
	buf := make([]byte, 6)
	d.ReadAt(0, buf)
	if !bytes.Equal(buf, []byte{'a', 'b', 'c', 0, 0, 0}) {
		t.Fatalf("torn write applied %q, want prefix abc", buf)
	}
}

func TestRecoverAcceptsWritesAgain(t *testing.T) {
	d := New(64)
	d.ArmCrash(0)
	d.WriteAt(0, []byte("x"))
	d.Recover()
	if d.Crashed() {
		t.Fatal("recover should clear crash")
	}
	if err := d.WriteAt(0, []byte("y")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	d.ReadAt(0, buf)
	if buf[0] != 'y' {
		t.Fatal("post-recovery write lost")
	}
}

func TestCrashAfterExactBudget(t *testing.T) {
	d := New(64)
	d.ArmCrash(5)
	if err := d.WriteAt(0, []byte("12345")); err != nil {
		t.Fatalf("write within budget must succeed: %v", err)
	}
	if err := d.WriteAt(5, []byte("6")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("budget exhausted: err = %v, want ErrCrashed", err)
	}
}

// Property: after a torn write at any position k, exactly the first k
// bytes of the straddling write are visible.
func TestTornWriteProperty(t *testing.T) {
	f := func(kRaw uint8, payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		k := int(kRaw) % len(payload)
		d := New(len(payload))
		d.ArmCrash(int64(k))
		err := d.WriteAt(0, payload)
		if !errors.Is(err, ErrCrashed) {
			return false
		}
		buf := make([]byte, len(payload))
		d.ReadAt(0, buf)
		if !bytes.Equal(buf[:k], payload[:k]) {
			return false
		}
		for _, b := range buf[k:] {
			if b != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
