package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	var tm Time = 1000
	if got := tm.Add(500); got != 1500 {
		t.Errorf("Add: got %d, want 1500", got)
	}
	if got := Time(1500).Sub(tm); got != 500 {
		t.Errorf("Sub: got %d, want 500", got)
	}
	if MaxTime(3, 7) != 7 || MaxTime(7, 3) != 7 {
		t.Error("MaxTime wrong")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0.000000s"},
		{1, "0.000001s"},
		{1_500_000, "1.500000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500µs"},
		{1500, "1.500ms"},
		{2_500_000, "2.500s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Duration(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestDurationConversions(t *testing.T) {
	if Duration(1_500_000).Seconds() != 1.5 {
		t.Error("Seconds conversion wrong")
	}
}

func TestFCFSIdleServer(t *testing.T) {
	q := NewFCFSQueue()
	done := q.Submit(1000, 50)
	if done != 1050 {
		t.Errorf("idle server completion = %d, want 1050", done)
	}
	if q.WaitTime() != 0 {
		t.Errorf("no wait expected, got %v", q.WaitTime())
	}
}

func TestFCFSQueueing(t *testing.T) {
	q := NewFCFSQueue()
	q.Submit(0, 100)          // busy until 100
	done := q.Submit(10, 100) // waits 90
	if done != 200 {
		t.Errorf("queued completion = %d, want 200", done)
	}
	if q.WaitTime() != 90 {
		t.Errorf("wait = %v, want 90", q.WaitTime())
	}
	if q.BusyTime() != 200 {
		t.Errorf("busy = %v, want 200", q.BusyTime())
	}
}

func TestFCFSSubmitAfter(t *testing.T) {
	q := NewFCFSQueue()
	// server idle, but job not ready until 500
	done := q.SubmitAfter(100, 500, 50)
	if done != 550 {
		t.Errorf("completion = %d, want 550", done)
	}
}

func TestFCFSReset(t *testing.T) {
	q := NewFCFSQueue()
	q.Submit(0, 100)
	q.Reset()
	if q.BusyUntil() != 0 || q.BusyTime() != 0 || q.WaitTime() != 0 {
		t.Error("Reset did not clear state")
	}
}

// Property: completions are monotone when arrivals are monotone, and a
// job never completes before arrival+service.
func TestFCFSMonotoneProperty(t *testing.T) {
	f := func(gaps []uint16, services []uint16) bool {
		n := len(gaps)
		if len(services) < n {
			n = len(services)
		}
		q := NewFCFSQueue()
		var arrive Time
		var lastDone Time
		for i := 0; i < n; i++ {
			arrive = arrive.Add(Duration(gaps[i]))
			svc := Duration(services[i]%1000) + 1
			done := q.Submit(arrive, svc)
			if done < arrive.Add(svc) {
				return false // completed impossibly early
			}
			if done < lastDone {
				return false // FCFS completions must be monotone
			}
			lastDone = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: total busy time equals the sum of service demands, and the
// server is never busy past the last completion.
func TestFCFSConservationProperty(t *testing.T) {
	f := func(services []uint16) bool {
		q := NewFCFSQueue()
		var sum Duration
		for _, s := range services {
			svc := Duration(s%500) + 1
			sum += svc
			q.Submit(0, svc)
		}
		return q.BusyTime() == sum && q.BusyUntil() == Time(sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
