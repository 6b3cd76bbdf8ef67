package raid

import (
	"fmt"
	"strings"
	"testing"

	"github.com/pod-dedup/pod/internal/fault"
	"github.com/pod-dedup/pod/internal/sim"
)

// The fault matrix pins what one access does under every combination of
// layout, entry point, redundancy state and injected fault: completion
// time, the error's kind and class, and every Stats counter. No
// end-to-end run reaches all of it (the chaos scenarios report
// `sector repairs=0`), so this table is what guards the write-back
// repair and the data-loss tests of the array's one fault-absorbing
// read.
//
// The access is blocks [0,4) at t=1000: stripe 0, data unit 0, which
// every layout puts on disk 0 at offset 0 (RAID5: parity on disk 3;
// RAID1: mirror on disk 2). "rmw" is Write of that range — a
// read-modify-write on RAID5, a plain write elsewhere. The fault is
// injected on disk 0. States: "degraded" = disk 0 failed, no spare;
// "spare" = disk 0 failed, hot spare rebuilt past the range; "other" =
// the disk the access would lean on failed instead (RAID5: disk 1,
// RAID1: the mirror). RAID0 has no state but healthy.
//
// An outcome reads "<done> <ok | kind/class> <nonzero counters>".
var faultMatrix = map[string]string{
	"RAID0/read/healthy/none":       "9829 ok reads=1 io=1",
	"RAID0/read/healthy/transient":  "9829 transient-io/transient reads=1 io=1 transient=1",
	"RAID0/read/healthy/sector":     "9829 data-loss/permanent reads=1 io=1 dataloss=1",
	"RAID0/read/healthy/diskfail":   "1000 data-loss/permanent reads=1 io=1 dataloss=1",
	"RAID0/rmw/healthy/none":        "9829 ok writes=1 io=1",
	"RAID0/rmw/healthy/transient":   "9829 transient-io/transient writes=1 io=1 transient=1",
	"RAID0/rmw/healthy/sector":      "9829 ok writes=1 io=1",
	"RAID0/rmw/healthy/diskfail":    "1000 data-loss/permanent writes=1 io=1 dataloss=1",
	"RAID1/read/healthy/none":       "9829 ok reads=1 io=1",
	"RAID1/read/healthy/transient":  "9829 transient-io/transient reads=1 io=1 transient=1",
	"RAID1/read/healthy/sector":     "14704 ok reads=1 io=3 degraded=1 repairs=1",
	"RAID1/read/healthy/diskfail":   "9829 ok reads=1 io=2 degraded=1 fails=1",
	"RAID1/read/degraded/none":      "9829 ok reads=1 io=1 fails=1",
	"RAID1/read/degraded/transient": "9829 ok reads=1 io=1 fails=1",
	"RAID1/read/degraded/sector":    "9829 ok reads=1 io=1 fails=1",
	"RAID1/read/degraded/diskfail":  "9829 ok reads=1 io=1 fails=1",
	"RAID1/read/spare/none":         "20441 ok reads=1 io=1 fails=1 rebuildio=20",
	"RAID1/read/spare/transient":    "20441 transient-io/transient reads=1 io=1 transient=1 fails=1 rebuildio=20",
	"RAID1/read/spare/sector":       "25316 ok reads=1 io=3 degraded=1 repairs=1 fails=1 rebuildio=20",
	"RAID1/read/spare/diskfail":     "20441 ok reads=1 io=2 degraded=1 fails=1 rebuildio=20",
	"RAID1/read/other/none":         "9829 ok reads=1 io=1 fails=1",
	"RAID1/read/other/transient":    "9829 transient-io/transient reads=1 io=1 transient=1 fails=1",
	"RAID1/read/other/sector":       "9829 data-loss/permanent reads=1 io=1 dataloss=1 fails=1",
	"RAID1/read/other/diskfail":     "1000 data-loss/permanent reads=1 io=1 dataloss=1 fails=1",
	"RAID1/rmw/healthy/none":        "9829 ok writes=1 io=2",
	"RAID1/rmw/healthy/transient":   "9829 transient-io/transient writes=1 io=1 transient=1",
	"RAID1/rmw/healthy/sector":      "9829 ok writes=1 io=2",
	"RAID1/rmw/healthy/diskfail":    "9829 ok writes=1 io=2 fails=1",
	"RAID1/rmw/degraded/none":       "9829 ok writes=1 io=1 fails=1",
	"RAID1/rmw/degraded/transient":  "9829 ok writes=1 io=1 fails=1",
	"RAID1/rmw/degraded/sector":     "9829 ok writes=1 io=1 fails=1",
	"RAID1/rmw/degraded/diskfail":   "9829 ok writes=1 io=1 fails=1",
	"RAID1/rmw/spare/none":          "20441 ok writes=1 io=2 fails=1 rebuildio=20",
	"RAID1/rmw/spare/transient":     "20441 transient-io/transient writes=1 io=1 transient=1 fails=1 rebuildio=20",
	"RAID1/rmw/spare/sector":        "20441 ok writes=1 io=2 fails=1 rebuildio=20",
	"RAID1/rmw/spare/diskfail":      "20441 ok writes=1 io=2 fails=1 rebuildio=20",
	"RAID1/rmw/other/none":          "9829 ok writes=1 io=1 fails=1",
	"RAID1/rmw/other/transient":     "9829 transient-io/transient writes=1 io=1 transient=1 fails=1",
	"RAID1/rmw/other/sector":        "9829 ok writes=1 io=1 fails=1",
	"RAID1/rmw/other/diskfail":      "1000 data-loss/permanent writes=1 io=1 dataloss=1 fails=1",
	"RAID5/read/healthy/none":       "9829 ok reads=1 io=1",
	"RAID5/read/healthy/transient":  "9829 transient-io/transient reads=1 io=1 transient=1",
	"RAID5/read/healthy/sector":     "14704 ok reads=1 io=5 degraded=1 repairs=1",
	"RAID5/read/healthy/diskfail":   "9829 ok reads=1 io=4 degraded=1 fails=1",
	"RAID5/read/degraded/none":      "9829 ok reads=1 io=3 degraded=1 fails=1",
	"RAID5/read/degraded/transient": "9829 ok reads=1 io=3 degraded=1 fails=1",
	"RAID5/read/degraded/sector":    "9829 ok reads=1 io=3 degraded=1 fails=1",
	"RAID5/read/degraded/diskfail":  "9829 ok reads=1 io=3 degraded=1 fails=1",
	"RAID5/read/spare/none":         "20441 ok reads=1 io=1 fails=1 rebuildio=40",
	"RAID5/read/spare/transient":    "20441 transient-io/transient reads=1 io=1 transient=1 fails=1 rebuildio=40",
	"RAID5/read/spare/sector":       "25316 ok reads=1 io=5 degraded=1 repairs=1 fails=1 rebuildio=40",
	"RAID5/read/spare/diskfail":     "20441 ok reads=1 io=4 degraded=1 fails=1 rebuildio=40",
	"RAID5/read/other/none":         "9829 ok reads=1 io=1 fails=1",
	"RAID5/read/other/transient":    "9829 transient-io/transient reads=1 io=1 transient=1 fails=1",
	"RAID5/read/other/sector":       "9829 data-loss/permanent reads=1 io=1 dataloss=1 fails=1",
	"RAID5/read/other/diskfail":     "1000 data-loss/permanent reads=1 io=1 dataloss=1 fails=1",
	"RAID5/rmw/healthy/none":        "14704 ok writes=1 io=4 rmw=1",
	"RAID5/rmw/healthy/transient":   "9829 transient-io/transient writes=1 io=1 rmw=1 transient=1",
	"RAID5/rmw/healthy/sector":      "19579 ok writes=1 io=7 rmw=1 degraded=1",
	"RAID5/rmw/healthy/diskfail":    "23533 ok writes=1 io=7 rmw=1 degraded=1 fails=1",
	"RAID5/rmw/degraded/none":       "19579 ok writes=1 io=5 rmw=1 degraded=1 fails=1",
	"RAID5/rmw/degraded/transient":  "19579 ok writes=1 io=5 rmw=1 degraded=1 fails=1",
	"RAID5/rmw/degraded/sector":     "19579 ok writes=1 io=5 rmw=1 degraded=1 fails=1",
	"RAID5/rmw/degraded/diskfail":   "19579 ok writes=1 io=5 rmw=1 degraded=1 fails=1",
	"RAID5/rmw/spare/none":          "25316 ok writes=1 io=4 rmw=1 fails=1 rebuildio=40",
	"RAID5/rmw/spare/transient":     "20441 transient-io/transient writes=1 io=1 rmw=1 transient=1 fails=1 rebuildio=40",
	"RAID5/rmw/spare/sector":        "30191 ok writes=1 io=7 rmw=1 degraded=1 fails=1 rebuildio=40",
	"RAID5/rmw/spare/diskfail":      "30191 ok writes=1 io=7 rmw=1 degraded=1 fails=1 rebuildio=40",
	"RAID5/rmw/other/none":          "14704 ok writes=1 io=4 rmw=1 fails=1",
	"RAID5/rmw/other/transient":     "9829 transient-io/transient writes=1 io=1 rmw=1 transient=1 fails=1",
	"RAID5/rmw/other/sector":        "9829 data-loss/permanent writes=1 io=1 rmw=1 dataloss=1 fails=1",
	"RAID5/rmw/other/diskfail":      "1000 data-loss/permanent writes=1 io=1 rmw=1 dataloss=1 fails=1",
}

var levelNames = map[Level]string{RAID0: "RAID0", RAID1: "RAID1", RAID5: "RAID5"}

// outcome renders one access's result in the matrix's format.
func outcome(done sim.Time, err error, st Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d ", done)
	if fe, ok := err.(*fault.Error); ok {
		fmt.Fprintf(&b, "%s/%s", fe.Kind, fe.Class)
	} else if err != nil {
		fmt.Fprintf(&b, "untyped(%v)", err)
	} else {
		b.WriteString("ok")
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"reads", st.LogicalReads}, {"writes", st.LogicalWrites}, {"io", st.DiskIOs},
		{"rmw", st.RMWStripes}, {"full", st.FullStripes}, {"degraded", st.DegradedReads},
		{"repairs", st.SectorRepairs}, {"transient", st.TransientErrors}, {"dataloss", st.DataLossErrors},
		{"fails", st.FailEvents}, {"rebuildio", st.RebuildIOs}, {"rebuilt", st.RebuildsDone},
	} {
		if c.v != 0 {
			fmt.Fprintf(&b, " %s=%d", c.name, c.v)
		}
	}
	return b.String()
}

func TestFaultMatrix(t *testing.T) {
	const at = sim.Time(1000)
	faults := []struct {
		name  string
		sched fault.Schedule
	}{
		{"none", fault.Schedule{}},
		{"transient", fault.Schedule{Transients: []fault.TransientWindow{{Disk: 0, Until: 1 << 50, PerMille: 1000}}}},
		{"sector", fault.Schedule{Sectors: []fault.SectorRange{{Disk: 0, Start: 0, Count: 4}}}},
		{"diskfail", fault.Schedule{Fails: []fault.DiskFail{{Disk: 0}}}},
	}
	seen := 0
	for _, level := range []Level{RAID0, RAID1, RAID5} {
		states := []string{"healthy", "degraded", "spare", "other"}
		if level == RAID0 {
			states = states[:1]
		}
		for _, entry := range []string{"read", "rmw"} {
			for _, state := range states {
				for _, f := range faults {
					a := New(level, newDisks(4), 16)
					// the state is set before the injector is attached:
					// installing the spare, and the sweep's writes to it,
					// would otherwise clear the fault
					switch state {
					case "degraded":
						a.Fail(0)
					case "spare":
						a.Fail(0)
						a.StartRebuild(0)
						a.SetRebuildPace(100)
						a.advanceRebuild(at) // ten units rebuilt
					case "other":
						if level == RAID1 {
							a.Fail(a.mirrorOf(0))
						} else {
							a.Fail(1)
						}
					}
					a.SetInjector(fault.NewInjector(f.sched, 4))
					var done sim.Time
					var err error
					if entry == "read" {
						done, err = a.Read(at, 0, 4)
					} else {
						done, err = a.Write(at, 0, 4)
					}
					key := fmt.Sprintf("%s/%s/%s/%s", levelNames[level], entry, state, f.name)
					got := outcome(done, err, a.Stats())
					want, ok := faultMatrix[key]
					if !ok {
						t.Errorf("no row for\n\t%q: %q,", key, got)
						continue
					}
					seen++
					if got != want {
						t.Errorf("%s:\n got %s\nwant %s", key, got, want)
					}
				}
			}
		}
	}
	if seen != len(faultMatrix) {
		t.Errorf("matrix has %d rows, the sweep reached %d", len(faultMatrix), seen)
	}
}
