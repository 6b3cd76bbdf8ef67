// Package nvram simulates the byte-addressable non-volatile RAM that
// POD uses to hold the Map table so that LBA→PBA mappings survive power
// failure (§III-B, §IV-D2).
//
// The simulation supports fault injection: a crash can be armed to
// occur after a given number of further bytes are written, after which
// the write in progress is torn (applied only up to the crash point)
// and all subsequent writes are dropped. Recovery code is tested
// against every possible tear position.
package nvram

import (
	"errors"
	"fmt"
)

// ErrCrashed is returned by writes after the injected crash point.
var ErrCrashed = errors.New("nvram: device crashed (injected fault)")

const (
	slabShift = 16 // 64 KiB slabs
	slabSize  = 1 << slabShift
)

// Device is a fixed-size persistent byte region. The backing store is a
// sparse array of fixed-size slabs allocated on first write: the
// Map-table journal appends sequentially from offset zero, so most of a
// generously sized device is never touched, and neither eager zeroing
// nor geometric-doubling copies are ever paid — a slab, once allocated,
// is never moved. Bytes in never-written slabs read as zero, exactly as
// a freshly zeroed buffer would.
type Device struct {
	size  int
	slabs [][]byte // nil until first write to the slab's range

	crashed     bool
	crashArmed  bool
	bytesToLive int64 // writes allowed before the crash fires

	bytesWritten int64
}

// New returns a zeroed device of the given size.
func New(size int) *Device {
	return &Device{
		size:  size,
		slabs: make([][]byte, (size+slabSize-1)/slabSize),
	}
}

// Size reports the device capacity in bytes.
func (d *Device) Size() int { return d.size }

// slab returns the backing slab for index i, allocating it on first
// write. The final slab is trimmed to the device size.
func (d *Device) slab(i int) []byte {
	s := d.slabs[i]
	if s == nil {
		n := slabSize
		if rem := d.size - i<<slabShift; rem < n {
			n = rem
		}
		s = make([]byte, n)
		d.slabs[i] = s
	}
	return s
}

// store copies p to off, allocating slabs as needed. Bounds are checked
// by the caller.
func (d *Device) store(off int, p []byte) {
	for len(p) > 0 {
		i := off >> slabShift
		s := d.slab(i)
		n := copy(s[off-i<<slabShift:], p)
		p = p[n:]
		off += n
	}
}

// BytesWritten reports the cumulative bytes accepted.
func (d *Device) BytesWritten() int64 { return d.bytesWritten }

// ArmCrash schedules a crash after n more bytes are written. A write
// that straddles the boundary is torn: its first bytes are applied,
// the rest lost — exactly the hazard a journaled Map table must
// tolerate.
func (d *Device) ArmCrash(n int64) {
	d.crashArmed = true
	d.bytesToLive = n
}

// Crashed reports whether the injected crash has fired.
func (d *Device) Crashed() bool { return d.crashed }

// Recover clears the crash state, modelling a restart: contents are
// preserved, writes are accepted again.
func (d *Device) Recover() {
	d.crashed = false
	d.crashArmed = false
}

// WriteAt stores p at off. After a crash it returns ErrCrashed without
// writing. If the armed crash point falls inside p, the prefix is
// written, the crash fires, and ErrCrashed is returned.
func (d *Device) WriteAt(off int, p []byte) error {
	if d.crashed {
		return ErrCrashed
	}
	if off < 0 || off+len(p) > d.size {
		return fmt.Errorf("nvram: write out of range: [%d,%d) size %d", off, off+len(p), d.size)
	}
	n := len(p)
	if d.crashArmed && int64(n) > d.bytesToLive {
		n = int(d.bytesToLive)
		d.store(off, p[:n])
		d.bytesWritten += int64(n)
		d.crashed = true
		d.crashArmed = false
		d.bytesToLive = 0
		return ErrCrashed
	}
	d.store(off, p)
	d.bytesWritten += int64(n)
	if d.crashArmed {
		d.bytesToLive -= int64(n)
	}
	return nil
}

// ReadAt fills p from off. Reads are always allowed (recovery reads the
// surviving contents after a crash).
func (d *Device) ReadAt(off int, p []byte) error {
	if off < 0 || off+len(p) > d.size {
		return fmt.Errorf("nvram: read out of range: [%d,%d) size %d", off, off+len(p), d.size)
	}
	for len(p) > 0 {
		i := off >> slabShift
		base := i << slabShift
		end := base + slabSize
		if end > d.size {
			end = d.size
		}
		span := end - off
		if span > len(p) {
			span = len(p)
		}
		if s := d.slabs[i]; s != nil {
			copy(p[:span], s[off-base:])
		} else {
			// never-written slab reads as zero; p may be a reused
			// scratch buffer, so clear it explicitly
			for j := 0; j < span; j++ {
				p[j] = 0
			}
		}
		p = p[span:]
		off += span
	}
	return nil
}
