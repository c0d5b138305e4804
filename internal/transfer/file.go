// Package transfer implements the overlay's file transmission service: the
// petition / accept / part / confirm protocol the paper's experiments
// measure, with whole-file or N-part granularity.
//
// Files can be "virtual" (a size and a checksum seed, so simulating a 100 Mb
// transfer allocates nothing) or carry real bytes (used over realnet, with
// end-to-end integrity checking). Timing behaves identically: the simulated
// transport charges for the declared wire size.
package transfer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Mb is the paper's file-size unit (decimal megabyte).
const Mb = 1_000_000

// File is a transferable file.
type File struct {
	Name string
	Size int
	// Data holds real content; nil for virtual files.
	Data []byte
	// Seed identifies virtual content for checksumming.
	Seed int64
}

// NewVirtualFile describes a file of the given size without materializing
// content.
func NewVirtualFile(name string, size int, seed int64) File {
	return File{Name: name, Size: size, Seed: seed}
}

// NewFile wraps real bytes.
func NewFile(name string, data []byte) File {
	return File{Name: name, Size: len(data), Data: data}
}

// Checksum returns a hex digest: of the content for real files, of
// (name,size,seed) for virtual ones.
func (f File) Checksum() string {
	h := sha256.New()
	if f.Data != nil {
		h.Write(f.Data)
	} else {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(f.Seed))
		h.Write(b[:])
		h.Write([]byte(f.Name))
		binary.LittleEndian.PutUint64(b[:], uint64(f.Size))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Part is one piece of a split file.
type Part struct {
	Index  int
	Offset int
	Size   int
	// Data is nil for virtual files.
	Data []byte
}

// Split cuts the file into n parts. Sizes differ by at most one byte, so
// "division into 4 parts" of 100 Mb yields 25 Mb parts exactly as in the
// paper. n == 1 sends the file whole.
func Split(f File, n int) ([]Part, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transfer: cannot split %q into %d parts", f.Name, n)
	}
	if f.Size == 0 {
		return nil, fmt.Errorf("transfer: cannot split empty file %q", f.Name)
	}
	if n > f.Size {
		n = f.Size // at least one byte per part
	}
	parts := make([]Part, 0, n)
	base := f.Size / n
	rem := f.Size % n
	off := 0
	for i := 0; i < n; i++ {
		sz := base
		if i < rem {
			sz++
		}
		p := Part{Index: i, Offset: off, Size: sz}
		if f.Data != nil {
			p.Data = f.Data[off : off+sz]
		}
		parts = append(parts, p)
		off += sz
	}
	return parts, nil
}

// Join reassembles parts (sorted by Index) and validates coverage. For
// virtual files it checks offsets/sizes only. totalSize and the parts'
// fields may come straight off the wire: every check runs before anything
// is allocated, and the buffer is then sized by bytes actually in hand.
func Join(name string, totalSize int, parts []Part) (File, error) {
	covered := 0
	real := len(parts) > 0 && parts[0].Data != nil
	for i, p := range parts {
		if p.Index != i {
			return File{}, fmt.Errorf("transfer: part %d out of order (index %d)", i, p.Index)
		}
		if p.Offset != covered {
			return File{}, fmt.Errorf("transfer: gap before part %d: offset %d, covered %d", i, p.Offset, covered)
		}
		if p.Size <= 0 {
			return File{}, fmt.Errorf("transfer: part %d has size %d", i, p.Size)
		}
		if real && len(p.Data) != p.Size {
			return File{}, fmt.Errorf("transfer: part %d data length %d != size %d", i, len(p.Data), p.Size)
		}
		covered += p.Size
	}
	if covered != totalSize {
		return File{}, fmt.Errorf("transfer: parts cover %d of %d bytes", covered, totalSize)
	}
	f := File{Name: name, Size: totalSize}
	if real {
		f.Data = make([]byte, 0, totalSize)
		for _, p := range parts {
			f.Data = append(f.Data, p.Data...)
		}
	}
	return f, nil
}
