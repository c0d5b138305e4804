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
// (name,size,seed) for virtual ones. The hashed bytes and the digest sit in
// stack buffers, so the returned string is the one allocation.
func (f File) Checksum() string {
	b := f.Data
	if b == nil {
		var buf [128]byte
		b = append(binary.LittleEndian.AppendUint64(buf[:0], uint64(f.Seed)), f.Name...)
		b = binary.LittleEndian.AppendUint64(b, uint64(f.Size))
	}
	sum := sha256.Sum256(b)
	var digest [32]byte
	return string(hex.AppendEncode(digest[:0], sum[:16]))
}

// Part is one piece of a split file.
type Part struct {
	Index  int
	Offset int
	Size   int
	// Data is nil for virtual files.
	Data []byte
}

// Parts returns the part count of f's split when n parts are asked for: n,
// down to one byte per part. n == 1 sends the file whole.
func (f File) Parts(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("transfer: cannot split %q into %d parts", f.Name, n)
	}
	if f.Size == 0 {
		return 0, fmt.Errorf("transfer: cannot split empty file %q", f.Name)
	}
	return min(n, f.Size), nil
}

// Part returns part i of f's split into n parts, n as Parts returns it.
// Sizes differ by at most one byte, the larger first, so "division into 4
// parts" of 100 Mb yields 25 Mb parts exactly as in the paper.
func (f File) Part(n, i int) Part {
	base, rem := f.Size/n, f.Size%n
	p := Part{Index: i, Offset: i*base + min(i, rem), Size: base}
	if i < rem {
		p.Size++
	}
	if f.Data != nil {
		p.Data = f.Data[p.Offset : p.Offset+p.Size]
	}
	return p
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
