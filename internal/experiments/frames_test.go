package experiments

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"peerlab/internal/pipe"
	"peerlab/internal/sweeptest"
)

// framesDir keeps the ordered cases' frame streams: see TestGoldenFrameDigests.
var framesDir = flag.String("frames", "", "directory for the ordered golden cases' frame streams (written where a case matches, read where it does not)")

// frame is one pipe frame as pipe.SetDebugDispatch reports it.
type frame struct {
	local        string
	kind         byte
	id, seq, ack uint64
	size         int
}

func (f frame) String() string {
	return fmt.Sprintf("%s kind=%d id=%d seq=%d ack=%d size=%d", f.local, f.kind, f.id, f.seq, f.ack, f.size)
}

// appendTo appends the bytes a digest folds for f.
func (f frame) appendTo(b []byte) []byte {
	b = append(append(b, f.local...), 0, f.kind)
	for _, v := range [...]uint64{f.id, f.seq, f.ack, uint64(f.size)} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// frameDigest is a case's golden line. A RunWorkload row is one world, so
// its frames come in one order and the line pins an FNV-64a over the whole
// stream. A figure row's cells take the pool's one slot in goroutine order,
// so only the multiset of its frames is fixed: the line pins the sum of the
// per-frame FNV-64a hashes.
func frameDigest(file string, frames []frame, ordered bool) string {
	all, one := fnv.New64a(), fnv.New64a()
	var sum uint64
	var b []byte
	for _, f := range frames {
		b = f.appendTo(b[:0])
		all.Write(b)
		one.Reset()
		one.Write(b)
		sum += one.Sum64()
	}
	if ordered {
		return fmt.Sprintf("%s frames=%d ordered=%016x", file, len(frames), all.Sum64())
	}
	return fmt.Sprintf("%s frames=%d sum=%016x", file, len(frames), sum)
}

// TestGoldenFrameDigests pins every pipe frame each golden case dispatches
// at workers 1 and shards 1 (local address, kind, conn id, seq, ack, size)
// in testdata/frames.golden.txt: a frame count and a hash per case. A change
// that claims to move no frame leaves that file as it is; `-update`
// re-records it.
//
// The file cannot say where an ordered stream moved. For that, run the test
// with -frames DIR at the parent commit, which writes each matching ordered
// case's stream into DIR, then with the same flag on the change: a case that
// moved prints its first diverging frame and the 20 frames before it.
//
// The frame observer is a package variable, so the test is not parallel.
func TestGoldenFrameDigests(t *testing.T) {
	var (
		mu     sync.Mutex
		frames []frame
	)
	pipe.SetDebugDispatch(func(local string, kind byte, id, seq, ack uint64, size int) {
		mu.Lock()
		frames = append(frames, frame{local, kind, id, seq, ack, size})
		mu.Unlock()
	})
	t.Cleanup(func() { pipe.SetDebugDispatch(nil) })

	const golden = "frames.golden.txt"
	pinned := map[string]string{}
	if b, err := os.ReadFile(filepath.Join("testdata", golden)); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			file, _, _ := strings.Cut(line, " ")
			pinned[file] = line
		}
	}
	var out bytes.Buffer
	for i := range goldenCases {
		gc := &goldenCases[i]
		cfg := gc.config(t)
		cfg.Workers, cfg.Shards = 1, 1
		frames = frames[:0]
		v, err := gc.run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, ordered := v.(*WorkloadReport)
		line := frameDigest(gc.file, frames, ordered)
		fmt.Fprintln(&out, line)
		if want, ok := pinned[gc.file]; ok && want != line {
			t.Logf("frames moved:\n want %s\n  got %s", want, line)
			if ordered {
				t.Log(firstDivergence(gc.file, frames))
			}
		} else if ordered && *framesDir != "" {
			writeFrames(t, gc.file, frames)
		}
	}
	// Golden fails the test on any moved line, after the logs above.
	sweeptest.Golden(t, golden, out.Bytes())
}

// streamPath is where -frames keeps a case's stream.
func streamPath(file string) string {
	return filepath.Join(*framesDir, strings.TrimSuffix(file, ".golden.json")+".frames")
}

func writeFrames(t *testing.T, file string, frames []frame) {
	t.Helper()
	var b bytes.Buffer
	for _, f := range frames {
		fmt.Fprintln(&b, f)
	}
	if err := os.MkdirAll(*framesDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(streamPath(file), b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// firstDivergence compares frames with the stream -frames kept for file and
// renders the first frame that differs, after the 20 frames before it.
func firstDivergence(file string, frames []frame) string {
	if *framesDir == "" {
		return "run with -frames DIR at the parent commit, then here, to see the first diverging frame"
	}
	b, err := os.ReadFile(streamPath(file))
	if err != nil {
		return fmt.Sprintf("no kept stream to compare with: %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	at := 0
	for at < len(want) && at < len(frames) && want[at] == frames[at].String() {
		at++
	}
	var r strings.Builder
	fmt.Fprintf(&r, "first diverging frame is #%d (of %d kept, %d now):\n", at, len(want), len(frames))
	for i := max(at-20, 0); i < at; i++ {
		fmt.Fprintf(&r, "   %s\n", want[i])
	}
	if at < len(want) {
		fmt.Fprintf(&r, " - %s\n", want[at])
	}
	if at < len(frames) {
		fmt.Fprintf(&r, " + %s\n", frames[at])
	}
	return r.String()
}
