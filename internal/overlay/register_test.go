package overlay

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"peerlab/internal/jxta"
	"peerlab/internal/wire"
)

// loopDecodeAdvertisement is the reference the scan path is checked against:
// an advertisement read field by field, each string a copy of its own.
func loopDecodeAdvertisement(d *wire.Decoder) (jxta.Advertisement, error) {
	var a jxta.Advertisement
	a.Kind = jxta.AdvKind(d.Byte())
	idb := d.BytesField()
	a.Name = d.StringField()
	a.Addr = d.StringField()
	a.Expires = d.Time()
	n := d.Uint64()
	if err := d.Err(); err != nil {
		return jxta.Advertisement{}, err
	}
	if len(idb) != len(a.ID) {
		return jxta.Advertisement{}, fmt.Errorf("%w: advertisement id of %d bytes", wire.ErrCorrupt, len(idb))
	}
	copy(a.ID[:], idb)
	if n > uint64(d.Remaining()) {
		return jxta.Advertisement{}, fmt.Errorf("%w: %d attrs exceed remaining input", wire.ErrCorrupt, n)
	}
	for i := uint64(0); i < n; i++ {
		k := d.StringField()
		v := d.StringField()
		if err := d.Err(); err != nil {
			return jxta.Advertisement{}, err
		}
		a.Attrs = append(a.Attrs, jxta.Attr{Key: k, Value: v})
	}
	return a, d.Err()
}

// refDecodeRegister is decodeRegister over the loop decoder.
func refDecodeRegister(d *wire.Decoder) (register, error) {
	adv, err := loopDecodeAdvertisement(d)
	if err != nil {
		return register{}, err
	}
	return register{Adv: adv, Stats: decodeStatsFields(d)}, d.Finish()
}

// checkDecodeRegister decodes a register frame body both ways and reports
// any difference in the error's text or, when both succeed, in the decoded
// advertisement and load report (a NaN CPU score equals itself here).
func checkDecodeRegister(body []byte) error {
	got, err := decodeRegister(wire.NewDecoder(body))
	want, wantErr := refDecodeRegister(wire.NewDecoder(body))
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		return fmt.Errorf("error %v, reference %v", err, wantErr)
	}
	if math.Float64bits(got.Stats.CPUScore) != math.Float64bits(want.Stats.CPUScore) {
		return fmt.Errorf("CPU score %v, reference %v", got.Stats.CPUScore, want.Stats.CPUScore)
	}
	got.Stats.CPUScore, want.Stats.CPUScore = 0, 0
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("decoded %+v, reference %+v", got, want)
	}
	return nil
}

// FuzzDecodeRegister holds decodeRegister to the loop decoder on every input,
// on every truncation of it and on every one-byte corruption of it: the
// same register, or the same error text.
func FuzzDecodeRegister(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, adv := range append(randomPeerAdvs(rng, 4), testAdv("sc1"), jxta.Advertisement{}) {
		rep := statsReport{Peer: adv.Name, InboxLen: rng.Intn(3), QueueLen: rng.Intn(3), CPUScore: rng.Float64()}
		f.Add(wire.Frame(mtRegister, register{Adv: adv, Stats: rep}.encodeTo)[1:])
	}
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, body []byte) {
		for cut := 0; cut <= len(body); cut++ {
			if err := checkDecodeRegister(body[:cut]); err != nil {
				t.Fatalf("cut at %d of %d: %v", cut, len(body), err)
			}
		}
		for i := range body {
			for _, v := range []byte{0x00, 0x7F, 0x80, 0xFF} {
				buf := append([]byte(nil), body...)
				buf[i] = v
				if err := checkDecodeRegister(buf); err != nil {
					t.Fatalf("byte %d = %#x: %v", i, v, err)
				}
			}
		}
	})
}

func TestDecodeRegisterCorrupt(t *testing.T) {
	if _, err := decodeRegister(wire.NewDecoder([]byte{1, 2, 3})); err == nil {
		t.Fatal("corrupt input accepted")
	}
}
