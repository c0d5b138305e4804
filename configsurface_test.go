package peerlab

import (
	"reflect"
	"strings"
	"testing"

	"peerlab/internal/experiments"
	"peerlab/internal/overlay"
	"peerlab/internal/pipe"
	"peerlab/internal/transfer"
)

// TestConfigSurfaceIsPinned lists every exported field of the configuration
// structs a caller fills in — 23 settable values. A setting earns its place by
// having callers that need different values; one every caller sets the same
// way is a constant. A new knob must edit this list, so a reviewer sees it.
func TestConfigSurfaceIsPinned(t *testing.T) {
	want := map[string]string{
		"overlay.ClientConfig":     "CPUScore Resilient OnFile OnInstant",
		"overlay.BrokerConfig":     "AdvTTL CacheLimit Shards",
		"pipe.Options":             "Window MaxRetries InitialRTT FirstID",
		"transfer.SenderOptions":   "PartAckTimeout PetitionTimeout",
		"transfer.ReceiverOptions": "Accept OnFile",
		"experiments.Config":       "Seed Reps Workers Scenario Shards CacheLimit Workload Logf",
	}
	for _, v := range []any{
		overlay.ClientConfig{}, overlay.BrokerConfig{}, pipe.Options{},
		transfer.SenderOptions{}, transfer.ReceiverOptions{}, experiments.Config{},
	} {
		typ := reflect.TypeOf(v)
		var fields []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fields = append(fields, f.Name)
			}
		}
		if got := strings.Join(fields, " "); got != want[typ.String()] {
			t.Errorf("%s fields = %q, want %q", typ, got, want[typ.String()])
		}
	}
}
