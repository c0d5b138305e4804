package peerlab

import (
	"encoding/json"
	"testing"

	"peerlab/internal/sweeptest"
)

// facadeFlow is one FlowResult as the transcript stores it.
type facadeFlow struct {
	Source              string  `json:"source"`
	Sink                string  `json:"sink"`
	Model               string  `json:"model,omitempty"`
	Attempts            int     `json:"attempts"`
	PetitionSeconds     float64 `json:"petition_seconds"`
	TransmissionSeconds float64 `json:"transmission_seconds"`
	Pieces              int     `json:"pieces,omitempty"`
	Err                 string  `json:"err,omitempty"`
}

// facadeSession is one deployment's transcript: what Peers() handed out,
// every flow of one RunWorkload(""), and the virtual time the session took.
type facadeSession struct {
	Name           string       `json:"name"`
	Peers          []string     `json:"peers"`
	Flows          []facadeFlow `json:"flows"`
	ElapsedSeconds float64      `json:"elapsed_seconds"`
}

// TestFacadeTranscript pins what a user scripting against Deploy / Run /
// RunWorkload observes — peer names, every flow's endpoints, attempts and
// timings, the elapsed virtual time — on the four kinds of world the facade
// deploys: an explicit peer list, the calibrated Table 1 slice, a static
// scenario running its hinted piece workload (at Seed 0, which must mean
// seed 0, not a default), and a churning scenario whose peers go by catalog
// label.
func TestFacadeTranscript(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"peers w1..w3 × allpairs:3", Config{
			Seed:     21,
			Peers:    []PeerConfig{{Name: "w1"}, {Name: "w2"}, {Name: "w3"}},
			Workload: "allpairs:3",
		}},
		{"table1 × controller-fanout", Config{Seed: 7, Scenario: ScenarioTable1, Workload: "controller-fanout"}},
		{"zipf:8 × hint", Config{Scenario: "zipf:8"}},
		{"churn:16 × swarm:16", Config{Seed: 2007, Scenario: "churn:16", Workload: "swarm:16"}},
	}
	var transcript []facadeSession
	for _, tc := range cases {
		d, err := Deploy(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var results []FlowResult
		if err := d.Run(func(s *Session) error {
			var err error
			results, err = s.RunWorkload("")
			return err
		}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(results) == 0 {
			t.Fatalf("%s: no flows", tc.name)
		}
		sess := facadeSession{Name: tc.name, Peers: d.Peers(), ElapsedSeconds: d.Elapsed().Seconds()}
		for _, r := range results {
			sess.Flows = append(sess.Flows, facadeFlow{
				Source:              r.Flow.Source,
				Sink:                r.Sink,
				Model:               r.Flow.Model,
				Attempts:            r.Metrics.Attempts,
				PetitionSeconds:     r.Metrics.PetitionDelay().Seconds(),
				TransmissionSeconds: r.Metrics.TransmissionTime().Seconds(),
				Pieces:              r.Pieces,
				Err:                 r.Err,
			})
		}
		transcript = append(transcript, sess)
	}
	got, err := json.MarshalIndent(transcript, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	sweeptest.Golden(t, "facade.golden.json", append(got, '\n'))
}
