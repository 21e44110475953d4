package lab

import (
	"encoding/json"
	"testing"
	"time"

	"libra/internal/netem/faults"
)

// FuzzSpecFile fuzzes the spec artifact `libra-lab replay -spec` reads:
// a spec that validates materialises a scenario whose topology, if any,
// validates and whose bottleneck serves at both levels of its shape.
func FuzzSpecFile(f *testing.F) {
	dark := DefaultSpec("cubic", 1, 4)
	dark.Plan, _ = faults.Preset("blackout")
	for _, sp := range []Spec{
		dark,
		{Target: "bbr", Seed: 3, CapMbps: 96, DipFrac: 0.2, PeriodS: 4, RTTMs: 60, Cross: 2, DurS: 3, Topo: "parking-lot", CrossAt: 0.5},
	} {
		b, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"target":"cubic","seed":1,"cap_mbps":48,"dip_frac":0.5,"period_s":1e12,"rtt_ms":30,"dur_s":4}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		sp, err := parseSpec(b)
		if err != nil {
			return
		}
		s := sp.Scenario()
		if s.Topo != nil {
			if err := s.Topo.Validate(); err != nil {
				t.Fatalf("valid spec's topology fails validation: %v\nspec: %s", err, b)
			}
		}
		half := time.Duration(sp.PeriodS * float64(time.Second) / 2)
		if r0, r1 := s.Capacity.RateAt(0), s.Capacity.RateAt(half); !(r0 > 0 && r1 > 0) {
			t.Fatalf("valid spec's capacity %v at 0, %v at %v\nspec: %s", r0, r1, half, b)
		}
	})
}
