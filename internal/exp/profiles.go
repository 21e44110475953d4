package exp

import (
	"fmt"
	"sort"
	"strings"

	"libra/internal/utility"
)

// Profile is a first-class utility profile: a named application
// preference that binds a controller and an Eq. 1 utility
// parameterisation. Scenarios label flows with profile names
// (Scenario.Profiles), the runner stamps each labelled flow with a
// TypeProfile event, and the analyzer/time-series layers key
// per-profile aggregates and SLO attainment on the label.
type Profile struct {
	Name string
	CCA  string
	// Util parameterises Eq. 1 for the profile's flows (Libra-family
	// controllers only; classic CCAs ignore it).
	Util utility.Libra
}

// profilePresets maps the paper's application-preference archetypes
// onto Eq. 1 parameterisations: bulk transfer weighs throughput up
// (2x alpha), low-latency weighs the delay penalty up 3x, video-call
// 2x, and background halves the throughput reward so it yields to
// everyone else.
func profilePresets() []Profile {
	bg := utility.Default()
	bg.Alpha *= 0.5
	return []Profile{
		{Name: "bulk", CCA: "c-libra", Util: utility.Throughput1()},
		{Name: "low-latency", CCA: "c-libra", Util: utility.Latency2()},
		{Name: "video-call", CCA: "c-libra", Util: utility.Latency1()},
		{Name: "background", CCA: "c-libra", Util: bg},
	}
}

// ProfileNames lists the preset profile names, sorted.
func ProfileNames() []string {
	ps := profilePresets()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	sort.Strings(out)
	return out
}

// ProfileByName resolves a preset profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range profilePresets() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("exp: unknown profile %q (known: %s)",
		name, strings.Join(ProfileNames(), ", "))
}

// ParseProfiles resolves a comma-separated profile list (the CLI
// -profiles flag). Empty input returns nil.
func ParseProfiles(spec string) ([]Profile, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []Profile
	for _, name := range strings.Split(spec, ",") {
		p, err := ProfileByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
