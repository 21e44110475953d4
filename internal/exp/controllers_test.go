package exp

import (
	"testing"

	"libra/internal/cc"
	"libra/internal/cc/orca"
	"libra/internal/core"
	"libra/internal/rl"
	"libra/internal/rlcc"
)

// TestControllerTable checks every entry of the controller table:
// MakerFor builds a controller that reports the entry's name, and an
// entry that takes the agent set runs the set's policy for its kind
// (every Libra variant the LibraRL policy; aurora, mod-rl and orca
// their own), while the others take none.
func TestControllerTable(t *testing.T) {
	base := cc.Config{Seed: 1}
	ag := &AgentSet{
		LibraRL: rlcc.New("libra-rl", rlcc.LibraRLConfig(base)).Agent(),
		Aurora:  rlcc.New("aurora", rlcc.AuroraConfig(base)).Agent(),
		ModRL:   rlcc.New("mod-rl", rlcc.LibraRLConfig(base)).Agent(),
		Orca:    orca.New(rlcc.OrcaRLConfig(base)).Agent(),
	}
	for _, name := range CCASet {
		mk, err := MakerFor(name, ag, nil)
		if err != nil {
			t.Fatalf("MakerFor(%s): %v", name, err)
		}
		ctrl := mk(1)
		if got := ctrl.Name(); got != name {
			t.Errorf("MakerFor(%s) built a controller named %q", name, got)
		}
		var got, want *rl.PPO
		switch c := ctrl.(type) {
		case *core.Libra:
			got, want = c.RL().Agent(), ag.LibraRL
		case *rlcc.Controller:
			got, want = c.Agent(), map[string]*rl.PPO{"aurora": ag.Aurora, "mod-rl": ag.ModRL}[name]
		case *orca.Orca:
			got, want = c.Agent(), ag.Orca
		}
		if got != want {
			t.Errorf("%s runs policy %p, want the agent set's %p", name, got, want)
		}
		if uses := want != nil; ccaUsesAgents(name) != uses {
			t.Errorf("ccaUsesAgents(%s) = %v, want %v", name, !uses, uses)
		}
	}
}
