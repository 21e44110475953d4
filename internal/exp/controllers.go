package exp

import (
	"fmt"
	"sort"
	"strings"

	"libra/internal/cc"
	"libra/internal/cc/bbr"
	"libra/internal/cc/copa"
	"libra/internal/cc/cubic"
	"libra/internal/cc/dctcp"
	"libra/internal/cc/illinois"
	"libra/internal/cc/indigo"
	"libra/internal/cc/orca"
	"libra/internal/cc/remy"
	"libra/internal/cc/reno"
	"libra/internal/cc/sprout"
	"libra/internal/cc/vegas"
	"libra/internal/cc/vivace"
	"libra/internal/cc/westwood"
	"libra/internal/core"
	"libra/internal/rlcc"
	"libra/internal/utility"
)

// Maker constructs a fresh controller per flow.
type Maker func(seed int64) cc.Controller

// controller is one entry of the controller table.
type controller struct {
	name string
	// agents marks the entries that run a trained policy from the agent
	// set; for the others, resolving agents (and possibly triggering
	// lazy training) would be pure waste.
	agents bool
	// maker builds the per-flow factory for the entry's name. ag may be
	// nil (fresh, untrained policies); util overrides the utility of
	// the Libra entries (nil = paper default).
	maker func(name string, ag *AgentSet, util utility.Func) Maker
}

// controllers is the one name -> controller map: the harness, the
// CLIs, the lab and the public API all resolve names here.
var controllers = []controller{
	{"cubic", false, plain(cubic.New)},
	{"bbr", false, plain(bbr.New)},
	{"reno", false, plain(reno.New)},
	{"vegas", false, plain(vegas.New)},
	{"copa", false, plain(copa.New)},
	{"sprout", false, plain(sprout.New)},
	{"vivace", false, plain(vivace.New)},
	{"proteus", false, plain(vivace.NewProteus)},
	{"remy", false, plain(remy.New)},
	{"indigo", false, plain(indigo.New)},
	{"aurora", true, func(name string, ag *AgentSet, _ utility.Func) Maker {
		return func(seed int64) cc.Controller {
			cfg := rlcc.AuroraConfig(cc.Config{Seed: seed})
			if ag != nil {
				cfg.Agent, cfg.Norm = ag.Aurora, ag.AuroraNorm
			}
			return rlcc.New(name, cfg)
		}
	}},
	{"orca", true, func(_ string, ag *AgentSet, _ utility.Func) Maker {
		return func(seed int64) cc.Controller {
			cfg := rlcc.OrcaRLConfig(cc.Config{Seed: seed})
			if ag != nil {
				cfg.Agent, cfg.Norm = ag.Orca, ag.OrcaNorm
			}
			return orca.New(cfg)
		}
	}},
	{"mod-rl", true, func(name string, ag *AgentSet, _ utility.Func) Maker {
		return func(seed int64) cc.Controller {
			cfg := rlcc.LibraRLConfig(cc.Config{Seed: seed})
			cfg.RewardFunc = utility.Default().Value
			if ag != nil {
				cfg.Agent, cfg.Norm = ag.ModRL, ag.ModRLNorm
			}
			return rlcc.New(name, cfg)
		}
	}},
	{"westwood", false, plain(westwood.New)},
	{"illinois", false, plain(illinois.New)},
	{"dctcp", false, plain(dctcp.New)},
	{"c-libra", true, libra(windowed(cubic.New))},
	{"b-libra", true, libra(func(b cc.Config) core.Classic { return core.NewBBRAdapter(b) })},
	{"cl-libra", true, libra(nil)},
	{"w-libra", true, libra(windowed(westwood.New))},
	{"i-libra", true, libra(windowed(illinois.New))},
	{"d-libra", true, libra(windowed(dctcp.New))},
}

// plain is the table entry of a controller built from its seed alone.
func plain[C cc.Controller](build func(cc.Config) C) func(string, *AgentSet, utility.Func) Maker {
	return func(string, *AgentSet, utility.Func) Maker {
		return func(seed int64) cc.Controller { return build(cc.Config{Seed: seed}) }
	}
}

// windowed builds a window-based classic CCA as Libra's classic
// component.
func windowed[C core.WindowSetter](build func(cc.Config) C) func(cc.Config) core.Classic {
	return func(b cc.Config) core.Classic { return core.NewWindowAdapter(build(b)) }
}

// libra is the table entry of the Libra variant over classic.
func libra(classic func(cc.Config) core.Classic) func(string, *AgentSet, utility.Func) Maker {
	return func(name string, ag *AgentSet, util utility.Func) Maker {
		return libraMaker(name, classic, ag, util, nil)
	}
}

// libraMaker is the one Libra builder: Libra over classic (nil builds
// Clean-Slate Libra), its RL component on the agent set's LibraRL
// policy and normaliser, recording its control cycles. tune, when set,
// edits the configuration before construction.
func libraMaker(name string, classic func(cc.Config) core.Classic, ag *AgentSet, util utility.Func, tune func(*core.Config)) Maker {
	return func(seed int64) cc.Controller {
		base := cc.Config{Seed: seed}.WithDefaults()
		rlCfg := rlcc.LibraRLConfig(base)
		if ag != nil {
			rlCfg.Agent, rlCfg.Norm = ag.LibraRL, ag.LibraNorm
		}
		cfg := core.Config{
			CC:           base,
			RL:           rlcc.New("libra-rl", rlCfg),
			Util:         util,
			NoClassic:    classic == nil,
			Name:         name,
			RecordCycles: true,
		}
		if classic != nil {
			cfg.Classic = classic(base)
		}
		if tune != nil {
			tune(&cfg)
		}
		return core.New(cfg)
	}
}

// tunedCLibra is C-Libra with tune applied to its configuration: the
// ablations' and sensitivity sweeps' variants.
func tunedCLibra(ag *AgentSet, tune func(*core.Config)) Maker {
	return libraMaker("c-libra", windowed(cubic.New), ag, nil, tune)
}

// CCASet lists the controller names the harness can build, in table
// order.
var CCASet = func() []string {
	out := make([]string, len(controllers))
	for i, c := range controllers {
		out[i] = c.name
	}
	return out
}()

// KnownCCAs returns every controller name MakerFor accepts, sorted.
func KnownCCAs() []string {
	out := append([]string(nil), CCASet...)
	sort.Strings(out)
	return out
}

// lookup finds the table entry for name.
func lookup(name string) (controller, bool) {
	for _, c := range controllers {
		if c.name == name {
			return c, true
		}
	}
	return controller{}, false
}

// MakerFor builds a controller factory for name, wiring in the trained
// agents where the algorithm has a learning component. Libra variants
// accept a utility override via util (nil = paper default). Unknown
// names return an error listing every known controller.
func MakerFor(name string, ag *AgentSet, util utility.Func) (Maker, error) {
	c, ok := lookup(name)
	if !ok {
		return nil, fmt.Errorf("exp: unknown controller %q (known: %s)",
			name, strings.Join(KnownCCAs(), ", "))
	}
	return c.maker(name, ag, util), nil
}

// ccaUsesAgents reports whether the named controller consults the
// trained agent set.
func ccaUsesAgents(name string) bool {
	c, _ := lookup(name)
	return c.agents
}
