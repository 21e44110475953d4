package lab

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"libra/internal/exp"
	"libra/internal/netem/faults"
	"libra/internal/sweep"
	"libra/internal/utility"
)

// TournamentConfig parameterises a round-robin robustness tournament.
type TournamentConfig struct {
	// CCAs are the contestants; every one also donates its discovered
	// worst case to the shared scenario pool.
	CCAs []string
	// Seed drives the per-CCA searches and the shared scenario seeds.
	Seed int64
	// Budget is the per-CCA adversarial search budget (SearchConfig).
	Budget int
	// DurS is the simulated length of each evaluation (default 4s).
	DurS float64
	// Util holds the Eq. 1 constants (zero value = paper default).
	Util utility.Libra
}

// Entry is one CCA's leaderboard row.
type Entry struct {
	CCA string `json:"cca"`
	// MeanScore averages Eq. 1 utility across every scenario in the
	// pool; the leaderboard ranks by it.
	MeanScore float64 `json:"mean_score"`
	// WorstScore / WorstScenario locate the CCA's weakest cell.
	WorstScore    float64 `json:"worst_score"`
	WorstScenario string  `json:"worst_scenario"`
	// Baseline is the clean-link score; SLO is the fraction of
	// scenarios where the CCA kept at least half its baseline utility
	// (0 when the baseline itself is non-positive).
	Baseline float64 `json:"baseline"`
	SLO      float64 `json:"slo"`
	// Anomalies sums the detectors' target-flow anomaly episodes
	// (collapses, regressions, no-ACK episodes) across all scenarios,
	// aborted cells included. Failures counts aborted cells.
	Anomalies int64 `json:"anomalies"`
	Failures  int   `json:"failures"`
}

// Leaderboard is the tournament's result: a byte-stable robustness
// ranking plus the replayable worst-case specs the searches found.
type Leaderboard struct {
	Seed      int64    `json:"seed"`
	Scenarios []string `json:"scenarios"`
	Entries   []Entry  `json:"entries"`
	Worsts    []Spec   `json:"worst_cases"`
}

// Tournament searches a worst case per contestant, then runs every CCA
// against the shared scenario pool — clean baseline, every stock
// preset, and every contestant's discovered worst case — as one sweep
// of cells, aggregating per-CCA stats over its row of cells.
// All seeds sub-derive from cfg.Seed and all cell results come back in
// fixed row-major order, so the leaderboard is byte-identical at any
// rc.Workers count and across repeated runs.
func Tournament(rc *exp.RunContext, cfg TournamentConfig) (*Leaderboard, error) {
	if len(cfg.CCAs) == 0 {
		return nil, fmt.Errorf("lab: tournament needs at least one CCA")
	}
	for _, cca := range cfg.CCAs {
		if _, err := exp.MakerFor(cca, nil, nil); err != nil {
			return nil, fmt.Errorf("lab: %w", err)
		}
	}
	if cfg.DurS <= 0 {
		cfg.DurS = 4
	}
	if cfg.Util == (utility.Libra{}) {
		cfg.Util = utility.Default()
	}

	lb := &Leaderboard{Seed: cfg.Seed}

	// Phase 1: one adversarial search per contestant.
	for i, cca := range cfg.CCAs {
		sr, err := Search(rc, SearchConfig{
			Target: cca,
			Seed:   sweep.SubSeed2(cfg.Seed, 1, i),
			Budget: cfg.Budget,
			DurS:   cfg.DurS,
			Util:   cfg.Util,
		})
		if err != nil {
			return nil, err
		}
		worst := sr.Best.Spec
		worst.Label = "worst:" + cca
		lb.Worsts = append(lb.Worsts, worst)
	}

	// Phase 2: the shared scenario pool. Baseline and presets get their
	// own sub-derived seeds; each worst case keeps the seed it was
	// discovered at — that exact run is what it certifies.
	anyCCA := cfg.CCAs[0]
	scens := []Spec{DefaultSpec(anyCCA, sweep.SubSeed2(cfg.Seed, 0, 0), cfg.DurS)}
	scens = append(scens, presetSpecs(anyCCA, cfg.Seed, cfg.DurS)...)
	scens = append(scens, lb.Worsts...)
	for _, sp := range scens {
		lb.Scenarios = append(lb.Scenarios, sp.Label)
	}

	// Phase 3: every contestant × every scenario, one sweep, row-major.
	n := len(cfg.CCAs) * len(scens)
	rc.Metrics.Counter("libra_lab_tournament_cells_total", "tournament cells evaluated").Add(int64(n))
	cells := exp.Sweep(rc, n, func(jc *exp.RunContext, k int) Outcome {
		sp := scens[k%len(scens)]
		sp.Target = cfg.CCAs[k/len(scens)]
		return Eval(jc, sp, cfg.Util)
	})

	// Phase 4: per-CCA aggregation.
	for i, cca := range cfg.CCAs {
		row := cells[i*len(scens) : (i+1)*len(scens)]
		e := Entry{CCA: cca, Baseline: row[0].Score}
		sum := 0.0
		worst := row[0]
		kept := 0
		for _, o := range row {
			sum += o.Score
			if o.Score < worst.Score {
				worst = o
			}
			if o.Failed {
				e.Failures++
			}
			if e.Baseline > 0 && o.Score >= 0.5*e.Baseline {
				kept++
			}
			e.Anomalies += o.flagged
		}
		e.MeanScore = sum / float64(len(row))
		e.WorstScore = worst.Score
		e.WorstScenario = worst.Spec.Label
		if e.Baseline > 0 {
			e.SLO = float64(kept) / float64(len(row))
		}
		lb.Entries = append(lb.Entries, e)
	}
	sort.SliceStable(lb.Entries, func(i, j int) bool {
		if lb.Entries[i].MeanScore != lb.Entries[j].MeanScore {
			return lb.Entries[i].MeanScore > lb.Entries[j].MeanScore
		}
		return lb.Entries[i].CCA < lb.Entries[j].CCA
	})
	return lb, nil
}

// presetSpecs builds the stock-preset slice of the scenario pool, in
// faults.PresetNames order with sub-derived seeds.
func presetSpecs(target string, seed int64, durS float64) []Spec {
	var out []Spec
	for j, name := range faults.PresetNames() {
		sp := DefaultSpec(target, sweep.SubSeed2(seed, 0, 1+j), durS)
		sp.Label = "preset:" + name
		sp.Plan, _ = faults.Preset(name)
		out = append(out, sp)
	}
	return out
}

// WriteText renders the leaderboard as a fixed-width table; the output
// is byte-stable for a given result.
func (lb *Leaderboard) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "robustness leaderboard (seed %d, %d scenarios)\n", lb.Seed, len(lb.Scenarios)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%4s  %-10s %10s %10s  %-18s %10s %6s %5s %5s\n",
		"rank", "cca", "mean", "worst", "worst-case", "baseline", "slo", "anom", "fail"); err != nil {
		return err
	}
	for i, e := range lb.Entries {
		if _, err := fmt.Fprintf(w, "%4d  %-10s %10.3f %10.3f  %-18s %10.3f %6.2f %5d %5d\n",
			i+1, e.CCA, e.MeanScore, e.WorstScore, e.WorstScenario, e.Baseline, e.SLO, e.Anomalies, e.Failures); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the leaderboard (including the replayable worst
// cases) as indented JSON, byte-stable for a given result.
func (lb *Leaderboard) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(lb, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
