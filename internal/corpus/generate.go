package corpus

import (
	"fmt"

	"rtmdm/internal/core"
	"rtmdm/internal/cost"
	"rtmdm/internal/fault"
	"rtmdm/internal/scenario"
	"rtmdm/internal/sim"
	"rtmdm/internal/workload"
)

// Axis classes for the per-scenario hash draws. Every generation
// decision is a pure splitmix64 hash of (spec seed, axis class, scenario
// index, sub-coordinate) — the internal/fault hash-decision idiom — so
// scenario i is independent of every other index: reordering, resuming,
// or extending the corpus never re-rolls an existing instance.
const (
	axisUtil uint64 = iota + 1
	axisTaskCount
	axisPolicy
	axisPlatform
	axisHorizon
	axisDeadline
	axisOffsetGate
	axisOffset
	axisFaultProfile
	axisOverrun
	axisWorkloadSeed
	axisFaultSeed
)

// faultProfiles are the named fault.Config templates the fault_profiles
// axis selects from; the per-scenario fault seed is drawn separately.
// Rates are deliberately aggressive — faulted runs only check that the
// executor survives, not that deadlines hold.
var faultProfiles = map[string]fault.Config{
	"none": {},
	"overrun": {
		OverrunRate:   0.10,
		OverrunFactor: 1.5,
	},
	"overrun-heavy": {
		OverrunRate:      0.35,
		OverrunFactor:    1.5,
		OverrunFactorMax: 3.0,
	},
	"jitter": {
		ReleaseJitterRate:  0.25,
		ReleaseJitterMaxMs: 2,
	},
	"dma": {
		DMASlowdownRatePerSec: 40,
		DMASlowdownMs:         1,
		DMASlowdownFactor:     2.5,
	},
	"xfer": {
		TransferFaultRate: 0.02,
		MaxRetries:        3,
	},
	"mixed": {
		OverrunRate:           0.05,
		OverrunFactor:         1.3,
		ReleaseJitterRate:     0.10,
		ReleaseJitterMaxMs:    1,
		DMASlowdownRatePerSec: 10,
		DMASlowdownMs:         0.5,
		DMASlowdownFactor:     2,
		TransferFaultRate:     0.01,
	},
}

// FaultProfileNames returns the known profile names, sorted.
func FaultProfileNames() []string {
	return []string{"dma", "jitter", "mixed", "none", "overrun", "overrun-heavy", "xfer"}
}

// Axes records the per-axis values drawn for one scenario instance, so
// violation reports and the manifest say *why* a scenario looks the way
// it does without re-deriving the draws.
type Axes struct {
	Util         float64 `json:"util"`
	TaskCount    int     `json:"task_count"`
	Policy       string  `json:"policy"`
	Platform     string  `json:"platform"`
	HorizonMs    float64 `json:"horizon_ms"`
	DeadlineFrac float64 `json:"deadline_frac"`
	Offsets      bool    `json:"offsets"`
	FaultProfile string  `json:"fault_profile"`
	Overrun      string  `json:"overrun,omitempty"`
	// Salt counts how many workload regenerations were needed to find an
	// activation-feasible model mix (0 = first try).
	Salt int `json:"salt,omitempty"`
}

// Item is one expanded corpus instance.
type Item struct {
	// Index is the instance's position in [0, spec.Count).
	Index int
	// ID is scenario.CanonicalHash of the generated scenario: stable
	// across processes, worker counts, and corpus extensions.
	ID   string
	Axes Axes
	// Scenario is the concrete generated instance, already canonical.
	Scenario *scenario.Scenario
}

// Generator expands a Spec into scenario instances. Safe for concurrent
// use: At is a pure function of (spec, index).
type Generator struct {
	spec   *Spec
	digest string
	seed   uint64
}

// NewGenerator validates the spec (after filling defaults) and returns a
// generator over it.
func NewGenerator(s *Spec) (*Generator, error) {
	full := s.withDefaults()
	if err := full.Validate(); err != nil {
		return nil, err
	}
	dig, err := full.Digest()
	if err != nil {
		return nil, err
	}
	return &Generator{spec: full, digest: dig, seed: uint64(full.Seed)}, nil
}

// Spec returns the defaults-filled spec the generator expands.
func (g *Generator) Spec() *Spec { return g.spec }

// Digest returns the spec digest (see Spec.Digest).
func (g *Generator) Digest() string { return g.digest }

// Count returns the number of instances in the corpus.
func (g *Generator) Count() int { return g.spec.Count }

// draw hashes one decision coordinate into a uniform uint64.
func (g *Generator) draw(axis uint64, index int, sub int64) uint64 {
	h := g.seed ^ core.Mix64(axis*0xa24baed4963ee407)
	h = core.Mix64(h ^ uint64(index)*0x9fb21c651e98df25)
	return core.Mix64(h ^ uint64(sub)*0xe7037ed1a0b428db)
}

// pick selects list[h % len] — axis lists act as weights.
func pickF(list []float64, h uint64) float64 { return list[h%uint64(len(list))] }
func pickI(list []int, h uint64) int         { return list[h%uint64(len(list))] }
func pickS(list []string, h uint64) string   { return list[h%uint64(len(list))] }

// At generates instance i. The only failure modes are a workload
// generation that cannot find an activation-feasible model mix after
// saltRetries attempts and internal marshaling errors; both are reported
// as errors so the oracle can classify them without panicking.
func (g *Generator) At(i int) (Item, error) {
	if i < 0 || i >= g.spec.Count {
		return Item{}, fmt.Errorf("corpus: index %d outside [0, %d)", i, g.spec.Count)
	}
	s := g.spec
	ax := Axes{
		Util:         pickF(s.Utils, g.draw(axisUtil, i, 0)),
		TaskCount:    pickI(s.TaskCounts, g.draw(axisTaskCount, i, 0)),
		Policy:       pickS(s.Policies, g.draw(axisPolicy, i, 0)),
		Platform:     pickS(s.Platforms, g.draw(axisPlatform, i, 0)),
		HorizonMs:    pickF(s.HorizonsMs, g.draw(axisHorizon, i, 0)),
		DeadlineFrac: pickF(s.DeadlineFracs, g.draw(axisDeadline, i, 0)),
		Offsets:      core.Unit(g.draw(axisOffsetGate, i, 0)) < s.OffsetFrac,
		FaultProfile: pickS(s.FaultProfiles, g.draw(axisFaultProfile, i, 0)),
	}
	if ax.FaultProfile != "none" {
		ax.Overrun = pickS(s.Overruns, g.draw(axisOverrun, i, 0))
	}

	sc, salt, err := g.buildScenario(i, &ax)
	if err != nil {
		return Item{Index: i, Axes: ax}, err
	}
	ax.Salt = salt
	id, err := scenario.CanonicalHash(sc)
	if err != nil {
		return Item{Index: i, Axes: ax}, fmt.Errorf("corpus: instance %d: %w", i, err)
	}
	return Item{Index: i, ID: id, Axes: ax, Scenario: sc}, nil
}

// saltRetries bounds the deterministic regeneration attempts when a
// drawn combination is infeasible: either workload generation finds no
// activation-feasible model mix, or the drawn policy's segment budget
// cannot host the mix on the drawn platform (workload.Generate checks
// feasibility policy-blind, but e.g. rt-mdm-d4 needs more activation
// SRAM than the default budget). Each salt re-rolls only the workload
// seed, never the other axes, so the ladder is a pure function of the
// index.
const saltRetries = 8

func (g *Generator) buildScenario(i int, ax *Axes) (*scenario.Scenario, int, error) {
	plat, err := cost.PlatformByName(ax.Platform)
	if err != nil {
		return nil, 0, err
	}
	minP := sim.Duration(g.spec.MinPeriodMs * float64(sim.Millisecond)) //lint:allow millitime -- spec boundary: validated float ms from the corpus spec
	maxP := sim.Duration(g.spec.MaxPeriodMs * float64(sim.Millisecond)) //lint:allow millitime -- spec boundary: validated float ms from the corpus spec

	var lastErr error
	for salt := 0; salt < saltRetries; salt++ {
		wseed := int64(g.draw(axisWorkloadSeed, i, int64(salt))>>1) | 1
		sp, err := workload.Generate(workload.Params{
			Seed:         wseed,
			N:            ax.TaskCount,
			Util:         ax.Util,
			Platform:     plat,
			Models:       g.spec.Models,
			MinPeriod:    minP,
			MaxPeriod:    maxP,
			DeadlineFrac: ax.DeadlineFrac,
		})
		if err != nil {
			lastErr = err
			continue
		}
		sc := g.toScenario(i, ax, sp)
		if _, _, _, err := sc.Build(); err != nil {
			lastErr = err
			continue
		}
		return sc, salt, nil
	}
	return nil, saltRetries, fmt.Errorf("corpus: instance %d: no feasible workload after %d salts: %w", i, saltRetries, lastErr)
}

// toScenario converts a generated SetSpec into a canonical Scenario,
// applying the offset and fault axes.
func (g *Generator) toScenario(i int, ax *Axes, sp workload.SetSpec) *scenario.Scenario {
	sc := &scenario.Scenario{
		Platform:  ax.Platform,
		Policy:    ax.Policy,
		HorizonMs: ax.HorizonMs,
		Tasks:     make([]scenario.TaskSpec, len(sp.Tasks)),
	}
	for t, ts := range sp.Tasks {
		spec := scenario.TaskSpec{
			Name:     fmt.Sprintf("t%02d", t),
			Model:    ts.Model,
			Seed:     ts.Seed,
			PeriodMs: float64(ts.Period) / float64(sim.Millisecond), //lint:allow millitime -- scenario-file boundary: periods serialized as float ms
		}
		if ts.Deadline != ts.Period {
			spec.DeadlineMs = float64(ts.Deadline) / float64(sim.Millisecond) //lint:allow millitime -- scenario-file boundary: deadlines serialized as float ms
		}
		if ax.Offsets {
			// Offsets up to half the period, quantized to 10µs so the
			// serialized floats stay short and exact.
			frac := core.Unit(g.draw(axisOffset, i, int64(t)))
			offNs := int64(frac * 0.5 * float64(ts.Period)) //lint:allow millitime -- offset draw: periods are µs-scale, far below 2^53 ns
			offNs -= offNs % 10_000
			spec.OffsetMs = float64(offNs) / float64(sim.Millisecond) //lint:allow millitime -- scenario-file boundary: offsets serialized as float ms
		}
		sc.Tasks[t] = spec
	}
	if ax.FaultProfile != "none" {
		cfg := faultProfiles[ax.FaultProfile]
		cfg.Seed = int64(g.draw(axisFaultSeed, i, 0)>>1) | 1
		sc.Faults = &scenario.FaultSpec{Config: cfg, Overrun: ax.Overrun}
	}
	return sc.Canonicalize()
}
