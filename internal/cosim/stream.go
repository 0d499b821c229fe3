package cosim

import (
	"context"
	"fmt"
	"math"

	"waterimm/internal/floorplan"
	"waterimm/internal/material"
	"waterimm/internal/mcpat"
	"waterimm/internal/power"
	"waterimm/internal/stack"
	"waterimm/internal/thermal"
)

// StreamPhase is one segment of a deterministic utilisation trace.
// Phases cycle: a trace of {2s @ 1.0, 1s @ 0.1} repeats every 3
// seconds of simulated time for as long as the stream runs.
type StreamPhase struct {
	DurationS   float64 `json:"duration_s"`
	Utilisation float64 `json:"utilisation"`
}

// StreamConfig describes an interval-engine run: a power trace drives
// the transient stack model one coupling interval at a time, with an
// optional DVFS governor throttling between intervals. Unlike Config
// there is no event kernel — the workload is the utilisation trace —
// which is what makes the loop checkpointable: the entire mutable
// state is the temperature field plus a handful of scalars.
type StreamConfig struct {
	Chip    power.Model
	Chips   int
	Coolant material.Coolant
	Params  stack.Params

	// FHz is the initial frequency; it must be a VFS step of Chip.
	FHz float64
	// IntervalS is the coupling period in simulated seconds.
	IntervalS float64
	// Intervals is the total run length in coupling periods.
	Intervals int
	// SubSteps integrates the thermal model this many backward-Euler
	// steps per interval (default 1).
	SubSteps int
	// Phases is the utilisation trace; empty means a steady full load.
	Phases []StreamPhase
	// DVFS, when non-nil, enables the hysteresis governor.
	DVFS *DVFSPolicy
	// OnSolve, when non-nil, observes every backward-Euler sub-step's
	// CG solve (see thermal.Stepper.OnSolve).
	OnSolve func(thermal.SolveStats)
}

// StreamSample is one interval's record. Seq is 1-based and
// contiguous; a resumed stream continues the numbering of the
// interrupted one.
type StreamSample struct {
	Seq         int     `json:"seq"`
	TimeS       float64 `json:"time_s"`
	FHz         float64 `json:"f_hz"`
	PeakC       float64 `json:"peak_c"`
	DynamicW    float64 `json:"dynamic_w"`
	StaticW     float64 `json:"static_w"`
	Utilisation float64 `json:"utilisation"`
	Throttled   bool    `json:"throttled,omitempty"`
}

// Checkpoint is a serializable snapshot of a Stream between intervals.
// It carries everything Next consults: the stepper state (temperature
// field + simulated time), the governor index, the aggregates, and the
// samples produced so far — so a restored stream finishes with output
// bit-identical to an uninterrupted run (Go's JSON encoding
// round-trips float64 exactly).
type Checkpoint struct {
	Seq       int            `json:"seq"`
	TimeS     float64        `json:"time_s"`
	StepIdx   int            `json:"step_idx"`
	Throttles int            `json:"throttles"`
	GHzSum    float64        `json:"ghz_sum"`
	MaxPeakC  float64        `json:"max_peak_c"`
	T         []float64      `json:"t"`
	Samples   []StreamSample `json:"samples"`
}

// Stream is the interval engine: every coupling interval takes its
// power from a powerSource, advances the transient stack model, and
// lets the governor pick the next operating point. It is not safe for
// concurrent use; the owning goroutine drives Next and publishes
// samples itself.
type Stream struct {
	cfg     StreamConfig
	src     powerSource
	steps   []power.Step
	stepIdx int
	fp      *floorplan.Floorplan
	model   *thermal.Model
	sys     *thermal.System
	stepper *thermal.Stepper

	seq       int
	throttles int
	ghzSum    float64
	maxPeak   float64
	lastPeak  float64
	samples   []StreamSample
}

// powerSource supplies each interval's power. It writes one chip's
// unit powers into fp for the interval with the given 0-based index at
// the given operating point, leakage evaluated at lastPeakC, and
// returns the whole stack's dynamic power and the interval's
// utilisation.
type powerSource interface {
	apply(ctx context.Context, fp *floorplan.Floorplan, idx int, step power.Step, lastPeakC float64) (dynW, util float64, err error)
}

// traceSource is the utilisation trace: full VFS power at the last
// peak's leakage, with the dynamic share duty-cycled by the phase's
// utilisation.
type traceSource struct {
	cfg    StreamConfig
	cycleS float64
}

func (t *traceSource) apply(_ context.Context, fp *floorplan.Floorplan, idx int, step power.Step, lastPeakC float64) (float64, float64, error) {
	util := t.utilisationAt(idx)
	if err := mcpat.Assign(fp, t.cfg.Chip, step, lastPeakC); err != nil {
		return 0, 0, err
	}
	if util < 1 {
		total := fp.TotalPower()
		want := step.DynamicW*util + t.cfg.Chip.StaticAt(step, lastPeakC)
		if total > 0 {
			fp.ScalePower(want / total)
		}
	}
	return step.DynamicW * util * float64(t.cfg.Chips), util, nil
}

// utilisationAt returns the trace utilisation for the interval with
// the given 0-based index, evaluated at the interval's start time. The
// phase comparisons carry a tolerance of 1e-9 intervals so that an
// interval starting on a phase boundary lands in the phase it opens,
// whichever side of the boundary idx·IntervalS rounds to in binary.
func (t *traceSource) utilisationAt(idx int) float64 {
	if t.cycleS == 0 {
		return 1
	}
	eps := 1e-9 * t.cfg.IntervalS
	at := float64(idx) * t.cfg.IntervalS
	at -= t.cycleS * math.Floor((at+eps)/t.cycleS)
	for _, p := range t.cfg.Phases {
		if at+eps < p.DurationS {
			return p.Utilisation
		}
		at -= p.DurationS
	}
	return t.cfg.Phases[len(t.cfg.Phases)-1].Utilisation
}

// NewStream validates a trace-driven config and builds the stack model
// at the initial operating point.
func NewStream(cfg StreamConfig) (*Stream, error) {
	var cycle float64
	for i, p := range cfg.Phases {
		if p.DurationS <= 0 || math.IsNaN(p.DurationS) || math.IsInf(p.DurationS, 0) {
			return nil, fmt.Errorf("cosim: phase %d has non-positive duration", i)
		}
		if p.Utilisation < 0 || p.Utilisation > 1 || math.IsNaN(p.Utilisation) {
			return nil, fmt.Errorf("cosim: phase %d utilisation %g outside [0,1]", i, p.Utilisation)
		}
		cycle += p.DurationS
	}
	return newStream(cfg, &traceSource{cfg: cfg, cycleS: cycle})
}

// newStream builds a stream over any power source. Only the power maps
// change between intervals; the matrix structure is assembled once.
func newStream(cfg StreamConfig, src powerSource) (*Stream, error) {
	if cfg.Chips < 1 {
		return nil, fmt.Errorf("cosim: need at least one chip")
	}
	if cfg.IntervalS <= 0 {
		return nil, fmt.Errorf("cosim: non-positive coupling interval")
	}
	if cfg.Intervals < 1 {
		return nil, fmt.Errorf("cosim: need at least one interval")
	}
	if cfg.SubSteps < 1 {
		cfg.SubSteps = 1
	}
	steps := cfg.Chip.Steps()
	stepIdx := -1
	for i, s := range steps {
		if s.FHz == cfg.FHz {
			stepIdx = i
		}
	}
	if stepIdx < 0 {
		return nil, fmt.Errorf("cosim: %.2f GHz is not a VFS step of %s", cfg.FHz/1e9, cfg.Chip.Name)
	}

	fp, err := mcpat.ChipAt(cfg.Chip, steps[stepIdx], cfg.Params.AmbientC)
	if err != nil {
		return nil, err
	}
	dies := make([]*floorplan.Floorplan, cfg.Chips)
	for i := range dies {
		dies[i] = fp
	}
	model, err := stack.Build(stack.Config{Params: cfg.Params, Coolant: cfg.Coolant, Dies: dies})
	if err != nil {
		return nil, err
	}
	sys, err := thermal.Assemble(model)
	if err != nil {
		return nil, err
	}
	stepper, err := thermal.NewStepper(sys, cfg.IntervalS/float64(cfg.SubSteps))
	if err != nil {
		return nil, err
	}
	stepper.OnSolve = cfg.OnSolve
	return &Stream{
		cfg: cfg, src: src, steps: steps, stepIdx: stepIdx,
		fp: fp, model: model, sys: sys, stepper: stepper,
		lastPeak: cfg.Params.AmbientC,
	}, nil
}

// Done reports whether the configured interval count has been reached.
func (s *Stream) Done() bool { return s.seq >= s.cfg.Intervals }

// Seq returns the number of completed intervals.
func (s *Stream) Seq() int { return s.seq }

// Samples returns the accumulated per-interval records (all of them,
// including those restored from a checkpoint). Callers must treat the
// slice as read-only.
func (s *Stream) Samples() []StreamSample { return s.samples }

// Throttles counts downward governor steps so far.
func (s *Stream) Throttles() int { return s.throttles }

// MaxPeakC is the hottest instant so far.
func (s *Stream) MaxPeakC() float64 { return s.maxPeak }

// MeanGHz is the time-average frequency over the completed intervals.
func (s *Stream) MeanGHz() float64 {
	if s.seq == 0 {
		return 0
	}
	return s.ghzSum / float64(s.seq)
}

// Next advances one coupling interval: take the source's power at the
// current operating point (leakage evaluated at the last peak) onto
// every die layer, integrate the stack SubSteps backward-Euler steps,
// then let the governor move the operating point for the next
// interval. Ctx is threaded into the power source and the thermal
// solves.
func (s *Stream) Next(ctx context.Context) (StreamSample, error) {
	if s.Done() {
		return StreamSample{}, fmt.Errorf("cosim: stream exhausted after %d intervals", s.seq)
	}
	step := s.steps[s.stepIdx]
	dyn, util, err := s.src.apply(ctx, s.fp, s.seq, step, s.lastPeak)
	if err != nil {
		return StreamSample{}, err
	}
	grid := s.model.Grid
	m := s.fp.PowerMap(grid.NX, grid.NY, grid.W, grid.H)
	for die := 0; die < s.cfg.Chips; die++ {
		copy(s.model.Layers[stack.DieLayer(die)].Power, m)
	}
	if err := s.sys.UpdatePower(); err != nil {
		return StreamSample{}, err
	}
	peak, err := s.stepper.Run(ctx, s.cfg.SubSteps)
	if err != nil {
		return StreamSample{}, err
	}
	s.seq++
	sample := StreamSample{
		Seq:         s.seq,
		TimeS:       s.stepper.Time(),
		FHz:         step.FHz,
		PeakC:       peak,
		DynamicW:    dyn,
		StaticW:     s.cfg.Chip.StaticAt(step, s.lastPeak) * float64(s.cfg.Chips),
		Utilisation: util,
	}
	s.lastPeak = peak
	s.ghzSum += step.GHz()
	if peak > s.maxPeak {
		s.maxPeak = peak
	}
	next := s.cfg.DVFS.next(s.stepIdx, len(s.steps), peak)
	if next < s.stepIdx {
		s.throttles++
		sample.Throttled = true
	}
	s.stepIdx = next
	s.samples = append(s.samples, sample)
	return sample, nil
}

// Checkpoint snapshots the stream between intervals. The snapshot owns
// its slices; the stream can keep running after taking one.
func (s *Stream) Checkpoint() *Checkpoint {
	tc := s.stepper.Checkpoint()
	return &Checkpoint{
		Seq:       s.seq,
		TimeS:     tc.TimeS,
		StepIdx:   s.stepIdx,
		Throttles: s.throttles,
		GHzSum:    s.ghzSum,
		MaxPeakC:  s.maxPeak,
		T:         tc.T,
		Samples:   append([]StreamSample(nil), s.samples...),
	}
}

// Restore rewinds a freshly built stream (same config) to a
// checkpoint. Everything Next consults is restored exactly — the
// temperature field, the governor index, the leakage reference (the
// last sample's peak), and the aggregates — so the continued
// trajectory is bit-identical to one that was never interrupted.
func (s *Stream) Restore(c *Checkpoint) error {
	if c == nil {
		return fmt.Errorf("cosim: nil stream checkpoint")
	}
	if c.Seq < 0 || c.Seq > s.cfg.Intervals {
		return fmt.Errorf("cosim: checkpoint seq %d outside [0,%d]", c.Seq, s.cfg.Intervals)
	}
	if len(c.Samples) != c.Seq {
		return fmt.Errorf("cosim: checkpoint carries %d samples for seq %d", len(c.Samples), c.Seq)
	}
	if c.StepIdx < 0 || c.StepIdx >= len(s.steps) {
		return fmt.Errorf("cosim: checkpoint step index %d outside the VFS table", c.StepIdx)
	}
	for i, smp := range c.Samples {
		if smp.Seq != i+1 {
			return fmt.Errorf("cosim: checkpoint samples not contiguous at %d (seq %d)", i, smp.Seq)
		}
	}
	if err := s.stepper.Restore(&thermal.Checkpoint{TimeS: c.TimeS, T: c.T}); err != nil {
		return err
	}
	s.seq = c.Seq
	s.stepIdx = c.StepIdx
	s.throttles = c.Throttles
	s.ghzSum = c.GHzSum
	s.maxPeak = c.MaxPeakC
	s.lastPeak = s.cfg.Params.AmbientC
	if c.Seq > 0 {
		s.lastPeak = c.Samples[c.Seq-1].PeakC
	}
	s.samples = append([]StreamSample(nil), c.Samples...)
	return nil
}
