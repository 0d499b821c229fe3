// Package cosim couples the full-system performance simulator (the
// machine package fullsys builds) with the transient thermal model at
// a fixed wall-clock interval — the gem5 ↔ HotSpot transient
// co-simulation that the paper's worst-case methodology deliberately
// avoids (Section 4.3) and its related work discusses (3D-ICE,
// FloTHERM). Every interval:
//
//  1. the event kernel advances the workload by Δt of simulated time;
//  2. the interval's architectural activity (instructions, cache and
//     DRAM accesses, flit-hops) becomes dynamic power through the
//     McPAT-style energy model, distributed over the floorplan with
//     the activity split between core and memory components;
//  3. the backward-Euler stepper advances the stack's temperature
//     field by Δt;
//  4. an optional core-DVFS governor throttles or restores the core
//     clock against a temperature setpoint (the uncore keeps its
//     construction clock, as on parts with a fixed uncore domain).
//
// The result is a time series of (frequency, power, peak temperature)
// and a faithful answer to "does this workload actually hit the
// worst-case temperature the static planner assumed?" — usually it
// does not, which is the headroom DTM exploits.
package cosim

import (
	"context"
	"fmt"
	"math"

	"waterimm/internal/cpu"
	"waterimm/internal/floorplan"
	"waterimm/internal/fullsys"
	"waterimm/internal/material"
	"waterimm/internal/mcpat"
	"waterimm/internal/npb"
	"waterimm/internal/power"
	"waterimm/internal/sim"
	"waterimm/internal/stack"
	"waterimm/internal/thermal"
)

// DVFSPolicy throttles the core clock against a setpoint.
type DVFSPolicy struct {
	SetpointC   float64
	HysteresisC float64
}

// next is the hysteresis governor: given the VFS index of an interval
// that peaked at peakC, it returns the index for the next interval. It
// steps down once the peak enters the band below the setpoint and back
// up only once the peak falls well clear of it; a nil policy holds the
// index.
func (p *DVFSPolicy) next(idx, steps int, peakC float64) int {
	switch {
	case p == nil:
	case peakC > p.SetpointC-p.HysteresisC && idx > 0:
		return idx - 1
	case peakC < p.SetpointC-3*p.HysteresisC && idx < steps-1:
		return idx + 1
	}
	return idx
}

// Config describes a co-simulation run.
type Config struct {
	Chip    power.Model
	Chips   int
	Coolant material.Coolant
	Params  stack.Params

	Benchmark npb.Benchmark
	Scale     float64
	Seed      int64

	// FHz is the initial (and uncore) frequency.
	FHz float64
	// IntervalS is the thermal coupling period in simulated seconds.
	IntervalS float64
	// DVFS, when non-nil, enables the governor.
	DVFS *DVFSPolicy
	// DurationS, when positive, loops the workload (each thread
	// restarts its stream on completion, keeping the per-iteration
	// barrier cadence identical across threads) and runs the
	// co-simulation for this much simulated time, rounded up to whole
	// coupling intervals. Scaled NPB classes
	// finish in microseconds while package thermal constants are
	// milliseconds to seconds; looping is how the trace reaches
	// thermally interesting territory. Zero runs one pass.
	DurationS float64
	// MaxIntervals guards against runaway runs (0 = 1e6).
	MaxIntervals int
	// OnSolve, when non-nil, observes every transient step's CG solve
	// (see thermal.Stepper.OnSolve); the steady reference solve is not
	// reported.
	OnSolve func(thermal.SolveStats)
}

// Sample is one coupling interval's record.
type Sample struct {
	TimeS    float64
	FHz      float64
	PeakC    float64
	DynamicW float64
	StaticW  float64
	// IPS is the interval's aggregate instruction rate.
	IPS float64
}

// loopStream restarts a per-thread stream each time it finishes,
// bumping the seed per iteration so loops do not replay identical
// address sequences. Every thread loops with the same per-iteration
// barrier count, so barrier groups stay matched.
type loopStream struct {
	mk   func(iter int) cpu.Stream
	iter int
	cur  cpu.Stream
	// Iterations counts completed passes.
	Iterations int
}

func (l *loopStream) Next() cpu.Op {
	op := l.cur.Next()
	if op.Kind == cpu.OpDone {
		l.Iterations++
		l.iter++
		l.cur = l.mk(l.iter)
		return l.cur.Next()
	}
	return op
}

// Result is a completed co-simulation.
type Result struct {
	Samples []Sample
	// Seconds is the workload's simulated execution time (for looped
	// runs, the configured duration).
	Seconds float64
	// Iterations counts completed workload passes in looped mode.
	Iterations int
	// MaxPeakC is the hottest instant.
	MaxPeakC float64
	// SteadyPlannerPeakC is the worst-case steady-state peak the
	// static methodology would have assumed for the same operating
	// point, for comparison.
	SteadyPlannerPeakC float64
	// Throttles counts downward DVFS steps.
	Throttles int
	// MeanGHz is the time-average core frequency.
	MeanGHz float64
}

// Run executes the co-simulation to workload completion.
func Run(cfg Config) (*Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run with cooperative cancellation: the context is polled
// inside the event kernel (every few thousand events), inside the
// thermal solves, and between coupling intervals, so a cancelled
// request abandons the co-simulation mid-run. The returned error
// wraps ctx.Err().
//
// The run is a Stream whose power comes from the event kernel rather
// than a utilisation trace, so it shares the trace runs' interval loop
// and governor.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.MaxIntervals == 0 {
		cfg.MaxIntervals = 1_000_000
	}
	if err := cfg.Benchmark.Validate(); err != nil {
		return nil, err
	}
	intervals := cfg.MaxIntervals
	if cfg.DurationS > 0 {
		// Whole intervals covering DurationS: the ratio rounded to
		// nearest within 1e-9 of an integer (3e-3/1e-4 is
		// 29.999999999999996 in binary), its ceiling otherwise.
		r := cfg.DurationS / cfg.IntervalS
		n := math.Round(r)
		if math.Abs(r-n) > 1e-9 {
			n = math.Ceil(r)
		}
		intervals = int(math.Max(1, math.Min(n, float64(cfg.MaxIntervals))))
	}
	st, err := newStream(StreamConfig{
		Chip: cfg.Chip, Chips: cfg.Chips, Coolant: cfg.Coolant, Params: cfg.Params,
		FHz: cfg.FHz, IntervalS: cfg.IntervalS, Intervals: intervals, DVFS: cfg.DVFS,
		OnSolve: cfg.OnSolve,
	}, nil)
	if err != nil {
		return nil, err
	}
	src, err := newKernelSource(cfg)
	if err != nil {
		return nil, err
	}
	st.src = src

	// Static-methodology reference point: the steady field of the
	// stream's own system, assembled at the initial operating point's
	// power, which no interval has touched yet.
	steady, err := st.sys.SolveSteady(thermal.SolveOptions{Ctx: ctx})
	if err != nil {
		return nil, err
	}
	res := &Result{SteadyPlannerPeakC: (&thermal.Result{Model: st.model, T: steady}).Max()}
	for !st.Done() {
		smp, err := st.Next(ctx)
		if err != nil {
			return nil, err
		}
		res.Samples = append(res.Samples, Sample{
			TimeS: smp.TimeS, FHz: smp.FHz, PeakC: smp.PeakC,
			DynamicW: smp.DynamicW, StaticW: smp.StaticW, IPS: src.ips,
		})
		if cfg.DurationS <= 0 && src.m.Done() {
			break
		}
	}
	res.MaxPeakC, res.Throttles, res.MeanGHz = st.MaxPeakC(), st.Throttles(), st.MeanGHz()
	if cfg.DurationS > 0 {
		res.Seconds = st.stepper.Time()
		for _, ls := range src.loops {
			res.Iterations += ls.Iterations
		}
		return res, nil
	}
	if !src.m.Done() {
		return nil, fmt.Errorf("cosim: workload did not finish within %d intervals", cfg.MaxIntervals)
	}
	res.Seconds = src.m.Finish().Seconds()
	return res, nil
}

// kernelSource is the event-kernel power source: it drives
// fullsys's machine, each interval running the workload to the
// interval's end with the core clock at the operating point, and the
// interval's architectural activity becomes dynamic power, distributed
// over the floorplan with the chip's component shares as the spatial
// prior.
type kernelSource struct {
	cfg      Config
	m        *fullsys.Machine
	loops    []*loopStream
	interval sim.Time
	deadline sim.Time
	prev     mcpat.Activity
	// ips is the last interval's aggregate instruction rate.
	ips float64
}

func newKernelSource(cfg Config) (*kernelSource, error) {
	src := &kernelSource{cfg: cfg, interval: sim.Time(cfg.IntervalS * float64(sim.Second))}
	var stream func(t, threads int) cpu.Stream
	if cfg.DurationS > 0 {
		stream = func(t, threads int) cpu.Stream {
			ls := &loopStream{mk: func(iter int) cpu.Stream {
				return cfg.Benchmark.Stream(t, threads, cfg.Seed+int64(iter), cfg.Scale)
			}}
			ls.cur = ls.mk(0)
			src.loops = append(src.loops, ls)
			return ls
		}
	}
	m, err := fullsys.NewMachine(fullsys.Config{
		Chips: cfg.Chips, FHz: cfg.FHz, Benchmark: cfg.Benchmark, Scale: cfg.Scale, Seed: cfg.Seed,
	}, stream)
	if err != nil {
		return nil, err
	}
	src.m, src.prev = m, m.Activity()
	return src, nil
}

// apply runs the interval and spreads the measured per-chip power
// (its dynamic share from the interval's activity, leakage at the last
// peak) over the floorplan's ambient-temperature unit powers.
func (s *kernelSource) apply(ctx context.Context, fp *floorplan.Floorplan, _ int, step power.Step, lastPeakC float64) (float64, float64, error) {
	s.m.Clock.SetFrequency(step.FHz)
	s.deadline += s.interval
	if _, err := s.m.Kernel.RunForCtx(ctx, s.deadline); err != nil {
		return 0, 0, fmt.Errorf("cosim: %w", err)
	}
	cur := s.m.Activity()
	delta := cur.Sub(s.prev)
	delta.Cycles = uint64(float64(s.interval) / float64(s.m.Clock.Cycle()))
	s.prev = cur
	s.ips = float64(delta.Instructions) / s.cfg.IntervalS

	chips := float64(s.cfg.Chips)
	dyn := mcpat.DynamicPower(s.cfg.Chip, step, delta)
	static := s.cfg.Chip.StaticAt(step, lastPeakC) * chips
	perChip := dyn/chips + static/chips
	if err := mcpat.Assign(fp, s.cfg.Chip, step, s.cfg.Params.AmbientC); err != nil {
		return 0, 0, err
	}
	if total := fp.TotalPower(); total > 0 {
		fp.ScalePower(perChip / total)
	}
	return dyn, 1, nil
}
