// Package fullsys assembles the complete simulated machine — the
// gem5 role in the paper's tool chain: N stacked chips of 4 cores +
// 12 L2 banks each (Table 1), the MOESI directory hierarchy and 3-D
// mesh from packages coherence and noc, and cpu cores executing the
// synthetic NPB streams of package npb. NewMachine builds and starts
// the machine, and its Activity is the one mapping from the hardware
// counters to the McPAT model's activity. Run drives a machine to
// completion and returns the simulated execution time plus those
// counters; package cosim drives the same machine interval by interval.
package fullsys

import (
	"fmt"

	"waterimm/internal/coherence"
	"waterimm/internal/cpu"
	"waterimm/internal/mcpat"
	"waterimm/internal/noc"
	"waterimm/internal/npb"
	"waterimm/internal/sim"
)

// Config describes one simulation run.
type Config struct {
	// Chips is the stack depth; threads = 4 × Chips (24 or 32 in the
	// paper's 6- and 8-chip experiments).
	Chips int
	// FHz is the common operating frequency chosen by the planner.
	FHz float64
	// Benchmark is the workload.
	Benchmark npb.Benchmark
	// Scale multiplies the per-thread op count (1.0 = full class).
	Scale float64
	// Seed makes runs reproducible.
	Seed int64
	// BarrierOverheadCycles is the idealised barrier release cost.
	BarrierOverheadCycles int
	// Prefetch enables the L1 next-line prefetcher (ablation knob;
	// the Table 1 baseline runs without it).
	Prefetch bool
	// MemoryBarriers replaces the idealised barrier with the real
	// in-memory sense-reversing protocol (ablation knob).
	MemoryBarriers bool
	// AffinityHome homes private-region lines on the owning thread's
	// chip (NUCA ablation knob; the Table 1 baseline interleaves).
	AffinityHome bool
	// MaxEvents guards against runaway simulations (0 = default).
	MaxEvents uint64
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.BarrierOverheadCycles <= 0 {
		c.BarrierOverheadCycles = 120
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 500_000_000
	}
	return c
}

// Result summarises a run.
type Result struct {
	Benchmark string
	Chips     int
	Threads   int
	FHz       float64
	// Seconds is the simulated execution time (last thread's finish).
	Seconds float64
	// Activity aggregates the counters for mcpat.DynamicPower.
	Activity mcpat.Activity
	// L1Hits / L1Misses aggregate over all cores.
	L1Hits, L1Misses uint64
	// Prefetches / PrefetchHits aggregate the next-line prefetcher's
	// activity when enabled.
	Prefetches, PrefetchHits uint64
	// BarrierSpins counts release-flag polls when MemoryBarriers is
	// enabled.
	BarrierSpins uint64
	// Barriers is the number of completed barrier episodes.
	Barriers uint64
	// NoC is the mesh's traffic summary.
	NoC noc.Stats
	// StallFraction is the mean share of core time spent in memory
	// stalls — the quantity that caps frequency scaling for the
	// memory-bound kernels.
	StallFraction float64
}

// Machine is a built and started simulated machine: the event kernel,
// the coherence hierarchy and mesh, the core clock, the barrier group
// and one core per thread. Run drives it to completion; the
// co-simulator drives its kernel one coupling interval at a time.
type Machine struct {
	Kernel *sim.Kernel
	// Clock is the core clock; the co-simulator's governor retunes it.
	Clock *cpu.Clock

	sys     *coherence.System
	barrier *cpu.BarrierGroup
	// memBarrier is nil unless Config.MemoryBarriers is set.
	memBarrier *cpu.MemBarrier
	cores      []*cpu.Core
}

// NewMachine builds cfg's machine and starts every core. stream, when
// non-nil, supplies thread t's op stream (of threads); nil runs one
// pass of cfg.Benchmark on every thread.
func NewMachine(cfg Config, stream func(t, threads int) cpu.Stream) (*Machine, error) {
	cfg = cfg.withDefaults()
	if cfg.Chips < 1 {
		return nil, fmt.Errorf("fullsys: need at least one chip")
	}
	if err := cfg.Benchmark.Validate(); err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	ccfg := coherence.DefaultConfig(cfg.Chips, cfg.FHz)
	ccfg.L1PrefetchNextLine = cfg.Prefetch
	ccfg.AffinityHome = cfg.AffinityHome
	sys, err := coherence.New(k, ccfg)
	if err != nil {
		return nil, err
	}
	threads := sys.Cfg.Cores()
	clock := cpu.NewClock(cfg.FHz)
	m := &Machine{
		Kernel: k, Clock: clock, sys: sys,
		barrier: cpu.NewBarrierGroup(k, threads, sim.Time(cfg.BarrierOverheadCycles)*clock.Cycle()),
		cores:   make([]*cpu.Core, threads),
	}
	if cfg.MemoryBarriers {
		m.memBarrier = cpu.NewMemBarrier(threads)
	}
	if stream == nil {
		stream = func(t, threads int) cpu.Stream { return cfg.Benchmark.Stream(t, threads, cfg.Seed, cfg.Scale) }
	}
	for t := 0; t < threads; t++ {
		m.cores[t] = cpu.NewCore(t, k, sys.L1s[t], clock, stream(t, threads), m.barrier)
		if m.memBarrier != nil {
			m.cores[t].UseMemBarrier(m.memBarrier)
		}
		m.cores[t].Start()
	}
	return m, nil
}

// Done reports whether every core has finished its stream.
func (m *Machine) Done() bool {
	for _, c := range m.cores {
		if !c.Done {
			return false
		}
	}
	return true
}

// Finish is the latest finish time of any core so far.
func (m *Machine) Finish() sim.Time {
	var finish sim.Time
	for _, c := range m.cores {
		finish = max(finish, c.Stats.FinishedAt)
	}
	return finish
}

// Activity returns the cumulative event counters McPAT consumes:
// committed instructions, L1, L2-bank and DRAM accesses, and NoC
// flit-hops. Cycles is left zero for the caller, which knows the span
// the counters cover; an interval's activity is the difference of two
// readings (mcpat.Activity.Sub).
func (m *Machine) Activity() mcpat.Activity {
	var a mcpat.Activity
	for _, c := range m.cores {
		a.Instructions += c.Stats.Instructions
	}
	for _, l1 := range m.sys.L1s {
		a.L1Accesses += l1.Stats.Loads + l1.Stats.Stores
	}
	for _, b := range m.sys.Banks {
		a.L2Accesses += b.Stats.GetS + b.Stats.GetM + b.Stats.PutM
	}
	for _, mc := range m.sys.MCs {
		a.DRAMAccesses += mc.Stats.Reads + mc.Stats.Writes
	}
	a.NoCFlitHops = m.sys.Mesh.Stats.FlitHops
	return a
}

// Run executes the configuration to completion.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	m, err := NewMachine(cfg, nil)
	if err != nil {
		return Result{}, err
	}
	for m.Kernel.Step() {
		if m.Kernel.Executed > cfg.MaxEvents {
			return Result{}, fmt.Errorf("fullsys: %s on %d chips exceeded %d events; likely livelock",
				cfg.Benchmark.Name, cfg.Chips, cfg.MaxEvents)
		}
	}
	var stall, busy float64
	for _, c := range m.cores {
		if !c.Done {
			return Result{}, fmt.Errorf("fullsys: core %d never finished (barrier deadlock?)", c.ID)
		}
		stall += float64(c.Stats.StallFS)
		busy += float64(c.Stats.FinishedAt)
	}
	sys, finish := m.sys, m.Finish()
	res := Result{
		Benchmark: cfg.Benchmark.Name,
		Chips:     cfg.Chips,
		Threads:   len(m.cores),
		FHz:       cfg.FHz,
		Seconds:   finish.Seconds(),
		Activity:  m.Activity(),
		NoC:       sys.Mesh.Stats,
		Barriers:  m.barrier.Episodes,
	}
	res.Activity.Cycles = uint64(float64(finish) / float64(m.Clock.Cycle()))
	if m.memBarrier != nil {
		res.BarrierSpins = m.memBarrier.Spins
	}
	if busy > 0 {
		res.StallFraction = stall / busy
	}
	for _, l1 := range sys.L1s {
		res.L1Hits += l1.Stats.Hits
		res.L1Misses += l1.Stats.Misses
		res.Prefetches += l1.Stats.Prefetches
		res.PrefetchHits += l1.Stats.PrefetchHits
	}
	if err := sys.CheckInvariants(); err != nil {
		return Result{}, fmt.Errorf("fullsys: post-run invariant violation: %w", err)
	}
	return res, nil
}
