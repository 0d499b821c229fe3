package fullsys

import (
	"testing"

	"waterimm/internal/mcpat"
	"waterimm/internal/npb"
	"waterimm/internal/sim"
)

func TestSmokeAllBenchmarks(t *testing.T) {
	for _, b := range npb.Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			res, err := Run(Config{Chips: 2, FHz: 2.0e9, Benchmark: b, Scale: 0.1, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%-3s  %.3f ms  stall=%.2f  l1miss=%.3f  dram=%d  flit-hops=%d",
				b.Name, res.Seconds*1e3, res.StallFraction,
				float64(res.L1Misses)/float64(res.L1Hits+res.L1Misses),
				res.Activity.DRAMAccesses, res.Activity.NoCFlitHops)
			if res.Seconds <= 0 {
				t.Fatal("no simulated time elapsed")
			}
		})
	}
}

func TestFrequencyScaling(t *testing.T) {
	// EP (compute-bound) must scale ~linearly with frequency; IS
	// (memory-bound) must scale clearly sub-linearly.
	ep, _ := npb.ByName("ep")
	is, _ := npb.ByName("is")
	speedup := func(b npb.Benchmark) float64 {
		lo, err := Run(Config{Chips: 2, FHz: 1.2e9, Benchmark: b, Scale: 0.2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		hi, err := Run(Config{Chips: 2, FHz: 3.6e9, Benchmark: b, Scale: 0.2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return lo.Seconds / hi.Seconds
	}
	epS, isS := speedup(ep), speedup(is)
	t.Logf("3x frequency: ep speedup=%.2f is speedup=%.2f", epS, isS)
	if epS < 2.5 {
		t.Errorf("ep should be frequency-bound, got speedup %.2f", epS)
	}
	if isS > epS-0.3 {
		t.Errorf("is should saturate vs ep: is=%.2f ep=%.2f", isS, epS)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		b, _ := npb.ByName("ft")
		res, err := Run(Config{Chips: 2, FHz: 2.0e9, Benchmark: b, Scale: 0.15, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Seconds != b.Seconds || a.Activity != b.Activity {
		t.Errorf("identical configs diverged: %+v vs %+v", a, b)
	}
}

func TestPrefetcherHelpsStridedKernel(t *testing.T) {
	// LU streams words sequentially: the next-line prefetcher must
	// convert a visible share of its misses and speed it up.
	lu, _ := npb.ByName("lu")
	base, err := Run(Config{Chips: 2, FHz: 2.0e9, Benchmark: lu, Scale: 0.4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Run(Config{Chips: 2, FHz: 2.0e9, Benchmark: lu, Scale: 0.4, Seed: 1, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("lu: base %.3f ms (miss %.4f), prefetch %.3f ms (miss %.4f, %d issued, %d hits)",
		base.Seconds*1e3, missRate(base), pf.Seconds*1e3, missRate(pf),
		pf.Prefetches, pf.PrefetchHits)
	if pf.Prefetches == 0 || pf.PrefetchHits == 0 {
		t.Fatal("prefetcher never engaged")
	}
	if pf.Seconds >= base.Seconds {
		t.Errorf("prefetch should speed up lu: %.4f ms vs %.4f ms", pf.Seconds*1e3, base.Seconds*1e3)
	}
	if base.Prefetches != 0 {
		t.Error("baseline must not prefetch")
	}
}

func missRate(r Result) float64 {
	return float64(r.L1Misses) / float64(r.L1Hits+r.L1Misses)
}

func TestMemoryBarrierAblation(t *testing.T) {
	// LU barriers every 250 ops: the real in-memory barrier must cost
	// measurable extra time over the idealised one and generate spin
	// traffic, while still completing correctly.
	lu, _ := npb.ByName("lu")
	ideal, err := Run(Config{Chips: 2, FHz: 2.0e9, Benchmark: lu, Scale: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Run(Config{Chips: 2, FHz: 2.0e9, Benchmark: lu, Scale: 0.3, Seed: 1, MemoryBarriers: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("lu: ideal %.3f ms, memory barrier %.3f ms (%d spins)",
		ideal.Seconds*1e3, mem.Seconds*1e3, mem.BarrierSpins)
	if mem.BarrierSpins == 0 {
		t.Fatal("memory barrier produced no spin traffic")
	}
	if mem.Seconds <= ideal.Seconds {
		t.Errorf("real barrier should cost time: %.4f vs %.4f ms", mem.Seconds*1e3, ideal.Seconds*1e3)
	}
	if ideal.BarrierSpins != 0 {
		t.Error("idealised run must not spin")
	}
}

func TestAffinityHomeCutsNoCTraffic(t *testing.T) {
	// SP's traffic is ~94% private: homing those lines on the owning
	// chip must cut flit-hops substantially without changing results.
	sp, _ := npb.ByName("sp")
	base, err := Run(Config{Chips: 4, FHz: 2.0e9, Benchmark: sp, Scale: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	aff, err := Run(Config{Chips: 4, FHz: 2.0e9, Benchmark: sp, Scale: 0.3, Seed: 1, AffinityHome: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sp flit-hops: interleaved %d, affinity %d (%.0f%%); time %.3f -> %.3f ms",
		base.Activity.NoCFlitHops, aff.Activity.NoCFlitHops,
		100*float64(aff.Activity.NoCFlitHops)/float64(base.Activity.NoCFlitHops),
		base.Seconds*1e3, aff.Seconds*1e3)
	if aff.Activity.NoCFlitHops >= base.Activity.NoCFlitHops {
		t.Errorf("affinity homes must cut flit-hops: %d vs %d",
			aff.Activity.NoCFlitHops, base.Activity.NoCFlitHops)
	}
	if aff.Seconds >= base.Seconds {
		t.Errorf("shorter home trips should speed sp up: %.4f vs %.4f ms",
			aff.Seconds*1e3, base.Seconds*1e3)
	}
}

func TestWeakScaling(t *testing.T) {
	// Doubling chips doubles threads at fixed per-thread work: EP
	// (embarrassingly parallel) must not slow down materially, and
	// per-thread instruction counts must stay constant.
	ep, _ := npb.ByName("ep")
	var prev Result
	for i, chips := range []int{2, 4, 8} {
		res, err := Run(Config{Chips: chips, FHz: 2.0e9, Benchmark: ep, Scale: 0.2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		perThread := float64(res.Activity.Instructions) / float64(res.Threads)
		t.Logf("%d chips (%d threads): %.3f ms, %.0f instr/thread",
			chips, res.Threads, res.Seconds*1e3, perThread)
		if i > 0 {
			if res.Seconds > prev.Seconds*1.5 {
				t.Errorf("EP weak scaling broke: %.4f ms at %d chips vs %.4f ms",
					res.Seconds*1e3, chips, prev.Seconds*1e3)
			}
		}
		prev = res
	}
}

func TestRunValidation(t *testing.T) {
	ep, _ := npb.ByName("ep")
	if _, err := Run(Config{Chips: 0, FHz: 2.0e9, Benchmark: ep}); err == nil {
		t.Error("zero chips must error")
	}
	bad := ep
	bad.ComputePerMemOp = 0
	if _, err := Run(Config{Chips: 1, FHz: 2.0e9, Benchmark: bad}); err == nil {
		t.Error("invalid benchmark must error")
	}
	if _, err := Run(Config{Chips: 1, FHz: 2.0e9, Benchmark: ep, Scale: 0.05, MaxEvents: 10}); err == nil {
		t.Error("tiny event budget must trip the livelock guard")
	}
}

// TestMachineIntervalsSumToRun drives a Machine the way the
// co-simulator does — a fixed slice of simulated time at a time — and
// checks that the interval activities (Activity().Sub of consecutive
// readings) add up to Run's counters, and the last finish to Run's
// execution time.
func TestMachineIntervalsSumToRun(t *testing.T) {
	cg, _ := npb.ByName("cg")
	cfg := Config{Chips: 2, FHz: 2.4e9, Benchmark: cg, Scale: 0.05, Seed: 1}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum mcpat.Activity
	prev := m.Activity()
	intervals := 0
	for deadline := sim.Time(0); !m.Done(); intervals++ {
		deadline += 2 * sim.Microsecond
		m.Kernel.RunFor(deadline)
		cur := m.Activity()
		d := cur.Sub(prev)
		sum.Instructions += d.Instructions
		sum.L1Accesses += d.L1Accesses
		sum.L2Accesses += d.L2Accesses
		sum.DRAMAccesses += d.DRAMAccesses
		sum.NoCFlitHops += d.NoCFlitHops
		prev = cur
	}
	if intervals < 2 {
		t.Fatalf("run finished in %d interval(s); the check needs several", intervals)
	}
	want.Activity.Cycles = 0
	if sum != want.Activity {
		t.Errorf("interval activities sum to %+v, Run counted %+v", sum, want.Activity)
	}
	if got := m.Finish().Seconds(); got != want.Seconds {
		t.Errorf("machine finished at %v s, Run at %v s", got, want.Seconds)
	}
}
