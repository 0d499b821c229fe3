// Command cosim runs the activity-driven performance↔thermal
// co-simulation and prints (or CSVs) the trace: per-interval
// frequency, dynamic/static power and peak temperature, plus the
// comparison against the static planner's worst case.
//
// Usage:
//
//	cosim [-chip hf] [-bench ep] [-chips 4] [-coolant water] [-ghz 3.6]
//	      [-interval 100e-6] [-duration 4e-3] [-dvfs 80] [-csv]
package main

import (
	"flag"
	"fmt"
	"os"

	"waterimm/internal/cosim"
	"waterimm/internal/material"
	"waterimm/internal/npb"
	"waterimm/internal/power"
	"waterimm/internal/report"
	"waterimm/internal/stack"
)

var (
	flagBench    = flag.String("bench", "ep", "NPB kernel")
	flagChips    = flag.Int("chips", 4, "stack depth")
	flagCoolant  = flag.String("coolant", "water", "coolant name")
	flagGHz      = flag.Float64("ghz", 0, "initial core frequency, a VFS step of the chip (0 = its top step)")
	flagChip     = flag.String("chip", "hf", "chip model: lp, hf")
	flagInterval = flag.Float64("interval", 100e-6, "thermal coupling interval in seconds")
	flagDuration = flag.Float64("duration", 4e-3, "looped run duration in seconds (0 = single pass)")
	flagScale    = flag.Float64("scale", 0.3, "workload scale")
	flagDVFS     = flag.Float64("dvfs", 0, "enable the governor with this setpoint in C (0 = off)")
	flagGrid     = flag.Int("grid", 32, "thermal grid resolution")
	flagCSV      = flag.Bool("csv", false, "emit the trace as CSV")
)

func main() {
	flag.Parse()
	bench, err := npb.ByName(*flagBench)
	fail(err)
	coolant, err := material.ByName(*flagCoolant)
	fail(err)
	chip, err := power.ModelByName(power.CanonicalName(*flagChip))
	fail(err)
	fHz := *flagGHz * 1e9
	if fHz == 0 {
		steps := chip.Steps()
		fHz = steps[len(steps)-1].FHz
	}

	params := stack.DefaultParams()
	params.GridNX, params.GridNY = *flagGrid, *flagGrid
	cfg := cosim.Config{
		Chip: chip, Chips: *flagChips, Coolant: coolant, Params: params,
		Benchmark: bench, Scale: *flagScale, Seed: 1,
		FHz: fHz, IntervalS: *flagInterval, DurationS: *flagDuration,
	}
	if *flagDVFS > 0 {
		cfg.DVFS = &cosim.DVFSPolicy{SetpointC: *flagDVFS, HysteresisC: 1}
	}
	res, err := cosim.Run(cfg)
	fail(err)

	headers := []string{"t (ms)", "GHz", "dyn W", "static W", "GIPS", "peak C"}
	var rows [][]string
	for _, s := range res.Samples {
		rows = append(rows, []string{
			report.F(s.TimeS*1e3, 3),
			report.F(s.FHz/1e9, 1),
			report.F(s.DynamicW, 1),
			report.F(s.StaticW, 1),
			report.F(s.IPS/1e9, 2),
			report.F(s.PeakC, 2),
		})
	}
	if *flagCSV {
		report.CSV(os.Stdout, headers, rows)
		return
	}
	fmt.Printf("%s on %d-chip %s stack under %s, interval %.0f us\n",
		bench.Name, *flagChips, chip.Name, coolant.Name, *flagInterval*1e6)
	report.Table(os.Stdout, headers, rows)
	fmt.Printf("\ntransient peak %.2f C vs static worst case %.2f C\n", res.MaxPeakC, res.SteadyPlannerPeakC)
	if res.Iterations > 0 {
		fmt.Printf("workload iterations: %d, mean frequency %.2f GHz, throttles %d\n",
			res.Iterations, res.MeanGHz, res.Throttles)
	}
}

func fail(err error) {
	if err != nil {
		// Every package's errors already name it ("cosim: ...").
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
