// Command freqsweep runs the planner's maximum-frequency sweep for
// one chip model across coolants and stack depths (the data behind
// Figures 1, 7, 8 and 17).
//
// Usage:
//
//	freqsweep -chip lp|hf|e5|phi [-chips 15] [-threshold 80] [-flip] [-csv]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"waterimm/internal/core"
	"waterimm/internal/material"
	"waterimm/internal/power"
	"waterimm/internal/report"
)

var (
	flagChip      = flag.String("chip", "lp", "chip model: lp, hf, e5, phi")
	flagChips     = flag.Int("chips", 0, "max stack depth (default: 15 for lp/hf, 4 for e5/phi)")
	flagThreshold = flag.Float64("threshold", 0, "temperature threshold C (default: 80, 78 for e5)")
	flagFlip      = flag.Bool("flip", false, "rotate even layers by 180 degrees")
	flagCSV       = flag.Bool("csv", false, "emit CSV")
)

func main() {
	flag.Parse()
	chip, err := power.ModelByName(power.CanonicalName(*flagChip))
	if err != nil {
		fmt.Fprintln(os.Stderr, "freqsweep:", err)
		os.Exit(1)
	}
	maxChips := *flagChips
	if maxChips == 0 {
		maxChips = 15
		if chip.Name == "e5" || chip.Name == "phi" {
			maxChips = 4
		}
	}
	threshold := *flagThreshold
	if threshold == 0 {
		threshold = 80
		if chip.Name == "e5" {
			threshold = 78
		}
	}
	p := core.NewPlanner()
	p.ThresholdC = threshold
	p.Flip = *flagFlip
	// Batch path: each point's search runs in one session and
	// warm-starts from the session basis.
	plans, err := p.MaxFrequencySweep(chip, maxChips, material.Coolants())
	if err != nil {
		fmt.Fprintln(os.Stderr, "freqsweep:", err)
		os.Exit(1)
	}
	fmt.Printf("max frequency (GHz) vs chips: %s, %.0f C threshold, flip=%v\n",
		chip.Name, threshold, *flagFlip)
	var xlabels []string
	for n := 1; n <= maxChips; n++ {
		xlabels = append(xlabels, fmt.Sprint(n))
	}
	var rows [][]string
	var series []report.Series
	for ci, c := range material.Coolants() {
		cells := []string{c.Name}
		y := make([]float64, maxChips)
		for i, pl := range plans[ci] {
			if pl.Feasible {
				cells = append(cells, report.F(pl.Step.GHz(), 1))
				y[i] = pl.Step.GHz()
			} else {
				cells = append(cells, "-")
				y[i] = math.NaN()
			}
		}
		rows = append(rows, cells)
		series = append(series, report.Series{Name: c.Name, Y: y})
	}
	headers := append([]string{"coolant \\ chips"}, xlabels...)
	if *flagCSV {
		report.CSV(os.Stdout, headers, rows)
		return
	}
	report.Table(os.Stdout, headers, rows)
	fmt.Println()
	report.LineChart(os.Stdout, xlabels, series, 14)
}
