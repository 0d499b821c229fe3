// Command thermalmap solves one stack configuration and renders the
// per-die temperature fields (Figures 9, 16, 18).
//
// Usage:
//
//	thermalmap [-chip hf] [-chips 4] [-coolant water] [-ghz 3.6] [-flip] [-csv]
package main

import (
	"flag"
	"fmt"
	"os"

	"waterimm/internal/core"
	"waterimm/internal/material"
	"waterimm/internal/power"
	"waterimm/internal/report"
	"waterimm/internal/stack"
)

var (
	flagChip    = flag.String("chip", "hf", "chip model: lp, hf, e5, phi")
	flagChips   = flag.Int("chips", 4, "stack depth")
	flagCoolant = flag.String("coolant", "water", "coolant name")
	flagGHz     = flag.Float64("ghz", 3.6, "operating frequency in GHz")
	flagFlip    = flag.Bool("flip", false, "rotate even layers by 180 degrees")
	flagCSV     = flag.Bool("csv", false, "emit per-cell CSV instead of ASCII maps")
)

func main() {
	flag.Parse()
	chip, err := power.ModelByName(power.CanonicalName(*flagChip))
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermalmap:", err)
		os.Exit(1)
	}
	coolant, err := material.ByName(*flagCoolant)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermalmap:", err)
		os.Exit(1)
	}
	res, err := core.SolveMap(chip, *flagChips, coolant, *flagGHz*1e9, *flagFlip)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermalmap:", err)
		os.Exit(1)
	}
	nx, ny := res.Model.Grid.NX, res.Model.Grid.NY
	fmt.Printf("%s, %d chips, %s, %.1f GHz, flip=%v: peak %.1f C\n",
		chip.Name, *flagChips, coolant.Name, *flagGHz, *flagFlip, res.Max())
	for die := 0; die < *flagChips; die++ {
		layer := stack.DieLayer(die)
		field := res.LayerMap(layer)
		if *flagCSV {
			var rows [][]string
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					rows = append(rows, []string{
						fmt.Sprint(die + 1), fmt.Sprint(i), fmt.Sprint(j),
						report.F(field[j*nx+i], 2),
					})
				}
			}
			report.CSV(os.Stdout, []string{"die", "x", "y", "tempC"}, rows)
			continue
		}
		fmt.Printf("-- die %d: max %.1f C, min %.1f C --\n", die+1,
			res.LayerMax(layer), res.LayerMin(layer))
		report.Heatmap(os.Stdout, field, nx, ny)
	}
}
