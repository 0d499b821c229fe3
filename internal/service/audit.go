package service

import (
	"fmt"

	"waterimm/internal/api"
	"waterimm/internal/core"
	"waterimm/internal/material"
	"waterimm/internal/power"
	"waterimm/internal/stack"
)

// reduceAudit reduces the roadmap cells, in (chip, coolant, year)
// order, to each (chip, coolant) series' first failing year. The cells
// are canonical perturbed plan requests, so identical years across
// audits, prior Monte-Carlo draws and the result cache all collapse
// into cache/dedup hits.
//
// The CHF comparison (hotspot power density vs the coolant's boiling
// limit) is recomputed here from the floorplan rather than trusted
// from the cell responses: plan cells share the long-lived plan cache
// keyspace, so a cell may be served from a response cached before the
// two-phase fields existed. The recompute is a rasterization, not a
// solve — microseconds against the cell's milliseconds — and makes the
// audit verdict deterministic regardless of cache age.
func (e *Engine) reduceAudit(req *api.AuditRequest, res []cellResult) (*api.AuditResponse, error) {
	resp := &api.AuditResponse{
		StartYear:     req.StartYear,
		EndYear:       req.EndYear,
		GrowthPerYear: req.GrowthPerYear,
		TotalCells:    len(res),
	}
	resp.CachedCells, resp.DedupedCells = tally(res)
	years := req.EndYear - req.StartYear + 1
	i := 0
	for _, chipName := range req.Chips {
		chip, err := power.ModelByName(chipName)
		if err != nil {
			return nil, fmt.Errorf("service: audit: %w", err)
		}
		steps := chip.Steps()
		topFHz := steps[len(steps)-1].FHz
		for _, coolantName := range req.Coolants {
			coolant, err := material.ByName(coolantName)
			if err != nil {
				return nil, fmt.Errorf("service: audit: %w", err)
			}
			row := api.AuditRow{Chip: chipName, Coolant: coolantName, Years: make([]api.AuditYear, 0, years)}
			for y := 0; y < years; y++ {
				plan := res[i].Plan
				year := req.StartYear + y
				scale := req.YearScale(year)
				ay := api.AuditYear{
					Year: year, Scale: scale,
					Feasible:         plan.Feasible,
					FrequencyGHz:     plan.FrequencyGHz,
					EvalPeakC:        plan.EvalPeakC,
					FilmBoilingCells: plan.FilmBoilingCells,
				}
				hotspot, limit, exceeded, err := e.auditCHF(chip, coolant, req, topFHz, scale)
				if err != nil {
					return nil, fmt.Errorf("service: audit cell %d/%d: %w", i+1, len(res), err)
				}
				ay.HotspotWCM2 = hotspot / 1e4
				ay.CHFLimitWCM2 = limit / 1e4
				ay.CHFExceeded = exceeded
				if exceeded && row.FirstCHFFailYear == 0 {
					row.FirstCHFFailYear = year
				}
				if !plan.Feasible && row.FirstThermalFailYear == 0 {
					row.FirstThermalFailYear = year
				}
				row.Years = append(row.Years, ay)
				i++
			}
			row.FirstFailYear = firstOf(row.FirstCHFFailYear, row.FirstThermalFailYear)
			resp.Rows = append(resp.Rows, row)
		}
	}
	return resp, nil
}

// auditCHF evaluates one roadmap point: the chip's hotspot power
// density (W/m²) at its top step under the year's power scale, the
// coolant's scaled CHF limit, and whether the hotspot crosses it. A
// coolant that cannot boil (air) reports limit 0 and never exceeds.
func (e *Engine) auditCHF(chip power.Model, coolant material.Coolant, req *api.AuditRequest, fHz, scale float64) (hotspot, limit float64, exceeded bool, err error) {
	p := core.NewPlanner()
	p.Params.GridNX, p.Params.GridNY = req.GridNX, req.GridNY
	p.Params.CHFScale = e.cfg.CHFScale
	p.DynScale, p.StatScale = scale, scale
	hotspot, err = p.PeakPowerDensity(chip, fHz)
	if err != nil {
		return 0, 0, false, err
	}
	l, ok := stack.CHFLimitFor(p.Params, coolant)
	if !ok {
		return hotspot, 0, false, nil
	}
	return hotspot, l, hotspot > l, nil
}

// firstOf returns the earliest nonzero year, 0 when both are 0.
func firstOf(a, b int) int {
	switch {
	case a == 0:
		return b
	case b == 0:
		return a
	case a < b:
		return a
	}
	return b
}
