package service

import (
	"fmt"

	"waterimm/internal/api"
)

// reduceAudit reduces the roadmap cells, in (chip, coolant, year)
// order, to each (chip, coolant) series' first failing year. The cells
// are canonical perturbed plan requests, so identical years across
// audits, prior Monte-Carlo draws and the result cache all collapse
// into cache/dedup hits.
//
// The CHF comparison (hotspot power density vs the coolant's boiling
// limit) is recomputed here with runPlan's own planner and check rather
// than trusted from the cell responses: plan cells share the long-lived
// plan cache keyspace, so a cell may be served from a response cached
// before the two-phase fields existed. The recompute is a
// rasterization, not a solve — microseconds against the cell's
// milliseconds — and makes the audit verdict deterministic regardless
// of cache age. A coolant that cannot boil still reports its hotspot,
// against no limit.
func (e *Engine) reduceAudit(req *api.AuditRequest, cells []*api.PlanRequest, res []cellResult) (*api.AuditResponse, error) {
	resp := &api.AuditResponse{
		StartYear:     req.StartYear,
		EndYear:       req.EndYear,
		GrowthPerYear: req.GrowthPerYear,
		TotalCells:    len(res),
	}
	resp.CachedCells, resp.DedupedCells = tally(res)
	years := req.EndYear - req.StartYear + 1
	for i, cell := range cells {
		y := i % years
		if y == 0 {
			resp.Rows = append(resp.Rows, api.AuditRow{Chip: cell.Chip, Coolant: cell.Coolant, Years: make([]api.AuditYear, 0, years)})
		}
		row := &resp.Rows[len(resp.Rows)-1]
		plan := res[i].Plan
		year := req.StartYear + y
		p, chip, coolant, err := e.stackPlanner(cell)
		if err != nil {
			return nil, fmt.Errorf("service: audit cell %d/%d: %w", i+1, len(cells), err)
		}
		applyRequest(p, &coolant, cell)
		// Every audit cell pins its eval step, so this is the step
		// runPlan checked.
		hotspot, limit, exceeded, err := hotspotCHF(p, chip, coolant, cell.EvalGHz*1e9)
		if err != nil {
			return nil, fmt.Errorf("service: audit cell %d/%d: %w", i+1, len(cells), err)
		}
		row.Years = append(row.Years, api.AuditYear{
			Year: year, Scale: req.YearScale(year),
			Feasible:         plan.Feasible,
			FrequencyGHz:     plan.FrequencyGHz,
			EvalPeakC:        plan.EvalPeakC,
			FilmBoilingCells: plan.FilmBoilingCells,
			HotspotWCM2:      hotspot / 1e4,
			CHFLimitWCM2:     limit / 1e4,
			CHFExceeded:      exceeded,
		})
		if exceeded && row.FirstCHFFailYear == 0 {
			row.FirstCHFFailYear = year
		}
		if !plan.Feasible && row.FirstThermalFailYear == 0 {
			row.FirstThermalFailYear = year
		}
		row.FirstFailYear = firstOf(row.FirstCHFFailYear, row.FirstThermalFailYear)
	}
	return resp, nil
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
