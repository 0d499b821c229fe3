package service

import (
	"context"
	"testing"

	"waterimm/internal/api"
	"waterimm/internal/core"
	"waterimm/internal/material"
	"waterimm/internal/power"
	"waterimm/internal/thermal"
)

// auditServiceRequest is the cheapest meaningful audit: one chip, two
// coolants with opposite CHF verdicts (fluorinert's pool limit sits
// far below the low-power hotspot; air cannot boil at all), three
// years, coarse grid.
func auditServiceRequest() *api.AuditRequest {
	return &api.AuditRequest{
		Chips: []string{"lp"}, Coolants: []string{"fluorinert", "air"},
		StartYear: 2026, EndYear: 2028, GrowthPerYear: 1.16,
		GridNX: 8, GridNY: 8,
	}
}

func TestAuditLifecycle(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	req := auditServiceRequest()
	in, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if in.Kind != "audit" {
		t.Fatalf("kind %q", in.Kind)
	}
	if in.Progress == nil || in.Progress.TotalCells != 6 {
		t.Fatalf("initial progress: %+v", in.Progress)
	}
	got := waitDone(t, e, in.ID)
	if got.State != StateDone {
		t.Fatalf("state %s, error %q", got.State, got.Error)
	}
	if got.Progress == nil || got.Progress.DoneCells != got.Progress.TotalCells {
		t.Fatalf("final progress: %+v", got.Progress)
	}
	resp, ok := got.Result.(*api.AuditResponse)
	if !ok {
		t.Fatalf("result type %T", got.Result)
	}
	if resp.TotalCells != 6 || len(resp.Rows) != 2 {
		t.Fatalf("response shape: %+v", resp)
	}
	// Canonical row order is sorted: air before fluorinert.
	air, fluor := resp.Rows[0], resp.Rows[1]
	if air.Coolant != "air" || fluor.Coolant != "fluorinert" {
		t.Fatalf("row order: %s, %s", air.Coolant, fluor.Coolant)
	}
	if air.Chip != "low-power" {
		t.Errorf("alias not canonicalized in row: %q", air.Chip)
	}

	// Air cannot boil: no CHF limit, no CHF failure, ever.
	if air.FirstCHFFailYear != 0 {
		t.Errorf("air first CHF fail year %d, want never", air.FirstCHFFailYear)
	}
	for _, y := range air.Years {
		if y.CHFLimitWCM2 != 0 || y.CHFExceeded {
			t.Errorf("air year %d: limit %g, exceeded %v", y.Year, y.CHFLimitWCM2, y.CHFExceeded)
		}
	}

	// Fluorinert's Zuber limit (~14 W/cm²) sits far below the low-power
	// hotspot (tens of W/cm²), so it fails from the very first year.
	if fluor.FirstCHFFailYear != 2026 {
		t.Errorf("fluorinert first CHF fail year %d, want 2026", fluor.FirstCHFFailYear)
	}
	if fluor.FirstFailYear != 2026 {
		t.Errorf("fluorinert first fail year %d, want 2026", fluor.FirstFailYear)
	}
	for _, y := range fluor.Years {
		if !y.CHFExceeded {
			t.Errorf("fluorinert year %d not CHF-exceeded", y.Year)
		}
		if y.HotspotWCM2 <= y.CHFLimitWCM2 {
			t.Errorf("fluorinert year %d: hotspot %g not above limit %g",
				y.Year, y.HotspotWCM2, y.CHFLimitWCM2)
		}
	}

	// The growth axis is physical: hotspot flux strictly increases year
	// over year, and the per-year scale anchors at 1.
	for _, row := range resp.Rows {
		if len(row.Years) != 3 || row.Years[0].Scale != 1 {
			t.Fatalf("%s year series: %+v", row.Coolant, row.Years)
		}
		for i := 1; i < len(row.Years); i++ {
			if row.Years[i].HotspotWCM2 <= row.Years[i-1].HotspotWCM2 {
				t.Errorf("%s: hotspot not increasing: %g → %g", row.Coolant,
					row.Years[i-1].HotspotWCM2, row.Years[i].HotspotWCM2)
			}
		}
	}

	// A fresh engine computes every cell, so the hotspot counter must
	// tick exactly once per CHF-exceeding cell: fluorinert's three
	// years. The audit's own verdict recompute must not count again.
	m := e.Metrics()
	if m.AuditJobs != 1 {
		t.Errorf("audit_jobs = %d", m.AuditJobs)
	}
	if resp.CachedCells != 0 || resp.DedupedCells != 0 {
		t.Fatalf("fresh engine served %d cached, %d deduped cells", resp.CachedCells, resp.DedupedCells)
	}
	var want uint64
	for _, row := range resp.Rows {
		for _, y := range row.Years {
			if y.CHFExceeded {
				want++
			}
		}
	}
	if want != 3 || m.CHFHotspotExceedances != want {
		t.Errorf("chf_hotspot_exceedances = %d, want %d (one per computed CHF-exceeding cell)", m.CHFHotspotExceedances, want)
	}
	if m.CHFBoundaryCells != 0 {
		t.Errorf("chf_boundary_cells = %d at the stock CHF limit, want 0", m.CHFBoundaryCells)
	}
}

// TestAuditMatchesItsCells: an audit year's CHF verdict is its own
// plan cell's. At a threshold other than the planner default the
// hotspot moves with it (leakage is evaluated at the threshold), so a
// verdict computed on any other planner drifts from the cell's.
func TestAuditMatchesItsCells(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	req := &api.AuditRequest{
		Chips: []string{"lp"}, Coolants: []string{"fluorinert"},
		StartYear: 2026, EndYear: 2027, GrowthPerYear: 1.16,
		ThresholdC: 95, GridNX: 8, GridNY: 8,
	}
	in, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, e, in.ID)
	if got.State != StateDone {
		t.Fatalf("state %s, error %q", got.State, got.Error)
	}
	years := got.Result.(*api.AuditResponse).Rows[0].Years
	cells := req.Cells()
	if len(years) != len(cells) {
		t.Fatalf("%d audit years for %d cells", len(years), len(cells))
	}
	for i, cell := range cells {
		in, err := e.Submit(cell)
		if err != nil {
			t.Fatal(err)
		}
		plan := waitDone(t, e, in.ID).Result.(*api.PlanResponse)
		y := years[i]
		if y.HotspotWCM2 != plan.HotspotWCM2 || y.CHFLimitWCM2 != plan.CHFLimitWCM2 || y.CHFExceeded != plan.CHFExceeded {
			t.Errorf("year %d: audit hotspot %g, limit %g, exceeded %v; its cell %g, %g, %v",
				y.Year, y.HotspotWCM2, y.CHFLimitWCM2, y.CHFExceeded,
				plan.HotspotWCM2, plan.CHFLimitWCM2, plan.CHFExceeded)
		}
	}
}

// TestAuditRepeatCached: an identical audit — even spelled with
// different aliases — is answered from the whole-job result cache
// without re-running the orchestrator.
func TestAuditRepeatCached(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	first, err := e.Submit(auditServiceRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, first.ID)

	again := auditServiceRequest()
	again.Chips = []string{"low-power"} // alias spelling, same canonical form
	in, err := e.Submit(again)
	if err != nil {
		t.Fatal(err)
	}
	if !in.CacheHit || in.State != StateDone {
		t.Fatalf("repeat audit not served from cache: %+v", in)
	}
	m := e.Metrics()
	if m.AuditJobs != 1 {
		t.Errorf("audit_jobs = %d after cached repeat, want 1", m.AuditJobs)
	}
	if m.CHFHotspotExceedances != 3 {
		t.Errorf("chf_hotspot_exceedances = %d after cached repeat, want 3", m.CHFHotspotExceedances)
	}

	// One more year: the three earlier years per coolant are cell-cache
	// hits and must not count again; only fluorinert's new year does.
	longer := auditServiceRequest()
	longer.EndYear = 2029
	in, err = e.Submit(longer)
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, e, in.ID)
	if got.State != StateDone {
		t.Fatalf("state %s, error %q", got.State, got.Error)
	}
	if resp := got.Result.(*api.AuditResponse); resp.CachedCells != 6 {
		t.Fatalf("extended audit reused %d cells, want 6", resp.CachedCells)
	}
	if m := e.Metrics(); m.CHFHotspotExceedances != 4 {
		t.Errorf("chf_hotspot_exceedances = %d after one new exceeding cell, want 4", m.CHFHotspotExceedances)
	}
}

// TestAuditCHFScaleFlipsVerdict is the acceptance check: artificially
// moving the CHF limit must move the first failing year. Water holds
// the low-power hotspot for some years at the literature limit; a
// collapsed limit fails it immediately, an inflated one never.
func TestAuditCHFScaleFlipsVerdict(t *testing.T) {
	water := func(scale float64) api.AuditRow {
		e := New(Config{CHFScale: scale})
		defer e.Close()
		req := &api.AuditRequest{
			Chips: []string{"lp"}, Coolants: []string{"water"},
			StartYear: 2026, EndYear: 2033, GrowthPerYear: 1.16,
			GridNX: 8, GridNY: 8,
		}
		in, err := e.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		got := waitDone(t, e, in.ID)
		if got.State != StateDone {
			t.Fatalf("scale %g: state %s, error %q", scale, got.State, got.Error)
		}
		return got.Result.(*api.AuditResponse).Rows[0]
	}

	nominal := water(0) // 0 = literature limit
	lowered := water(1e-3)
	raised := water(1e3)

	if lowered.FirstCHFFailYear != 2026 {
		t.Errorf("collapsed limit: first CHF fail year %d, want 2026", lowered.FirstCHFFailYear)
	}
	if raised.FirstCHFFailYear != 0 {
		t.Errorf("inflated limit: first CHF fail year %d, want never", raised.FirstCHFFailYear)
	}
	if nominal.FirstCHFFailYear != 0 && nominal.FirstCHFFailYear <= lowered.FirstCHFFailYear {
		t.Errorf("nominal first CHF fail year %d not after collapsed-limit year %d",
			nominal.FirstCHFFailYear, lowered.FirstCHFFailYear)
	}
	// The verdict must actually flip across the scale sweep.
	if lowered.FirstCHFFailYear == raised.FirstCHFFailYear {
		t.Error("CHF scale sweep did not move the first failing year")
	}
}

// TestPlanReportsCHF: a plain plan request carries the hotspot/CHF
// verdict on its response, so audit semantics are visible without the
// orchestrator.
func TestPlanReportsCHF(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	in, err := e.Submit(&api.PlanRequest{
		Chip: "lp", Chips: 1, Coolant: "fluorinert",
		GridNX: 8, GridNY: 8, EvalGHz: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, e, in.ID)
	if got.State != StateDone {
		t.Fatalf("state %s, error %q", got.State, got.Error)
	}
	resp := got.Result.(*api.PlanResponse)
	if resp.HotspotWCM2 <= 0 || resp.CHFLimitWCM2 <= 0 {
		t.Fatalf("missing CHF fields: %+v", resp)
	}
	if !resp.CHFExceeded {
		t.Errorf("fluorinert hotspot %g W/cm² vs limit %g W/cm² not flagged",
			resp.HotspotWCM2, resp.CHFLimitWCM2)
	}
	if m := e.Metrics(); m.CHFHotspotExceedances != 1 || m.CHFBoundaryCells != 0 {
		t.Errorf("chf_hotspot_exceedances = %d, chf_boundary_cells = %d; want 1, 0",
			m.CHFHotspotExceedances, m.CHFBoundaryCells)
	}

	// Air never has a limit to cross.
	in, err = e.Submit(&api.PlanRequest{
		Chip: "lp", Chips: 1, Coolant: "air",
		GridNX: 8, GridNY: 8, EvalGHz: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	got = waitDone(t, e, in.ID)
	resp = got.Result.(*api.PlanResponse)
	if resp.CHFLimitWCM2 != 0 || resp.CHFExceeded {
		t.Errorf("air plan carries CHF verdict: %+v", resp)
	}
}

// TestPlanFilmBoilingDegrades: with the CHF limit collapsed far below
// the operating flux, the solver-side two-phase re-solve must engage —
// film-boiling cells appear and the reported peak runs hotter than the
// single-phase answer. With the junction threshold pinned just above
// the single-phase peak, the vapor-blanketed boundary must then cost
// the plan its chosen step: slower frequency or outright infeasible.
func TestPlanFilmBoilingDegrades(t *testing.T) {
	plan := func(scale, thresholdC float64) *api.PlanResponse {
		e := New(Config{CHFScale: scale})
		defer e.Close()
		in, err := e.Submit(&api.PlanRequest{
			Chip: "lp", Chips: 1, Coolant: "fluorinert",
			GridNX: 8, GridNY: 8, ThresholdC: thresholdC,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := waitDone(t, e, in.ID)
		if got.State != StateDone {
			t.Fatalf("state %s, error %q", got.State, got.Error)
		}
		return got.Result.(*api.PlanResponse)
	}

	base := plan(0, 0) // single-phase physics, default threshold
	if !base.Feasible || base.FilmBoilingCells != 0 {
		t.Fatalf("baseline not a clean single-phase plan: %+v", base)
	}

	boiled := plan(1e-4, 0)
	if boiled.FilmBoilingCells == 0 {
		t.Fatal("no film-boiling cells despite CHF far below operating flux")
	}
	// The vapor-blanketed boundary must run the field strictly hotter
	// than the single-phase answer at the same operating point — the
	// degraded-h regression. (The rise is modest on this stack: the
	// board conduction path carries no CHF limit and keeps working.)
	if boiled.Feasible && boiled.FrequencyGHz == base.FrequencyGHz && boiled.PeakC <= base.PeakC {
		t.Errorf("film boiling did not degrade the plan: base peak %.4f °C, boiled %.4f °C",
			base.PeakC, boiled.PeakC)
	}
	if boiled.Feasible && boiled.PeakC <= base.PeakC {
		t.Errorf("two-phase peak %.4f °C not above single-phase %.4f °C", boiled.PeakC, base.PeakC)
	}

	e := New(Config{CHFScale: 1e-4})
	defer e.Close()
	in, err := e.Submit(&api.PlanRequest{
		Chip: "lp", Chips: 1, Coolant: "fluorinert",
		GridNX: 8, GridNY: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, in.ID)
	m := e.Metrics()
	if m.FilmBoilingCells == 0 {
		t.Error("film_boiling_cells metric stayed 0")
	}
	if m.CHFHotspotExceedances != 1 {
		t.Errorf("chf_hotspot_exceedances = %d for one plan, want 1", m.CHFHotspotExceedances)
	}
	// The boundary-cell counter carries the chosen step's solver-side
	// scan: re-plan the same request on a bare planner and count.
	ref := core.NewPlanner()
	ref.ThresholdC = 80
	ref.Params.GridNX, ref.Params.GridNY = 8, 8
	ref.Params.CHFScale = 1e-4
	refPlan, refRes, _, err := ref.MaxFrequencyEvalCtx(context.Background(), power.LowPower, 1, material.Fluorinert, 0)
	if err != nil || !refPlan.Feasible {
		t.Fatalf("reference plan: %+v, %v", refPlan, err)
	}
	if want := uint64(refRes.CHFViolations()); want == 0 || m.CHFBoundaryCells != want {
		t.Errorf("chf_boundary_cells = %d, want %d", m.CHFBoundaryCells, want)
	}
}

// TestTwoPhaseResolveReportsEveryPass: a plan re-solved past CHF
// reports each film-boiling pass to /v1/metrics. Its Jacobi solve
// count must exceed the same plan's single-phase count by exactly the
// passes of its walk down the VFS ladder, counted here on a bare
// planner: from the single-phase step down to the first step that
// holds the threshold under film boiling (or the slowest).
func TestTwoPhaseResolveReportsEveryPass(t *testing.T) {
	ctx := context.Background()
	run := func(scale float64) (*api.PlanResponse, uint64) {
		e := New(Config{CHFScale: scale})
		defer e.Close()
		in, err := e.Submit(&api.PlanRequest{
			Chip: "lp", Chips: 1, Coolant: "fluorinert",
			GridNX: 16, GridNY: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := waitDone(t, e, in.ID)
		if got.State != StateDone {
			t.Fatalf("state %s, error %q", got.State, got.Error)
		}
		var solves uint64
		if st := e.Metrics().Solver["jacobi"]; st != nil {
			solves = st.Solves
		}
		return got.Result.(*api.PlanResponse), solves
	}
	single, singleSolves := run(0)
	boiled, boiledSolves := run(1e-4)
	if !single.Feasible || boiled.FilmBoilingCells == 0 {
		t.Fatalf("want a feasible single-phase plan and a film-boiling one: %+v, %+v", single, boiled)
	}

	p := core.NewPlanner()
	p.Params.GridNX, p.Params.GridNY = 16, 16
	p.Params.CHFScale = 1e-4
	var passes uint64
	p.OnSolve = func(thermal.SolveStats) { passes++ }
	steps := power.LowPower.Steps()
	for i := len(steps) - 1; i >= 0; i-- {
		if steps[i].GHz() > single.FrequencyGHz {
			continue
		}
		out, err := p.TwoPhasePeak(ctx, power.LowPower, 1, material.Fluorinert, steps[i].FHz)
		if err != nil {
			t.Fatal(err)
		}
		if out.PeakC <= p.ThresholdC {
			break
		}
	}
	if passes < 2 {
		t.Fatalf("the walk ran %d two-phase passes, want a re-solve", passes)
	}
	if boiledSolves != singleSolves+passes {
		t.Errorf("jacobi solves %d with film boiling, %d without: want %d more (the two-phase passes)",
			boiledSolves, singleSolves, passes)
	}
}
