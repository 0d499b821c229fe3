package thermal

// Two-phase (boiling-crisis) extension of the steady solver. Layers
// built over a boiling coolant carry a CHFLimit (W/m²) on their wetted
// faces; when a cell's convective surface flux exceeds it, the vapor
// blanket of film boiling collapses that cell's film coefficient by
// FilmBoilCollapse. SolveTwoPhase iterates solve → flag → collapse to
// a fixed point, so infeasibility past CHF is physical (the field gets
// hotter) instead of silent. The iteration mutates the model's
// FilmScale maps: use it on fresh, unpooled models only.

// defaultFilmCollapse is the vapor-blanket collapse factor applied
// when a layer carries a CHFLimit but no FilmBoilCollapse of its own
// (the conservative low end of the literature's 10–100×).
const defaultFilmCollapse = 10.0

// maxTwoPhaseIter bounds the solve → collapse fixed-point loop. Each
// pass only ever collapses additional cells, so the loop terminates
// regardless; in practice the blanket footprint settles in 2–3 passes.
const maxTwoPhaseIter = 8

// surfaceFlux returns the convective heat flux in W/m² leaving cell c
// of layer l through its most heavily loaded wetted face, under the
// cell's current film scale. Face film coefficients translate the
// cell's superheat over ambient into flux directly (q″ = h·ΔT);
// TopAreaBoost spreads the same heat over more fin area, so it does
// not raise the per-area flux.
func surfaceFlux(m *Model, t []float64, l, c int) float64 {
	layer := &m.Layers[l]
	h := layer.TopCoeff
	if layer.BottomCoeff > h {
		h = layer.BottomCoeff
	}
	if layer.ChannelCoeff > h {
		h = layer.ChannelCoeff
	}
	if layer.EdgeCoeff > h {
		g := m.Grid
		i, j := c%g.NX, c/g.NX
		if i == 0 || i == g.NX-1 || j == 0 || j == g.NY-1 {
			h = layer.EdgeCoeff
		}
	}
	if h <= 0 {
		return 0
	}
	dT := t[l*m.Grid.Cells()+c] - m.AmbientC
	if dT <= 0 {
		return 0
	}
	return h * layer.filmScale(c) * dT
}

// CHFViolations counts the cells whose convective surface flux exceeds
// their layer's critical heat flux in this result's field. Cells
// already collapsed into film boiling no longer count — their reduced
// film coefficient is the post-CHF physics, and the residual count is
// what remains above the limit even then. The scan never mutates the
// model, so it is safe on pooled/shared results.
func (r *Result) CHFViolations() int {
	n := 0
	for l := range r.Model.Layers {
		layer := &r.Model.Layers[l]
		if layer.CHFLimit <= 0 {
			continue
		}
		for c := 0; c < r.Model.Grid.Cells(); c++ {
			if surfaceFlux(r.Model, r.T, l, c) > layer.CHFLimit {
				n++
			}
		}
	}
	return n
}

// TwoPhaseStats summarizes a SolveTwoPhase run.
type TwoPhaseStats struct {
	// FilmBoilingCells is the total number of cells collapsed into
	// the film-boiling regime at the converged field.
	FilmBoilingCells int
	// Violations is the residual CHF-violation count at convergence:
	// cells whose flux stays above the limit even with the blanket's
	// degraded film coefficient.
	Violations int
	// Passes holds one entry per steady solve performed, in order.
	Passes []SolveStats
}

// SolveTwoPhase solves the model with boiling-crisis feedback: solve
// steady state, flag every single-phase cell whose wetted-face flux
// exceeds its layer's CHFLimit, collapse those cells' film
// coefficients by the layer's FilmBoilCollapse, and re-solve until no
// new cell crosses the limit. Collapses are monotone — a blanket never un-forms within one
// call — so the loop terminates. The model's FilmScale maps are
// mutated in place; callers must pass a fresh model, never a pooled or
// session-shared one. Each pass's solve stats land in stats.Passes
// (opt.Stats is ignored), the passes completed before an error
// included.
func SolveTwoPhase(m *Model, opt SolveOptions) (*Result, TwoPhaseStats, error) {
	var stats TwoPhaseStats
	var res *Result
	for iter := 0; iter < maxTwoPhaseIter; iter++ {
		var pass SolveStats
		opt.Stats = &pass
		r, err := Solve(m, opt)
		if err != nil {
			return nil, stats, err
		}
		res = r
		stats.Passes = append(stats.Passes, pass)
		fresh := 0
		for l := range m.Layers {
			layer := &m.Layers[l]
			if layer.CHFLimit <= 0 {
				continue
			}
			collapse := layer.FilmBoilCollapse
			if collapse <= 1 {
				collapse = defaultFilmCollapse
			}
			for c := 0; c < m.Grid.Cells(); c++ {
				if layer.filmScale(c) != 1 {
					continue // already film boiling
				}
				if surfaceFlux(m, r.T, l, c) <= layer.CHFLimit {
					continue
				}
				if layer.FilmScale == nil {
					layer.FilmScale = make([]float64, m.Grid.Cells())
					for k := range layer.FilmScale {
						layer.FilmScale[k] = 1
					}
				}
				layer.FilmScale[c] = 1 / collapse
				fresh++
			}
		}
		if fresh == 0 {
			break
		}
		stats.FilmBoilingCells += fresh
	}
	stats.Violations = res.CHFViolations()
	return res, stats, nil
}
