package thermal

import (
	"fmt"

	"waterimm/internal/faultinject"
)

// System is the assembled sparse conductance system G·T = q in CSR
// form. G is symmetric positive definite whenever the model has a
// path to ambient. Diagonal entries include the ambient conductances;
// the ambient temperature contribution is folded into q, so the
// solution is the absolute temperature field in °C.
//
// The CSR arrays are the assembly format; the matVec and multigrid run
// on op, the seven-point stencil derived from them at assembly, whose
// diagonal is Diag.
type System struct {
	N        int
	RowPtr   []int32
	ColIdx   []int32
	Val      []float64
	Q        []float64
	Diag     []float64
	Capacity []float64 // heat capacity per node (J/K), for transients
	model    *Model
	op       *stencil   // G as a seven-point stencil; nil only on hand-built systems
	ambientG []float64  // conductance to ambient per node (W/K)
	rowSum   []float64  // per-row sums of G, for ColdStartResidual
	invDiag  []float64  // 1/Diag, built once at assembly for the CG preconditioner
	mg       *Multigrid // lazily built multigrid hierarchy, cached with the system
	cg       *cgWork    // CG scratch, reused across the owner's solves
}

// coo is a temporary triplet accumulator keyed by (row, col).
type coo struct {
	n       int
	diag    []float64
	offRow  [][]int32
	offVal  [][]float64
	ambient []float64 // conductance to ambient per node
}

func newCOO(n int) *coo {
	return &coo{
		n:       n,
		diag:    make([]float64, n),
		offRow:  make([][]int32, n),
		offVal:  make([][]float64, n),
		ambient: make([]float64, n),
	}
}

// couple adds conductance g between nodes a and b (a ≠ b).
func (c *coo) couple(a, b int, g float64) {
	if g <= 0 {
		return
	}
	c.diag[a] += g
	c.diag[b] += g
	c.addOff(a, b, -g)
	c.addOff(b, a, -g)
}

func (c *coo) addOff(r, col int, v float64) {
	for k, existing := range c.offRow[r] {
		if existing == int32(col) {
			c.offVal[r][k] += v
			return
		}
	}
	c.offRow[r] = append(c.offRow[r], int32(col))
	c.offVal[r] = append(c.offVal[r], v)
}

// tie adds conductance g from node a to the fixed ambient temperature.
func (c *coo) tie(a int, g float64) {
	if g <= 0 {
		return
	}
	c.diag[a] += g
	c.ambient[a] += g
}

// walkConductances enumerates every conductance contribution of the
// model in a fixed deterministic order: lateral conduction, vertical
// conduction, convective boundary ties, lumped extras, couplings.
// Both the full assembly and the structural (value-only) reassembly
// consume the same walk, so their matrices stay in lockstep entry for
// entry. Contributions with non-positive conductance are emitted too
// — the callee decides whether to skip — so the call sequence depends
// only on the model's topology (grid, layer count, extras,
// couplings), never on parameter values.
func walkConductances(m *Model, couple func(a, b int, g float64), tie func(a int, g float64)) {
	g := m.Grid
	nc := g.Cells()
	dx, dy := g.DX(), g.DY()
	cellArea := dx * dy

	// Lateral conduction within each layer.
	for l, layer := range m.Layers {
		gx := layer.K * layer.Thickness * dy / dx
		gy := layer.K * layer.Thickness * dx / dy
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				a := m.node(l, i, j)
				if i+1 < g.NX {
					couple(a, m.node(l, i+1, j), gx)
				}
				if j+1 < g.NY {
					couple(a, m.node(l, i, j+1), gy)
				}
			}
		}
	}

	// Vertical conduction between adjacent layers: series of the two
	// half-layer resistances.
	for l := 0; l+1 < len(m.Layers); l++ {
		lo, hi := m.Layers[l], m.Layers[l+1]
		r := lo.Thickness/(2*lo.K) + hi.Thickness/(2*hi.K)
		gv := cellArea / r
		for c := 0; c < nc; c++ {
			couple(l*nc+c, (l+1)*nc+c, gv)
		}
	}

	// Convective boundaries. Each tie is scaled by the cell's
	// film-boiling multiplier (1 in single phase, 1/collapse past
	// CHF) — a value change only, so topology and the structural
	// tape stay intact.
	for l := range m.Layers {
		layer := &m.Layers[l]
		gex := layer.EdgeCoeff * layer.Thickness * dy // west/east faces
		gey := layer.EdgeCoeff * layer.Thickness * dx // south/north faces
		for j := 0; j < g.NY; j++ {
			tie(m.node(l, 0, j), gex*layer.filmScale(j*g.NX))
			tie(m.node(l, g.NX-1, j), gex*layer.filmScale(j*g.NX+g.NX-1))
		}
		for i := 0; i < g.NX; i++ {
			tie(m.node(l, i, 0), gey*layer.filmScale(i))
			tie(m.node(l, i, g.NY-1), gey*layer.filmScale((g.NY-1)*g.NX+i))
		}
		boost := layer.TopAreaBoost
		if boost <= 0 {
			boost = 1
		}
		gt := layer.TopCoeff * cellArea * boost
		gb := layer.BottomCoeff * cellArea
		gc := layer.ChannelCoeff * cellArea
		for c := 0; c < nc; c++ {
			a := m.node(l, 0, 0) + c
			fs := layer.filmScale(c)
			tie(a, gt*fs)
			tie(a, gb*fs)
			tie(a, gc*fs)
		}
	}

	// Lumped extras.
	for e, extra := range m.Extras {
		tie(m.extraNode(e), extra.AmbientG)
	}
	for _, cp := range m.Couplings {
		a := m.extraNode(cp.ExtraA)
		switch {
		case cp.ExtraB >= 0:
			couple(a, m.extraNode(cp.ExtraB), cp.G)
		case cp.EdgeOnly:
			// Distribute over the layer's boundary cells.
			cells := boundaryCells(g)
			per := cp.G / float64(len(cells))
			for _, c := range cells {
				couple(a, cp.Layer*nc+c, per)
			}
		default:
			per := cp.G / float64(nc)
			for c := 0; c < nc; c++ {
				couple(a, cp.Layer*nc+c, per)
			}
		}
	}
}

// Assemble builds the CSR system for the model. The returned system
// is independent of the model's power maps except through Q, so a
// caller sweeping power levels can rebuild Q cheaply via RefreshQ.
func Assemble(m *Model) (*System, error) {
	if err := faultinject.Hit(nil, faultinject.SiteAssemble); err != nil {
		return nil, fmt.Errorf("thermal: assembly failed: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.NumNodes()
	acc := newCOO(n)
	walkConductances(m, acc.couple, acc.tie)

	sys := &System{N: n, model: m}
	sys.Diag = acc.diag
	// CSR with the diagonal stored in Val as well (first entry of
	// each row) so the matvec is a single pass.
	nnz := n
	for r := 0; r < n; r++ {
		nnz += len(acc.offRow[r])
	}
	sys.RowPtr = make([]int32, n+1)
	sys.ColIdx = make([]int32, 0, nnz)
	sys.Val = make([]float64, 0, nnz)
	for r := 0; r < n; r++ {
		sys.RowPtr[r] = int32(len(sys.ColIdx))
		sys.ColIdx = append(sys.ColIdx, int32(r))
		sys.Val = append(sys.Val, acc.diag[r])
		sys.ColIdx = append(sys.ColIdx, acc.offRow[r]...)
		sys.Val = append(sys.Val, acc.offVal[r]...)
	}
	sys.RowPtr[n] = int32(len(sys.ColIdx))

	if err := sys.finishAssembly(acc.ambient); err != nil {
		return nil, err
	}
	return sys, nil
}

// finishAssembly fills in everything downstream of the CSR matrix —
// the stencil, heat capacities, right-hand side, ambient bookkeeping,
// and the inverted diagonal — shared by the full and structural
// assembly paths so the two stay in lockstep.
func (sys *System) finishAssembly(ambient []float64) error {
	m := sys.model
	var err error
	if sys.op, err = newSystemStencil(sys); err != nil {
		return err
	}
	g := m.Grid
	nc := g.Cells()
	cellArea := g.DX() * g.DY()

	// Heat capacities (transient only).
	sys.Capacity = make([]float64, sys.N)
	for l, layer := range m.Layers {
		c := layer.VolHeatCap * layer.Thickness * cellArea
		for k := 0; k < nc; k++ {
			sys.Capacity[l*nc+k] = c
		}
	}
	for e, extra := range m.Extras {
		sys.Capacity[m.extraNode(e)] = extra.Cap
	}

	sys.Q = make([]float64, sys.N)
	sys.RefreshQ(ambient)
	// Keep ambient conductances for later Q refreshes.
	sys.ambientG = ambient
	// Invert the diagonal once here instead of on every solve: warm
	// sweeps re-solve a cached system hundreds of times, and the
	// validation doubles as the disconnected-from-ambient check.
	if sys.invDiag, err = invertDiag(sys.Diag); err != nil {
		return err
	}
	return nil
}

// Model returns the model the system was assembled from. Callers that
// reuse an assembled system across many power vectors (frequency
// sweeps, co-simulation) mutate the model's layer power maps through
// this accessor and then call UpdatePower; the conductance matrix
// itself depends only on geometry and boundary coefficients, so it
// stays valid.
func (s *System) Model() *Model { return s.model }

// ambientG is stored so RefreshQ can re-fold ambient after a power
// map change.
func (s *System) refreshable() bool { return s.ambientG != nil }

// RefreshQ rebuilds the right-hand side from the model's current
// power maps and the given per-node ambient conductances.
func (s *System) RefreshQ(ambient []float64) {
	m := s.model
	nc := m.Grid.Cells()
	for i := range s.Q {
		s.Q[i] = ambient[i] * m.AmbientC
	}
	for l, layer := range m.Layers {
		if layer.Power == nil {
			continue
		}
		for c, p := range layer.Power {
			s.Q[l*nc+c] += p
		}
	}
	for e, extra := range m.Extras {
		s.Q[m.extraNode(e)] += extra.Power
	}
}

// UpdatePower re-folds the right-hand side after the caller mutated
// the model's layer power maps, without reassembling the matrix.
func (s *System) UpdatePower() error {
	if !s.refreshable() {
		return fmt.Errorf("thermal: system not refreshable")
	}
	s.RefreshQ(s.ambientG)
	return nil
}

// boundaryCells lists the flat indices of a layer's boundary cells.
func boundaryCells(g Grid) []int {
	cells := make([]int, 0, 2*g.NX+2*g.NY-4)
	for i := 0; i < g.NX; i++ {
		cells = append(cells, i, (g.NY-1)*g.NX+i)
	}
	for j := 1; j < g.NY-1; j++ {
		cells = append(cells, j*g.NX, j*g.NX+g.NX-1)
	}
	return cells
}
