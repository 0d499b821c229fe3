package thermal

import (
	"errors"
	"fmt"

	"waterimm/internal/faultinject"
)

// ErrStructureMismatch reports that a model's topology no longer
// matches the cached symbolic structure it was assembled against.
// Callers should fall back to a full Assemble.
var ErrStructureMismatch = errors.New("thermal: model does not match cached structure")

// Structure is the immutable symbolic skeleton of an assembled
// system: the lumped extras' sparsity pattern plus a tape mapping
// every conductance contribution of the model walk onto the stencil
// slots it lands in. Every assembly runs through one — Assemble records
// a fresh one and replays it — so same-topology models, e.g.
// Monte-Carlo perturbations of one geometry, which only rescale
// strictly-positive conductances, share one Structure and pay only the
// value fill on reassembly.
//
// A Structure is deeply read-only after construction; the xPtr and
// xCol slices are shared by the stencil of every System it assembles.
type Structure struct {
	// Topology fingerprint, checked before a value-only reassembly.
	n, nx, ny                 int
	layers, extras, couplings int

	// The extras' pattern, as the stencil stores it; xPtr is nil when
	// no extra couples to anything.
	xPtr []int32
	xCol []int32

	// coupleTape holds two int32 per couple emitted by the walk: the
	// value slots of (a, b) and (b, a), indexing the concatenation
	// east | north | up | xVal of the stencil's couplings. A grid
	// coupling has one slot serving both directions and records -1 as
	// the second. A contribution skipped at build time (non-positive
	// conductance) is recorded as two -1s and must stay non-positive in
	// every model assembled through the tape. tieTape records, per tie,
	// whether it was kept (positive), under the same rule.
	coupleTape []int32
	tieTape    []bool
}

// newStructure records the skeleton of m by walking it once. A grid
// coupling's slot follows from index arithmetic: the walk couples node
// a to b = a+1 (east), a+nx (north) or a+nx·ny (up). Where a
// one-cell-wide grid makes two of those offsets equal, only the later
// in that list can occur, so they are tested from up down.
// Extras entries are kept per row in the order the walk first touches
// them, which is the order each row is summed in.
func newStructure(m *Model) *Structure {
	g := m.Grid
	nc := g.Cells()
	grid := len(m.Layers) * nc
	n := m.NumNodes()
	ne := len(m.Extras)
	st := &Structure{
		n: n, nx: g.NX, ny: g.NY,
		layers: len(m.Layers), extras: ne, couplings: len(m.Couplings),
	}
	// pos indexes every possible extras entry directly: (r, c) with an
	// extra column c at r·ne + c − grid, and (r, c) with an extra row r
	// and a grid column c at n·ne + (r − grid)·grid + c. It holds the
	// entry's place in its row plus one (0 while absent), and its value
	// slot once the pattern is laid out.
	pos := make([]int32, (n+grid)*ne)
	key := func(r, c int) int32 {
		if c >= grid {
			return int32(r*ne + c - grid)
		}
		return int32(n*ne + (r-grid)*grid + c)
	}
	xPtr := make([]int32, n+1)
	var order []int32 // (row, column) of each entry, in insertion order
	entry := func(r, c int) int32 {
		k := key(r, c)
		if pos[k] == 0 {
			xPtr[r+1]++
			pos[k] = xPtr[r+1]
			order = append(order, int32(r), int32(c))
		}
		return k
	}
	couple := func(a, b int, gv float64) {
		switch {
		case gv <= 0:
			st.coupleTape = append(st.coupleTape, -1, -1)
		case b < grid && a < grid:
			s := a
			switch b - a {
			case nc:
				s += 2 * grid
			case g.NX:
				s += grid
			}
			st.coupleTape = append(st.coupleTape, int32(s), -1)
		default:
			st.coupleTape = append(st.coupleTape, entry(a, b), entry(b, a))
		}
	}
	tie := func(_ int, gv float64) { st.tieTape = append(st.tieTape, gv > 0) }
	walkConductances(m, couple, tie)
	if len(order) == 0 {
		return st
	}

	for r := 0; r < n; r++ {
		xPtr[r+1] += xPtr[r]
	}
	st.xPtr = xPtr
	st.xCol = make([]int32, len(order)/2)
	for i := 0; i < len(order); i += 2 {
		r, c := order[i], order[i+1]
		k := key(int(r), int(c))
		p := xPtr[r] + pos[k] - 1
		st.xCol[p] = c
		pos[k] = int32(3*grid) + p
	}
	for i := 0; i < len(st.coupleTape); i += 2 {
		if st.coupleTape[i+1] >= 0 {
			st.coupleTape[i] = pos[st.coupleTape[i]]
			st.coupleTape[i+1] = pos[st.coupleTape[i+1]]
		}
	}
	return st
}

// Structure returns the skeleton the system was assembled through. The
// result is safe for concurrent use by any number of assemblies.
func (s *System) Structure() (*Structure, error) {
	if s.structure == nil {
		return nil, fmt.Errorf("thermal: system was not assembled from a model")
	}
	return s.structure, nil
}

// Assemble builds a System for a same-topology model by replaying the
// recorded tape: only the values are filled, the extras' pattern and
// node indexing are shared with the structure. Any divergence between
// the model's walk and the tape — a contribution changing sign, a
// different topology — returns ErrStructureMismatch so the caller can
// fall back to a full Assemble; a wrong matrix is never produced.
func (st *Structure) Assemble(m *Model) (*System, error) {
	if err := faultinject.Hit(nil, faultinject.SiteAssemble); err != nil {
		return nil, fmt.Errorf("thermal: assembly failed: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	g := m.Grid
	if m.NumNodes() != st.n || g.NX != st.nx || g.NY != st.ny ||
		len(m.Layers) != st.layers || len(m.Extras) != st.extras ||
		len(m.Couplings) != st.couplings {
		return nil, ErrStructureMismatch
	}
	return st.assemble(m)
}

// assemble replays the tape over m's walk. Every diagonal and coupling
// accumulates its contributions in walk order, so a System is the same
// bit for bit whichever Structure of its topology assembled it.
func (st *Structure) assemble(m *Model) (*System, error) {
	grid := st.layers * st.nx * st.ny
	diag := make([]float64, st.n)
	vals := make([]float64, 3*grid+len(st.xCol))
	ambient := make([]float64, st.n)
	ci, ti := 0, 0
	mismatch := false
	couple := func(a, b int, gv float64) {
		if mismatch {
			return
		}
		if ci+2 > len(st.coupleTape) {
			mismatch = true
			return
		}
		sab, sba := st.coupleTape[ci], st.coupleTape[ci+1]
		ci += 2
		if (gv > 0) != (sab >= 0) {
			mismatch = true
			return
		}
		if gv <= 0 {
			return
		}
		diag[a] += gv
		diag[b] += gv
		vals[sab] -= gv
		if sba >= 0 {
			vals[sba] -= gv
		}
	}
	tie := func(a int, gv float64) {
		if mismatch {
			return
		}
		if ti == len(st.tieTape) || (gv > 0) != st.tieTape[ti] {
			mismatch = true
			return
		}
		ti++
		if gv > 0 {
			diag[a] += gv
			ambient[a] += gv
		}
	}
	walkConductances(m, couple, tie)
	if mismatch || ci != len(st.coupleTape) || ti != len(st.tieTape) {
		return nil, ErrStructureMismatch
	}

	op := &stencil{
		nx: st.nx, ny: st.ny, layers: st.layers,
		diag: diag,
		east: vals[:grid], north: vals[grid : 2*grid], up: vals[2*grid : 3*grid],
		zero: make([]float64, st.nx),
	}
	if st.xPtr != nil {
		op.xPtr, op.xCol, op.xVal = st.xPtr, st.xCol, vals[3*grid:]
	}
	sys := &System{N: st.n, Diag: diag, model: m, op: op, structure: st}
	if err := sys.finishAssembly(ambient); err != nil {
		return nil, err
	}
	return sys, nil
}
