package thermal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// slab builds a single-layer model with uniform power and a top-face
// film coefficient — simple enough for closed-form verification.
func slab(nx, ny int, powerW, topCoeff float64) *Model {
	g := Grid{NX: nx, NY: ny, W: 0.01, H: 0.01}
	p := make([]float64, g.Cells())
	per := powerW / float64(g.Cells())
	for i := range p {
		p[i] = per
	}
	return &Model{
		Grid:     g,
		AmbientC: 25,
		Layers: []Layer{{
			Name: "slab", Thickness: 1e-3, K: 150,
			VolHeatCap: 1.75e6,
			Power:      p, TopCoeff: topCoeff,
		}},
	}
}

func TestUniformSlabAnalytic(t *testing.T) {
	// Uniform heating with a uniform top film has the exact solution
	// T = Tamb + P/(h·A) everywhere (no lateral gradients).
	m := slab(16, 16, 10, 500)
	res, err := Solve(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := 25 + 10/(500*0.01*0.01)
	for i, temp := range res.T {
		if math.Abs(temp-want) > 1e-6 {
			t.Fatalf("node %d: %.6f C, want %.6f", i, temp, want)
		}
	}
	if math.Abs(res.Max()-want) > 1e-6 || math.Abs(res.Mean()-want) > 1e-6 {
		t.Errorf("max/mean disagree with analytic solution")
	}
}

func TestTwoLayerSeriesResistance(t *testing.T) {
	// Heat generated in the bottom layer crosses the interface into a
	// top layer cooled by a film: the bottom-layer temperature must
	// equal ambient + P·(R_series + R_conv).
	g := Grid{NX: 8, NY: 8, W: 0.01, H: 0.01}
	p := make([]float64, g.Cells())
	for i := range p {
		p[i] = 20.0 / float64(g.Cells())
	}
	bottom := Layer{Name: "die", Thickness: 0.5e-3, K: 100, Power: p}
	top := Layer{Name: "lid", Thickness: 1e-3, K: 400, TopCoeff: 1000}
	m := &Model{Grid: g, AmbientC: 25, Layers: []Layer{bottom, top}}
	res, err := Solve(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	area := 0.01 * 0.01
	// Interface resistance (half thicknesses), remaining top half,
	// then convection. Heat originates mid-bottom-layer in the
	// lumped view; the grid injects at the layer node, which sits at
	// its centre plane.
	rSeries := (0.5e-3/(2*100) + 1e-3/(2*400)) / area
	rTopHalf := 0.0 // the top node sits at the lid's centre; convection applies at its face
	rConv := 1 / (1000 * area)
	want := 25 + 20*(rSeries+rTopHalf+rConv)
	got := res.LayerMax(0)
	if math.Abs(got-want) > 0.15 {
		t.Errorf("bottom layer at %.3f C, analytic %.3f C", got, want)
	}
}

func TestLinearity(t *testing.T) {
	// The system is linear: doubling power doubles the rise over
	// ambient at every node.
	m1 := slab(12, 12, 7, 200)
	m2 := slab(12, 12, 14, 200)
	r1, err := Solve(m1, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Solve(m2, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.T {
		rise1 := r1.T[i] - 25
		rise2 := r2.T[i] - 25
		if math.Abs(rise2-2*rise1) > 1e-6*(1+rise1) {
			t.Fatalf("node %d: rise %.6f vs %.6f (non-linear)", i, rise1, rise2)
		}
	}
}

func TestSymmetryProperty(t *testing.T) {
	// A power map symmetric under 180° rotation yields a temperature
	// field with the same symmetry.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Grid{NX: 10, NY: 10, W: 0.013, H: 0.013}
		p := make([]float64, g.Cells())
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				v := rng.Float64()
				p[j*g.NX+i] += v
				p[(g.NY-1-j)*g.NX+(g.NX-1-i)] += v
			}
		}
		m := &Model{Grid: g, AmbientC: 25, Layers: []Layer{{
			Name: "die", Thickness: 1e-4, K: 100, Power: p, TopCoeff: 300,
		}}}
		res, err := Solve(m, SolveOptions{})
		if err != nil {
			return false
		}
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				a := res.At(0, i, j)
				b := res.At(0, g.NX-1-i, g.NY-1-j)
				if math.Abs(a-b) > 1e-7*(1+math.Abs(a-25)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestMonotonicInPower(t *testing.T) {
	// Property: adding power anywhere raises temperature everywhere
	// (a discrete maximum-principle consequence for this operator).
	base := slab(8, 8, 5, 100)
	rBase, err := Solve(base, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hot := slab(8, 8, 5, 100)
	hot.Layers[0].Power[3*8+4] += 2 // extra 2 W in one cell
	rHot, err := Solve(hot, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rBase.T {
		if rHot.T[i] < rBase.T[i]-1e-9 {
			t.Fatalf("node %d cooled when power was added", i)
		}
	}
}

func TestExtraNodeCoupling(t *testing.T) {
	// Heat escaping only through a lumped extra: T_extra = amb +
	// P/G_amb, layer above it by P/G_coupling.
	g := Grid{NX: 4, NY: 4, W: 0.01, H: 0.01}
	p := make([]float64, g.Cells())
	for i := range p {
		p[i] = 8.0 / float64(g.Cells())
	}
	m := &Model{
		Grid: g, AmbientC: 25,
		Layers: []Layer{{Name: "die", Thickness: 1e-4, K: 100, Power: p}},
		Extras: []Extra{{Name: "board", AmbientG: 2}},
		Couplings: []Coupling{
			{ExtraA: 0, ExtraB: -1, Layer: 0, G: 4},
		},
	}
	res, err := Solve(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Extra(0), 25+8.0/2; math.Abs(got-want) > 1e-6 {
		t.Errorf("board node %.4f C, want %.4f", got, want)
	}
	if got, want := res.Mean(), 25+8.0/2+8.0/4; math.Abs(got-want) > 1e-4 {
		t.Errorf("die %.4f C, want %.4f", got, want)
	}
}

func TestEdgeConvection(t *testing.T) {
	// With only edge cooling, total edge conductance G = h·perimeter·t
	// and the mean rise approaches P/G for a high-k layer.
	g := Grid{NX: 8, NY: 8, W: 0.01, H: 0.01}
	p := make([]float64, g.Cells())
	for i := range p {
		p[i] = 3.0 / float64(g.Cells())
	}
	m := &Model{Grid: g, AmbientC: 25, Layers: []Layer{{
		Name: "die", Thickness: 1e-3, K: 5000, Power: p, EdgeCoeff: 400,
	}}}
	res, err := Solve(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gEdge := 400.0 * 1e-3 * 0.04 // h · t · perimeter
	want := 25 + 3/gEdge
	if math.Abs(res.Mean()-want) > 0.6 {
		t.Errorf("edge-cooled slab at %.2f C, analytic %.2f C", res.Mean(), want)
	}
}

func TestValidateCatchesModelErrors(t *testing.T) {
	good := slab(8, 8, 1, 100)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Model){
		"no layers":        func(m *Model) { m.Layers = nil },
		"bad grid":         func(m *Model) { m.Grid.NX = 1 },
		"bad thickness":    func(m *Model) { m.Layers[0].Thickness = 0 },
		"bad power len":    func(m *Model) { m.Layers[0].Power = make([]float64, 3) },
		"no ambient path":  func(m *Model) { m.Layers[0].TopCoeff = 0 },
		"bad coupling idx": func(m *Model) { m.Couplings = []Coupling{{ExtraA: 5, ExtraB: -1, Layer: 0, G: 1}} },
		"bad layer idx": func(m *Model) {
			m.Extras = []Extra{{AmbientG: 1}}
			m.Couplings = []Coupling{{ExtraA: 0, ExtraB: -1, Layer: 7, G: 1}}
		},
		"nan G": func(m *Model) {
			m.Extras = []Extra{{AmbientG: 1}}
			m.Couplings = []Coupling{{ExtraA: 0, ExtraB: -1, Layer: 0, G: math.NaN()}}
		},
	}
	for name, mutate := range cases {
		m := slab(8, 8, 1, 100)
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
	// Interior layers must not declare face convection.
	m := slab(8, 8, 1, 100)
	m.Layers = append([]Layer{{Name: "under", Thickness: 1e-3, K: 100, TopCoeff: 10}}, m.Layers...)
	if err := m.Validate(); err == nil {
		t.Error("interior top convection must be rejected")
	}
}

func TestUpdatePowerRefreshesQ(t *testing.T) {
	m := slab(8, 8, 5, 100)
	sys, err := Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := sys.SolveSteady(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Layers[0].Power {
		m.Layers[0].Power[i] *= 3
	}
	sys.UpdatePower()
	t2, err := sys.SolveSteady(SolveOptions{Guess: t1})
	if err != nil {
		t.Fatal(err)
	}
	r1 := t1[0] - 25
	r2 := t2[0] - 25
	if math.Abs(r2-3*r1) > 1e-6*(1+r1) {
		t.Errorf("UpdatePower: rise %.6f -> %.6f, want 3x", r1, r2)
	}
}

func TestGuessDoesNotChangeSolution(t *testing.T) {
	m := slab(16, 16, 9, 321)
	r1, err := Solve(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sys, _ := Assemble(m)
	warm := make([]float64, sys.N)
	for i := range warm {
		warm[i] = 95
	}
	t2, err := sys.SolveSteady(SolveOptions{Guess: warm})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.T {
		if math.Abs(r1.T[i]-t2[i]) > 1e-5 {
			t.Fatalf("warm start changed the solution at node %d", i)
		}
	}
}

func TestZeroPower(t *testing.T) {
	m := slab(8, 8, 0, 50)
	res, err := Solve(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, temp := range res.T {
		if math.Abs(temp-25) > 1e-9 {
			t.Fatalf("unpowered model must sit at ambient, got %.6f", temp)
		}
	}
}

func TestSORAgreesWithCG(t *testing.T) {
	m := slab(16, 16, 12, 350)
	sys, err := Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := sys.SolveSteady(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sor, err := sys.SolveSOR(1.8, 1e-10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cg {
		if math.Abs(cg[i]-sor[i]) > 1e-4 {
			t.Fatalf("solvers disagree at node %d: CG %.6f vs SOR %.6f", i, cg[i], sor[i])
		}
	}
}

func TestSORValidation(t *testing.T) {
	m := slab(8, 8, 1, 100)
	sys, _ := Assemble(m)
	if _, err := sys.SolveSOR(2.5, 1e-9, 10); err == nil {
		t.Error("omega >= 2 must be rejected")
	}
	if _, err := sys.SolveSOR(1.8, 1e-12, 3); err == nil {
		t.Error("an impossible sweep budget must report non-convergence")
	}
}

// TestColdStartResidual checks the cached-row-sum formula against a
// directly computed ‖q − G·ambient·1‖.
func TestColdStartResidual(t *testing.T) {
	m := slab(12, 12, 7, 280)
	sys, err := Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, sys.N)
	for i := range x0 {
		x0[i] = m.AmbientC
	}
	gx := make([]float64, sys.N)
	sys.MatVec(gx, x0)
	var want float64
	for i := range gx {
		d := sys.Q[i] - gx[i]
		want += d * d
	}
	want = math.Sqrt(want)
	got := sys.ColdStartResidual()
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("ColdStartResidual %.12e, direct %.12e", got, want)
	}
	// A zero-power model's residual is zero: ambient solves it exactly.
	zsys, _ := Assemble(slab(8, 8, 0, 50))
	if r := zsys.ColdStartResidual(); r > 1e-12 {
		t.Fatalf("zero-power cold-start residual %.3e", r)
	}
}

// TestTolRefKeepsWarmStartsHonest: with TolRef a near-exact guess must
// converge almost immediately, AND the result must meet the same
// absolute residual target as a cold solve — the equivalence contract
// the session layer's superposition basis relies on.
func TestTolRefKeepsWarmStartsHonest(t *testing.T) {
	m := slab(16, 16, 9, 321)
	sys, err := Assemble(m)
	if err != nil {
		t.Fatal(err)
	}
	ref := sys.ColdStartResidual()
	cold, err := sys.SolveSteady(SolveOptions{TolRef: ref})
	if err != nil {
		t.Fatal(err)
	}
	// Warm-start from the converged field with a tiny iteration budget:
	// under TolRef this passes (the guess already meets the absolute
	// target), whereas the relative criterion would demand another nine
	// orders of magnitude from r0 and blow the budget.
	guess := append([]float64(nil), cold...)
	warm, err := sys.SolveSteady(SolveOptions{Guess: guess, TolRef: ref, MaxIter: 3})
	if err != nil {
		t.Fatalf("warm start with TolRef did not converge instantly: %v", err)
	}
	for i := range warm {
		if math.Abs(warm[i]-cold[i]) > 1e-6 {
			t.Fatalf("warm result drifted at node %d", i)
		}
	}
	if _, err := sys.SolveSteady(SolveOptions{Guess: guess, MaxIter: 3}); err == nil {
		t.Fatal("relative criterion unexpectedly accepted the warm start in 3 iterations; TolRef would be redundant")
	}
}

// countingPrecond wraps a preconditioner and counts its applies.
type countingPrecond struct {
	Preconditioner
	applies int
}

func (c *countingPrecond) Apply(z, r []float64) {
	c.applies++
	c.Preconditioner.Apply(z, r)
}

// TestCGConvergesBeforePreconditioning pins the order of CG's
// convergence test: it runs before every preconditioner apply, so a
// solve of k iterations applies the preconditioner exactly k times and
// a guess that already meets the target applies it not at all.
func TestCGConvergesBeforePreconditioning(t *testing.T) {
	sys, err := Assemble(mgStack(32, 32, true))
	if err != nil {
		t.Fatal(err)
	}
	mg, err := sys.Multigrid()
	if err != nil {
		t.Fatal(err)
	}
	cp := &countingPrecond{Preconditioner: mg}
	var stats SolveStats
	x, err := sys.SolveSteady(SolveOptions{Precond: cp, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations == 0 || cp.applies != stats.Iterations {
		t.Errorf("cold solve: %d applies for %d iterations", cp.applies, stats.Iterations)
	}
	if stats.Preconditioner != PrecondMG {
		t.Errorf("wrapper reported %q", stats.Preconditioner)
	}

	cp.applies = 0
	if _, err := sys.SolveSteady(SolveOptions{
		Precond: cp, Stats: &stats, Guess: x, TolRef: sys.ColdStartResidual(),
	}); err != nil {
		t.Fatal(err)
	}
	if stats.Iterations != 0 || cp.applies != 0 {
		t.Errorf("converged guess: %d applies for %d iterations, want 0 and 0", cp.applies, stats.Iterations)
	}
}

// TestSolveSteadyReusesScratch: a System keeps its CG scratch across
// solves, yet a solve on a system whose scratch holds an earlier
// solve's vectors returns the same bits as one on a fresh system, and
// never overwrites a field it returned before.
func TestSolveSteadyReusesScratch(t *testing.T) {
	for _, kind := range []string{PrecondJacobi, PrecondMG} {
		t.Run(kind, func(t *testing.T) {
			used, err := Assemble(mgStack(24, 20, true))
			if err != nil {
				t.Fatal(err)
			}
			prec, err := used.SelectPreconditioner(kind)
			if err != nil {
				t.Fatal(err)
			}
			first, err := used.SolveSteady(SolveOptions{Precond: prec})
			if err != nil {
				t.Fatal(err)
			}
			kept := append([]float64(nil), first...)
			warm := make([]float64, used.N)
			for i := range warm {
				warm[i] = 60
			}
			var gotStats, wantStats SolveStats
			got, err := used.SolveSteady(SolveOptions{Precond: prec, Guess: warm, Stats: &gotStats})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Assemble(mgStack(24, 20, true))
			if err != nil {
				t.Fatal(err)
			}
			fprec, err := fresh.SelectPreconditioner(kind)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.SolveSteady(SolveOptions{Precond: fprec, Guess: warm, Stats: &wantStats})
			if err != nil {
				t.Fatal(err)
			}
			if gotStats != wantStats {
				t.Errorf("reused scratch: %+v, fresh system: %+v", gotStats, wantStats)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("node %d: reused scratch gives %.17g, fresh system %.17g", i, got[i], want[i])
				}
				if first[i] != kept[i] {
					t.Fatalf("node %d: the second solve overwrote the first solve's field", i)
				}
			}
		})
	}
}
