package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"waterimm/internal/material"
	"waterimm/internal/power"
	"waterimm/internal/thermal"
)

// GeomCache shares per-geometry structural artifacts across sessions
// and jobs: the symbolic assembly skeleton (thermal.Structure) and a
// nominal reference superposition basis. It is keyed by *topology*
// alone, so every session of a geometry hits it, whatever its
// parameter values — a Monte-Carlo run's perturbed samples included:
//
//   - value-only reassembly through the cached Structure skips the
//     symbolic pattern search (assembly is comparable in cost to a
//     full CG solve);
//   - perturbed sessions warm-start their superposition-basis solves
//     from the nominal basis fields, which is where a Monte-Carlo cell
//     spends nearly all of its CG iterations — for samples that only
//     move the right-hand side (ambient draws), the guesses are exact
//     up to solver tolerance and the solves collapse to verification.
//
// The reference is seeded deterministically from nominal parameter
// values by EnsureGeomRef, never from whichever perturbed sample
// happens to arrive first, and EnsureGeomRef pins it on its planner,
// so eviction between seeding and solving cannot strand the sample:
// Monte-Carlo statistics stay bitwise reproducible under concurrent
// scheduling and cache pressure.
//
// No multigrid hierarchy is shared: every session builds its own from
// its own values (System.SelectPreconditioner), a setup that costs a
// few percent of a Monte-Carlo cell.
//
// Safe for concurrent use. A nil *GeomCache is valid and shares
// nothing — every caller falls back to the full per-session paths.
type GeomCache struct {
	mu    sync.Mutex
	cap   int
	seq   uint64
	geoms map[string]*geomEntry

	symbolicHits, symbolicMisses uint64
}

type geomEntry struct {
	seq       uint64
	structure *thermal.Structure
	ref       *geomRef
	// building serializes concurrent EnsureGeomRef calls: the first
	// caller builds the nominal reference while later ones wait for it
	// instead of duplicating the work.
	building *refBuild
}

// refBuild is one in-flight reference build. ref is set (nil when the
// build failed) before done is closed, so waiters pin the builder's
// reference even if the entry is evicted meanwhile.
type refBuild struct {
	done chan struct{}
	ref  *geomRef
}

// geomRef is a geometry's shared nominal reference: the basis a
// perturbed sample warm-starts from. It is built exactly once per
// geometry from the *nominal* parameter values (EnsureGeomRef), never
// from a perturbed sample — so its contents are deterministic
// regardless of which Monte-Carlo cell arrives first, and so are the
// iteration paths (and bit-level results) of every borrower.
type geomRef struct {
	// basis is the nominal superposition basis; perturbed sessions use
	// its fields as warm starts for their own basis solves, which is
	// where a Monte-Carlo cell spends nearly all of its CG iterations.
	basis *sessionBasis
	// ambientC is the nominal ambient the basis was built at, so a
	// perturbed-ambient cell can shift the base-field guess.
	ambientC float64
}

// NewGeomCache returns a cache holding structural artifacts for at
// most capacity geometries (default 32 when capacity <= 0), evicting
// least-recently-used entries beyond it.
func NewGeomCache(capacity int) *GeomCache {
	if capacity <= 0 {
		capacity = 32
	}
	return &GeomCache{cap: capacity, geoms: make(map[string]*geomEntry)}
}

// geomKey is the topology signature of a session's geometry: it
// excludes every parameter *value*, so all perturbed samples of one
// geometry share the entry. Values that could change the sparsity
// pattern anyway (a coefficient crossing zero) are caught by the
// structure's own tape guard, which falls back to full assembly. The
// key must cover every field the service's nominal planner
// (stackPlanner) sets from the request, flip included: the nominal
// reference's basis is built under that layout, and a reference shared
// across layouts would make borrowers' results depend on which layout
// seeded it first.
func (p *Planner) geomKey(chip power.Model, chips int, coolant material.Coolant) string {
	return fmt.Sprintf("v1|chip=%s|chips=%d|coolant=%s|grid=%dx%d|flip=%t",
		chip.Name, chips, coolant.Name, p.Params.GridNX, p.Params.GridNY, p.Flip)
}

// entryLocked returns the geometry's entry, creating it and evicting
// the stalest entry beyond capacity.
func (g *GeomCache) entryLocked(key string) *geomEntry {
	e := g.geoms[key]
	if e == nil {
		e = &geomEntry{}
		g.geoms[key] = e
		for len(g.geoms) > g.cap {
			var oldKey string
			var oldSeq uint64
			first := true
			for k, v := range g.geoms {
				if k != key && (first || v.seq < oldSeq) {
					oldKey, oldSeq, first = k, v.seq, false
				}
			}
			if first {
				break
			}
			delete(g.geoms, oldKey)
		}
	}
	g.seq++
	e.seq = g.seq
	return e
}

// AssembleModel assembles the model through the geometry's cached
// structure when one exists (the symbolic fast path), falling back to
// — and seeding the cache from — a full assembly otherwise. A nil
// cache always assembles fully.
func (g *GeomCache) AssembleModel(key string, m *thermal.Model) (*thermal.System, error) {
	if g == nil {
		return thermal.Assemble(m)
	}
	g.mu.Lock()
	st := g.entryLocked(key).structure
	g.mu.Unlock()
	if st != nil {
		sys, err := st.Assemble(m)
		if err == nil {
			g.mu.Lock()
			g.symbolicHits++
			g.mu.Unlock()
			return sys, nil
		}
		if !errors.Is(err, thermal.ErrStructureMismatch) {
			return nil, err
		}
		// The model's topology diverged from the cached skeleton (a
		// coefficient crossed zero, a different layer stack under the
		// same key): rebuild fully and re-seed below.
	}
	g.mu.Lock()
	g.symbolicMisses++
	g.mu.Unlock()
	sys, err := thermal.Assemble(m)
	if err != nil {
		return nil, err
	}
	if ns, serr := sys.Structure(); serr == nil {
		g.mu.Lock()
		g.entryLocked(key).structure = ns
		g.mu.Unlock()
	}
	return sys, nil
}

// geomRef returns the geometry's nominal reference for a session: the
// one EnsureGeomRef pinned on this planner when the key matches, else
// the cache's (nil when none is seeded). Other sessions read the
// reference concurrently, so its basis fields are read-only.
func (p *Planner) geomRef(key string) *geomRef {
	if p.pinned != nil && p.pinnedKey == key {
		return p.pinned
	}
	g := p.Geoms
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.entryLocked(key).ref
}

// EnsureGeomRef builds and registers the geometry's shared nominal
// reference — its superposition basis — unless one exists, and pins
// the reference it found or built on the receiver: perturbed sessions
// of the same geometry on this planner borrow the pinned reference
// even if the cache evicts it meanwhile. The receiver must be a *nominal* planner for the
// geometry (same grid and flip layout as the perturbed samples,
// unperturbed parameter values), and may be perturbed afterwards:
// building the reference from nominal values is what makes every
// borrower's iteration path, and therefore the Monte-Carlo statistics,
// deterministic regardless of cell scheduling. Concurrent callers for
// one geometry coalesce into a single build. A nil Geoms (or a
// ColdStart planner) is a no-op.
func (p *Planner) EnsureGeomRef(ctx context.Context, chip power.Model, chips int, coolant material.Coolant) error {
	g := p.Geoms
	if g == nil || p.ColdStart || p.Perturbed {
		return nil
	}
	key := p.geomKey(chip, chips, coolant)
	g.mu.Lock()
	e := g.entryLocked(key)
	if ref := e.ref; ref != nil {
		g.mu.Unlock()
		p.pinnedKey, p.pinned = key, ref
		return nil
	}
	if b := e.building; b != nil {
		g.mu.Unlock()
		select {
		case <-b.done: // builder finished (or failed; borrowers fall back)
			if b.ref != nil {
				p.pinnedKey, p.pinned = key, b.ref
			}
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	b := &refBuild{done: make(chan struct{})}
	e.building = b
	g.mu.Unlock()

	ref, err := p.buildGeomRef(ctx, chip, chips, coolant)
	g.mu.Lock()
	// Re-fetch: the entry may have been evicted and recreated while we
	// were building outside the lock.
	e = g.entryLocked(key)
	if e.building == b {
		e.building = nil
	}
	if err == nil {
		b.ref = ref
		if e.ref == nil {
			e.ref = ref
		}
	}
	g.mu.Unlock()
	close(b.done)
	if err != nil {
		return err
	}
	p.pinnedKey, p.pinned = key, ref
	return nil
}

// buildGeomRef runs one nominal session to completion of its basis and
// keeps the shareable basis.
func (p *Planner) buildGeomRef(ctx context.Context, chip power.Model, chips int, coolant material.Coolant) (*geomRef, error) {
	s, err := p.NewSession(chip, chips, coolant)
	if err != nil {
		return nil, err
	}
	if err := s.Prime(ctx); err != nil {
		return nil, err
	}
	return &geomRef{basis: s.basis, ambientC: p.Params.AmbientC}, nil
}

// GeomStats is a point-in-time snapshot of the cache's counters.
type GeomStats struct {
	// Geometries is the number of cached structural entries.
	Geometries int `json:"geometries"`
	// SymbolicHits counts assemblies that reused a cached sparsity
	// pattern (value-only fill); SymbolicMisses counts full symbolic
	// assemblies, including the one that seeds each geometry.
	SymbolicHits   uint64 `json:"symbolic_hits"`
	SymbolicMisses uint64 `json:"symbolic_misses"`
}

// Stats returns the cache's counters. A nil cache reports zeros.
func (g *GeomCache) Stats() GeomStats {
	if g == nil {
		return GeomStats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return GeomStats{
		Geometries:     len(g.geoms),
		SymbolicHits:   g.symbolicHits,
		SymbolicMisses: g.symbolicMisses,
	}
}
