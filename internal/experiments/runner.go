// Parallel experiment runner: cells across a worker pool, each seeded by one
// of the two seed layouts (DESIGN.md "Experiment ownership") and collected
// positionally, so output is identical at any worker count.
package experiments

import (
	"runtime"
	"sync"

	"peerlab/internal/metrics"
	"peerlab/internal/overlay"
	"peerlab/internal/scenario"
)

// deriveSeed maps (root seed, figure, cell index) to the cell's simnet
// seed via scenario.Mix64 (SplitMix64) — the shared seed-derivation
// primitive of the experiment stack.
func deriveSeed(seed int64, figure string, index int) int64 {
	h := scenario.Mix64(uint64(seed))
	for _, b := range []byte(figure) {
		h = scenario.Mix64(h ^ uint64(b))
	}
	return int64(scenario.Mix64(h ^ uint64(index)))
}

// workerPool bounds how many cells simulate concurrently. A cell holds a
// slot only while its own scheduler runs; cells are CPU-bound, so the pool
// is sized to cores by default.
type workerPool struct {
	sem chan struct{}
}

func newWorkerPool(n int) *workerPool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &workerPool{sem: make(chan struct{}, n)}
}

func (p *workerPool) acquire() { p.sem <- struct{}{} }
func (p *workerPool) release() { <-p.sem }

// runCells executes n independent cells of one figure across the worker
// pool and returns their results in cell order. Each cell receives a copy
// of cfg with Seed replaced by its derived seed — deriveSeed over the
// figure tag and the cell's linear index, the layout every committed
// figure value depends on.
func runCells[T any](cfg Config, figure string, n int, cell func(i int, cellCfg Config) (T, error)) ([]T, error) {
	return runCellsSeeded(cfg, n, func(i int) int64 { return deriveSeed(cfg.Seed, figure, i) }, cell)
}

// runCellsSeeded is the pool fan-out beneath runCells, seedOf mapping a cell
// index to its derived seed. On failure the error of the lowest-index
// failing cell is returned, so even error output is worker-independent.
func runCellsSeeded[T any](cfg Config, n int, seedOf func(i int) int64, cell func(i int, cellCfg Config) (T, error)) ([]T, error) {
	pool := cfg.pool
	if pool == nil {
		pool = newWorkerPool(cfg.Workers)
	}
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pool.acquire()
			defer pool.release()
			cellCfg := cfg
			cellCfg.Seed = seedOf(i)
			out[i], errs[i] = cell(i, cellCfg)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// envCell deploys a fresh slice for one cell and runs fn as its driver
// process, returning fn's result once the cell's network quiesces. peers
// names the peer labels the cell interacts with (nil = all): a per-peer
// measurement on a 100+ peer slice boots one client, not hundreds.
func envCell[T any](cellCfg Config, peers []string, fn func(env *Env, ctl *overlay.Client) (T, error)) (T, error) {
	var out T
	env, err := NewEnvFor(cellCfg, peers)
	if err != nil {
		return out, err
	}
	err = env.RunPeers(peers, func(ctl *overlay.Client, _ map[string]*overlay.Client) (err error) {
		out, err = fn(env, ctl)
		return err
	})
	return out, err
}

// SuiteFigure pairs a figure key ("fig2", "figchurn", ...) with its
// regenerated figure.
type SuiteFigure struct {
	Name   string          `json:"name"`
	Figure *metrics.Figure `json:"figure"`
}

// Suite is RunFigures' result: Table 1 when asked for, and the figures in
// the order they were named. FigureSuite's is the paper's full evaluation.
type Suite struct {
	Table1  *metrics.Table `json:"table1"`
	Figures []SuiteFigure  `json:"figures"`
}

// Figure returns the suite figure with the given key, or nil.
func (s *Suite) Figure(name string) *metrics.Figure {
	for _, f := range s.Figures {
		if f.Name == name {
			return f.Figure
		}
	}
	return nil
}

// FigureSuite regenerates Table 1 and Figures 2–7: RunFigures over "all".
func FigureSuite(cfg Config) (*Suite, error) { return RunFigures(cfg, []string{"all"}) }
