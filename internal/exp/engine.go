package exp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sfi"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// The parallel experiment engine. Experiments decompose into
// independent cells — one (kernel, config, args) measurement each; a
// worker pool fans the cells across CPUs and results are collected in
// cell order, so every table, checksum cross-check, and error is
// byte-identical to a serial run. Cells are independent by
// construction: each measurement runs on a fresh rt.Instance (own
// address space, own machine), and the only shared state — the module
// compile cache and the sim-cycle counter — is concurrency-safe.

// parallelMap applies f to every item on a pool of o.Jobs workers
// (runtime.NumCPU() when zero) and returns the results and errors
// indexed like items. Every item runs even when another fails, so
// callers can walk the error slice in serial-iteration order and report
// exactly the error a serial run would have hit first, independent of
// goroutine scheduling.
func parallelMap[T, R any](o Options, items []T, f func(T) (R, error)) ([]R, []error) {
	n := len(items)
	res := make([]R, n)
	errs := make([]error, n)
	workers := o.Jobs
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}

	// exec runs one item; when telemetry is on it is wrapped to count
	// the cell, accumulate wall time, and emit a span on the wall-time
	// trace track (tid = worker). Results are unaffected either way.
	exec := func(i, worker int) {
		res[i], errs[i] = f(items[i])
	}
	tele := telemetry.Enabled()
	var cellNs atomic.Uint64
	if tele {
		ctrCells := telemetry.Default.Counter("exp.cells")
		ctrCellNs := telemetry.Default.Counter("exp.cell_wall_ns")
		inner := exec
		exec = func(i, worker int) {
			start := telemetry.Trace.Now()
			t0 := time.Now()
			inner(i, worker)
			d := uint64(time.Since(t0))
			ctrCells.Inc()
			ctrCellNs.Add(d)
			cellNs.Add(d)
			telemetry.Trace.Span("cell", "exp", telemetry.PidWall, worker,
				start, float64(d))
		}
	}
	mapStart := time.Now()

	if workers <= 1 {
		for i := range items {
			exec(i, 0)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					exec(i, worker)
				}
			}(w)
		}
		wg.Wait()
	}

	if tele && n > 0 {
		// Pool-level gauges describe the most recent fan-out: worker
		// count, fraction of worker-seconds spent inside cells, and
		// measured cell throughput.
		if workers < 1 {
			workers = 1
		}
		telemetry.Default.Gauge("exp.workers").Set(int64(workers))
		if elapsed := time.Since(mapStart); elapsed > 0 {
			util := float64(cellNs.Load()) / (float64(elapsed) * float64(workers)) * 100
			telemetry.Default.Gauge("exp.worker_utilization_pct").Set(int64(util + 0.5))
			telemetry.Default.Gauge("exp.cells_per_sec").Set(int64(float64(n)/elapsed.Seconds() + 0.5))
		}
	}
	return res, errs
}

// firstErr returns the lowest-index non-nil error.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cell is one experiment measurement: a kernel under a configuration.
type cell struct {
	Kernel workloads.Kernel
	Cfg    sfi.Config
	Args   []uint64
}

// measureCells measures every cell across the worker pool, results in
// cell order.
func (o Options) measureCells(cells []cell) ([]Measurement, []error) {
	return parallelMap(o, cells, func(c cell) (Measurement, error) {
		return o.MeasureKernel(c.Kernel, c.Cfg, c.Args)
	})
}
