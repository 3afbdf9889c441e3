package determinism_test

import (
	"testing"

	"skipit/internal/analysis/antest"
	"skipit/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	antest.Run(t, determinism.Analyzer, antest.Dir(t, "internal/sim"))
}

// TestDeterminismParallelScheduler exercises the //skipit:parallel-scheduler
// waiver: in the scheduler package (internal/pdes) a well-formed directive
// silences exactly the goroutine it annotates and nothing else, while in a
// component package (internal/l1) the directive is inert and the goroutine
// stays a finding.
func TestDeterminismParallelScheduler(t *testing.T) {
	antest.Run(t, determinism.Analyzer,
		antest.Dir(t, "pdescheck/internal/pdes"),
		antest.Dir(t, "pdescheck/internal/l1"))
}
