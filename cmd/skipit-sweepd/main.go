// Command skipit-sweepd is the fault-tolerant distributed sweep service: it
// runs either the coordinator (the default) or a worker, promoting the
// skipit-bench sweep from an in-process pool to simulation-as-a-service.
//
// Coordinator:
//
//	skipit-sweepd -http 127.0.0.1:7070 -store DIR [-journal FILE] [-seed N]
//	              [-lease DUR] [-max-attempts N] [-min-workers N] [-max-queue N]
//
// The coordinator serves the job API and the introspection endpoints
// (/metrics, /events with live job-state transitions, /api/sweepd/state) on
// one listener. Jobs are leased to workers with heartbeat-renewed deadlines;
// a silent worker's lease expires and the job is requeued with deterministic
// exponential backoff under a bounded retry budget. Every state transition
// is journaled (-journal), so a crashed coordinator restarted on the same
// journal and store resumes the queue; results commit idempotently into the
// content-addressed result store. With -min-workers set, a pool below that
// floor sheds the lowest-priority pending jobs past -max-queue with a typed
// overload failure instead of queueing unboundedly.
//
// Worker:
//
//	skipit-sweepd -worker -fleet http://HOST:7070 [-name ID] [-quick]
//	              [-job-timeout DUR] [-exit-when-drained]
//
// A worker compiles in the same figure job table as skipit-bench and
// resolves leased (group, name) specs back to runnable measurements; the
// job fingerprint is the interlock — a worker whose build (or -quick
// setting) would measure something different refuses the job. Jobs run
// under heartbeats carrying live progress; a panic or sim-watchdog hang
// becomes a structured failure, not a dead worker.
//
// The -fault-* flags (worker only) inject seed-scheduled transport faults —
// drops, duplicates, delays — for exercising the fault-tolerance machinery
// in CI; see internal/sweepd.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"skipit/internal/bench"
	"skipit/internal/introspect"
	"skipit/internal/sweep"
	"skipit/internal/sweepd"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		worker = flag.Bool("worker", false, "run as a worker instead of the coordinator")

		// Coordinator flags.
		httpAddr    = flag.String("http", "127.0.0.1:7070", "coordinator listen address (job API + introspection)")
		storeDir    = flag.String("store", "", "result-store directory (required for the coordinator)")
		journalPath = flag.String("journal", "", "write-ahead journal file; restarting on the same journal resumes the queue (empty = no crash recovery)")
		seed        = flag.Int64("seed", 0, "seed for the deterministic retry-backoff jitter")
		lease       = flag.Duration("lease", 10*time.Second, "lease TTL: how long a worker may go without a heartbeat")
		maxAttempts = flag.Int("max-attempts", 3, "retry budget per job before it fails terminally")
		minWorkers  = flag.Int("min-workers", 0, "degradation floor: below this many live workers, shed pending jobs past -max-queue (0 disables)")
		maxQueue    = flag.Int("max-queue", 0, "pending-queue ceiling enforced while below -min-workers")

		// Worker flags.
		fleetURL     = flag.String("fleet", "", "coordinator base URL (required for a worker), e.g. http://127.0.0.1:7070")
		name         = flag.String("name", "", "worker name (default host:pid)")
		quick        = flag.Bool("quick", false, "build the quick-mode job table (must match the submitting skipit-bench)")
		jobTimeout   = flag.Duration("job-timeout", 15*time.Minute, "per-job wall-clock backstop behind the sim watchdog (0 disables)")
		exitDrained  = flag.Bool("exit-when-drained", false, "exit once the coordinator reports every job terminal (ephemeral CI workers)")
		faultSeed    = flag.Int64("fault-seed", 0, "transport fault-injection seed (0 disables injection)")
		faultDrop    = flag.Float64("fault-drop", 0.05, "with -fault-seed: per-call request drop probability")
		faultDup     = flag.Float64("fault-dup", 0.05, "with -fault-seed: per-call duplicate-delivery probability")
		faultDelayMs = flag.Int("fault-delay-ms", 0, "with -fault-seed: max per-call injected delay in milliseconds")
	)
	flag.Parse()

	if *worker {
		return runWorker(*fleetURL, *name, *quick, *jobTimeout, *exitDrained,
			*faultSeed, *faultDrop, *faultDup, *faultDelayMs)
	}
	return runCoordinator(*httpAddr, *storeDir, *journalPath, *seed, *lease,
		*maxAttempts, *minWorkers, *maxQueue)
}

func runCoordinator(addr, storeDir, journalPath string, seed int64, lease time.Duration,
	maxAttempts, minWorkers, maxQueue int) int {
	if storeDir == "" {
		fmt.Fprintln(os.Stderr, "skipit-sweepd: -store DIR is required for the coordinator")
		return 2
	}
	store, err := sweep.Open(storeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	coord, err := sweepd.NewCoordinator(sweepd.CoordConfig{
		Store:       store,
		JournalPath: journalPath,
		Seed:        seed,
		LeaseTTL:    lease,
		MaxAttempts: maxAttempts,
		MinWorkers:  minWorkers,
		MaxQueue:    maxQueue,
		Logf:        logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	srv, err := introspect.New(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	sweepd.Mount(srv, coord)
	logf("skipit-sweepd: coordinator on http://%s (job API under /api/sweepd/, state at /api/sweepd/state)", srv.Addr())

	stop := make(chan struct{})
	go coord.ReapLoop(stop, lease/2)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logf("skipit-sweepd: shutting down")
	close(stop)
	srv.Close()
	if err := coord.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

func runWorker(fleetURL, name string, quick bool, jobTimeout time.Duration, exitDrained bool,
	faultSeed int64, faultDrop, faultDup float64, faultDelayMs int) int {
	if fleetURL == "" {
		fmt.Fprintln(os.Stderr, "skipit-sweepd: -worker requires -fleet URL")
		return 2
	}
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if quick {
		bench.SetQuick()
	}
	var transport sweepd.Transport = &sweepd.HTTPTransport{Base: fleetURL}
	if faultSeed != 0 {
		transport = &sweepd.FaultTransport{Inner: transport, Plan: sweepd.FaultPlan{
			Seed:         faultSeed,
			DropRequest:  faultDrop,
			DropResponse: faultDrop,
			Duplicate:    faultDup,
			DelayMax:     time.Duration(faultDelayMs) * time.Millisecond,
		}}
		fmt.Fprintf(os.Stderr, "skipit-sweepd: worker %s injecting transport faults (seed %d)\n", name, faultSeed)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	w := sweepd.NewWorker(sweepd.WorkerConfig{
		Name:            name,
		Client:          &sweepd.Client{T: transport},
		Source:          sweepd.PerSweepJobs(func() []sweep.Job { return bench.FigureJobs(quick, nil) }),
		JobTimeout:      jobTimeout,
		ExitWhenDrained: exitDrained,
		Logf:            logf,
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		logf("skipit-sweepd: worker %s stopping after the current job", name)
		w.Stop()
	}()
	logf("skipit-sweepd: worker %s serving %s", name, fleetURL)
	if err := w.Run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}
