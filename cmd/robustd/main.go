// Command robustd serves fault-injection campaigns over HTTP: submit a
// declarative campaign spec, watch live progress, fetch results as text,
// CSV, or JSON at any point mid-run, cancel, and resume. Every completed
// trial is checkpointed to an append-only JSONL store under the data
// directory, and per-campaign lifecycle state is mirrored to meta.json,
// so campaigns survive cancellation — and the daemon itself being killed:
// on startup every campaign directory under -data is recovered, prior
// campaigns stay listable and queryable, and campaigns a crash orphaned
// are reported as "interrupted" and can be resumed (automatically, with
// -autoresume), re-executing only the trials the crash lost.
//
// With -workers-expected > 0 robustd stops executing trials itself and
// becomes the coordinator of a robustworker fleet: campaign grids are
// carved into shard leases that workers pull over HTTP, each sized from
// the asking worker's measured rate to about 100 ms of work, and report
// results back for; expired leases (a killed worker) are reassigned, and
// the finished table is byte-identical to an in-process run. See
// cmd/robustworker.
//
// robustd also serves the parameter-search API (POST /tune,
// GET /tune/{id}, ...): a tune run searches a workload's declared knob
// grid, evaluating each candidate configuration as an ordinary durable
// campaign — so searches survive restarts (-autoresume finishes them)
// and distribute across the worker fleet like any campaign. See
// internal/tune.
//
// Usage:
//
//	robustd [-addr :8080] [-data DIR] [-concurrency N] [-autoresume]
//	        [-workers-expected N] [-lease-ttl 30s]
//	        [-shutdown-timeout 30s] [-debug-addr ADDR] [-mirror-events]
//
// -debug-addr mounts net/http/pprof and /debug/events on a second
// listener (keep it private; the main API serves /debug/events too).
// -mirror-events additionally appends lifecycle events to each
// campaign's telemetry.jsonl, beside its store.
//
// See README.md for the endpoint list, on-disk layout, and curl examples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"robustify/internal/campaign"
	"robustify/internal/dispatch"
	"robustify/internal/fpu/faultmodel"
	"robustify/internal/obs"
	"robustify/internal/tune"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "robustd:", err)
		os.Exit(1)
	}
}

// run starts the daemon. ready, if non-nil, receives the bound listen
// address once the server is accepting connections (used by tests to bind
// port 0 and learn the real port).
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("robustd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		data        = fs.String("data", "robustd-data", "campaign store directory")
		concurrency = fs.Int("concurrency", 4, "max concurrently running campaigns")
		autoresume  = fs.Bool("autoresume", false, "restart interrupted campaigns on boot")
		workers     = fs.Int("workers-expected", 0,
			"size of the robustworker fleet; >0 dispatches trials to workers instead of running them in-process")
		leaseTTL = fs.Duration("lease-ttl", 30*time.Second,
			"how long a worker may go between reports before its shard is reassigned")
		shutdownT = fs.Duration("shutdown-timeout", 30*time.Second,
			"bound on graceful shutdown (SIGTERM/SIGINT); 0 waits indefinitely on in-flight trials")
		debugAddr = fs.String("debug-addr", "",
			"optional second listen address for net/http/pprof and /debug/events")
		mirrorEvents = fs.Bool("mirror-events", false,
			"mirror lifecycle trace events into each campaign's telemetry.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := campaign.NewManager(*data, *concurrency)
	if err != nil {
		return err
	}
	defer m.Close()
	// The tune registry lives inside the campaign data root (covered by
	// its flock); evaluation campaigns are ordinary campaigns beside it.
	tm, err := tune.NewManager(filepath.Join(*data, "tunes"), m)
	if err != nil {
		return err
	}
	defer tm.Close()

	// Observability hub: lifecycle trace ring, per-trial telemetry
	// sidecars, latency histograms, and fault-placement recorders. All of
	// it is diagnostics — trial values and stores are bit-identical with
	// the hub on or off.
	hub := obs.NewHub()
	defer func() {
		// Close writes the telemetry lines still buffered.
		if err := hub.Close(); err != nil {
			log.Printf("robustd: close telemetry: %v", err)
		}
	}()
	hub.SetMirrorEvents(*mirrorEvents)
	m.SetHub(hub)
	tm.SetEvents(hub)
	m.AddMetrics(hub.WriteMetrics)
	m.AddMetrics(tm.WriteMetrics)
	// Every non-reliable FPU built from a fault-model spec gets a fault
	// recorder; the campaign engine drains them into telemetry per trial.
	faultmodel.SetUnitObserver(hub.Observer)

	if *workers > 0 {
		m.SetDispatcher(dispatch.New(dispatch.Options{
			LeaseTTL:        *leaseTTL,
			WorkersExpected: *workers,
			Events:          hub,
		}))
		log.Printf("robustd: dispatching trials to a robustworker fleet (expected %d, lease TTL %s)",
			*workers, *leaseTTL)
	}
	if recovered := m.List(); len(recovered) > 0 {
		byState := map[string]int{}
		for _, s := range recovered {
			byState[s.State]++
		}
		log.Printf("robustd: recovered %d campaign(s) from %s: %v", len(recovered), *data, byState)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Auto-resume only once the listen socket is ours: a bind failure
	// (port taken — often another daemon racing for the same role) should
	// exit without having restarted campaigns just to wind them down.
	if *autoresume {
		if ids := m.ResumeInterrupted(); len(ids) > 0 {
			log.Printf("robustd: auto-resuming interrupted campaign(s): %v", ids)
		}
		if ids := tm.ResumeInterrupted(); len(ids) > 0 {
			log.Printf("robustd: auto-resuming interrupted tune run(s): %v", ids)
		}
	}
	mux := http.NewServeMux()
	tuneHandler := tune.NewServer(tm)
	mux.Handle("/tune", tuneHandler)
	mux.Handle("/tune/", tuneHandler)
	mux.Handle("/", campaign.NewServer(m))
	srv := &http.Server{Handler: mux}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer dln.Close()
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.HandleFunc("/debug/events", hub.EventsHandler())
		go func() {
			if err := http.Serve(dln, dmux); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("robustd: debug server: %v", err)
			}
		}()
		log.Printf("robustd: debug endpoints (pprof, events) on %s", dln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("robustd: listening on %s, storing campaigns under %s", ln.Addr(), *data)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		log.Printf("robustd: shutting down (timeout %s)", *shutdownT)
		// One deadline covers both halves of the wind-down: stop accepting
		// HTTP, then cancel campaigns and wait for them to persist their
		// interrupted state. A wedged trial cannot hold the process
		// hostage — past the deadline robustd exits anyway, and the next
		// boot recovers the campaign exactly like a crash.
		shutdownCtx := context.Background()
		if *shutdownT > 0 {
			var cancel context.CancelFunc
			shutdownCtx, cancel = context.WithTimeout(shutdownCtx, *shutdownT)
			defer cancel()
		}
		// Stop tune searches from submitting new evaluation campaigns
		// before the campaign manager winds down; their in-flight waits
		// unblock as the campaigns underneath are cancelled.
		tm.Interrupt()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("robustd: http shutdown: %v", err)
		}
		remaining := func() time.Duration {
			if dl, ok := shutdownCtx.Deadline(); ok {
				if r := time.Until(dl); r > 0 {
					return r
				}
				return time.Millisecond // deadline already spent; poll once
			}
			return 0
		}
		if !m.Shutdown(remaining()) {
			log.Printf("robustd: shutdown deadline expired with campaigns still winding down; exiting")
		}
		if !tm.Shutdown(remaining()) {
			log.Printf("robustd: shutdown deadline expired with tune runs still winding down; exiting")
		}
		return nil
	}
}
