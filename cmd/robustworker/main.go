// Command robustworker executes fault-injection trial shards for a
// robustd coordinator (started with -workers-expected > 0). It is the
// scale-out half of distributed campaigns: register with the
// coordinator, poll for a shard lease, compile the campaign's spec with
// the exact code the coordinator used, execute the shard's trials —
// every value is determined by (spec, unit, rate index, trial index)
// alone, so any worker produces bit-identical results — and report them,
// normally once per shard. The coordinator sizes each lease from this
// worker's measured rate to about 100 ms of work, so reports stay rare
// however short the trials are.
//
// The worker runs the lease consumer an in-process campaign runs too
// (dispatch.Consume, behind campaign.Execution.Run): while a finished
// shard's done report is on its way to the coordinator, the worker
// leases and runs the next shard, so it keeps computing during the
// round trip. At most one report is in flight; any other report (a
// heartbeat of a long shard, a hand-back) waits for it and sees its
// verdict. This file keeps only the transport: registration, backoff,
// heartbeats, the plan cache, hand-backs and the shutdown budget. A
// lease's measured rate, and so the size of the next one, can include
// the wait for the previous report. On SIGTERM the trials running get
// 2 s to finish, and each report still to go gets 2 s from the signal
// or from its own start, whichever is later (about 4 s in all).
//
// The worker is disposable by design: SIGKILL one mid-shard and the
// coordinator reassigns its leases after the TTL; nothing is lost but
// the unreported trials (at most two lease slices, about 200 ms of
// work: the shard running and the one being reported), which the next
// worker re-executes to the same values. It also survives the
// coordinator: connection errors back off and retry, and an "unknown
// worker" answer (the signature of a coordinator restart) just triggers
// re-registration.
//
// Usage:
//
//	robustworker -coordinator http://host:8080 [-name NAME] [-poll 250ms]
//	             [-parallel N] [-debug-addr ADDR]
//
// -debug-addr serves the worker's own /metrics (execution counters,
// per-workload latency histograms, observed fault classes), /healthz,
// and net/http/pprof.
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
	"runtime"
	"sync"
	"syscall"
	"time"

	"robustify/internal/campaign"
	"robustify/internal/dispatch"
	"robustify/internal/fpu/faultmodel"
	"robustify/internal/harness"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "robustworker:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("robustworker", flag.ContinueOnError)
	var (
		coordinator = fs.String("coordinator", "http://localhost:8080", "robustd base URL")
		name        = fs.String("name", "", "worker name reported to the coordinator (default host:pid)")
		poll        = fs.Duration("poll", 250*time.Millisecond, "idle poll interval when the coordinator has no work")
		parallel    = fs.Int("parallel", 0, "trials executed concurrently within a shard (0 = GOMAXPROCS)")
		debugAddr   = fs.String("debug-addr", "",
			"optional listen address for the worker's /metrics, /healthz, and net/http/pprof")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stats := newWstats()
	// Every non-reliable FPU the trial functions build gets a fault
	// recorder; Run's trial sink folds them into the worker's /metrics
	// counters. Passive taps: trial values stay bit-identical.
	faultmodel.SetUnitObserver(stats.collector.Observer)
	w := &worker{
		cl:       dispatch.NewClient(*coordinator, *name),
		poll:     *poll,
		parallel: *parallel,
		stats:    stats,
		plans:    make(map[string]plan),
	}
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer dln.Close()
		dmux := http.NewServeMux()
		dmux.HandleFunc("GET /metrics", stats.metricsHandler())
		dmux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"status": "ok"}`)
		})
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.Serve(dln, dmux); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("robustworker: debug server: %v", err)
			}
		}()
		log.Printf("robustworker: debug endpoints (metrics, pprof) on %s", dln.Addr())
	}
	log.Printf("robustworker: %s serving coordinator %s (parallel %d)",
		*name, *coordinator, *parallel)
	dispatch.Consume(ctx, w) // ends with ctx: no delivery of the worker's fails
	log.Printf("robustworker: shutting down")
	return nil
}

// planCacheMax bounds the worker's plan cache; past it the cache is
// simply reset (campaigns in flight recompile once).
const planCacheMax = 64

// detachedBudget bounds each step of a shutdown: the trial loop's stop,
// and each report, from the shutdown or its start, whichever is later.
const detachedBudget = 2 * time.Second

// worker is the dispatch.Source that dispatch.Consume drives: it leases
// from the coordinator into one of two slots, runs a slot's shard, and
// delivers it as a done report while the other slot's lease runs.
type worker struct {
	cl       *dispatch.Client
	poll     time.Duration
	parallel int
	stats    *wstats
	// plans caches each campaign's plan by planKey, so a campaign is
	// compiled, or found unservable, once. mu guards it: a report's
	// verdict lands on the delivery goroutine while the loop leases.
	mu    sync.Mutex
	plans map[string]plan
	// reporting is held across each report and the verdict it brings,
	// so reports go one at a time: a heartbeat waits for the done report
	// in flight and sees its verdict.
	reporting sync.Mutex
	slots     [2]slot
}

// slot is one lease: its campaign (nil when this build cannot run it,
// and the lease goes back unrun) and the results its trials collect.
type slot struct {
	lr      *dispatch.LeaseResponse
	key     string
	camp    *campaign.Campaign
	pending dispatch.Pending
}

// Acquire leases the next shard into slot s, registering first. Every
// failure degrades to a backoff and a retry — the coordinator being
// down, restarted, or out of work must never kill the worker — so it
// returns false only once ctx ends.
func (w *worker) Acquire(ctx context.Context, s int) bool {
	const (
		backoffMin = 250 * time.Millisecond
		backoffMax = 5 * time.Second
	)
	backoff := backoffMin
	for ctx.Err() == nil {
		if !w.cl.Registered() {
			if err := w.cl.Register(ctx); err != nil {
				if ctx.Err() == nil {
					log.Printf("robustworker: register: %v (retrying in %s)", err, backoff)
				}
				sleep(ctx, backoff)
				backoff = min(2*backoff, backoffMax)
				continue
			}
			log.Printf("robustworker: registered as %s (lease TTL %s)", w.cl.WorkerID(), w.cl.LeaseTTL())
			backoff = backoffMin
		}
		lr, err := w.cl.Lease(ctx)
		switch {
		case errors.Is(err, dispatch.ErrUnknownWorker):
			// The coordinator restarted and forgot the fleet; start over.
			log.Printf("robustworker: coordinator forgot %s (restart?); re-registering", w.cl.WorkerID())
			w.cl.Forget()
		case err != nil:
			if ctx.Err() == nil {
				log.Printf("robustworker: lease: %v (retrying in %s)", err, backoff)
			}
			sleep(ctx, backoff)
			backoff = min(2*backoff, backoffMax)
		case lr == nil:
			sleep(ctx, w.poll)
		default:
			sl := &w.slots[s]
			sl.lr, sl.key = lr, planKey(lr)
			var err error
			if sl.camp, err = w.plan(sl.key, lr); err != nil {
				// Unexecutable spec — version skew with the coordinator.
				// Hand the shard back: maybe another worker runs a
				// matching build.
				log.Printf("robustworker: campaign %s: %v; releasing lease %s", lr.Campaign, err, lr.Lease)
			}
			return true
		}
	}
	return false
}

// planKey identifies a campaign as this worker sees it: the id plus the
// exact spec bytes, so a resubmitted id with a different spec is a
// different cache entry.
func planKey(lr *dispatch.LeaseResponse) string {
	return lr.Campaign + "\x00" + string(lr.Spec)
}

// plan is a campaign as this build sees it: compiled, or unservable
// (uncompilable, or its results rejected), when every later lease of it
// is handed straight back.
type plan struct {
	camp *campaign.Campaign
	bad  error
}

// remember caches p under key, evicting any earlier entry: a verdict
// must not be shadowed by the compiled plan.
func (w *worker) remember(key string, p plan) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.plans) >= planCacheMax {
		clear(w.plans)
	}
	w.plans[key] = p
}

// isBad reports whether the campaign of key is known to be unservable.
func (w *worker) isBad(key string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.plans[key].bad != nil
}

// plan returns the compiled campaign for a lease whose planKey is key,
// compiling it on the campaign's first lease; a compile failure is
// cached too.
func (w *worker) plan(key string, lr *dispatch.LeaseResponse) (*campaign.Campaign, error) {
	w.mu.Lock()
	p, ok := w.plans[key]
	w.mu.Unlock()
	if !ok {
		spec, err := campaign.ParseSpec(lr.Spec)
		if err == nil {
			p.camp, err = campaign.Compile(spec)
		}
		p.bad = err
		w.remember(key, p)
	}
	return p.camp, p.bad
}

// Run executes slot s's shard: Campaign.RunShard runs the trials on a
// goroutine of their own — the trial loop local campaigns use — and its
// sink adds each result to the slot, while this goroutine reports what
// has accumulated on a heartbeat tick (TTL/3, so a slow trial never lets
// the lease lapse). A lease is sized to far less than TTL/3, so it
// normally goes back in one done report, delivered once Run returns. A
// heartbeat that loses the lease stops the shard.
func (w *worker) Run(ctx context.Context, s int) error {
	sl := &w.slots[s]
	if sl.camp == nil {
		return nil
	}
	label := sl.camp.Spec.MetricLabel()
	// sctx stops the trial loop early. Nothing reaches the slot once ran
	// has a value; only a trial still wedged after a shutdown's wait
	// below can, and the worker is exiting then.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ran := make(chan error, 1)
	go func() {
		err := sl.camp.RunShard(sctx, sl.lr.Shard, w.parallel, func(t harness.Trial) {
			w.stats.observeTrial(label, t.Dur, t.Rate, t.Seed)
			sl.pending.Add(dispatch.TrialResult{
				Unit: sl.lr.Shard.Unit, RateIdx: t.RateIdx, TrialIdx: t.TrialIdx,
				Rate: t.Rate, Seed: t.Seed, Value: t.Value,
			})
		})
		if err == nil || sctx.Err() != nil { // out-of-grid shards never ran
			w.stats.shards.Add(1)
		}
		ran <- err
	}()

	ttl := sl.lr.TTL
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	heartbeat := time.NewTicker(ttl / 3)
	defer heartbeat.Stop()
	for {
		select {
		case err := <-ran:
			if err != nil && sctx.Err() == nil {
				// The shard lies outside the grid this build compiled.
				log.Printf("robustworker: campaign %s: lease %s: %v; releasing", sl.lr.Campaign, sl.lr.Lease, err)
				sl.camp = nil
			}
			return nil
		case <-heartbeat.C:
			// Nothing pending is a pure heartbeat.
			if !w.send(ctx, sl, sl.pending.Take(nil), false) {
				cancel()
				<-ran
				return nil
			}
		case <-ctx.Done():
			// Shutdown: stop the trial loop and keep the trials it already
			// finished — but never wait on a wedged trial: give it the
			// detached budget, then deliver whatever was collected.
			cancel()
			select {
			case <-ran:
			case <-time.After(detachedBudget):
			}
			return ctx.Err()
		}
	}
}

// Deliver reports slot s's results in a done report, also when the run
// was cut short: the coordinator re-leases whatever is missing at once,
// so an unrunnable lease goes back as an empty done report, throttled by
// the poll interval, instead of parking for a TTL. The report may run
// detachedBudget past ctx's end or its own start, whichever is later.
func (w *worker) Deliver(ctx context.Context, s int) error {
	sl := &w.slots[s]
	rctx, cancel := detach(ctx)
	defer cancel()
	w.send(rctx, sl, sl.pending.Take(nil), true)
	if sl.camp == nil {
		sleep(ctx, w.poll)
	}
	return nil
}

// detach returns a context for a report that ctx's end does not cut off
// at once: it ends detachedBudget after ctx ends (or after the call).
func detach(ctx context.Context) (context.Context, context.CancelFunc) {
	dctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	stop := context.AfterFunc(ctx, func() { time.AfterFunc(detachedBudget, cancel) })
	return dctx, func() { stop(); cancel() }
}

// send reports results on slot sl's lease, after any report in flight,
// with two quick retries: a coordinator that stays unreachable costs the
// lease, which expires for someone else to finish. It applies the
// verdict and reports whether the lease is still worth working on. A
// done report of a campaign marked bad goes without its results. A
// Rejected count means this build computes different seeds or rates
// than the coordinator (version skew), so the campaign is marked bad
// and its later leases are handed straight back; Lost ends a lease that
// was not done anyway.
func (w *worker) send(ctx context.Context, sl *slot, results []dispatch.TrialResult, done bool) bool {
	w.reporting.Lock()
	defer w.reporting.Unlock()
	lr := sl.lr
	if w.isBad(sl.key) { // a verdict came in since the lease began
		if !done {
			return false
		}
		results = nil
	}
	resp, err := w.cl.Report(ctx, lr.Campaign, lr.Lease, results, done)
	for attempt := 1; err != nil && attempt <= 2 && ctx.Err() == nil; attempt++ {
		sleep(ctx, 250*time.Millisecond)
		resp, err = w.cl.Report(ctx, lr.Campaign, lr.Lease, results, done)
	}
	if err != nil {
		log.Printf("robustworker: report %s/%s: %v; abandoning shard", lr.Campaign, lr.Lease, err)
		return false
	}
	w.stats.reports.Add(1)
	switch {
	case resp.Rejected > 0:
		log.Printf("robustworker: coordinator rejected %d result(s) for %s (version skew?); abandoning campaign",
			resp.Rejected, lr.Campaign)
		w.remember(sl.key, plan{bad: fmt.Errorf("coordinator rejected this build's results (%d in one batch)", resp.Rejected)})
		return false
	case resp.Lost && !done:
		log.Printf("robustworker: lease %s/%s lost; abandoning shard", lr.Campaign, lr.Lease)
		return false
	}
	return true
}

// sleep waits d or until ctx is cancelled.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
