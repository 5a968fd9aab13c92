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
// A finished shard's report goes in the background while the worker
// leases and runs the next shard, so the worker keeps computing during
// the round trip. At most one report is in flight: the worker waits for
// it, and acts on its verdict, before it sends any other report (a
// heartbeat, a flush of a long shard, a release), on shutdown and before
// it exits. A lease's measured rate, and so the size of the next one,
// can include that wait. On SIGTERM the report in flight still gets a
// 2 s budget to finish, as does the flush of the shard that was running.
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
	// recorder; runShard folds them into the worker's /metrics counters.
	// Passive taps: trial values stay bit-identical.
	faultmodel.SetUnitObserver(stats.collector.Observer)
	w := &worker{
		cl:       dispatch.NewClient(*coordinator, *name),
		poll:     *poll,
		parallel: *parallel,
		stats:    stats,
		plans:    make(map[string]*campaign.Campaign),
		bad:      make(map[string]string),
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
	w.loop(ctx)
	log.Printf("robustworker: shutting down")
	return nil
}

// planCacheMax bounds the worker's compiled-plan and known-bad caches;
// past it the cache is simply reset (campaigns in flight recompile once).
const planCacheMax = 64

type worker struct {
	cl       *dispatch.Client
	poll     time.Duration
	parallel int
	stats    *wstats
	// plans caches compiled campaigns by id+spec, so one compile serves
	// every shard of a campaign; bad remembers specs this build cannot
	// compile, so version skew is detected without recompiling per lease.
	plans map[string]*campaign.Campaign
	bad   map[string]string
	// inflight is the done report still on its way to the coordinator,
	// nil when none is. Only the loop's goroutine touches it, and the
	// plan and bad caches.
	inflight *inflight
}

// loop is the worker's life: register, lease, execute, repeat. Every
// failure path degrades to a backoff-and-retry — the coordinator being
// down, restarted, or out of work must never kill the worker.
func (w *worker) loop(ctx context.Context) {
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
		lease, err := w.cl.Lease(ctx)
		switch {
		case errors.Is(err, dispatch.ErrUnknownWorker):
			// The coordinator restarted and forgot the fleet; start over,
			// once the report in flight no longer reads the worker id.
			log.Printf("robustworker: coordinator forgot %s (restart?); re-registering", w.cl.WorkerID())
			w.settle(ctx)
			w.cl.Forget()
		case err != nil:
			if ctx.Err() == nil {
				log.Printf("robustworker: lease: %v (retrying in %s)", err, backoff)
			}
			sleep(ctx, backoff)
			backoff = min(2*backoff, backoffMax)
		case lease == nil:
			sleep(ctx, w.poll)
		default:
			backoff = backoffMin
			w.runShard(ctx, lease)
		}
	}
	w.settle(ctx)
}

// planKey identifies a campaign as this worker sees it: the id plus the
// exact spec bytes, so a resubmitted id with a different spec is a
// different cache entry.
func planKey(lr *dispatch.LeaseResponse) string {
	return lr.Campaign + "\x00" + string(lr.Spec)
}

// markBad remembers a campaign this build cannot serve (uncompilable or
// verify-rejected spec); later leases of it are released immediately.
// The compiled plan is evicted too — it must not shadow the verdict.
func (w *worker) markBad(key, msg string) {
	delete(w.plans, key)
	if len(w.bad) >= planCacheMax {
		clear(w.bad)
	}
	w.bad[key] = msg
}

// plan returns the compiled campaign for a lease whose planKey is key,
// cached per (campaign, spec) so recompilation never happens per shard;
// compile failures are cached too.
func (w *worker) plan(key string, lr *dispatch.LeaseResponse) (*campaign.Campaign, error) {
	if msg, ok := w.bad[key]; ok { // a bad verdict outranks any cached plan
		return nil, errors.New(msg)
	}
	if camp, ok := w.plans[key]; ok {
		return camp, nil
	}
	camp, err := func() (*campaign.Campaign, error) {
		spec, err := campaign.ParseSpec(lr.Spec)
		if err != nil {
			return nil, err
		}
		return campaign.Compile(spec)
	}()
	if err != nil {
		w.markBad(key, err.Error())
		return nil, err
	}
	if len(w.plans) >= planCacheMax {
		clear(w.plans)
	}
	w.plans[key] = camp
	return camp, nil
}

// release hands an unexecutable shard straight back to the pending pool
// (a done report with no results requeues whatever is missing). Leaving
// the lease to expire instead would let a version-skewed worker lease —
// and park for a full TTL — every shard of a campaign it cannot run,
// starving healthy workers; returned shards are re-leasable immediately.
func (w *worker) release(ctx context.Context, lr *dispatch.LeaseResponse) {
	w.settle(ctx)
	if _, err := w.cl.Report(ctx, lr.Campaign, lr.Lease, nil, true); err != nil && ctx.Err() == nil {
		log.Printf("robustworker: release %s/%s: %v", lr.Campaign, lr.Lease, err)
	}
}

// detachedBudget bounds each step of a shutdown: waiting for the trial
// loop to stop, finishing the report in flight, and the final flush.
const detachedBudget = 2 * time.Second

// runShard executes one leased shard: Campaign.RunShard runs the trials
// on a goroutine of their own — the trial loop local campaigns use —
// and its sink appends each result to pending, while this goroutine
// takes what has accumulated and reports it: with done=true in the
// background when the shard finishes (see finish), and synchronously on
// a heartbeat tick (TTL/3, so a slow trial never lets the lease lapse).
// A lease is sized to far less than TTL/3, so it normally goes back in
// one report, and never holds more than MaxReport trials. A lost lease
// or a dead coordinator abandons the shard; whatever was not reported is
// somebody else's work after the TTL.
func (w *worker) runShard(ctx context.Context, lr *dispatch.LeaseResponse) {
	w.settleIfDone(ctx)
	key := planKey(lr)
	camp, err := w.plan(key, lr)
	if err != nil {
		// Unexecutable spec — version skew with the coordinator. Hand the
		// shard back (maybe another worker runs a matching build) and
		// throttle before the next lease.
		log.Printf("robustworker: campaign %s: %v; releasing lease %s", lr.Campaign, err, lr.Lease)
		w.release(ctx, lr)
		sleep(ctx, w.poll)
		return
	}
	label := camp.Spec.MetricLabel()

	// The trial loop runs until the shard is done; sctx aborts it when
	// the lease is lost. runErr is read only after ran is closed, and
	// nothing reaches pending after that.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex
	var pending []dispatch.TrialResult
	take := func() []dispatch.TrialResult {
		mu.Lock()
		defer mu.Unlock()
		got := pending
		pending = nil
		return got
	}
	ran := make(chan struct{})
	var runErr error
	go func() {
		defer close(ran)
		runErr = camp.RunShard(sctx, lr.Shard, w.parallel, harness.Hooks{Sink: func(t harness.Trial) {
			w.stats.observeTrial(label, t.Dur, t.Rate, t.Seed)
			mu.Lock()
			pending = append(pending, dispatch.TrialResult{
				Unit: lr.Shard.Unit, RateIdx: t.RateIdx, TrialIdx: t.TrialIdx,
				Rate: t.Rate, Seed: t.Seed, Value: t.Value,
			})
			mu.Unlock()
		}})
		if runErr == nil || sctx.Err() != nil { // out-of-grid shards never ran
			w.stats.shards.Add(1)
		}
	}()
	// abandon stops the trial loop and waits for it; a campaign the
	// coordinator has just rejected also gets the lease handed back.
	abandon := func() {
		cancel()
		<-ran
		if w.isBad(key) {
			w.release(ctx, lr)
		}
	}

	ttl := lr.TTL
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	heartbeat := time.NewTicker(ttl / 3)
	defer heartbeat.Stop()
	for {
		select {
		case <-ran:
			switch {
			case ctx.Err() != nil:
				// Shutdown mid-shard: best-effort flush of finished trials
				// (without done — the shard is not complete), then leave the
				// lease to expire.
				w.reportDetached(ctx, lr, take())
			case runErr != nil:
				// The shard lies outside the grid this build compiled.
				log.Printf("robustworker: campaign %s: lease %s: %v; releasing", lr.Campaign, lr.Lease, runErr)
				w.release(ctx, lr)
				sleep(ctx, w.poll)
			default:
				w.finish(ctx, lr, key, take())
			}
			return
		case <-heartbeat.C:
			if !w.flush(ctx, lr, key, take()) { // nothing pending is a pure heartbeat
				abandon()
				return
			}
		case <-ctx.Done():
			// Shutdown: stop the trial loop and keep the trials it already
			// finished for the best-effort flush — but never wait on a
			// wedged trial: give it the detached-report budget, then flush
			// whatever was collected and exit regardless.
			cancel()
			t := time.NewTimer(detachedBudget)
			select {
			case <-ran:
			case <-t.C:
			}
			t.Stop()
			w.reportDetached(ctx, lr, take())
			return
		}
	}
}

// flush reports results on a running lease synchronously, with
// done=false, in reports of at most MaxReport, once the report in
// flight has settled; nothing pending is one pure heartbeat. It reports
// whether the shard goes on.
func (w *worker) flush(ctx context.Context, lr *dispatch.LeaseResponse, key string, results []dispatch.TrialResult) bool {
	if w.settle(ctx); w.isBad(key) {
		return false
	}
	for {
		n := min(len(results), dispatch.MaxReport)
		resp, err := w.report(ctx, lr, results[:n], false)
		if !w.accept(lr, resp, err, false) {
			return false
		}
		if results = results[n:]; len(results) == 0 {
			return true
		}
	}
}

// finish delivers a finished shard: all but the last MaxReport results
// synchronously, then the done report in the background, so the next
// lease runs while it is on its way. At most one report is in flight:
// finish first settles the previous one, and a campaign its verdict
// rejected gets the lease handed back instead.
func (w *worker) finish(ctx context.Context, lr *dispatch.LeaseResponse, key string, results []dispatch.TrialResult) {
	if head := len(results) - dispatch.MaxReport; head > 0 {
		if !w.flush(ctx, lr, key, results[:head]) {
			return
		}
		results = results[head:]
	}
	if w.settle(ctx); w.isBad(key) {
		w.release(ctx, lr)
		return
	}
	// The report outlives the loop's context: on shutdown, settle gives
	// it the detached budget instead of cutting it off.
	rctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	p := &inflight{lr: lr, cancel: cancel, done: make(chan struct{})}
	w.inflight = p
	go func() {
		defer close(p.done)
		p.resp, p.err = w.report(rctx, lr, results, true)
	}()
}

// inflight is a done report on its way to the coordinator. Its
// goroutine sets resp and err, then closes done.
type inflight struct {
	lr     *dispatch.LeaseResponse
	cancel context.CancelFunc
	done   chan struct{}
	resp   dispatch.ReportResponse
	err    error
}

// settle waits for the report in flight, if any, and applies its
// verdict. Once ctx is done the report has detachedBudget to finish
// before it is cancelled. The worker settles before every other report,
// on shutdown and before its loop exits.
func (w *worker) settle(ctx context.Context) {
	p := w.inflight
	if p == nil {
		return
	}
	select {
	case <-p.done:
	case <-ctx.Done():
		t := time.NewTimer(detachedBudget)
		select {
		case <-p.done:
		case <-t.C:
			p.cancel()
			<-p.done
		}
		t.Stop()
	}
	p.cancel()
	w.inflight = nil
	w.accept(p.lr, p.resp, p.err, true)
}

// settleIfDone settles the report in flight if it has already finished,
// so a verdict that came in while the worker leased applies to the new
// lease.
func (w *worker) settleIfDone(ctx context.Context) {
	if p := w.inflight; p != nil {
		select {
		case <-p.done:
			w.settle(ctx)
		default:
		}
	}
}

// isBad reports whether the campaign of key is known to be unservable.
func (w *worker) isBad(key string) bool {
	_, bad := w.bad[key]
	return bad
}

// accept applies a report's verdict and reports whether the lease is
// still worth working on. A transport error abandons the lease; a
// Rejected count means the coordinator verified our results against its
// grid and refused them — this build computes different seeds or rates,
// version skew — so re-executing can only reproduce the rejects and the
// whole campaign is marked bad (every later lease of it is released
// immediately); Lost ends a lease that was not done anyway.
func (w *worker) accept(lr *dispatch.LeaseResponse, resp dispatch.ReportResponse, err error, done bool) bool {
	switch {
	case err != nil:
		log.Printf("robustworker: report %s/%s: %v; abandoning shard", lr.Campaign, lr.Lease, err)
		return false
	case resp.Rejected > 0:
		log.Printf("robustworker: coordinator rejected %d result(s) for %s (version skew?); abandoning campaign",
			resp.Rejected, lr.Campaign)
		w.markBad(planKey(lr), fmt.Sprintf("coordinator rejected this build's results (%d in one batch)", resp.Rejected))
		return false
	case resp.Lost && !done:
		log.Printf("robustworker: lease %s/%s lost; abandoning shard", lr.Campaign, lr.Lease)
		return false
	}
	return true
}

// report delivers one batch with a couple of quick retries: a transient
// hiccup should not cost a whole shard, but a coordinator that stays
// unreachable should — the lease will expire and someone else finishes.
func (w *worker) report(ctx context.Context, lr *dispatch.LeaseResponse, results []dispatch.TrialResult, done bool) (resp dispatch.ReportResponse, err error) {
	for attempt := 0; ; attempt++ {
		resp, err = w.cl.Report(ctx, lr.Campaign, lr.Lease, results, done)
		if err == nil {
			w.stats.reports.Add(1)
		}
		if err == nil || attempt >= 2 || ctx.Err() != nil {
			return resp, err
		}
		sleep(ctx, 250*time.Millisecond)
	}
}

// reportDetached flushes computed-but-unreported trials during shutdown,
// after the report in flight, on a short detached deadline so SIGTERM
// still exits promptly.
func (w *worker) reportDetached(ctx context.Context, lr *dispatch.LeaseResponse, results []dispatch.TrialResult) {
	w.settle(ctx)
	if len(results) == 0 {
		return
	}
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), detachedBudget)
	defer cancel()
	w.cl.Report(dctx, lr.Campaign, lr.Lease, results, false)
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
