// Command robustworker executes fault-injection trial shards for a
// robustd coordinator (started with -workers-expected > 0). It is the
// scale-out half of distributed campaigns: register with the
// coordinator, poll for a shard lease, compile the campaign's spec with
// the exact code the coordinator used, execute the shard's trials —
// every value is determined by (spec, unit, rate index, trial index)
// alone, so any worker produces bit-identical results — and stream
// record batches back, which double as lease-renewing heartbeats.
//
// The worker is disposable by design: SIGKILL one mid-shard and the
// coordinator reassigns its lease after the TTL; nothing is lost but the
// unreported trials, which the next worker re-executes to the same
// values. It also survives the coordinator: connection errors back off
// and retry, and an "unknown worker" answer (the signature of a
// coordinator restart) just triggers re-registration.
//
// Usage:
//
//	robustworker -coordinator http://host:8080 [-name NAME] [-poll 250ms]
//	             [-parallel N] [-batch 32] [-debug-addr ADDR]
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
		batch       = fs.Int("batch", 32, "max trial results per report (capped at 4096)")
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
	if *batch <= 0 {
		*batch = 32
	}
	// Report bodies must stay far inside the coordinator's request-size
	// cap (8 MiB); 4096 results is ~400 KB of JSON.
	if *batch > 4096 {
		*batch = 4096
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
		batch:    *batch,
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
		//lint:goroutinehygiene-exempt the deferred dln.Close() above ends Serve (net.ErrClosed) when run returns
		go func() {
			if err := http.Serve(dln, dmux); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("robustworker: debug server: %v", err)
			}
		}()
		log.Printf("robustworker: debug endpoints (metrics, pprof) on %s", dln.Addr())
	}
	log.Printf("robustworker: %s serving coordinator %s (parallel %d, batch %d)",
		*name, *coordinator, *parallel, *batch)
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
	batch    int
	stats    *wstats
	// plans caches compiled campaigns by id+spec, so one compile serves
	// every shard of a campaign; bad remembers specs this build cannot
	// compile, so version skew is detected without recompiling per lease.
	plans map[string]*campaign.Campaign
	bad   map[string]string
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
			// The coordinator restarted and forgot the fleet; start over.
			log.Printf("robustworker: coordinator forgot %s (restart?); re-registering", w.cl.WorkerID())
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

// plan returns the compiled campaign for a lease, cached per (campaign,
// spec) so recompilation never happens per shard; compile failures are
// cached too.
func (w *worker) plan(lr *dispatch.LeaseResponse) (*campaign.Campaign, error) {
	key := planKey(lr)
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
	if _, err := w.cl.Report(ctx, lr.Campaign, lr.Lease, nil, true); err != nil && ctx.Err() == nil {
		log.Printf("robustworker: release %s/%s: %v", lr.Campaign, lr.Lease, err)
	}
}

// runShard executes one leased shard: Campaign.RunShard runs the trials
// on a goroutine of their own — the trial loop local campaigns use —
// while this goroutine batches results back to the coordinator,
// flushing on batch size, on a heartbeat tick (TTL/3, so a slow trial
// never lets the lease lapse), and finally with done=true. A lost lease
// or a dead coordinator abandons the shard; whatever was not reported is
// somebody else's work after the TTL.
func (w *worker) runShard(ctx context.Context, lr *dispatch.LeaseResponse) {
	camp, err := w.plan(lr)
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
	// the lease is lost. runErr is read only after results is closed.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan dispatch.TrialResult, w.parallel)
	var runErr error
	go func() {
		defer close(results)
		runErr = camp.RunShard(sctx, lr.Shard, w.parallel, harness.Hooks{Sink: func(t harness.Trial) {
			if t.Cached {
				return // a Skip index: already durable at the coordinator
			}
			w.stats.observeTrial(label, t.Dur, t.Rate, t.Seed)
			select {
			case results <- dispatch.TrialResult{
				Unit: lr.Shard.Unit, RateIdx: t.RateIdx, TrialIdx: t.TrialIdx,
				Rate: t.Rate, Seed: t.Seed, Value: t.Value,
			}:
			case <-sctx.Done():
			}
		}})
		if runErr == nil || sctx.Err() != nil { // out-of-grid shards never ran
			w.stats.shards.Add(1)
		}
	}()

	ttl := lr.TTL
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	heartbeat := time.NewTicker(ttl / 3)
	defer heartbeat.Stop()
	var pending []dispatch.TrialResult
	flush := func(done bool) bool {
		resp, err := w.report(ctx, lr, pending, done)
		if err != nil {
			log.Printf("robustworker: report %s/%s: %v; abandoning shard", lr.Campaign, lr.Lease, err)
			return false
		}
		if resp.Rejected > 0 {
			// The coordinator verified our results against its grid and
			// refused them: this build computes different seeds or rates —
			// version skew. Re-executing can only reproduce the rejects, so
			// stop serving this campaign entirely (the bad-cache makes every
			// later lease of it release immediately).
			log.Printf("robustworker: coordinator rejected %d result(s) for %s (version skew?); abandoning campaign",
				resp.Rejected, lr.Campaign)
			w.markBad(planKey(lr), fmt.Sprintf("coordinator rejected this build's results (%d in one batch)", resp.Rejected))
			return false
		}
		if resp.Lost && !done {
			log.Printf("robustworker: lease %s/%s lost; abandoning shard", lr.Campaign, lr.Lease)
			return false
		}
		pending = nil
		return true
	}
	abandon := func() {
		cancel()
		for range results {
		} // let the trial loop wind down
	}
	for {
		select {
		case res, ok := <-results:
			if !ok {
				switch {
				case ctx.Err() != nil:
					// Shutdown mid-shard: best-effort flush of finished trials
					// (without done — the shard is not complete), then leave the
					// lease to expire.
					w.reportDetached(lr, pending)
				case runErr != nil:
					// The shard lies outside the grid this build compiled.
					log.Printf("robustworker: campaign %s: lease %s: %v; releasing", lr.Campaign, lr.Lease, runErr)
					w.release(ctx, lr)
					sleep(ctx, w.poll)
				default:
					flush(true)
				}
				return
			}
			pending = append(pending, res)
			if len(pending) >= w.batch {
				if !flush(false) {
					abandon()
					return
				}
			}
		case <-heartbeat.C:
			if !flush(false) { // empty pending is a pure heartbeat
				abandon()
				return
			}
		case <-ctx.Done():
			// Shutdown: stop the trial loop and keep trials it already
			// finished (buffered in results) for the best-effort flush —
			// but never wait on a wedged trial: collect only what arrives
			// within the detached-report budget, then exit regardless.
			cancel()
			drainDeadline := time.After(2 * time.Second)
		drain:
			for {
				select {
				case r, ok := <-results:
					if !ok {
						break drain
					}
					pending = append(pending, r)
				case <-drainDeadline:
					break drain
				}
			}
			w.reportDetached(lr, pending)
			return
		}
	}
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
// on a short detached deadline so SIGTERM still exits promptly.
func (w *worker) reportDetached(lr *dispatch.LeaseResponse, results []dispatch.TrialResult) {
	if len(results) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	w.cl.Report(ctx, lr.Campaign, lr.Lease, results, false)
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
