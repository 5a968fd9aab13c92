package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"robustify/internal/campaign"
	"robustify/internal/dispatch"
	"robustify/internal/tune"
)

// fleet adds robustd's coordinator wiring (-workers-expected 1 at the
// default shard size and lease TTL) to a daemon, serves it on a loopback
// listener, and runs one robustworker child process against it.
type fleet struct {
	disp   *dispatch.Coordinator
	rec    *routeRecorder
	srv    *http.Server
	served chan error
	worker *exec.Cmd
	debug  *addrSniffer
}

func startFleet(d *daemon, bin string, tr *tracer) (*fleet, error) {
	f := &fleet{disp: dispatch.New(dispatch.Options{
		LeaseTTL: 30 * time.Second, ShardSize: 16, WorkersExpected: 1, Events: d.hub,
	})}
	d.m.SetDispatcher(f.disp)
	mux := http.NewServeMux()
	th := tune.NewServer(d.tm)
	mux.Handle("/tune", th)
	mux.Handle("/tune/", th)
	mux.Handle("/", campaign.NewServer(d.m))
	f.rec = &routeRecorder{next: mux}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.srv = &http.Server{Handler: f.rec}
	f.served = make(chan error, 1)
	//lint:goroutinehygiene-exempt served is buffered (size 1), and Serve returns when close calls srv.Close and then receives from served
	go func() { f.served <- f.srv.Serve(ln) }()

	end := tr.begin("robustworker.start_to_registered")
	err = f.spawn(bin, ln.Addr().String())
	end()
	if err != nil {
		return nil, errors.Join(err, f.close())
	}
	return f, nil
}

// spawn starts the worker, its logs discarded except for the line that
// names its debug listener, and waits until the coordinator lists it.
func (f *fleet) spawn(bin, addr string) error {
	f.debug = &addrSniffer{found: make(chan struct{})}
	cmd := exec.Command(bin,
		"-coordinator", "http://"+addr, "-name", "bench",
		"-parallel", strconv.Itoa(workers), "-poll", "10ms", "-debug-addr", "127.0.0.1:0")
	cmd.Stderr = f.debug
	if err := cmd.Start(); err != nil {
		return err
	}
	f.worker = cmd
	deadline := time.Now().Add(30 * time.Second)
	for len(f.disp.Workers()) == 0 {
		if time.Now().After(deadline) {
			return errors.New("robustworker did not register within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// layers derives the dispatch and engine metrics of a traced fleet rep
// from the route recorder and the worker's own /metrics.
func (f *fleet) layers(rs routeStats, wall time.Duration, fresh int) (map[string]float64, error) {
	scrape, err := f.scrape()
	if err != nil {
		return nil, err
	}
	trialSeconds := promSum(bytes.NewReader(scrape), "robustworker_trial_duration_seconds_sum")
	m := engineLayers(trialSeconds, wall, fresh)
	perTrial := func(n float64) float64 { return n / float64(fresh) }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	m["solver.iter_marks_per_trial"] = 0 // sort/base runs no solver; its units live in the worker anyway
	m["dispatch.lease_us_p50"] = us(percentile(rs.leases, 50))
	m["dispatch.lease_us_p90"] = us(percentile(rs.leases, 90))
	m["dispatch.report_us_p50"] = us(percentile(rs.reports, 50))
	m["dispatch.report_us_p90"] = us(percentile(rs.reports, 90))
	m["dispatch.leases_per_ktrial"] = 1000 * perTrial(float64(len(rs.leases)))
	m["dispatch.reports_per_ktrial"] = 1000 * perTrial(float64(len(rs.reports)))
	m["dispatch.empty_lease_frac"] = float64(rs.empty) / float64(max(1, len(rs.leases)+rs.empty))
	m["dispatch.report_bytes_per_trial"] = perTrial(float64(rs.reportBytes))
	m["dispatch.worker_busy_frac"] = trialSeconds / (workers * wall.Seconds())
	m["dispatch.coordinator_busy_frac"] = rs.busy.Seconds() / wall.Seconds()
	return m, nil
}

// scrape fetches the worker's Prometheus exposition.
func (f *fleet) scrape() ([]byte, error) {
	select {
	case <-f.debug.found:
	case <-time.After(10 * time.Second):
		return nil, errors.New("robustworker never logged its debug address")
	}
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + f.debug.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("robustworker /metrics answered %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// close kills the worker and stops the listener.
func (f *fleet) close() error {
	var errs []error
	if f.worker != nil {
		if err := f.worker.Process.Kill(); err != nil {
			errs = append(errs, err)
		}
		// Wait reports the kill itself; it is called to reap the child and
		// its log pipe, not for its verdict.
		_ = f.worker.Wait()
	}
	errs = append(errs, f.srv.Close())
	if err := <-f.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// addrSniffer is the worker's log sink: it discards everything but
// remembers the address the worker's debug listener reports.
type addrSniffer struct {
	buf   []byte
	addr  string
	found chan struct{} // closed once addr is set
}

const debugMarker = "debug endpoints (metrics, pprof) on "

func (s *addrSniffer) Write(p []byte) (int, error) {
	if s.addr != "" {
		return len(p), nil
	}
	s.buf = append(s.buf, p...)
	for {
		i := bytes.IndexByte(s.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(s.buf[:i])
		s.buf = s.buf[i+1:]
		if j := strings.Index(line, debugMarker); j >= 0 {
			s.addr = strings.TrimSpace(line[j+len(debugMarker):])
			s.buf = nil
			close(s.found)
			return len(p), nil
		}
	}
}

// routeRecorder wraps the daemon's handler and records the worker
// routes: every non-2xx answer, and the handler time, granted and empty
// leases, reports and report bytes since the last reset.
type routeRecorder struct {
	next http.Handler

	mu    sync.Mutex
	stats routeStats
}

type routeStats struct {
	failed          int // non-2xx answers on /workers/ routes, never reset
	leases, reports []time.Duration
	empty           int
	reportBytes     int64
	busy            time.Duration
}

func (rr *routeRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/workers/") {
		rr.next.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	t0 := time.Now()
	rr.next.ServeHTTP(sw, r)
	d := time.Since(t0)
	rr.mu.Lock()
	defer rr.mu.Unlock()
	s := &rr.stats
	if sw.code/100 != 2 {
		s.failed++
	}
	s.busy += d
	switch r.URL.Path {
	case "/workers/lease":
		if sw.code == http.StatusNoContent {
			s.empty++
		} else {
			s.leases = append(s.leases, d)
		}
	case "/workers/report":
		s.reports = append(s.reports, d)
		s.reportBytes += r.ContentLength
	}
}

// reset clears everything but the failure count.
func (rr *routeRecorder) reset() {
	rr.mu.Lock()
	rr.stats = routeStats{failed: rr.stats.failed}
	rr.mu.Unlock()
}

func (rr *routeRecorder) snapshot() routeStats {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	s := rr.stats
	s.leases = append([]time.Duration(nil), s.leases...)
	s.reports = append([]time.Duration(nil), s.reports...)
	return s
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// workerBinary builds cmd/robustworker once per run into the run's
// scratch directory, unless the caller supplied a binary.
func (e *env) workerBinary() (string, error) {
	if e.worker != "" {
		return e.worker, nil
	}
	bin, err := buildWorker(e.dir)
	if err != nil {
		return "", err
	}
	e.worker = bin
	return bin, nil
}

// buildWorker compiles cmd/robustworker from the repository's source.
func buildWorker(dir string) (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "robustworker")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/robustworker")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/robustworker: %v\n%s", err, out)
	}
	return bin, nil
}

// repoRoot is the nearest directory, from the working directory up, that
// holds cmd/robustworker.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fi, err := os.Stat(filepath.Join(dir, "cmd", "robustworker")); err == nil && fi.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/robustworker in or above the working directory")
		}
		dir = parent
	}
}
