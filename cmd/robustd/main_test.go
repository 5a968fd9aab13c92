package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"robustify/internal/campaign"
	"robustify/internal/dispatch"
	"robustify/internal/harness"
)

// TestMain doubles the test binary as the daemon itself: with
// ROBUSTD_TEST_CHILD set it runs robustd's real main loop instead of the
// tests, so the kill-and-restart e2e can SIGKILL an actual OS process
// rather than simulate a crash in-process.
func TestMain(m *testing.M) {
	if os.Getenv("ROBUSTD_TEST_CHILD") == "1" {
		if err := run(os.Args[1:], nil); err != nil {
			fmt.Fprintln(os.Stderr, "robustd:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// listenRe extracts the bound address from robustd's startup log line.
var listenRe = regexp.MustCompile(`listening on ([^,]+),`)

// stderrWatch collects the child's stderr and announces the listen
// address once it appears.
type stderrWatch struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addrc chan string
}

func (s *stderrWatch) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf.Write(p)
	if m := listenRe.FindSubmatch(s.buf.Bytes()); m != nil {
		select {
		case s.addrc <- string(m[1]):
		default:
		}
	}
	return len(p), nil
}

func (s *stderrWatch) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// startDaemon boots a robustd child process with the given extra flags on
// an ephemeral port and returns it with its HTTP base URL.
func startDaemon(t *testing.T, data string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-data", data}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ROBUSTD_TEST_CHILD=1")
	watch := &stderrWatch{addrc: make(chan string, 1)}
	cmd.Stderr = watch
	if err := cmd.Start(); err != nil {
		t.Fatalf("start daemon: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	select {
	case addr := <-watch.addrc:
		return cmd, "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never announced its address; stderr:\n%s", watch)
		return nil, ""
	}
}

// sigkillDaemon kills the child the way a crash would: no signal handler
// runs, no shutdown path executes.
func sigkillDaemon(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill daemon: %v", err)
	}
	cmd.Wait() // exits non-zero ("signal: killed"); only reaping matters
}

type statusJSON struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error"`
	Progress struct{ Done, Total int }
}

func getStatus(t *testing.T, base, id string) statusJSON {
	t.Helper()
	resp, err := http.Get(base + "/campaigns/" + id)
	if err != nil {
		t.Fatalf("status %s: %v", id, err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s = %d: %s", id, resp.StatusCode, data)
	}
	var st statusJSON
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("status body %q: %v", data, err)
	}
	return st
}

func submitSpec(t *testing.T, base, spec string) string {
	t.Helper()
	resp, err := http.Post(base+"/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var out map[string]string
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("submit response %q: %v", data, err)
	}
	return out["id"]
}

// reportTrials is a robustworker that stops part way: it leases from the
// daemon at base and executes and reports exactly k trials, each finished
// lease as done, then returns holding the lease it stopped in. Exactly k
// trials are then durable, and the rest of that lease waits out its TTL:
// the point at which the test kills the daemon.
func reportTrials(t *testing.T, base string, k int) {
	t.Helper()
	ctx := context.Background()
	cl := dispatch.NewClient(base, "partial")
	if err := cl.Register(ctx); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < k; {
		lr, err := cl.Lease(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if lr == nil { // nothing dispatched yet
			time.Sleep(time.Millisecond)
			continue
		}
		spec, err := campaign.ParseSpec(lr.Spec)
		if err != nil {
			t.Fatal(err)
		}
		camp, err := campaign.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		sh := lr.Shard
		sh.Count = min(sh.Count, k-n)
		var results []dispatch.TrialResult
		if err := camp.RunShard(ctx, sh, 1, func(tr harness.Trial) {
			results = append(results, dispatch.TrialResult{
				Unit: sh.Unit, RateIdx: tr.RateIdx, TrialIdx: tr.TrialIdx,
				Rate: tr.Rate, Seed: tr.Seed, Value: tr.Value,
			})
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Report(ctx, lr.Campaign, lr.Lease, results, sh.Count == lr.Shard.Count); err != nil {
			t.Fatal(err)
		}
		n += len(results)
	}
}

func waitDone(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := getStatus(t, base, id)
		if st.State == "done" {
			return
		}
		if st.State == "failed" || st.State == "cancelled" {
			t.Fatalf("campaign %s ended %s: %s", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func fetchResults(t *testing.T, base, id, format string) string {
	t.Helper()
	url := base + "/campaigns/" + id + "/results"
	if format != "" {
		url += "?format=" + format
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("results %s: %v", id, err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results %s (%s) = %d: %s", id, format, resp.StatusCode, data)
	}
	return string(data)
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, nil); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunBadAddr(t *testing.T) {
	if err := run([]string{"-addr", "not-an-addr", "-data", t.TempDir()}, nil); err == nil {
		t.Error("bad addr accepted")
	}
}

// TestServeEndToEnd boots the daemon on an ephemeral port, drives the
// submit → status → results flow over real HTTP, and shuts down via
// SIGINT like a deployed process would.
func TestServeEndToEnd(t *testing.T) {
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-data", t.TempDir(), "-shutdown-timeout", "10s"}, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	spec := `{"custom":{"workload":"sort/base","rates":[0.01,0.2]},"trials":2,"seed":1}`
	resp, err = http.Post(base+"/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var submitResp map[string]string
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &submitResp); err != nil {
		t.Fatalf("submit response %q: %v", body, err)
	}
	id := submitResp["id"]

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/campaigns/" + id)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		var status struct {
			State    string `json:"state"`
			Progress struct{ Done, Total int }
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(data, &status); err != nil {
			t.Fatalf("status body %q: %v", data, err)
		}
		if status.State == "done" {
			if status.Progress.Done != status.Progress.Total {
				t.Fatalf("done with progress %+v", status.Progress)
			}
			break
		}
		if status.State == "failed" || status.State == "cancelled" {
			t.Fatalf("campaign ended %s: %s", status.State, data)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign stuck in %s", status.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err = http.Get(base + "/campaigns/" + id + "/results?format=csv")
	if err != nil {
		t.Fatalf("results: %v", err)
	}
	csv, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(csv), "rate,") {
		t.Fatalf("csv results = %d: %q", resp.StatusCode, csv)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	for _, line := range []string{
		`robustd_campaigns{state="done"} 1`,
		"robustd_trials_completed_total 4",
		"robustd_dispatch_enabled 0",
	} {
		if !strings.Contains(string(metrics), line) {
			t.Errorf("metrics missing %q:\n%s", line, metrics)
		}
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatalf("sigint: %v", err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestTuneEndToEnd boots the daemon and drives the parameter-search API
// over real HTTP: submit a tune spec, poll to completion, check the
// winning configuration and the durable trace, and confirm the
// evaluation campaigns are ordinary campaigns under /campaigns.
func TestTuneEndToEnd(t *testing.T) {
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-data", t.TempDir(), "-shutdown-timeout", "10s"}, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	spec := `{"workload":"leastsq/cg","rates":[0.02],"trials":2,"seed":3,"knobs":["budget"],"rounds":1}`
	resp, err := http.Post(base+"/tune", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("submit tune: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit tune = %d: %s", resp.StatusCode, body)
	}
	var submitResp map[string]string
	if err := json.Unmarshal(body, &submitResp); err != nil {
		t.Fatalf("submit response %q: %v", body, err)
	}
	id := submitResp["id"]

	deadline := time.Now().Add(30 * time.Second)
	var status struct {
		State string             `json:"state"`
		Error string             `json:"error"`
		Final map[string]float64 `json:"final"`
		Evals []struct {
			Campaign string `json:"campaign"`
		} `json:"evals"`
	}
	for {
		resp, err := http.Get(base + "/tune/" + id)
		if err != nil {
			t.Fatalf("tune status: %v", err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(data, &status); err != nil {
			t.Fatalf("tune status body %q: %v", data, err)
		}
		if status.State == "done" {
			break
		}
		if status.State == "failed" {
			t.Fatalf("tune failed: %s", status.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("tune stuck in %s", status.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := status.Final["budget"]; !ok {
		t.Errorf("final config missing the searched knob: %v", status.Final)
	}
	if len(status.Evals) == 0 {
		t.Fatal("no evaluations recorded")
	}

	// The trace endpoint serves the durable search state.
	resp, err = http.Get(base + "/tune/" + id + "/trace")
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	traceBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(traceBody), `"evals"`) {
		t.Fatalf("trace = %d: %s", resp.StatusCode, traceBody)
	}

	// Every evaluation is an ordinary campaign, visible and done.
	resp, err = http.Get(base + "/campaigns/" + status.Evals[0].Campaign)
	if err != nil {
		t.Fatalf("eval campaign: %v", err)
	}
	campBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(campBody), `"done"`) {
		t.Fatalf("eval campaign = %d: %s", resp.StatusCode, campBody)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatalf("sigint: %v", err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestKillRestartRecovery is the restart-durability acceptance test: a
// robustd process is SIGKILLed (no shutdown path runs) mid-campaign, a
// new daemon on the same data dir must list the campaign as interrupted
// with exact progress, serve its partial results in all three formats,
// and resume it to a table byte-identical to an uninterrupted run. A
// second kill then checks that -autoresume finishes orphaned work with no
// operator involvement. Each killed daemon dispatches to one worker
// (-workers-expected 1) that reports exactly k trials and holds the lease
// on the rest, so the kill lands at a chosen trial; each restarted daemon
// has no fleet and resumes in-process.
func TestKillRestartRecovery(t *testing.T) {
	data := t.TempDir()
	spec := `{"custom":{"workload":"sort/robust","rates":[0.05,0.1,0.2],"iters":3000},"trials":2,"seed":77}`
	const total, k = 6, 2

	// Boot 1: submit, let the worker make k trials durable, then die
	// like a crash.
	cmd1, base1 := startDaemon(t, data, "-workers-expected", "1")
	id := submitSpec(t, base1, spec)
	reportTrials(t, base1, k)
	sigkillDaemon(t, cmd1)

	// Boot 2: plain restart. The campaign must be recovered as interrupted
	// with its durable progress intact.
	cmd2, base2 := startDaemon(t, data)
	st := getStatus(t, base2, id)
	if st.State != "interrupted" {
		t.Fatalf("state after restart = %s, want interrupted", st.State)
	}
	if st.Progress.Done != k || st.Progress.Total != total {
		t.Fatalf("recovered progress = %+v, want %d of %d", st.Progress, k, total)
	}
	var list []statusJSON
	resp, err := http.Get(base2 + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("list body %q: %v", body, err)
	}
	if len(list) != 1 || list[0].ID != id {
		t.Fatalf("restarted list = %+v, want just %s", list, id)
	}
	for _, format := range []string{"", "csv", "json"} {
		fetchResults(t, base2, id, format) // partial results must be servable
	}

	// Resume over HTTP: only the missing trials run; the table must be
	// byte-identical to an uninterrupted run of the same spec (freshly
	// executed below as a second campaign).
	resp, err = http.Post(base2+"/campaigns/"+id+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume = %d", resp.StatusCode)
	}
	waitDone(t, base2, id)
	resumedText := fetchResults(t, base2, id, "")
	resumedCSV := fetchResults(t, base2, id, "csv")

	fresh := submitSpec(t, base2, spec)
	if fresh == id {
		t.Fatalf("fresh submit reused recovered id %s", id)
	}
	waitDone(t, base2, fresh)
	if want := fetchResults(t, base2, fresh, ""); resumedText != want {
		t.Errorf("kill+resume results differ from uninterrupted run:\n--- want ---\n%s--- got ---\n%s",
			want, resumedText)
	}
	if want := fetchResults(t, base2, fresh, "csv"); resumedCSV != want {
		t.Errorf("kill+resume CSV differs from uninterrupted run")
	}

	// Kill a dispatching daemon mid-campaign as well, then let a plain
	// -autoresume boot finish the orphan without any resume call. Boot 2
	// is idle; killing it only frees the data root.
	sigkillDaemon(t, cmd2)
	cmd3, base3 := startDaemon(t, data, "-workers-expected", "1")
	third := submitSpec(t, base3, spec)
	reportTrials(t, base3, k)
	sigkillDaemon(t, cmd3)
	if lines := countLines(t, filepath.Join(data, third, "trials.jsonl")); lines != k {
		t.Fatalf("killed campaign %s left %d durable trials, want %d", third, lines, k)
	}
	_, base4 := startDaemon(t, data, "-autoresume")
	waitDone(t, base4, third)
	if want := fetchResults(t, base4, fresh, ""); fetchResults(t, base4, third, "") != want {
		t.Error("auto-resumed results differ from uninterrupted run")
	}
	resp, err = http.Get(base4 + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	list = nil
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("final list %q: %v", body, err)
	}
	if len(list) != 3 {
		t.Fatalf("final list = %d campaigns, want 3: %s", len(list), body)
	}
	for _, s := range list {
		if s.State != "done" {
			t.Errorf("campaign %s = %s after autoresume boot, want done", s.ID, s.State)
		}
	}
}

// countLines returns the number of lines in the file at path.
func countLines(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(b, []byte("\n"))
}
