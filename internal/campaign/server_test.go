package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"robustify/internal/dispatch"
	"robustify/internal/fpu/faultmodel"
	"robustify/internal/job"
)

func newTestServer(t *testing.T, maxConcurrent int) (*httptest.Server, *Manager) {
	t.Helper()
	m := newManager(t, t.TempDir(), maxConcurrent)
	srv := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return srv, m
}

func doJSON(t *testing.T, method, url string, body string, wantCode int, out any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s = %d, want %d; body: %s", method, url, resp.StatusCode, wantCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
}

func waitState(t *testing.T, base, id, want string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st Status
		doJSON(t, "GET", base+"/campaigns/"+id, "", http.StatusOK, &st)
		if st.State == want {
			return st
		}
		if job.Terminal(st.State) {
			t.Fatalf("campaign %s reached %s (err=%q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerConcurrentCampaigns drives the acceptance flow: two campaigns
// submitted concurrently, live status, and results in all three formats.
func TestServerConcurrentCampaigns(t *testing.T) {
	srv, _ := newTestServer(t, 2)
	specs := []string{
		`{"figure":"6.1","quick":true,"trials":2,"seed":21}`,
		`{"custom":{"workload":"sort/robust","rates":[0.05,0.2],"iters":300},"trials":3,"seed":22}`,
	}
	var ids []string
	for _, spec := range specs {
		var resp map[string]string
		doJSON(t, "POST", srv.URL+"/campaigns", spec, http.StatusAccepted, &resp)
		if resp["id"] == "" {
			t.Fatalf("no id in submit response: %v", resp)
		}
		ids = append(ids, resp["id"])
	}

	var list []Status
	doJSON(t, "GET", srv.URL+"/campaigns", "", http.StatusOK, &list)
	if len(list) != 2 {
		t.Fatalf("list = %d campaigns, want 2", len(list))
	}

	for _, id := range ids {
		st := waitState(t, srv.URL, id, StateDone)
		if st.Progress.Done != st.Progress.Total || st.Progress.Total == 0 {
			t.Errorf("%s finished with progress %+v", id, st.Progress)
		}
		if len(st.Units) == 0 || len(st.Units[0].Cells) == 0 {
			t.Errorf("%s status has no live cell statistics", id)
		}
		for _, u := range st.Units {
			for _, c := range u.Cells {
				if c.Done != c.Total {
					t.Errorf("%s cell %+v incomplete after done", id, c)
				}
			}
		}

		// text
		resp, err := http.Get(srv.URL + "/campaigns/" + id + "/results")
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Contains(text, []byte("fault rate")) {
			t.Errorf("%s text results = %d: %q", id, resp.StatusCode, text)
		}
		// csv
		resp, err = http.Get(srv.URL + "/campaigns/" + id + "/results?format=csv")
		if err != nil {
			t.Fatal(err)
		}
		csv, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(csv, []byte("rate,")) {
			t.Errorf("%s csv results = %d: %q", id, resp.StatusCode, csv)
		}
		// json
		var table struct {
			Title  string `json:"title"`
			Series []struct {
				Name   string `json:"name"`
				Points []struct {
					Rate  float64  `json:"rate"`
					Value *float64 `json:"value"`
				} `json:"points"`
			} `json:"series"`
		}
		doJSON(t, "GET", srv.URL+"/campaigns/"+id+"/results?format=json", "", http.StatusOK, &table)
		if table.Title == "" || len(table.Series) == 0 || len(table.Series[0].Points) == 0 {
			t.Errorf("%s json results empty: %+v", id, table)
		}
	}
}

// TestServerCancelResume cancels a campaign over HTTP once a worker has
// made exactly k of its six trials durable (it holds the lease on the
// rest), checks they survived, resumes it in-process over HTTP, and pins
// the final text to an uninterrupted in-process run of the same spec.
func TestServerCancelResume(t *testing.T) {
	srv, m := newTestServer(t, 2)
	m.SetDispatcher(dispatch.New(dispatch.Options{LeaseTTL: time.Minute}))
	spec := Spec{
		Custom: &CustomSweep{Workload: "sort/robust", Rates: []float64{0.05, 0.1, 0.2}, Iters: 2000},
		Trials: 2, Seed: 31,
	}
	wantText, _ := runAll(t, spec)

	body, _ := json.Marshal(spec)
	var resp map[string]string
	doJSON(t, "POST", srv.URL+"/campaigns", string(body), http.StatusAccepted, &resp)
	id := resp["id"]

	const k = 3
	reportTrials(t, srv.URL, k)
	doJSON(t, "POST", srv.URL+"/campaigns/"+id+"/cancel", "", http.StatusOK, nil)
	if err := m.Wait(id); err != nil {
		t.Fatal(err)
	}
	var st Status
	doJSON(t, "GET", srv.URL+"/campaigns/"+id, "", http.StatusOK, &st)
	if st.State != StateCancelled || st.Progress.Done != k {
		t.Fatalf("after cancel = %s %+v (err=%q), want cancelled with %d done", st.State, st.Progress, st.Error, k)
	}

	// Mid-run results must be servable.
	r, err := http.Get(srv.URL + "/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("mid-run results = %d", r.StatusCode)
	}

	m.SetDispatcher(nil) // the resume runs in-process
	doJSON(t, "POST", srv.URL+"/campaigns/"+id+"/resume", "", http.StatusAccepted, nil)
	final := waitState(t, srv.URL, id, StateDone)
	if final.Progress.Done != final.Progress.Total {
		t.Fatalf("resumed campaign incomplete: %+v", final.Progress)
	}
	r, err = http.Get(srv.URL + "/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if string(text) != wantText {
		t.Errorf("resumed results differ from uninterrupted run:\n--- want ---\n%s--- got ---\n%s", wantText, text)
	}
}

// TestServerRecoveredCampaign: a daemon restarted on an existing data dir
// must list the prior campaign as interrupted, serve its partial results
// in all three formats, and resume it over HTTP to a table byte-identical
// to an uninterrupted run.
func TestServerRecoveredCampaign(t *testing.T) {
	spec := Spec{
		Custom: &CustomSweep{Workload: "sort/base", Rates: []float64{0.01, 0.2, 0.5}},
		Trials: 3, Seed: 41,
	}
	wantText, _ := runAll(t, spec)
	root := t.TempDir()
	now := time.Now()
	seedCampaignDir(t, filepath.Join(root, "c0001"), spec, 4, &Meta{
		ID: "c0001", Name: spec.Title(), State: StateRunning, Created: now, Started: &now,
	})

	m := newManager(t, root, 1)
	srv := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})

	var list []Status
	doJSON(t, "GET", srv.URL+"/campaigns", "", http.StatusOK, &list)
	if len(list) != 1 || list[0].ID != "c0001" || list[0].State != StateInterrupted {
		t.Fatalf("recovered list = %+v, want one interrupted c0001", list)
	}
	if list[0].Progress.Done != 4 || list[0].Progress.Total != 9 {
		t.Errorf("recovered progress = %+v, want 4/9", list[0].Progress)
	}

	for _, format := range []string{"", "?format=csv", "?format=json"} {
		resp, err := http.Get(srv.URL + "/campaigns/c0001/results" + format)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("recovered results %q = %d", format, resp.StatusCode)
		}
	}

	doJSON(t, "POST", srv.URL+"/campaigns/c0001/resume", "", http.StatusAccepted, nil)
	waitState(t, srv.URL, "c0001", StateDone)
	resp, err := http.Get(srv.URL + "/campaigns/c0001/results")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(text) != wantText {
		t.Errorf("resumed recovered results differ from uninterrupted run:\n--- want ---\n%s--- got ---\n%s",
			wantText, text)
	}
}

func TestServerErrors(t *testing.T) {
	srv, m := newTestServer(t, 1)
	doJSON(t, "GET", srv.URL+"/healthz", "", http.StatusOK, nil)
	doJSON(t, "GET", srv.URL+"/workloads", "", http.StatusOK, nil)
	doJSON(t, "POST", srv.URL+"/campaigns", `{"figure":"nope"}`, http.StatusBadRequest, nil)
	doJSON(t, "POST", srv.URL+"/campaigns", `{not json`, http.StatusBadRequest, nil)
	doJSON(t, "GET", srv.URL+"/campaigns/c9999", "", http.StatusNotFound, nil)
	doJSON(t, "POST", srv.URL+"/campaigns/c9999/cancel", "", http.StatusNotFound, nil)

	var resp map[string]string
	doJSON(t, "POST", srv.URL+"/campaigns",
		`{"custom":{"workload":"sort/base","rates":[0.01]},"trials":1,"seed":1}`,
		http.StatusAccepted, &resp)
	id := resp["id"]
	waitState(t, srv.URL, id, StateDone)
	r, err := http.Get(fmt.Sprintf("%s/campaigns/%s/results?format=xml", srv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format = %d, want 400", r.StatusCode)
	}
	// Resuming a completed campaign is a conflict.
	doJSON(t, "POST", srv.URL+"/campaigns/"+id+"/resume", "", http.StatusConflict, nil)

	// A body over its endpoint's cap is refused whole, naming the cap —
	// never truncated into a misleading parse error. The report body
	// declares its length; the register body is chunked, so only reading
	// it finds the overflow.
	checkTooLarge(t, srv.URL+"/campaigns", strings.NewReader(strings.Repeat(" ", MaxSpecBytes)+"{}"), MaxSpecBytes)
	m.SetDispatcher(dispatch.New(dispatch.Options{}))
	huge := strings.Repeat(" ", maxWorkerBytes) + "{}"
	checkTooLarge(t, srv.URL+"/workers/report", strings.NewReader(huge), maxWorkerBytes)
	checkTooLarge(t, srv.URL+"/workers/register", io.MultiReader(strings.NewReader(huge)), maxWorkerBytes)
}

// checkTooLarge posts body and expects 413 with an error naming limit.
func checkTooLarge(t *testing.T, url string, body io.Reader, limit int) {
	t.Helper()
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(data), fmt.Sprint(limit)) {
		t.Errorf("POST %s with a body over %d bytes = %d %s; want 413 naming the limit", url, limit, resp.StatusCode, data)
	}
}

// TestServerAdvertisesFaultModels: GET /workloads exposes the selectable
// model families next to the workload registry so remote clients can build
// fault_model specs (and tune grids) without guessing names.
func TestServerAdvertisesFaultModels(t *testing.T) {
	srv, _ := newTestServer(t, 1)
	var resp struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		FaultModels []struct {
			Name  string `json:"name"`
			Knobs []Knob `json:"knobs"`
		} `json:"fault_models"`
	}
	doJSON(t, "GET", srv.URL+"/workloads", "", http.StatusOK, &resp)
	if len(resp.Workloads) == 0 {
		t.Fatal("no workloads advertised")
	}
	var names []string
	knobs := map[string]int{}
	for _, fm := range resp.FaultModels {
		names = append(names, fm.Name)
		knobs[fm.Name] = len(fm.Knobs)
	}
	want := faultmodel.Names()
	if len(names) != len(want) {
		t.Fatalf("advertised models = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("model %d = %q, want %q (advertisement order)", i, names[i], n)
		}
	}
	if knobs["stratified"] == 0 || knobs["burst"] == 0 {
		t.Errorf("parameterized families advertised without knobs: %v", knobs)
	}
	if knobs["default"] != 0 || knobs["memory"] != 0 {
		t.Errorf("parameterless families advertised with knobs: %v", knobs)
	}
}
