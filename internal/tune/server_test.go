package tune

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"robustify/internal/campaign"
)

// TestJobAPIContract holds both roots robustd serves through
// campaign.MountJobs to the one lifecycle contract its doc comment states.
func TestJobAPIContract(t *testing.T) {
	dir := t.TempDir()
	cm, err := campaign.NewManager(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()
	tm, err := NewManager(filepath.Join(dir, "tunes"), cm)
	if err != nil {
		t.Fatal(err)
	}
	defer tm.Close()

	for _, root := range []struct {
		path, unknown string
		spec, invalid string
		handler       http.Handler
		wait          func(string) error
	}{
		{
			path: "/campaigns", unknown: "c9999",
			spec:    `{"custom":{"workload":"sort/base","rates":[0.01]},"trials":1,"seed":1}`,
			invalid: `{"figure":"nope"}`,
			handler: campaign.NewServer(cm), wait: cm.Wait,
		},
		{
			path: "/tune", unknown: "t9999",
			spec:    `{"workload":"leastsq/cg","rates":[0.02],"trials":2,"seed":3,"knobs":["budget"],"rounds":1}`,
			invalid: `{"workload":"nope"}`,
			handler: NewServer(tm), wait: tm.Wait,
		},
	} {
		t.Run(strings.TrimPrefix(root.path, "/"), func(t *testing.T) {
			ts := httptest.NewServer(root.handler)
			defer ts.Close()
			base := ts.URL + root.path
			call := func(method, path, body string, want int) []byte {
				t.Helper()
				req, err := http.NewRequest(method, base+path, strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatalf("%s %s: %v", method, path, err)
				}
				defer resp.Body.Close()
				data, _ := io.ReadAll(resp.Body)
				if resp.StatusCode != want {
					t.Errorf("%s %s%s = %d %s, want %d", method, root.path, path, resp.StatusCode, data, want)
				}
				return data
			}

			call("POST", "", `{not json`, http.StatusBadRequest)
			call("POST", "", `{"bogus":1}`, http.StatusBadRequest)
			call("POST", "", root.invalid, http.StatusBadRequest)
			tooLarge := call("POST", "", strings.Repeat(" ", campaign.MaxSpecBytes)+"{}", http.StatusRequestEntityTooLarge)
			if !strings.Contains(string(tooLarge), fmt.Sprint(campaign.MaxSpecBytes)) {
				t.Errorf("413 body %s does not name the %d-byte limit", tooLarge, campaign.MaxSpecBytes)
			}
			call("GET", "/"+root.unknown, "", http.StatusNotFound)
			call("POST", "/"+root.unknown+"/cancel", "", http.StatusNotFound)
			call("POST", "/"+root.unknown+"/resume", "", http.StatusConflict)

			var sub struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(call("POST", "", root.spec, http.StatusAccepted), &sub); err != nil || sub.ID == "" {
				t.Fatalf("submit answered id %q (%v)", sub.ID, err)
			}
			if err := root.wait(sub.ID); err != nil {
				t.Fatal(err)
			}
			var cancelled struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal(call("POST", "/"+sub.ID+"/cancel", "", http.StatusOK), &cancelled); err != nil || cancelled.Status != "cancelling" {
				t.Errorf("cancel answered status %q (%v), want cancelling", cancelled.Status, err)
			}
			call("POST", "/"+sub.ID+"/resume", "", http.StatusConflict)
			call("GET", "", "", http.StatusOK)
		})
	}
}
