package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// Client is the worker side of the lease protocol: a thin HTTP client
// for robustd's /workers endpoints. It is safe for concurrent use: a
// worker reports from one goroutine while it leases, and re-registers,
// from another.
type Client struct {
	base string
	name string
	hc   *http.Client
	reg  atomic.Pointer[RegisterResponse] // nil until Register, and after Forget
}

// NewClient creates a client for the coordinator at base (e.g.
// "http://coordinator:8080") identifying itself as name.
func NewClient(base, name string) *Client {
	return &Client{
		base: base,
		name: name,
		hc:   &http.Client{Timeout: 30 * time.Second},
	}
}

// Registered reports whether the client holds a worker id.
func (c *Client) Registered() bool { return c.reg.Load() != nil }

// WorkerID returns the coordinator-assigned id ("" before Register).
func (c *Client) WorkerID() string {
	if r := c.reg.Load(); r != nil {
		return r.Worker
	}
	return ""
}

// LeaseTTL returns the coordinator's lease TTL (0 before Register).
func (c *Client) LeaseTTL() time.Duration {
	if r := c.reg.Load(); r != nil {
		return r.LeaseTTL
	}
	return 0
}

// Forget drops the worker id so the next Register starts fresh — called
// after ErrUnknownWorker, i.e. after a coordinator restart.
func (c *Client) Forget() { c.reg.Store(nil) }

// Register announces the worker and stores the assigned id and TTL.
func (c *Client) Register(ctx context.Context) error {
	var resp RegisterResponse
	if err := c.post(ctx, "/workers/register", RegisterRequest{Name: c.name}, &resp); err != nil {
		return err
	}
	if resp.Worker == "" {
		return fmt.Errorf("dispatch: register: coordinator assigned no worker id")
	}
	c.reg.Store(&resp)
	return nil
}

// Lease asks for a shard. A nil response with nil error means the
// coordinator has no pending work; ErrUnknownWorker means the
// coordinator forgot us (restart) — Forget, Register, retry.
func (c *Client) Lease(ctx context.Context) (*LeaseResponse, error) {
	var resp LeaseResponse
	ok, err := c.send(ctx, "/workers/lease", LeaseRequest{Worker: c.WorkerID()}, &resp)
	if err != nil || !ok {
		return nil, err
	}
	return &resp, nil
}

// Report delivers a result batch (possibly empty — a heartbeat) for a
// lease; done releases it. The response says whether to abandon the
// shard (Lost) and how many results the coordinator refused (Rejected —
// the version-skew signal). The body is encoded by AppendReport, without
// reflection, in the bytes json.Marshal would produce.
func (c *Client) Report(ctx context.Context, campaign, lease string, results []TrialResult, done bool) (ReportResponse, error) {
	req := ReportRequest{Worker: c.WorkerID(), Campaign: campaign, Lease: lease, Results: results, Done: done}
	body, err := AppendReport(make([]byte, 0, 128+80*len(results)), &req)
	if err != nil {
		return ReportResponse{}, err
	}
	var resp ReportResponse
	err = c.post(ctx, "/workers/report", body, &resp)
	return resp, err
}

// post is send for a request that must be answered with a body.
func (c *Client) post(ctx context.Context, path string, req, resp any) error {
	ok, err := c.send(ctx, path, req, resp)
	if err == nil && !ok {
		return fmt.Errorf("dispatch: %s: unexpected empty response", path)
	}
	return err
}

// send POSTs req, JSON-encoded unless it is an encoded body already, and
// decodes the response into resp; ok is false on 204 No Content (no
// work). 404 maps to ErrUnknownWorker — these endpoints have no other
// not-found cause.
func (c *Client) send(ctx context.Context, path string, req, resp any) (ok bool, err error) {
	body, encoded := req.([]byte)
	if !encoded {
		if body, err = json.Marshal(req); err != nil {
			return false, err
		}
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	hr.Header.Set("Content-Type", "application/json")
	res, err := c.hc.Do(hr)
	if err != nil {
		return false, err
	}
	defer res.Body.Close()
	// The cap mirrors the coordinator's request cap: a lease response
	// embeds the campaign spec, which submit accepts up to 1 MiB, so the
	// read limit must sit comfortably above it or near-cap specs would
	// truncate every lease.
	data, err := io.ReadAll(io.LimitReader(res.Body, 8<<20))
	if err != nil {
		return false, err
	}
	switch res.StatusCode {
	case http.StatusOK:
		if err := json.Unmarshal(data, resp); err != nil {
			return false, fmt.Errorf("dispatch: %s: bad response %q: %w", path, data, err)
		}
		return true, nil
	case http.StatusNoContent:
		return false, nil
	case http.StatusNotFound:
		// The worker endpoints answer 404 only for an unknown worker id;
		// any other 404 body is a plain routing miss (-coordinator pointing
		// at the wrong path or a non-robustd server) and must surface as
		// itself, not as the re-register-forever signal.
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && strings.Contains(e.Error, "unknown worker") {
			return false, ErrUnknownWorker
		}
		return false, fmt.Errorf("dispatch: %s: coordinator answered 404: %s", path, bytes.TrimSpace(data))
	default:
		return false, fmt.Errorf("dispatch: %s: coordinator answered %d: %s", path, res.StatusCode, bytes.TrimSpace(data))
	}
}
