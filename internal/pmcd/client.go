package pmcd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client is the thin HTTP client of the job service — the same one the
// pmcd CLI and the CI smoke job use, so the wire surface is exercised
// end to end wherever it is used.
type Client struct {
	// Base is the server's base URL (e.g. "http://localhost:8433").
	Base string
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
}

// NewClient returns a client for the server at base.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// apiError decodes the server's {"error": ...} envelope.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("pmcd: server: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("pmcd: server: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a job spec and returns its initial status (possibly
// already done, when the store held the fingerprint).
func (c *Client) Submit(ctx context.Context, spec JobSpec) (*JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, apiError(resp)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Events consumes the job's NDJSON status stream, calling fn per line,
// until the job reaches a terminal state (returned) or ctx is done.
func (c *Client) Events(ctx context.Context, id string, fn func(JobStatus)) (*JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var last *JobStatus
	for sc.Scan() {
		var st JobStatus
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			return last, fmt.Errorf("pmcd: bad event line: %w", err)
		}
		if fn != nil {
			fn(st)
		}
		last = &st
		if st.State == StateDone || st.State == StateFailed {
			return last, nil
		}
	}
	if err := sc.Err(); err != nil {
		return last, err
	}
	return last, fmt.Errorf("pmcd: event stream ended before job %s finished", id)
}

// Result fetches a finished job's result body — the exact stored bytes.
// With wait, it blocks server-side until the job finishes.
func (c *Client) Result(ctx context.Context, id string, wait bool) ([]byte, error) {
	path := "/v1/jobs/" + id + "/result"
	if wait {
		path += "?wait=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	return io.ReadAll(resp.Body)
}

// ResultByFingerprint fetches a stored result by content address; ok is
// false when the store has no entry for it.
func (c *Client) ResultByFingerprint(ctx context.Context, fp string) (body []byte, ok bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/results/"+fp, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		body, err = io.ReadAll(resp.Body)
		return body, err == nil, err
	case http.StatusNotFound:
		return nil, false, nil
	}
	return nil, false, apiError(resp)
}

// Stats fetches the service counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var st Stats
	if err := c.getJSON(ctx, "/v1/stats", &st); err != nil {
		return nil, err
	}
	return &st, nil
}
