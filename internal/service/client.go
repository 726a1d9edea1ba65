package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"explframe/internal/report"
	"explframe/internal/scenario"
)

// Client talks to an explframed server.  The zero value is unusable; set
// Base to the server's root URL (e.g. "http://127.0.0.1:8750").
type Client struct {
	// Base is the server's root URL, without a trailing slash.
	Base string
	// HTTP is the underlying client; nil uses http.DefaultClient.
	HTTP *http.Client
}

// httpClient returns the configured or default HTTP client.
func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// url joins the base URL with an endpoint path.
func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.Base, "/") + path
}

// decodeError turns a non-2xx response into an error carrying the server's
// JSON error body when present.
func decodeError(resp *http.Response, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("service: %s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("service: %s", resp.Status)
}

// do issues a request and returns the response body, erroring on non-2xx.
func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("service: reading response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, decodeError(resp, data)
	}
	return data, nil
}

// Submit posts a campaign and returns its status.  Submission is
// idempotent: resubmitting a campaign the server already knows returns the
// existing run's status instead of restarting it.
func (c *Client) Submit(ctx context.Context, camp scenario.Campaign) (CampaignStatus, error) {
	body, err := camp.EncodeJSON()
	if err != nil {
		return CampaignStatus{}, fmt.Errorf("service: %w", err)
	}
	return c.statusCall(ctx, http.MethodPost, "/v1/campaigns", body)
}

// Status fetches one campaign's status.
func (c *Client) Status(ctx context.Context, id string) (CampaignStatus, error) {
	return c.statusCall(ctx, http.MethodGet, "/v1/campaigns/"+id, nil)
}

// statusCall issues a request whose response body is one CampaignStatus.
func (c *Client) statusCall(ctx context.Context, method, path string, body []byte) (CampaignStatus, error) {
	data, err := c.do(ctx, method, path, body)
	if err != nil {
		return CampaignStatus{}, err
	}
	var st CampaignStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return CampaignStatus{}, fmt.Errorf("service: decoding status: %w", err)
	}
	return st, nil
}

// ErrStreamEnded reports a stream that closed (server shutdown or network
// loss) before delivering a terminal status line.  The campaign may still
// be running or resumable; callers typically reconnect or re-submit.
var ErrStreamEnded = errors.New("service: stream ended without terminal status")

// Stream consumes a campaign's JSONL stream, calling fn for every
// per-trial line, and returns the terminal line once the campaign reaches
// a terminal status.  A nil fn discards trial lines.  If fn returns an
// error the stream stops and that error is returned.
func (c *Client) Stream(ctx context.Context, id string, fn func(StreamLine) error) (StreamLine, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/campaigns/"+id+"/stream"), nil)
	if err != nil {
		return StreamLine{}, fmt.Errorf("service: %w", err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return StreamLine{}, fmt.Errorf("service: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return StreamLine{}, decodeError(resp, data)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var l StreamLine
		if err := json.Unmarshal(line, &l); err != nil {
			return StreamLine{}, fmt.Errorf("service: decoding stream line: %w", err)
		}
		if l.Trial < 0 && l.Status != "" {
			return l, nil
		}
		if fn != nil {
			if err := fn(l); err != nil {
				return StreamLine{}, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return StreamLine{}, fmt.Errorf("service: reading stream: %w", err)
	}
	return StreamLine{}, ErrStreamEnded
}

// Report fetches a completed campaign's persisted table, validated through
// report.FromJSON — the same guarantee the store gives local loads.
func (c *Client) Report(ctx context.Context, id string) (*report.Table, error) {
	data, err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id+"/report", nil)
	if err != nil {
		return nil, err
	}
	t, err := report.FromJSON(bytes.TrimSpace(data))
	if err != nil {
		return nil, fmt.Errorf("service: decoding report: %w", err)
	}
	return t, nil
}
