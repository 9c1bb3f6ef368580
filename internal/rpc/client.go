package rpc

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"net/http"
)

// maxErrorBody caps how much of an error response the client reads while
// looking for the coded envelope; anything bigger is a broken peer.
const maxErrorBody = 1 << 16

// Client speaks the shard wire protocol to one replica. It is a thin,
// stateless codec around an *http.Client — retries, failover, and
// health tracking live in Group, one level up. Safe for concurrent use.
type Client struct {
	base string // "http://host:port", no trailing slash
	hc   *http.Client
}

// NewClient builds a client for the replica at base (scheme://host:port).
// hc is the HTTP client to use; nil uses a private client with default
// transport settings (connection pooling, keep-alives). Per-call
// deadlines come from the caller's context, not from hc.Timeout — Group
// derives each attempt's deadline from its caller's context.
func NewClient(base string, hc *http.Client) *Client {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{base: base, hc: hc}
}

// Base returns the replica's base URL (the identity used in metrics
// labels and error messages).
func (c *Client) Base() string { return c.base }

// do posts one gob-encoded request and decodes the response into out.
// Failures of the transport itself come back as *TransportError;
// a coded envelope decodes into the canonical error it names; the
// caller's own context error takes precedence over both.
func (c *Client) do(ctx context.Context, path string, in, out any) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(in); err != nil {
		return fmt.Errorf("rpc: encoding %T: %w", in, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, &body)
	if err != nil {
		return fmt.Errorf("rpc: building request: %w", err)
	}
	hreq.Header.Set("Content-Type", ContentType)
	hres, err := c.hc.Do(hreq)
	if err != nil {
		// The caller's context outranks the transport: a cancelled or
		// expired attempt is the caller's outcome, not the replica's
		// fault.
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return &TransportError{Replica: c.base, Err: err}
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		return c.decodeError(hres)
	}
	if err := gob.NewDecoder(hres.Body).Decode(out); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return &TransportError{Replica: c.base, Err: fmt.Errorf("decoding %T: %w", out, err)}
	}
	return nil
}

// decodeError extracts the coded envelope from a non-200 response; a
// response without one (a proxy error page, a truncated body) is a
// transport failure.
func (c *Client) decodeError(hres *http.Response) error {
	var we Error
	if err := gob.NewDecoder(io.LimitReader(hres.Body, maxErrorBody)).Decode(&we); err != nil || we.Code == "" {
		return &TransportError{Replica: c.base,
			Err: fmt.Errorf("status %d with no coded envelope", hres.StatusCode)}
	}
	return codeToError(we.Code, we.Msg)
}

// Search runs one search request against the replica.
func (c *Client) Search(ctx context.Context, req SearchRequest) (SearchResponse, error) {
	var resp SearchResponse
	if err := c.do(ctx, PathSearch, &req, &resp); err != nil {
		return SearchResponse{}, err
	}
	return resp, nil
}

// Health probes the replica, returning its identity on success.
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathHealth, nil)
	if err != nil {
		return HealthResponse{}, fmt.Errorf("rpc: building request: %w", err)
	}
	hres, err := c.hc.Do(hreq)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return HealthResponse{}, cerr
		}
		return HealthResponse{}, &TransportError{Replica: c.base, Err: err}
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		return HealthResponse{}, c.decodeError(hres)
	}
	var resp HealthResponse
	if err := gob.NewDecoder(hres.Body).Decode(&resp); err != nil {
		return HealthResponse{}, &TransportError{Replica: c.base, Err: fmt.Errorf("decoding health: %w", err)}
	}
	return resp, nil
}
