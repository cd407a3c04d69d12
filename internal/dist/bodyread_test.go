package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// TestReadBodySizedOnce: a body whose declared length is within the limit
// is read into one buffer of that length plus bytes.MinRead; an unknown or
// over-limit length still reads the whole body.
func TestReadBodySizedOnce(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 5000)
	n := int64(len(body))
	for _, tc := range []struct {
		name            string
		declared, limit int64
		sized           bool
	}{
		{"declared", n, 1 << 30, true},
		{"declared at the limit", n, n, true},
		{"unknown length", -1, 1 << 30, false},
		{"declared over the limit", n, n - 1, false},
	} {
		got, err := readBody(bytes.NewReader(body), tc.declared, tc.limit)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%s: read %d bytes, err %v", tc.name, len(got), err)
		}
		if sized := cap(got) == len(body)+bytes.MinRead; sized != tc.sized {
			t.Errorf("%s: cap %d for %d bytes, sized once = %v, want %v", tc.name, cap(got), len(body), sized, tc.sized)
		}
	}
}

// listening starts a coordinator with a listener, for tests that write
// raw HTTP to it.
func listening(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	cfg.Logf = t.Logf
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// rawResultPost sends a result POST by hand over one connection: a header
// declaring contentLength, then body, then a half-close. It returns the
// response's status and structured error code.
func rawResultPost(t *testing.T, c *Coordinator, contentLength int64, body []byte) (int, string) {
	t.Helper()
	conn, err := net.Dial("tcp", c.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: coordinator\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n", pathResult, contentLength)
	if _, err := conn.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck // an empty code fails the caller's check
	return resp.StatusCode, e.Error
}

// TestResultLyingLengthReservesNothing: a result POST that declares the
// whole MaxResultBytes (2 GiB by default) but sends 10 bytes fails with
// 400 read_failed, and reading it allocates less than maxPresize.
func TestResultLyingLengthReservesNothing(t *testing.T) {
	c := listening(t, Config{})
	if c.cfg.MaxResultBytes <= maxPresize {
		t.Fatalf("MaxResultBytes %d does not exceed maxPresize %d", c.cfg.MaxResultBytes, maxPresize)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	status, code := rawResultPost(t, c, c.cfg.MaxResultBytes, []byte("0123456789"))
	runtime.ReadMemStats(&after)
	if status != http.StatusBadRequest || code != "read_failed" {
		t.Errorf("lying Content-Length: HTTP %d %q, want 400 read_failed", status, code)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= maxPresize {
		t.Errorf("reading a 10-byte body that declared %d allocated %d bytes, want < %d", c.cfg.MaxResultBytes, alloc, maxPresize)
	}
}

// TestResultOverLimitRejected: a result POST that declares (and sends)
// more than MaxResultBytes still gets 413 result_too_large.
func TestResultOverLimitRejected(t *testing.T) {
	c := listening(t, Config{MaxResultBytes: 1024})
	body := []byte(strings.Repeat("x", 2048))
	if status, code := rawResultPost(t, c, int64(len(body)), body); status != http.StatusRequestEntityTooLarge || code != "result_too_large" {
		t.Errorf("over-limit result: HTTP %d %q, want 413 result_too_large", status, code)
	}
}
