package server

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestHalfSentHeaderIsClosed holds a connection that sends half a request
// header: the listener closes it at the header deadline, while a complete
// request on another connection is still served.
func TestHalfSentHeaderIsClosed(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 200 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHTTPServer(ln.Addr().String(), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 || hs.IdleTimeout != 0 {
		t.Fatalf("timeouts beyond the header deadline: read %v write %v idle %v", hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout)
	}
	go hs.Serve(ln)
	defer hs.Close()

	start := time.Now() // before the dial, so before the server's deadline starts
	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "GET / HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("complete request: status %d", resp.StatusCode)
	}

	// The server answers a timed-out header with a 408 (or nothing) and
	// closes; either way a read reaches EOF well before the test's bound.
	slow.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(slow)
	for {
		if _, err := r.ReadByte(); err != nil {
			if err != io.EOF {
				t.Fatalf("half-sent header: want the connection closed, got %v", err)
			}
			break
		}
	}
	if took := time.Since(start); took < readHeaderTimeout {
		t.Fatalf("closed after %v, before the %v deadline", took, readHeaderTimeout)
	}
}
