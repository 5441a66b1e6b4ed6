// Goroutine accounting on shutdown: Server.Close must join every
// connection goroutine and the accept loop — with clients
// still attached and traffic in flight — returning the process to its
// pre-construction goroutine count once the engine closes too.
package server

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

func waitGoroutinesBack(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCloseReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e, err := engine.New(engine.Options{
		Blocks:      256,
		BlockSize:   32,
		MemoryBytes: 4 << 10,
		Insecure:    true,
		Seed:        "server-leak-test",
		Shards:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Attach live clients and leave them connected across Close: the
	// reader goroutines must be unblocked by Close itself, not by
	// clients politely hanging up.
	conns := make([]net.Conn, 0, 4)
	for i := 0; i < 4; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		fmt.Fprintf(conn, "READ %d\n", i)
		resp, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil || !strings.HasPrefix(resp, "OK") {
			t.Fatalf("conn %d: READ -> %q, %v", i, resp, err)
		}
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
	for _, c := range conns {
		c.Close()
	}
	e.Close()
	waitGoroutinesBack(t, base)
}
