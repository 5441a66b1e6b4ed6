// Goroutine accounting on shutdown: the store runs every operation on
// its caller's goroutine and owns none of its own, so after Store.Close
// and the engine's Close (which joins its schedulers) the process is
// back at its pre-construction goroutine count.
package okv

import (
	"errors"
	"fmt"
	"runtime"
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
		Blocks:      512,
		BlockSize:   32,
		MemoryBytes: 4 << 10,
		Insecure:    true,
		Seed:        "okv-leak-test",
		Shards:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{
		Backend:       e,
		MaxValueBytes: 48,
		Insecure:      true,
		Seed:          "okv-leak-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Live operations before shutdown.
	for i := 0; i < 32; i++ {
		if err := s.Set([]byte(fmt.Sprintf("leak%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s.Close() // idempotent
	if _, _, err := s.Get([]byte("leak0")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close returned %v, want ErrClosed", err)
	}
	e.Close()
	waitGoroutinesBack(t, base)
}
