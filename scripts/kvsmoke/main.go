// Command kvsmoke is the end-to-end KV smoke test CI runs: it starts
// a horamd with -kv and -data-dir, drives KSET/KGET/KDEL over the
// wire from concurrent clients, kills the daemon with SIGTERM,
// restarts it from the same directory, and verifies the table
// survived — live keys read back their values, deleted keys stay
// gone, and the kv_* STATS counters resumed.
//
//	go build -o /tmp/horamd ./cmd/horamd
//	go run ./scripts/kvsmoke -horamd /tmp/horamd
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"sync"

	"repro/internal/client"
	"repro/scripts/daemon"
)

const (
	blocks     = 4096
	blockSize  = 128
	memBytes   = 1 << 20
	shards     = 2
	kvMaxValue = 256
	keys       = 96
	clients    = 4
)

func main() {
	horamd := flag.String("horamd", "", "path to the horamd binary (required)")
	keep := flag.Bool("keep", false, "keep the data directory for inspection")
	flag.Parse()
	if *horamd == "" {
		log.Fatal("kvsmoke: -horamd is required")
	}
	dir, err := os.MkdirTemp("", "kvsmoke-*")
	if err != nil {
		log.Fatal(err)
	}
	if !*keep {
		defer os.RemoveAll(dir)
	}
	if err := run(*horamd, dir); err != nil {
		log.Fatalf("kvsmoke: FAIL: %v", err)
	}
	fmt.Println("kvsmoke: PASS")
}

func keyOf(i int) []byte { return []byte(fmt.Sprintf("user-%03d", i)) }

func valOf(i int) []byte {
	v := bytes.Repeat([]byte{byte(i)}, 1+(i*7)%kvMaxValue)
	copy(v, fmt.Sprintf("record-%d", i))
	return v
}

// startDaemon launches horamd and waits until it accepts connections.
func startDaemon(bin, dir, addr string) (*exec.Cmd, error) {
	return daemon.Start(bin,
		"-addr", addr,
		"-blocks", fmt.Sprint(blocks),
		"-blocksize", fmt.Sprint(blockSize),
		"-mem", fmt.Sprint(memBytes),
		"-shards", fmt.Sprint(shards),
		"-kv",
		"-kv-max-value", fmt.Sprint(kvMaxValue),
		"-data-dir", dir,
		"-checkpoint", "0", // rely on save-on-shutdown: the SIGTERM path under test
	)
}

func run(bin, dir string) error {
	addr, err := daemon.FreePort()
	if err != nil {
		return err
	}

	// Boot 1: populate the table from concurrent clients, delete a
	// deterministic subset, spot-check, then SIGTERM.
	cmd, err := startDaemon(bin, dir, addr)
	if err != nil {
		return err
	}
	if err := populate(addr); err != nil {
		cmd.Process.Kill()
		return err
	}
	if err := daemon.Stop("horamd", cmd); err != nil {
		return fmt.Errorf("first shutdown: %w", err)
	}

	// Boot 2: restart from the same directory; the whole table state
	// must read back.
	cmd, err = startDaemon(bin, dir, addr)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer daemon.Stop("horamd", cmd)
	return verify(addr)
}

// populate writes keys 0..keys-1 from concurrent clients and deletes
// every fourth one.
func populate(addr string) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close() //horam:errok smoke-test teardown; the assertions already ran
			for i := w; i < keys; i += clients {
				if err := c.KSet(keyOf(i), valOf(i)); err != nil {
					errs[w] = fmt.Errorf("KSET %d: %w", i, err)
					return
				}
			}
			for i := w; i < keys; i += clients {
				if i%4 != 0 {
					continue
				}
				existed, err := c.KDel(keyOf(i))
				if err != nil || !existed {
					errs[w] = fmt.Errorf("KDEL %d: existed=%v err=%v", i, existed, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// verify reads the whole key space back after the restart.
func verify(addr string) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close() //horam:errok smoke-test teardown; the assertions already ran
	for i := 0; i < keys; i++ {
		v, ok, err := c.KGet(keyOf(i))
		if err != nil {
			return fmt.Errorf("KGET %d after restart: %w", i, err)
		}
		if i%4 == 0 {
			if ok {
				return fmt.Errorf("key %d was deleted before the restart but read back %q", i, v)
			}
			continue
		}
		if !ok || !bytes.Equal(v, valOf(i)) {
			return fmt.Errorf("key %d after restart = (%d bytes, %v), want %d bytes", i, len(v), ok, len(valOf(i)))
		}
	}
	// The counters resumed with the table (live keys = 3/4 of the set)
	// and the restarted daemon keeps serving mutations.
	kv, err := c.Stats()
	if err != nil {
		return err
	}
	st, err := client.ParseStats(kv)
	if err != nil {
		return fmt.Errorf("parsing STATS after restart: %w", err)
	}
	if st.KV == nil || st.KV.Count != keys-keys/4 {
		return fmt.Errorf("kv group after restart = %+v, want %d live keys", st.KV, keys-keys/4)
	}
	if err := c.KSet([]byte("post-restart"), []byte("works")); err != nil {
		return fmt.Errorf("KSET after restart: %w", err)
	}
	if v, ok, err := c.KGet([]byte("post-restart")); err != nil || !ok || string(v) != "works" {
		return fmt.Errorf("KGET after restart = (%q, %v, %v)", v, ok, err)
	}
	return nil
}
