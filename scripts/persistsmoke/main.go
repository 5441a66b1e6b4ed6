// Command persistsmoke is the end-to-end durability smoke test CI
// runs: it starts a horamd with -data-dir, writes a known data set
// over the wire, kills the daemon with SIGTERM between batches,
// restarts it from the same directory, and verifies every block reads
// back with the contents written before the kill.
//
//	go build -o /tmp/horamd ./cmd/horamd
//	go run ./scripts/persistsmoke -horamd /tmp/horamd
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"

	"repro/internal/client"
	"repro/scripts/daemon"
)

const (
	blocks    = 4096
	blockSize = 64
	memBytes  = 1 << 20
	shards    = 2
	writes    = 200
)

func main() {
	horamd := flag.String("horamd", "", "path to the horamd binary (required)")
	keep := flag.Bool("keep", false, "keep the data directory for inspection")
	flag.Parse()
	if *horamd == "" {
		log.Fatal("persistsmoke: -horamd is required")
	}
	dir, err := os.MkdirTemp("", "persistsmoke-*")
	if err != nil {
		log.Fatal(err)
	}
	if !*keep {
		defer os.RemoveAll(dir)
	}
	if err := run(*horamd, dir); err != nil {
		log.Fatalf("persistsmoke: FAIL: %v", err)
	}
	fmt.Println("persistsmoke: PASS")
}

func payload(addr int64) []byte {
	p := make([]byte, blockSize)
	copy(p, fmt.Sprintf("smoke-block-%d", addr))
	return p
}

// startDaemon launches horamd and waits until it accepts connections.
func startDaemon(bin, dir, addr string) (*exec.Cmd, error) {
	return daemon.Start(bin,
		"-addr", addr,
		"-blocks", fmt.Sprint(blocks),
		"-blocksize", fmt.Sprint(blockSize),
		"-mem", fmt.Sprint(memBytes),
		"-shards", fmt.Sprint(shards),
		"-data-dir", dir,
		"-checkpoint", "0", // rely on save-on-shutdown: the SIGTERM path under test
	)
}

func run(bin, dir string) error {
	addr, err := daemon.FreePort()
	if err != nil {
		return err
	}

	// Boot 1: fresh store, write the data set in MULTI batches.
	cmd, err := startDaemon(bin, dir, addr)
	if err != nil {
		return err
	}
	c, err := client.Dial(addr)
	if err != nil {
		cmd.Process.Kill()
		return err
	}
	written := make(map[int64]bool)
	var ops []client.Op
	for i := 0; i < writes; i++ {
		a := int64(i * (blocks / writes))
		written[a] = true
		ops = append(ops, client.Op{Write: true, Addr: a, Data: payload(a)})
	}
	for off := 0; off < len(ops); off += 64 {
		end := off + 64
		if end > len(ops) {
			end = len(ops)
		}
		results, err := c.Batch(ops[off:end])
		if err != nil {
			cmd.Process.Kill()
			return fmt.Errorf("write batch: %w", err)
		}
		for i, r := range results {
			if r.Err != nil {
				cmd.Process.Kill()
				return fmt.Errorf("write %d: %w", off+i, r.Err)
			}
		}
	}
	c.Close() //horam:errok smoke-test teardown; the assertions already ran

	// Kill between batches: SIGTERM drains, checkpoints, exits.
	if err := daemon.Stop("horamd", cmd); err != nil {
		return fmt.Errorf("first shutdown: %w", err)
	}

	// Boot 2: restart from the same directory and read everything
	// back — written blocks carry their payloads, untouched ones zeros.
	cmd, err = startDaemon(bin, dir, addr)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer daemon.Stop("horamd", cmd)
	c, err = client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close() //horam:errok smoke-test teardown; the assertions already ran
	for a := int64(0); a < blocks; a += blocks / (writes * 2) {
		got, err := c.Read(a)
		if err != nil {
			return fmt.Errorf("read %d after restart: %w", a, err)
		}
		want := make([]byte, blockSize)
		if written[a] {
			want = payload(a)
		}
		if hex.EncodeToString(got) != hex.EncodeToString(want) {
			return fmt.Errorf("block %d after restart = %q, want %q", a, got, want)
		}
	}
	return nil
}
