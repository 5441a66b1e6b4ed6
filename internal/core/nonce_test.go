package core

import (
	"fmt"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/snapshot"
)

// nonceLog records the 16-byte nonce prefix of every sealed record a
// test sees written, per sealing key, and remembers where each was
// first seen. AESSealer is AES-GCM: one (key, nonce) pair sealing two
// different records would leak their XOR and forge tags, so a repeat
// is a security failure, not a statistic.
type nonceLog struct {
	t       *testing.T
	seen    map[string]map[[16]byte]string // key → nonce → first site
	records int
}

func (l *nonceLog) add(key string, sealed []byte, site string) {
	l.t.Helper()
	if l.seen[key] == nil {
		l.seen[key] = make(map[[16]byte]string)
	}
	nonce := [16]byte(sealed)
	if first, ok := l.seen[key][nonce]; ok {
		l.t.Fatalf("%s key: nonce %x sealed at %s repeats the one sealed at %s", key, nonce, site, first)
	}
	l.seen[key][nonce] = site
	l.records++
}

// slotWatch hooks both devices of one booted client and reads every
// written slot back the moment the hook reports it. Sim reports a
// write after its bytes land; File does too when it writes slot by
// slot, which a periodic fsync policy makes it do.
type slotWatch struct {
	log           *nonceLog
	c             *Client
	boot          string
	devs          map[string]device.Backend
	storageWrites int
}

func watch(l *nonceLog, c *Client, boot string) *slotWatch {
	w := &slotWatch{
		log:  l,
		c:    c,
		boot: boot,
		devs: map[string]device.Backend{"memory": c.Engine().Mem(), "storage": c.Engine().Stor()},
	}
	for name, dev := range w.devs {
		buf := make([]byte, dev.SlotSize())
		dev.SetHook(func(_ string, op device.Op, slot int64) {
			if op != device.OpWrite {
				return
			}
			if err := dev.ReadRaw(slot, buf); err != nil {
				l.t.Fatal(err)
			}
			l.add("data", buf, fmt.Sprintf("%s %s slot %d", boot, name, slot))
			if name == "storage" {
				w.storageWrites++
			}
		})
	}
	return w
}

// writesN issues n single-block writes.
func (w *slotWatch) writesN(n int, rng *blockcipher.RNG) {
	w.log.t.Helper()
	for i := 0; i < n; i++ {
		addr := rng.Int63n(w.c.Blocks())
		if err := w.c.Write(addr, payloadFor(addr, i, w.c.BlockSize())); err != nil {
			w.log.t.Fatalf("%s: Write: %v", w.boot, err)
		}
	}
}

// image records every slot of both devices as they stand: the fresh
// layout Open seals through the unmetered setup path, which no hook
// sees.
func (w *slotWatch) image() {
	w.log.t.Helper()
	for name, dev := range w.devs {
		buf := make([]byte, dev.SlotSize())
		for slot := int64(0); slot < dev.Slots(); slot++ {
			if err := dev.ReadRaw(slot, buf); err != nil {
				w.log.t.Fatal(err)
			}
			w.log.add("data", buf, fmt.Sprintf("%s initial %s slot %d", w.boot, name, slot))
		}
	}
}

// snapshotNonce records the nonce of the sealed state.snap the client
// just wrote (a checkpoint, or the epoch bump a Restore persists).
func (l *nonceLog) snapshotNonce(c *Client, site string) {
	l.t.Helper()
	sealed, err := snapshot.ReadFile(c.statePath())
	if err != nil {
		l.t.Fatal(err)
	}
	l.add("snapshot", sealed, site)
}

// TestNoNonceRepeatsAcrossRestore: the data sealer's key survives
// every restart (pre-crash ciphertext must still open) and its nonce
// counter restarts at 1 on every boot, so nonce uniqueness across
// boots rests on the nonce RNG: a durable client seeds it with fresh
// entropy on every boot. The test records the nonce of every record
// written to either device, and of every sealed snapshot, over fresh
// open → writes → checkpoint → crash → fresh open over the same
// directory (what a daemon does when it finds no usable snapshot) →
// writes → checkpoint → writes → crash → Restore → writes → crash →
// Restore → writes, and requires no (key, nonce) pair to repeat. The
// second fresh open boots at the same epoch as the first, so no
// persisted epoch can keep the two apart.
func TestNoNonceRepeatsAcrossRestore(t *testing.T) {
	opts := durableOpts(t.TempDir())
	// A periodic fsync policy makes device.File write (and report)
	// slot by slot instead of in one pwritev per run; a period this
	// long never actually syncs.
	opts.FsyncEvery = 1 << 30
	log := &nonceLog{t: t, seen: make(map[string]map[[16]byte]string)}
	rng := blockcipher.NewRNGFromString("nonce-restore")
	// Few enough writes after the last checkpoint that no shuffle
	// starts: a storage write past the checkpoint makes the image
	// stale, and Restore rightly refuses it.
	const lost = 6

	var c *Client
	for _, boot := range []string{"open 1", "open 2"} {
		var err error
		c, err = Open(opts)
		if err != nil {
			t.Fatalf("%s: Open: %v", boot, err)
		}
		defer c.Close()
		if c.Epoch() != 0 {
			t.Fatalf("%s: fresh Open booted epoch %d, want 0", boot, c.Epoch())
		}
		w := watch(log, c, boot)
		w.image()
		w.writesN(300, rng)
		if c.Stats().Shuffles == 0 {
			t.Fatalf("%s never shuffled; grow the workload so storage writes are covered", boot)
		}
		if err := c.SaveSnapshot(); err != nil {
			t.Fatalf("%s: SaveSnapshot: %v", boot, err)
		}
		log.snapshotNonce(c, boot+" checkpoint")
		stor := w.storageWrites
		w.writesN(lost, rng)
		if w.storageWrites != stor {
			t.Fatal("writes after the checkpoint reached storage; lower lost so the crash stays restorable")
		}
		// Crash: no checkpoint, no Close.
	}

	for epoch := uint64(1); epoch <= 2; epoch++ {
		r, err := Restore(opts)
		if err != nil {
			t.Fatalf("Restore to epoch %d: %v", epoch, err)
		}
		defer r.Close()
		if r.Epoch() != epoch {
			t.Fatalf("Restore booted epoch %d, want %d", r.Epoch(), epoch)
		}
		boot := fmt.Sprintf("epoch %d", epoch)
		log.snapshotNonce(r, boot+" persisted bump")
		w := watch(log, r, boot)
		if epoch == 1 {
			w.writesN(lost, rng) // then crash again
			continue
		}
		w.writesN(300, rng)
		if r.Stats().Shuffles == c.Stats().Shuffles {
			t.Fatal("the last boot never shuffled; grow the workload so storage writes are covered")
		}
	}
	if n := len(log.seen["snapshot"]); n != 4 {
		t.Fatalf("recorded %d snapshot seals, want 4", n)
	}
	t.Logf("%d sealed records, no (key, nonce) repeats", log.records)
}
