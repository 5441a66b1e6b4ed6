package main

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/horam"
	"repro/internal/obs"
	"repro/internal/okv"
	"repro/internal/server"
)

// masterKey is horamd's default -key: the benchmark measures the
// program as shipped, key handling included.
var masterKey = []byte(strings.Repeat("\x2a", 32))

// stack is the system under test, assembled the way cmd/horamd
// assembles it — engine.New over an AES key and a file device, an
// optional okv layer, a server with the engine's registry and a
// disarmed tracer — and reached only through client connections over a
// loopback listener.
type stack struct {
	sp     spec
	opts   engine.Options
	eng    *engine.Engine
	store  *okv.Store
	srv    *server.Server
	reg    *obs.Registry
	tracer *obs.Tracer
	served chan error
	conns  []*client.Client
	setupS float64 // wall time of newStack, KV seeding included

	// orams are the shards' H-ORAM instances, for the storage devices'
	// traffic counters.
	orams []*horam.ORAM
	// Traced pass only (see trace.go): the span store, and the
	// backend the KV layer runs over in place of the engine.
	spans   *traceSet
	kvInner okv.Backend
}

func engineOptions(sp spec, dataDir string) engine.Options {
	opts := []config.Option{
		config.WithBlocks(sp.blocks),
		config.WithBlockSize(sp.blockSize),
		config.WithMemoryBytes(sp.memoryBytes),
		config.WithShards(sp.shards),
		config.WithKey(masterKey),
		config.WithDataDir(dataDir),
	}
	if sp.constantTime {
		opts = append(opts, config.WithConstantTime())
	}
	return config.New(opts...)
}

// newStack builds a fresh stack under dataDir, dials the workload's
// connections and, in KV mode, seeds every connection's keys. models
// holds what the seeding wrote.
func newStack(sp spec, dataDir string) (*stack, []*model, error) {
	start := time.Now()
	s := &stack{sp: sp}
	eng, err := engine.New(engineOptions(sp, dataDir))
	if err != nil {
		return nil, nil, err
	}
	if err := s.serve(eng, false); err != nil {
		return nil, nil, err
	}
	models, err := s.seed()
	if err != nil {
		s.close()
		return nil, nil, err
	}
	s.setupS = time.Since(start).Seconds()
	return s, models, nil
}

// restoreStack resumes the image a checkpoint left in dataDir, as a
// restarted horamd would.
func restoreStack(sp spec, dataDir string) (*stack, error) {
	s := &stack{sp: sp}
	eng, err := engine.Restore(engineOptions(sp, dataDir))
	if err != nil {
		return nil, err
	}
	return s, s.serve(eng, true)
}

// serve wires observability, the KV layer and the server around eng,
// listens on a loopback port and dials the connections. On error
// everything already built is torn down.
func (s *stack) serve(eng *engine.Engine, restored bool) (err error) {
	s.eng = eng
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.orams == nil {
		for i := 0; i < eng.Shards(); i++ {
			s.orams = append(s.orams, eng.Shard(i).Engine())
		}
	}
	s.reg = obs.NewRegistry()
	if s.tracer == nil {
		s.tracer = obs.NewTracer(obs.DefaultTraceSpans)
	}
	eng.Observe(s.reg, s.tracer)
	if s.sp.kv {
		kvOpts := okv.Options{
			Backend:        eng,
			SlotsPerBucket: okv.DefaultSlotsPerBucket,
			MaxValueBytes:  s.sp.kvMaxValue,
			Key:            masterKey,
			ConstantTime:   s.sp.constantTime,
		}
		if s.kvInner != nil {
			kvOpts.Backend = s.kvInner
		}
		if restored {
			s.store, err = okv.Resume(kvOpts, eng.RestoredKVState())
		} else {
			s.store, err = okv.New(kvOpts)
		}
		if err != nil {
			return err
		}
	}
	s.srv, err = server.New(server.Config{Engine: eng, KV: s.store, Metrics: s.reg, Tracer: s.tracer})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	for i := 0; i < s.sp.conns; i++ {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			return err
		}
		s.conns = append(s.conns, c)
	}
	return nil
}

// seed writes every connection's initial keys through its own
// connection, concurrently, and returns the resulting models.
func (s *stack) seed() ([]*model, error) {
	models := make([]*model, s.sp.conns)
	errs := make(chan error, s.sp.conns)
	for i := range models {
		models[i] = newModel(s.sp)
		if !s.sp.kv {
			errs <- nil
			continue
		}
		go func(i int) {
			st, err := newStream(s.sp, -1, i) // seeding values do not depend on -seed
			for k := 0; k < s.sp.kvKeys && err == nil; k++ {
				o := op{kind: opKSet, key: kvKey(i, k), data: st.value()}
				if err = s.conns[i].KSet(o.key, o.data); err == nil {
					models[i].apply(o)
				}
			}
			errs <- err
		}(i)
	}
	var first error
	for range models {
		if err := <-errs; err != nil && first == nil {
			first = fmt.Errorf("seeding: %w", err)
		}
	}
	return models, first
}

// checkpoint saves the engine image the way horamd's checkpointNow
// does: through the KV layer's operation lock when it is enabled.
func (s *stack) checkpoint() error {
	if s.store != nil {
		return s.store.Checkpoint(s.eng.SaveSnapshotKV)
	}
	return s.eng.SaveSnapshot()
}

// close tears the stack down in horamd's shutdown order and waits for
// every goroutine it started.
func (s *stack) close() error {
	var err error
	for _, c := range s.conns {
		err = errors.Join(err, c.Close())
	}
	s.conns = nil
	if s.srv != nil {
		err = errors.Join(err, s.srv.Close())
		// Serve answers ErrClosed when Close won the race to its first
		// line — a stack torn down right after set-up — which is a clean
		// shutdown all the same.
		if s.served != nil {
			if serr := <-s.served; !errors.Is(serr, server.ErrClosed) {
				err = errors.Join(err, serr)
			}
		}
		s.srv = nil
	}
	if s.store != nil {
		s.store.Close()
		s.store = nil
	}
	if s.eng != nil {
		err = errors.Join(err, s.eng.Close())
		s.eng = nil
	}
	return err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
