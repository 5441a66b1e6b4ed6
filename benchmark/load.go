package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/client"
)

// hardCap bounds a fixed-count (-ops) window; calls not started by
// then count as failed.
const hardCap = 120 * time.Second

// sweepBudget bounds one untimed read-back sweep per connection in a
// benchmark run. The sweep visits the model in a shuffled order, so a
// capped sweep still samples the whole range.
const sweepBudget = 1500 * time.Millisecond

// call is one timed client call: Read, Write, Batch, KGet, KSet or KDel.
type call struct {
	conn       int
	start, end time.Duration // since the window opened
	ops        int
}

// tally counts logical ops over everything a connection sent, timed or
// not: the benchmark's attempted/failed totals.
type tally struct {
	attempted int64
	failed    int64 // ERR replies, transport errors and model mismatches
}

func (t *tally) add(u tally) { t.attempted += u.attempted; t.failed += u.failed }

// window says how much a run measures: seconds of wall clock (with
// seconds/8 of untimed warm-up first), or, when ops > 0, a fixed number
// of logical ops per connection (with ops/16 of warm-up), which makes
// the counters of a single-connection run exactly repeatable. The tests
// shorten the untimed parts.
type window struct {
	seconds float64
	ops     int
	sweep   time.Duration // budget of each read-back sweep after the window
	probe   time.Duration // duration of each isolated probe of a traced run
	setup   time.Duration // budget for set-ups beyond setupMin in an untraced run
}

// conn is one closed-loop caller: a goroutine that sends its stream's
// next call only after the previous reply was checked.
type conn struct {
	c     *client.Client
	st    *stream
	m     *model
	calls []call
	tally tally
	err   error // transport failure that ended the loop early
}

// exec sends ops as one client call and checks every reply against the
// model. It returns the number of ops that failed, and a non-nil error
// only when the connection itself is no longer usable.
func (cn *conn) exec(ops []op) (failed int, err error) {
	if len(ops) > 1 {
		batch := make([]client.Op, len(ops))
		for i, o := range ops {
			batch[i] = client.Op{Write: o.kind == opWrite, Addr: o.addr, Data: o.data}
		}
		res, err := cn.c.Batch(batch)
		if err != nil {
			return len(ops), transportError(err)
		}
		for i, o := range ops {
			if res[i].Err != nil || !cn.m.check(o, res[i].Data, false) {
				failed++
			}
			if res[i].Err == nil {
				cn.m.apply(o)
			}
		}
		return failed, nil
	}
	o := ops[0]
	var got []byte
	var found bool
	switch o.kind {
	case opRead:
		got, err = cn.c.Read(o.addr)
	case opWrite:
		err = cn.c.Write(o.addr, o.data)
	case opKGet:
		got, found, err = cn.c.KGet(o.key)
	case opKSet:
		err = cn.c.KSet(o.key, o.data)
	case opKDel:
		found, err = cn.c.KDel(o.key)
	}
	if err != nil {
		return 1, transportError(err)
	}
	if !cn.m.check(o, got, found) {
		failed = 1
	}
	cn.m.apply(o)
	return failed, nil
}

// transportError returns err when it means the connection is gone and
// nil when it is a well-formed ERR reply, after which the connection
// stays usable. The client package marks reply-level errors only by
// its "client: " prefix.
func transportError(err error) error {
	if strings.HasPrefix(err.Error(), "client: ") && !errors.Is(err, client.ErrClosed) {
		return nil
	}
	return err
}

// loop issues calls until stop says so, timing each against origin, and
// returns how many it completed.
func (cn *conn) loop(perCall int, origin time.Time, record bool, stop func(done int) bool) (done int) {
	ops := make([]op, perCall)
	for ; !stop(done); done++ {
		for i := range ops {
			ops[i] = cn.st.next()
		}
		start := time.Now()
		failed, err := cn.exec(ops)
		end := time.Now()
		cn.tally.attempted += int64(perCall)
		cn.tally.failed += int64(failed)
		if record {
			cn.calls = append(cn.calls, call{conn: cn.st.conn, start: start.Sub(origin), end: end.Sub(origin), ops: perCall})
		}
		if err != nil {
			cn.err = err
			return done + 1
		}
	}
	return done
}

// sweep reads back what the model holds, for at most budget.
func (cn *conn) sweep(seed int64, budget time.Duration) {
	ops := cn.m.sweepOps(blockcipher.NewRNGFromString(fmt.Sprintf("benchmark/sweep/%d/%d", seed, cn.st.conn)))
	per := 1
	if !cn.st.sp.kv {
		per = 8 // block reads go out as small MULTIs
	}
	deadline := time.Now().Add(budget)
	for len(ops) > 0 && cn.err == nil && time.Now().Before(deadline) {
		n := min(per, len(ops))
		failed, err := cn.exec(ops[:n])
		cn.tally.attempted += int64(n)
		cn.tally.failed += int64(failed)
		cn.err = err
		ops = ops[n:]
	}
}

// measured is what one window produced.
type measured struct {
	calls  []call // all connections, sorted by end time
	wall   time.Duration
	ops    int64 // logical ops completed in the window
	failed int64 // of the ops sent so far, warm-up included
	before counters
	after  counters
}

// drive runs warm-up and the measured window on every connection of s.
// The counters are read with all connections idle — after warm-up and
// after the window — so the snapshots are quiescent and exact. arm, if
// set, runs just before the window opens.
func drive(s *stack, models []*model, seed int64, w window, arm func(origin time.Time)) (*measured, []*conn, error) {
	conns := make([]*conn, len(s.conns))
	for i, c := range s.conns {
		st, err := newStream(s.sp, seed, i)
		if err != nil {
			return nil, nil, err
		}
		conns[i] = &conn{c: c, st: st, m: models[i]}
	}
	per := s.sp.multi
	windowCalls := (w.ops + per - 1) / per
	warmCalls := max(1, windowCalls/16)
	warmFor := time.Duration(w.seconds / 8 * float64(time.Second))

	var warm, done sync.WaitGroup
	open := make(chan struct{})
	var origin time.Time
	for _, cn := range conns {
		warm.Add(1)
		done.Add(1)
		go func(cn *conn) {
			defer done.Done()
			warmStart := time.Now()
			cn.loop(per, warmStart, false, func(n int) bool {
				if w.ops > 0 {
					return n >= warmCalls
				}
				return time.Since(warmStart) >= warmFor
			})
			warm.Done()
			<-open
			if cn.err != nil {
				return
			}
			n := cn.loop(per, origin, true, func(n int) bool {
				if w.ops > 0 {
					return n >= windowCalls || time.Since(origin) >= hardCap
				}
				return time.Since(origin).Seconds() >= w.seconds
			})
			if left := int64(windowCalls-n) * int64(per); w.ops > 0 && left > 0 {
				cn.tally.attempted += left // cut off by the hard cap
				cn.tally.failed += left
			}
		}(cn)
	}
	warm.Wait()
	m := &measured{before: s.snapshot()}
	origin = time.Now()
	if arm != nil {
		arm(origin)
	}
	close(open)
	done.Wait()
	m.after = s.snapshot()
	for _, cn := range conns {
		m.calls = append(m.calls, cn.calls...)
		m.failed += cn.tally.failed
		if cn.err != nil {
			return nil, nil, fmt.Errorf("connection %d: %w", cn.st.conn, cn.err)
		}
	}
	if len(m.calls) == 0 {
		return nil, nil, errors.New("no call completed in the measured window")
	}
	sort.Slice(m.calls, func(i, j int) bool { return m.calls[i].end < m.calls[j].end })
	m.wall = m.calls[len(m.calls)-1].end
	for _, c := range m.calls {
		m.ops += int64(c.ops)
	}
	return m, conns, nil
}

// sweepAll runs every connection's read-back sweep concurrently and
// folds the connections' totals into t.
func sweepAll(conns []*conn, seed int64, budget time.Duration, t *tally) error {
	var wg sync.WaitGroup
	for _, cn := range conns {
		wg.Add(1)
		go func(cn *conn) {
			defer wg.Done()
			cn.sweep(seed, budget)
		}(cn)
	}
	wg.Wait()
	for _, cn := range conns {
		t.add(cn.tally)
		cn.tally = tally{}
		if cn.err != nil {
			return fmt.Errorf("sweep on connection %d: %w", cn.st.conn, cn.err)
		}
	}
	return nil
}
