package fixture

import "repro/internal/ctops"

// pool mimics the constant-time stash's payload pool: payloads sit in
// fixed slots and a secret column names which slot holds each entry.
type pool struct {
	//horam:secret
	phys []int
	data []byte
}

// slot is the helper that hides a secret index: it is not constant-time
// code itself, and its parameter is a slice bound.
func (s *pool) slot(p int) []byte { return s.data[p*8 : (p+1)*8] }

// gather is the safe shape: p only feeds a comparison, never an index.
func (s *pool) gather(v, p int, dst []byte) { //horam:secret p
	for q := range s.phys {
		ctops.CopyBytes(v&ctops.EqInt(q, p), dst, s.slot(q))
	}
}

//horam:constant-time
func readEntry(s *pool, i int, dst []byte) {
	copy(dst, s.slot(s.phys[i])) // want `argument 1 of slot is a memory index or slice bound in the callee and depends on secret "phys"`
	copy(dst, s.slot(i))         // a public index through the same helper
	s.gather(1, s.phys[i], dst)  // a secret that the callee never indexes with
}
